"""Structured pruning of attention modules in small transformer forecasters.

The package trains an encoder-only forecasting transformer, scores each
attention layer by the dispersion of its mask-gradient sensitivities,
removes the lowest-scoring layers, finetunes, and reports the accuracy and
cost deltas.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless the
environment already sets it. The model's GEMMs are small, and a second
BLAS thread spends its time spinning, not computing. The setting only
takes effect when ``spat`` is imported before numpy. Instead, spat runs
the second half of the windows of a large forecast, training or scoring
batch on a thread it starts for that batch, when the process's CPU
affinity holds more than one CPU: carried through the whole model (and,
training and scoring, back). A batch that runs as one part runs on the
calling thread, and ``taskset -c 0`` runs everything there. Raising
``OPENBLAS_NUM_THREADS`` makes BLAS threads compete with that lane thread
for the cores. Outputs are the same bytes at any thread count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    ContractError,
    NumericError,
    ParseError,
    ShapeError,
    SpatError,
)
from .model import Forecaster, ModelConfig
from .pipeline import run_pipeline, run_sweep
from .send import build_plan, compute_sensitivity, send_score
from .tensor import Tape, Tensor, mse_loss

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "ExperimentConfig",
    "Forecaster",
    "ModelConfig",
    "NumericError",
    "ParseError",
    "ShapeError",
    "SpatError",
    "Tape",
    "Tensor",
    "__version__",
    "build_plan",
    "compute_sensitivity",
    "load_config",
    "mse_loss",
    "run_pipeline",
    "run_sweep",
    "send_score",
]

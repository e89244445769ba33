"""Structured pruning of attention modules in small transformer forecasters.

The package trains an encoder-only forecasting transformer, scores each
attention layer by the dispersion of its mask-gradient sensitivities,
removes the lowest-scoring layers, finetunes, and reports the accuracy and
cost deltas.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless the
environment already sets it. The model's GEMMs are small, and a second
BLAS thread spends its time spinning, not computing. The setting only
takes effect when ``spat`` is imported before numpy. Instead, spat hands
numpy work to one helper thread of its own, when the process's CPU
affinity holds more than one CPU: attention's batch chunks and the GELU's
``erf`` on large arrays, backward's parameter and probe gradients, a
training forward's dropout keep masks, and the second half of the windows
of a large untaped forecast, carried through the whole encoder.
``taskset -c 0`` runs everything on the calling thread. Raising
``OPENBLAS_NUM_THREADS`` makes BLAS threads compete with that helper for
the cores. Outputs are the same bytes at any thread count.
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

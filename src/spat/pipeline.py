"""Multi-stage pruning job: pretrain, score, prune, finetune, evaluate.

All randomness flows from one master seed, which derives independent
model-init, batch-shuffle and dropout streams per stage, so a pruning-stage
change never perturbs the data order seen by training. Two runs with the
same config and seed produce byte-identical metric ledgers; wall-clock
timings are written to a separate file for that reason.

``prepare`` does the setup once: the dataset, its windows per split (a
split the stages cannot use fails here, before any training), the model
config and the seed streams. The stage functions (``pretrain_stage``,
``score_stage``, ``finetune_stage`` and ``ratio_stage``, which prunes and
finetunes at one ratio) work on what it returns and time their main call
on it. ``run_pipeline`` is a sweep of the config's one ratio into the run
directory, ``run_sweep`` one of several into subdirectories, and the CLI
subcommands are compositions of the stages too.
"""

from __future__ import annotations

import csv
import logging
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .config import ExperimentConfig, OptimizerConfig, serialize_config
from .cost import CostReport, MetricAccumulator, build_cost_report, format_cost_report
from .data import (
    SeriesDataset,
    WindowSpec,
    batch_iterator,
    dataset_windows,
    generate_synthetic,
    load_csv,
    split,
)
from .errors import ConfigError, ContractError, NumericError
from .model import Forecaster, ModelConfig, clone_model
from .send import PruningPlan, compute_sensitivity, format_report, plan_from_records

logger = logging.getLogger(__name__)

LEDGER_FIELDS = ("stage", "dataset", "horizon", "mse", "mae", "flops", "params")

STAGE_PRETRAIN = 1
STAGE_FINETUNE = 2


class SeedStreams:
    """Independent RNG streams derived from one master seed."""

    def __init__(self, master: int):
        self.master = int(master)

    def model_init(self):
        return [self.master, 0]

    def shuffle(self, stage: int, epoch: int):
        return [self.master, stage, 1, epoch]

    def dropout_rng(self, stage: int, step: int) -> np.random.Generator:
        return np.random.default_rng([self.master, stage, 2, step])


class Adam:
    """Adam with bias correction; moments are shaped like their parameters."""

    def __init__(self, named_params, opt: OptimizerConfig):
        self.params = list(named_params)
        self.beta1, self.beta2, self.eps = opt.beta1, opt.beta2, opt.eps
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / (1.0 - b1 ** self.t)
            v_hat = self.v[name] / (1.0 - b2 ** self.t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)


def cosine_lr(base: float, lr_min: float, epoch: int, total_epochs: int) -> float:
    frac = epoch / total_epochs
    return lr_min + 0.5 * (base - lr_min) * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    best_val: float | None
    epochs_run: int


def _train_loop(model: Forecaster, train_windows, val_windows,
                opt: OptimizerConfig, epochs: int, lr: float,
                seeds: SeedStreams, stage: int, stage_name: str) -> TrainResult:
    """Train ``model`` with Adam for up to ``epochs`` epochs of shuffled
    batches. Each step is :meth:`Forecaster.backprop` of the batch's MSE
    loss with dropout drawn from the step's generator, which runs a batch
    of many windows as two lanes with the one-CPU bytes; a non-finite loss
    raises :class:`NumericError`. With validation windows, the best
    validation state is restored at the end, and ``patience`` epochs
    without improvement stop early."""
    x_train, y_train = train_windows
    x_val, y_val = val_windows
    if len(x_train) == 0:
        raise ContractError(f"{stage_name}: no training windows")
    if epochs == 0:
        return TrainResult(None, 0)

    has_val = len(x_val) > 0
    optimizer = Adam(model.named_parameters(), opt)
    best_state = model.state_dict() if has_val else None
    best_val = math.inf
    epochs_since_best = 0
    step = 0
    for epoch in range(epochs):
        lr_epoch = cosine_lr(lr, opt.lr_min, epoch, epochs)
        batch_losses = []
        for batch in batch_iterator(x_train, y_train, opt.batch_size,
                                    shuffle_seed=seeds.shuffle(stage, epoch)):
            value = model.backprop(batch.x, batch.y,
                                   seeds.dropout_rng(stage, step))
            if not math.isfinite(value):
                raise NumericError(
                    f"{stage_name} diverged: loss {value} at epoch {epoch}, "
                    f"step {step}")
            optimizer.step(lr_epoch)
            model.zero_grad()
            batch_losses.append(value)
            step += 1
        entry = {"epoch": epoch, "lr": lr_epoch,
                 "train_loss": float(np.mean(batch_losses))}
        if has_val:
            entry["val_loss"] = evaluate_loss(model, x_val, y_val, opt.batch_size)
            if entry["val_loss"] < best_val:
                best_val = entry["val_loss"]
                best_state = model.state_dict()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
        logger.info("%s epoch %d: %s", stage_name, epoch, entry)
        if has_val and opt.patience is not None and epochs_since_best >= opt.patience:
            logger.info("%s early stop at epoch %d (best val %.6f)",
                        stage_name, epoch, best_val)
            break
    if has_val:
        model.load_state_dict(best_state)
        return TrainResult(best_val, epoch + 1)
    return TrainResult(None, epoch + 1)


def pretrain(model: Forecaster, train_windows, val_windows,
             opt: OptimizerConfig, seeds: SeedStreams) -> TrainResult:
    """Train from the current weights, keeping the best-validation state."""
    return _train_loop(model, train_windows, val_windows, opt,
                       epochs=opt.epochs, lr=opt.lr, seeds=seeds,
                       stage=STAGE_PRETRAIN, stage_name="pretrain")


def finetune(model: Forecaster, train_windows, val_windows,
             opt: OptimizerConfig, seeds: SeedStreams) -> TrainResult:
    """Same loop as pretrain with fresh optimizer state and a smaller
    default epoch budget (half of pretraining, rounded up)."""
    epochs = (opt.finetune_epochs if opt.finetune_epochs is not None
              else math.ceil(opt.epochs / 2))
    lr = opt.finetune_lr if opt.finetune_lr is not None else opt.lr
    return _train_loop(model, train_windows, val_windows, opt,
                       epochs=epochs, lr=lr, seeds=seeds,
                       stage=STAGE_FINETUNE, stage_name="finetune")


def evaluate_loss(model: Forecaster, x: np.ndarray, y: np.ndarray,
                  batch_size: int) -> float:
    """Average of per-batch MSE losses (the loss scoring differentiates)."""
    losses = [float(np.mean((model.forecast(b.x) - b.y) ** 2))
              for b in batch_iterator(x, y, batch_size)]
    if not losses:
        raise ContractError("evaluate_loss: no windows")
    return float(np.mean(losses))


def evaluate_metrics(model: Forecaster, x: np.ndarray, y: np.ndarray,
                     batch_size: int = 64) -> dict:
    """Pooled element-mean MSE/MAE, independent of batch partitioning."""
    acc = MetricAccumulator()
    for b in batch_iterator(x, y, batch_size):
        acc.add(model.forecast(b.x), b.y)
    if acc.count == 0:
        raise ContractError("evaluate_metrics: no windows")
    return {"mse": acc.mse, "mae": acc.mae}


def prune(model: Forecaster, plan: PruningPlan) -> Forecaster:
    """New model with the planned attention sublayers removed.

    Retained weights are untouched; the input model is not modified.
    """
    n = len(model.blocks)
    for i in plan.i_pruned:
        if not 0 <= i < n:
            raise ContractError(f"plan prunes layer {i} of an {n}-layer model")
        if model.blocks[i].pruned:
            raise ContractError(f"layer {i} is already pruned")
    pruned = clone_model(model)
    for i in plan.i_pruned:
        pruned.blocks[i].remove_attention()
    return pruned


def iterative_prune(model: Forecaster, batches, k: int,
                    records: list | None = None) -> tuple[Forecaster, list[int]]:
    """Remove k layers one at a time, rescoring the remainder after each
    removal. Ties prune the higher layer index first, matching the
    single-shot ranking rule. ``records``, if given, are
    ``compute_sensitivity(model, batches)``'s, already computed: the first
    removal uses them instead of scoring ``model`` again."""
    current = clone_model(model)
    removed = []
    for _ in range(k):
        if records is None:
            records = compute_sensitivity(current, batches)
        worst = min(records, key=lambda r: (r.send, -r.layer_index))
        current.blocks[worst.layer_index].remove_attention()
        removed.append(worst.layer_index)
        records = None
    return current, removed


def check_fits(model: Forecaster, dataset: SeriesDataset, spec: WindowSpec) -> None:
    """``ConfigError`` unless ``model`` takes ``dataset``'s windows of ``spec``."""
    cfg = model.cfg
    if spec.lookback != cfg.lookback or spec.horizon != cfg.horizon:
        raise ConfigError(
            f"checkpoint expects lookback {cfg.lookback} / horizon "
            f"{cfg.horizon}, got {spec.lookback} / {spec.horizon}")
    if cfg.mode == "variate_tokens" and dataset.channels != cfg.channels:
        raise ConfigError(
            f"variate-token checkpoint expects {cfg.channels} channels, "
            f"dataset {dataset.name!r} has {dataset.channels}")


def zero_shot_eval(model: Forecaster, dataset: SeriesDataset, spec: WindowSpec,
                   batch_size: int = 64) -> dict:
    """Frozen-checkpoint metrics on an unseen dataset's test split.

    The target dataset's own training-split statistics normalize its
    windows; no weights are updated.
    """
    check_fits(model, dataset, spec)
    x, y = dataset_windows(dataset, "test", spec)
    if len(x) == 0:
        raise ConfigError(f"dataset {dataset.name!r} has no test windows "
                          f"for this window spec")
    return evaluate_metrics(model, x, y, batch_size)


# -- dataset / run assembly ------------------------------------------------


def load_dataset(cfg: ExperimentConfig) -> SeriesDataset:
    data = cfg.data
    if data.source == "synthetic":
        raw = generate_synthetic(data.synthetic, name=data.dataset_name())
    else:
        raw = load_csv(data.path, date_column=data.date_column,
                       name=data.dataset_name())
    return split(raw, ratios=data.split_ratios, counts=data.split_counts,
                 names=data.SPLIT_FIELDS)


def ledger_row(stage: str, dataset: str, horizon: int, metrics: dict,
               report: CostReport) -> dict:
    return {"stage": stage, "dataset": dataset, "horizon": horizon,
            "mse": metrics["mse"], "mae": metrics["mae"],
            "flops": report.flops_total, "params": report.params_total}


def _format_cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_ledger(path, rows: list[dict], append: bool = False) -> None:
    """Write ``rows`` to the ledger at ``path`` under its header; with
    ``append``, add them to the end, writing the header only to a new file."""
    path = Path(path)
    header = not (append and path.exists())
    with open(path, "a" if append else "w", newline="") as f:
        writer = csv.writer(f)
        if header:
            writer.writerow(LEDGER_FIELDS)
        writer.writerows([_format_cell(row[k]) for k in LEDGER_FIELDS]
                         for row in rows)


def scoring_batches(train_windows, batch_size: int, limit: int | None) -> list:
    """Chronological training batches for sensitivity scoring; the default
    budget is one full epoch."""
    batches = list(batch_iterator(train_windows[0], train_windows[1], batch_size))
    if limit is not None:
        batches = batches[:limit]
    return batches


def open_run_dir(cfg: ExperimentConfig, run_dir=None) -> Path:
    """Create the run directory and write the exact config that runs."""
    run_dir = Path(run_dir if run_dir is not None else cfg.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.yaml").write_text(serialize_config(cfg))
    return run_dir


# -- stages ------------------------------------------------------------------


@dataclass
class Prepared:
    """What the stages share: the dataset's windows per split, the model
    config, the seed streams, all derived from one config, and the wall
    time and resource use of each stage's main call."""

    cfg: ExperimentConfig
    dataset: SeriesDataset
    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]
    model_cfg: ModelConfig
    seeds: SeedStreams
    timings: list[tuple[str, float, float, float, int]]

    def meta(self, stage: str) -> dict:
        return {"dataset_name": self.dataset.name, "stage": stage}

    def row(self, stage: str, model: Forecaster) -> dict:
        """The ledger row of ``model``: test-split metrics and cost."""
        return ledger_row(stage, self.dataset.name, self.cfg.window.horizon,
                          evaluate_metrics(model, *self.test,
                                           self.cfg.optimizer.batch_size),
                          build_cost_report(model))

    def timed(self, stage_name: str, fn):
        """``fn()``, recording its wall time and resource use in ``timings``."""
        # user CPU beyond the wall time is spat's lane threads, or BLAS
        # threads at work or spinning; system time and minor page faults
        # show what the kernel cost
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        out = fn()
        secs = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        self.timings.append((stage_name, secs, r1.ru_utime - r0.ru_utime,
                             r1.ru_stime - r0.ru_stime,
                             r1.ru_minflt - r0.ru_minflt))
        return out


def prepare(cfg: ExperimentConfig) -> Prepared:
    """Load the dataset and cut its windows. A split the stages cannot use
    fails here, before any training."""
    dataset = load_dataset(cfg)
    spec = cfg.window
    train_w, val_w, test_w = (dataset_windows(dataset, name, spec)
                              for name in ("train", "val", "test"))
    if len(train_w[0]) == 0:
        raise ConfigError("training split yields no windows")
    if len(test_w[0]) == 0:
        raise ConfigError("test split yields no windows")
    if len(val_w[0]) == 0 and cfg.optimizer.patience is not None:
        raise ConfigError("validation split is empty; set optimizer.patience "
                          "to null to train without early stopping")
    model_cfg = cfg.model.to_model_config(spec.lookback, spec.horizon,
                                          dataset.channels)
    return Prepared(cfg, dataset, train_w, val_w, test_w, model_cfg,
                    SeedStreams(cfg.seed), [])


def pretrain_stage(prep: Prepared, run_dir: Path) -> tuple[Forecaster, dict]:
    """A model built from the init stream, pretrained and saved as
    ``pretrained.ckpt``; returns it and its ledger row."""
    model = Forecaster(prep.model_cfg, seed=prep.seeds.model_init())
    prep.timed("pretrain", lambda: pretrain(model, prep.train, prep.val,
                                            prep.cfg.optimizer, prep.seeds))
    save_checkpoint(run_dir / "pretrained.ckpt", model,
                    meta=prep.meta("pretrained"))
    return model, prep.row("pretrained", model)


def score_stage(prep: Prepared, model: Forecaster) -> tuple[list, list]:
    """The scoring batches and the per-layer sensitivity records on them."""
    batches = scoring_batches(prep.train, prep.cfg.optimizer.batch_size,
                              prep.cfg.pruning.score_batches)
    return batches, prep.timed("score", lambda: compute_sensitivity(model, batches))


def finetune_stage(prep: Prepared, model: Forecaster, path: Path,
                   meta: dict) -> dict:
    """Finetune ``model`` in place and save it to ``path`` with ``meta``;
    returns its ledger row."""
    prep.timed("finetune", lambda: finetune(model, prep.train, prep.val,
                                            prep.cfg.optimizer, prep.seeds))
    save_checkpoint(path, model, meta=meta)
    return prep.row("finetuned", model)


@dataclass
class PipelineResult:
    metrics: dict[str, dict]   # stage -> ledger row
    removed: list[int]         # pruned attention layers, sorted


def ratio_stage(prep: Prepared, model: Forecaster, pretrained_row: dict,
                batches: list, records: list, alpha: float,
                out_dir: Path) -> PipelineResult:
    """Prune the scored ``model`` at ratio ``alpha`` and finetune it,
    writing the report, the pruned and finetuned checkpoints, the pruned
    cost report and the three-row ledger to ``out_dir``, made if need be."""
    plan = plan_from_records(records, alpha)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "send_report.txt").write_text(format_report(records, plan))
    if prep.cfg.pruning.rescore_between_removals:
        pruned_model, removed = prep.timed(
            "prune", lambda: iterative_prune(model, batches, plan.k, records))
    else:
        pruned_model = prep.timed("prune", lambda: prune(model, plan))
        removed = plan.i_pruned
    save_checkpoint(out_dir / "pruned.ckpt", pruned_model,
                    meta=prep.meta("pruned"))
    (out_dir / "cost_pruned.txt").write_text(
        format_cost_report(build_cost_report(pruned_model)))
    rows = [pretrained_row, prep.row("pruned", pruned_model),
            finetune_stage(prep, pruned_model, out_dir / "finetuned.ckpt",
                           prep.meta("finetuned"))]
    write_ledger(out_dir / "metrics.csv", rows)
    return PipelineResult({row["stage"]: row for row in rows}, sorted(removed))


def ratio_labels(alphas: list[float]) -> list[str]:
    """``f"{alpha:g}"`` of each ratio, which names its outputs. A ratio
    outside (0, 1) is a ``ConfigError``, and so are two ratios with one
    label, which would overwrite each other's outputs."""
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"pruning ratio must lie in (0, 1), got {alpha}")
    labels = [f"{alpha:g}" for alpha in alphas]
    for j, label in enumerate(labels):
        if (i := labels.index(label)) != j:
            raise ConfigError(f"pruning ratios {alphas[i]!r} and {alphas[j]!r} "
                              f"both write outputs labelled {label}")
    return labels


# -- compositions ------------------------------------------------------------


def _run_ratios(cfg: ExperimentConfig, run_dir,
                out_dirs: dict[float, str]) -> dict[float, PipelineResult]:
    """Pretrain and score once, then run ``ratio_stage`` for each ratio
    ``alpha`` into ``out_dirs[alpha]`` under the run directory."""
    prep = prepare(cfg)
    run_dir = open_run_dir(cfg, run_dir)
    model, pretrained_row = pretrain_stage(prep, run_dir)
    (run_dir / "cost_original.txt").write_text(
        format_cost_report(build_cost_report(model)))
    batches, records = score_stage(prep, model)
    results = {}
    for alpha, name in out_dirs.items():
        results[alpha] = ratio_stage(prep, model, pretrained_row, batches,
                                     records, alpha, run_dir / name)
    with open(run_dir / "timings.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["stage", "seconds", "user_s", "sys_s", "minor_faults"])
        writer.writerows((name, f"{secs:.3f}", f"{user_s:.3f}", f"{sys_s:.3f}",
                          faults)
                         for name, secs, user_s, sys_s, faults in prep.timings)
    return results


def run_pipeline(cfg: ExperimentConfig, run_dir=None) -> PipelineResult:
    """Execute pretrain -> score -> prune -> finetune -> evaluate at the
    config's ratio, writing every stage artifact under the run directory."""
    alpha = cfg.pruning.alpha
    return _run_ratios(cfg, run_dir, {alpha: ""})[alpha]


def run_sweep(cfg: ExperimentConfig, alphas: list[float],
              run_dir=None) -> dict[float, PipelineResult]:
    """Pruning-ratio sweep sharing one pretrained checkpoint and one scoring
    pass; ratio ``a`` writes to ``alpha_<a:g>/`` what ``run_pipeline``
    writes at that ratio."""
    if not alphas:
        raise ConfigError("sweep needs at least one pruning ratio")
    labels = ratio_labels(alphas)
    return _run_ratios(cfg, run_dir, {alpha: f"alpha_{label}"
                                      for alpha, label in zip(alphas, labels)})

"""Multi-stage pruning job: pretrain, score, prune, finetune, evaluate.

All randomness flows from one master seed, which derives independent
model-init, batch-shuffle and dropout streams per stage, so a pruning-stage
change never perturbs the data order seen by training. Two runs with the
same config and seed produce byte-identical metric ledgers; wall-clock
timings are written to a separate file for that reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, OptimizerConfig, serialize_config
from .cost import (
    CostReport,
    MetricAccumulator,
    build_cost_report,
    format_cost_report,
    horizon_table,
)
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
from .model import Forecaster, clone_model, mse_loss
from .send import PruningPlan, compute_sensitivity, format_report, plan_from_records
from .tensor import Tape

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
    if total_epochs < 1:
        return base
    frac = epoch / total_epochs
    return lr_min + 0.5 * (base - lr_min) * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    best_state: dict
    best_val: float | None
    epochs_run: int
    history: list[dict] = field(default_factory=list)


def _train_loop(model: Forecaster, train_windows, val_windows,
                opt: OptimizerConfig, epochs: int, lr: float,
                seeds: SeedStreams, stage: int, stage_name: str) -> TrainResult:
    x_train, y_train = train_windows
    x_val, y_val = val_windows
    if len(x_train) == 0:
        raise ContractError(f"{stage_name}: no training windows")
    if epochs == 0:
        return TrainResult(model.state_dict(), None, 0)

    has_val = len(x_val) > 0
    optimizer = Adam(model.named_parameters(), opt)
    best_state = model.state_dict()
    best_val = math.inf
    epochs_since_best = 0
    history = []
    step = 0
    for epoch in range(epochs):
        lr_epoch = cosine_lr(lr, opt.lr_min, epoch, epochs)
        batch_losses = []
        for batch in batch_iterator(x_train, y_train, opt.batch_size,
                                    shuffle_seed=seeds.shuffle(stage, epoch)):
            rng = seeds.dropout_rng(stage, step)
            with Tape() as tape:
                loss = mse_loss(model.forward(batch.x, training=True, rng=rng),
                                batch.y)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(
                    f"{stage_name} diverged: loss {value} at epoch {epoch}, "
                    f"step {step}")
            tape.backward(loss)
            optimizer.step(lr_epoch)
            model.zero_grad()
            tape.release()
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
        history.append(entry)
        logger.info("%s epoch %d: %s", stage_name, epoch, entry)
        if has_val and opt.patience is not None and epochs_since_best >= opt.patience:
            logger.info("%s early stop at epoch %d (best val %.6f)",
                        stage_name, epoch, best_val)
            break
    if has_val:
        model.load_state_dict(best_state)
        return TrainResult(best_state, best_val, len(history), history)
    return TrainResult(model.state_dict(), None, len(history), history)


def pretrain(model: Forecaster, train_windows, val_windows,
             opt: OptimizerConfig, seeds: SeedStreams | None = None) -> TrainResult:
    """Train from the current weights, keeping the best-validation state."""
    seeds = seeds or SeedStreams(0)
    return _train_loop(model, train_windows, val_windows, opt,
                       epochs=opt.epochs, lr=opt.lr, seeds=seeds,
                       stage=STAGE_PRETRAIN, stage_name="pretrain")


def finetune(model: Forecaster, train_windows, val_windows,
             opt: OptimizerConfig, seeds: SeedStreams | None = None) -> TrainResult:
    """Same loop as pretrain with fresh optimizer state and a smaller
    default epoch budget (half of pretraining, rounded up)."""
    seeds = seeds or SeedStreams(0)
    epochs = (opt.finetune_epochs if opt.finetune_epochs is not None
              else math.ceil(opt.epochs / 2))
    lr = opt.finetune_lr if opt.finetune_lr is not None else opt.lr
    return _train_loop(model, train_windows, val_windows, opt,
                       epochs=epochs, lr=lr, seeds=seeds,
                       stage=STAGE_FINETUNE, stage_name="finetune")


def evaluate_loss(model: Forecaster, x: np.ndarray, y: np.ndarray,
                  batch_size: int) -> float:
    """Average of per-batch MSE losses (the loss the masks differentiate)."""
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


def iterative_prune(model: Forecaster, batches, k: int) -> tuple[Forecaster, list[int]]:
    """Remove k layers one at a time, rescoring the remainder after each
    removal. Ties prune the higher layer index first, matching the
    single-shot ranking rule."""
    current = clone_model(model)
    removed = []
    for _ in range(k):
        records = compute_sensitivity(current, batches)
        worst = min(records, key=lambda r: (r.send, -r.layer_index))
        current.blocks[worst.layer_index].remove_attention()
        removed.append(worst.layer_index)
    return current, removed


def zero_shot_eval(model: Forecaster, dataset: SeriesDataset, spec: WindowSpec,
                   batch_size: int = 64) -> dict:
    """Frozen-checkpoint metrics on an unseen dataset's test split.

    The target dataset's own training-split statistics normalize its
    windows; no weights are updated.
    """
    cfg = model.cfg
    if spec.lookback != cfg.lookback or spec.horizon != cfg.horizon:
        raise ConfigError(
            f"checkpoint expects lookback {cfg.lookback} / horizon "
            f"{cfg.horizon}, got {spec.lookback} / {spec.horizon}")
    if cfg.mode == "variate_tokens" and dataset.channels != cfg.channels:
        raise ConfigError(
            f"variate-token checkpoint expects {cfg.channels} channels, "
            f"dataset {dataset.name!r} has {dataset.channels}")
    x, y = dataset_windows(dataset, "test", spec)
    if len(x) == 0:
        raise ConfigError(f"dataset {dataset.name!r} has no test windows "
                          f"for this window spec")
    return evaluate_metrics(model, x, y, batch_size)


def evaluate_horizons(cfg: ExperimentConfig,
                      checkpoints: dict[int, object]) -> list[dict]:
    """Per-horizon metric/cost rows plus an average row.

    ``checkpoints`` maps each horizon to its trained checkpoint path (the
    head is horizon-specific, so one checkpoint per horizon). A missing
    checkpoint becomes an absent row, not a crash.
    """
    dataset = load_dataset(cfg)
    results: dict[int, dict | None] = {}
    for horizon, path in checkpoints.items():
        if path is None or not Path(path).exists():
            results[horizon] = None
            continue
        model, _ = load_checkpoint(path)
        spec = WindowSpec(cfg.window.lookback, horizon, cfg.window.stride)
        metrics = zero_shot_eval(model, dataset, spec, cfg.optimizer.batch_size)
        report = build_cost_report(model)
        results[horizon] = {**metrics, "flops": report.flops_total,
                            "params": report.params_total}
    return horizon_table(results)


# -- dataset / run assembly ------------------------------------------------


def load_dataset(cfg: ExperimentConfig) -> SeriesDataset:
    data = cfg.data
    if data.source == "synthetic":
        raw = generate_synthetic(data.synthetic, name=data.dataset_name())
    else:
        raw = load_csv(data.path, date_column=data.date_column,
                       name=data.dataset_name())
    return split(raw, ratios=data.split_ratios, counts=data.split_counts)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


@dataclass
class PipelineState:
    stage: str
    candidate: list[int]
    removed: list[int]
    seed: int
    config_hash: str
    transitions: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    plan: PruningPlan | None = None

    def advance(self, stage: str) -> None:
        self.transitions.append(stage)
        self.stage = stage

    def check_partition(self, n_layers: int) -> None:
        joined = set(self.candidate) | set(self.removed)
        if joined != set(range(n_layers)) or set(self.candidate) & set(self.removed):
            raise ContractError(
                f"candidate {self.candidate} / removed {self.removed} do not "
                f"partition the {n_layers} layers")


def ledger_row(stage: str, dataset: str, horizon: int, metrics: dict,
               report: CostReport) -> dict:
    return {"stage": stage, "dataset": dataset, "horizon": horizon,
            "mse": metrics["mse"], "mae": metrics["mae"],
            "flops": report.flops_total, "params": report.params_total}


def _format_cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_ledger(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(LEDGER_FIELDS)
        for row in rows:
            writer.writerow([_format_cell(row[k]) for k in LEDGER_FIELDS])


def append_ledger_row(path, row: dict) -> None:
    path = Path(path)
    new = not path.exists()
    with open(path, "a", newline="") as f:
        writer = csv.writer(f)
        if new:
            writer.writerow(LEDGER_FIELDS)
        writer.writerow([_format_cell(row[k]) for k in LEDGER_FIELDS])


def scoring_batches(train_windows, batch_size: int, limit: int | None) -> list:
    """Chronological training batches for sensitivity scoring; the default
    budget is one full epoch."""
    batches = list(batch_iterator(train_windows[0], train_windows[1], batch_size))
    if limit is not None:
        batches = batches[:limit]
    return batches


def run_pipeline(cfg: ExperimentConfig, run_dir=None) -> PipelineState:
    """Execute pretrain -> score -> prune -> finetune -> evaluate, writing
    every stage artifact under the run directory."""
    run_dir = Path(run_dir if run_dir is not None else cfg.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.yaml").write_text(serialize_config(cfg))

    dataset = load_dataset(cfg)
    spec = cfg.window
    train_w = dataset_windows(dataset, "train", spec)
    val_w = dataset_windows(dataset, "val", spec)
    test_w = dataset_windows(dataset, "test", spec)
    if len(train_w[0]) == 0:
        raise ConfigError("training split yields no windows")
    if len(test_w[0]) == 0:
        raise ConfigError("test split yields no windows")
    if len(val_w[0]) == 0 and cfg.optimizer.patience is not None:
        raise ConfigError("validation split is empty; set optimizer.patience "
                          "to null to train without early stopping")

    model_cfg = cfg.model.to_model_config(spec.lookback, spec.horizon,
                                          dataset.channels)
    seeds = SeedStreams(cfg.seed)
    model = Forecaster(model_cfg, seed=seeds.model_init())
    n_layers = model_cfg.layers
    state = PipelineState(stage="initialized",
                          candidate=list(range(n_layers)), removed=[],
                          seed=cfg.seed, config_hash=config_hash(cfg))
    timings: list[tuple[str, float, float, float, int]] = []
    rows: list[dict] = []

    def timed(stage_name, fn):
        # user CPU beyond the wall time is BLAS threads at work or spinning;
        # system time and minor page faults show what the kernel cost
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        out = fn()
        secs = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        timings.append((stage_name, secs, r1.ru_utime - r0.ru_utime,
                        r1.ru_stime - r0.ru_stime, r1.ru_minflt - r0.ru_minflt))
        return out

    # pretrain
    timed("pretrain", lambda: pretrain(model, train_w, val_w, cfg.optimizer, seeds))
    save_checkpoint(run_dir / "pretrained.ckpt", model,
                    meta={"dataset_name": dataset.name, "stage": "pretrained"})
    base_cost = build_cost_report(model)
    (run_dir / "cost_original.txt").write_text(format_cost_report(base_cost))
    rows.append(ledger_row("pretrained", dataset.name, spec.horizon,
                           evaluate_metrics(model, *test_w, cfg.optimizer.batch_size),
                           base_cost))
    state.advance("pretrained")
    state.check_partition(n_layers)

    # score
    batches = scoring_batches(train_w, cfg.optimizer.batch_size,
                              cfg.pruning.score_batches)
    records = timed("score", lambda: compute_sensitivity(model, batches))
    plan = plan_from_records(records, cfg.pruning.alpha)
    (run_dir / "send_report.txt").write_text(format_report(records, plan))
    state.plan = plan
    state.advance("scored")

    # prune
    if cfg.pruning.rescore_between_removals:
        pruned_model, removed = timed(
            "prune", lambda: iterative_prune(model, batches, plan.k))
    else:
        pruned_model = timed("prune", lambda: prune(model, plan))
        removed = list(plan.i_pruned)
    state.removed = sorted(removed)
    state.candidate = sorted(set(range(n_layers)) - set(removed))
    state.check_partition(n_layers)
    save_checkpoint(run_dir / "pruned.ckpt", pruned_model,
                    meta={"dataset_name": dataset.name, "stage": "pruned"})
    pruned_cost = build_cost_report(pruned_model)
    (run_dir / "cost_pruned.txt").write_text(format_cost_report(pruned_cost))
    rows.append(ledger_row("pruned", dataset.name, spec.horizon,
                           evaluate_metrics(pruned_model, *test_w,
                                            cfg.optimizer.batch_size),
                           pruned_cost))
    state.advance("pruned")

    # finetune
    timed("finetune",
          lambda: finetune(pruned_model, train_w, val_w, cfg.optimizer, seeds))
    save_checkpoint(run_dir / "finetuned.ckpt", pruned_model,
                    meta={"dataset_name": dataset.name, "stage": "finetuned"})
    rows.append(ledger_row("finetuned", dataset.name, spec.horizon,
                           evaluate_metrics(pruned_model, *test_w,
                                            cfg.optimizer.batch_size),
                           build_cost_report(pruned_model)))
    state.advance("finetuned")

    write_ledger(run_dir / "metrics.csv", rows)
    with open(run_dir / "timings.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["stage", "seconds", "user_s", "sys_s", "minor_faults"])
        writer.writerows((name, f"{secs:.3f}", f"{user_s:.3f}", f"{sys_s:.3f}",
                          faults)
                         for name, secs, user_s, sys_s, faults in timings)
    state.metrics = {row["stage"]: row for row in rows}
    (run_dir / "state.json").write_text(json.dumps(
        {"stage": state.stage, "transitions": state.transitions,
         "candidate": state.candidate, "removed": state.removed,
         "seed": state.seed, "config_hash": state.config_hash},
        sort_keys=True, indent=2) + "\n")
    return state


def run_sweep(cfg: ExperimentConfig, alphas: list[float],
              run_dir=None) -> dict[float, dict]:
    """Pruning-ratio sweep sharing one pretrained checkpoint and one scoring
    pass; each ratio gets its own subdirectory of artifacts."""
    if not alphas:
        raise ConfigError("sweep needs at least one pruning ratio")
    run_dir = Path(run_dir if run_dir is not None else cfg.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.yaml").write_text(serialize_config(cfg))

    dataset = load_dataset(cfg)
    spec = cfg.window
    train_w = dataset_windows(dataset, "train", spec)
    val_w = dataset_windows(dataset, "val", spec)
    test_w = dataset_windows(dataset, "test", spec)
    if len(val_w[0]) == 0 and cfg.optimizer.patience is not None:
        raise ConfigError("validation split is empty; set optimizer.patience "
                          "to null to train without early stopping")
    model_cfg = cfg.model.to_model_config(spec.lookback, spec.horizon,
                                          dataset.channels)
    seeds = SeedStreams(cfg.seed)
    model = Forecaster(model_cfg, seed=seeds.model_init())
    pretrain(model, train_w, val_w, cfg.optimizer, seeds)
    save_checkpoint(run_dir / "pretrained.ckpt", model,
                    meta={"dataset_name": dataset.name, "stage": "pretrained"})
    base_row = ledger_row("pretrained", dataset.name, spec.horizon,
                          evaluate_metrics(model, *test_w,
                                           cfg.optimizer.batch_size),
                          build_cost_report(model))

    batches = scoring_batches(train_w, cfg.optimizer.batch_size,
                              cfg.pruning.score_batches)
    records = compute_sensitivity(model, batches)

    results: dict[float, dict] = {}
    for alpha in alphas:
        plan = plan_from_records(records, alpha)
        sub = run_dir / f"alpha_{alpha:g}"
        sub.mkdir(parents=True, exist_ok=True)
        (sub / "send_report.txt").write_text(format_report(records, plan))
        pruned_model = prune(model, plan)
        finetune(pruned_model, train_w, val_w, cfg.optimizer, seeds)
        save_checkpoint(sub / "finetuned.ckpt", pruned_model,
                        meta={"dataset_name": dataset.name,
                              "stage": "finetuned", "alpha": alpha})
        row = ledger_row("finetuned", dataset.name, spec.horizon,
                         evaluate_metrics(pruned_model, *test_w,
                                          cfg.optimizer.batch_size),
                         build_cost_report(pruned_model))
        write_ledger(sub / "metrics.csv", [base_row, row])
        results[alpha] = {"pretrained": base_row, "finetuned": row,
                          "pruned_layers": list(plan.i_pruned)}
    return results

"""Single executable for the full workflow, driven by a YAML config.

Every subcommand is a thin wrapper over the library API; the CLI performs
no computation of its own. Exit codes: 0 success, 2 configuration or usage
error, 3 numeric failure. The ``SPAT_RUN_ROOT`` environment variable
prefixes relative run directories.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_config
from .cost import build_cost_report
from .data import generate_synthetic, write_csv
from .errors import ContractError, NumericError, SpatError
from .pipeline import (
    check_fits,
    finetune_stage,
    ledger_row,
    load_dataset,
    open_run_dir,
    prepare,
    pretrain_stage,
    prune,
    ratio_labels,
    run_pipeline,
    run_sweep,
    score_stage,
    write_ledger,
    zero_shot_eval,
)
from .send import format_report, plan_from_records, read_report

RUN_ROOT_ENV = "SPAT_RUN_ROOT"


def resolve_run_dir(cfg: ExperimentConfig, override: str | None = None) -> Path:
    path = Path(override if override is not None else cfg.run_dir)
    root = os.environ.get(RUN_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _load(args) -> ExperimentConfig:
    return load_config(args.config, args.set)


def _print_row(row: dict) -> None:
    print(", ".join(f"{k}={row[k]}" for k in row))


def cmd_run(args) -> int:
    cfg = _load(args)
    result = run_pipeline(cfg, resolve_run_dir(cfg, args.run_dir))
    for stage in ("pretrained", "pruned", "finetuned"):
        _print_row(result.metrics[stage])
    print(f"removed attention layers: {result.removed}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load(args)
    prep = prepare(cfg)
    run_dir = open_run_dir(cfg, resolve_run_dir(cfg, args.run_dir))
    _, row = pretrain_stage(prep, run_dir)
    write_ledger(run_dir / "metrics.csv", [row], append=True)
    _print_row(row)
    print(f"checkpoint: {run_dir / 'pretrained.ckpt'}")
    return 0


def cmd_score(args) -> int:
    cfg = _load(args)
    alphas = args.alpha or [cfg.pruning.alpha]
    labels = ratio_labels(alphas)
    model, _ = load_checkpoint(args.checkpoint)
    if model.pruned_layers():
        raise ContractError(
            f"checkpoint {args.checkpoint} already has pruned layers "
            f"{model.pruned_layers()}; sensitivity scoring needs the "
            f"unpruned pretrained model")
    prep = prepare(cfg)
    check_fits(model, prep.dataset, cfg.window)
    _, records = score_stage(prep, model)
    run_dir = resolve_run_dir(cfg, args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for alpha, label in zip(alphas, labels):
        plan = plan_from_records(records, alpha)
        path = run_dir / f"send_report_alpha_{label}.txt"
        path.write_text(format_report(records, plan))
        print(f"alpha={label} k={plan.k} pruned={plan.i_pruned} -> {path}")
    for rec in records:
        print(f"layer {rec.layer_index}: send={rec.send!r}")
    return 0


def cmd_prune(args) -> int:
    cfg = _load(args)
    model, meta = load_checkpoint(args.checkpoint)
    plan = read_report(args.report)
    scored = sorted(i for i, _ in plan.send_scores)
    unpruned = [i for i in range(len(model.blocks)) if not model.blocks[i].pruned]
    if scored != unpruned:
        raise ContractError(f"report {args.report} scores layers {scored}, "
                            f"checkpoint {args.checkpoint} has attention "
                            f"layers {unpruned}")
    pruned_model = prune(model, plan)
    if args.out:
        out = Path(args.out)
    else:
        out = resolve_run_dir(cfg, args.run_dir) / "pruned.ckpt"
        out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, pruned_model, meta={**meta, "stage": "pruned"})
    print(f"removed attention layers {plan.i_pruned}; checkpoint: {out}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _load(args)
    model, meta = load_checkpoint(args.checkpoint)
    prep = prepare(cfg)
    check_fits(model, prep.dataset, cfg.window)
    run_dir = resolve_run_dir(cfg, args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else run_dir / "finetuned.ckpt"
    row = finetune_stage(prep, model, out, {**meta, "stage": "finetuned"})
    write_ledger(run_dir / "metrics.csv", [row], append=True)
    _print_row(row)
    print(f"checkpoint: {out}")
    return 0


def _evaluate(args, cfg: ExperimentConfig, target_cfg: ExperimentConfig,
              stage: str, dataset_label: str) -> int:
    """Ledger row of ``--checkpoint`` on ``target_cfg``'s test split, its
    dataset ``dataset_label`` filled with ``{source}`` and ``{target}``."""
    model, meta = load_checkpoint(args.checkpoint)
    target = load_dataset(target_cfg)
    metrics = zero_shot_eval(model, target, target_cfg.window,
                             cfg.optimizer.batch_size)
    label = dataset_label.format(source=meta.get("dataset_name", "source"),
                                 target=target.name)
    row = ledger_row(stage, label, target_cfg.window.horizon, metrics,
                     build_cost_report(model))
    run_dir = resolve_run_dir(cfg, args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_ledger(run_dir / "metrics.csv", [row], append=True)
    _print_row(row)
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    return _evaluate(args, cfg, cfg, args.stage, "{target}")


def cmd_zeroshot(args) -> int:
    cfg = _load(args)
    target_cfg = load_config(args.target_config, args.set) \
        if args.target_config else cfg
    return _evaluate(args, cfg, target_cfg, "zeroshot", "{source}→{target}")


def cmd_sweep(args) -> int:
    cfg = _load(args)
    results = run_sweep(cfg, args.alphas, resolve_run_dir(cfg, args.run_dir))
    for alpha, result in results.items():
        print(f"alpha={alpha:g} pruned={result.removed} "
              f"mse={result.metrics['finetuned']['mse']!r} "
              f"flops={result.metrics['finetuned']['flops']}")
    return 0


def cmd_synth_data(args) -> int:
    cfg = _load(args)
    raw = generate_synthetic(cfg.data.synthetic, name=cfg.data.dataset_name())
    write_csv(args.out, raw)
    print(f"wrote {raw.values.shape[0]} rows x {raw.values.shape[1]} channels "
          f"to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spat",
        description="Train, sensitivity-score, prune and evaluate attention "
                    "modules in small time-series forecasting transformers.",
        epilog=f"{RUN_ROOT_ENV} prefixes relative run directories. Exit "
               f"codes: 0 success, 2 config error, 3 numeric failure.")
    parser.add_argument("--verbose", action="store_true",
                        help="log per-epoch training progress")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (flags win over the file)")
        p.add_argument("--run-dir", default=None,
                       help="override the config's run directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("run", help="full pipeline: pretrain, score, prune, "
                                   "finetune, evaluate")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("pretrain", help="train the unpruned model")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("score", help="sensitivity-score a pretrained checkpoint")
    common(p, checkpoint=True)
    p.add_argument("--alpha", action="append", type=float, default=None,
                   help="pruning ratio; repeatable, plans share one scoring pass")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("prune", help="remove the attention layers a report selects")
    common(p, checkpoint=True)
    p.add_argument("--report", required=True, help="send report file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("finetune", help="finetune a pruned checkpoint")
    common(p, checkpoint=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the config dataset")
    common(p, checkpoint=True)
    p.add_argument("--stage", default="eval", help="stage label for the ledger")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("zeroshot", help="evaluate a checkpoint on an unseen dataset")
    common(p, checkpoint=True)
    p.add_argument("--target-config", default=None,
                   help="config whose dataset is the transfer target "
                        "(defaults to --config)")
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("sweep", help="prune/finetune one pretrained model "
                                     "under several ratios")
    common(p)
    p.add_argument("--alphas", nargs="+", type=float, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth-data", help="write the config's synthetic series "
                                          "to a CSV file")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        with np.errstate(all="ignore"):    # spat checks for NaN itself
            return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except SpatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # a path that cannot be opened, read or written
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

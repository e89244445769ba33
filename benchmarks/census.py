"""Census of ``src/spat``: every function that no command and no benchmark
workload enters.

Under ``sys.settrace`` and ``threading.settrace``, so that work on spat's
helper thread counts too, runs every ``spat`` subcommand on a tiny config:
``run`` three ways (variate tokens; temporal tokens with post-norm, relu
and rescoring; a CSV dataset), then ``sweep``, ``pretrain``, ``score``,
``prune``, ``finetune``, ``eval``, ``zeroshot`` and ``synth-data``. Then
runs perfbench's three workloads for 2 s each with ``--trace 1``. Prints
every function defined in ``src/spat`` that none of them entered, and
exits 1 if there is one, 0 if there is none:

    python benchmarks/census.py

Takes about 30 s. A command that fails also exits 1, since the census
would then be incomplete. Run directories and perfbench's result files go
to a temporary directory. Lambdas and generator expressions are not
counted; a branch that never runs inside an entered function is not seen.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import sys
import tempfile
import threading
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spat"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

TINY = {
    "seed": 3,
    "data": {"source": "synthetic",
             "synthetic": {"channels": 3, "length": 300, "seed": 2,
                           "frequencies": [5.0, 9.0], "noise_std": 0.05}},
    "window": {"lookback": 16, "horizon": 4},
    "model": {"mode": "variate_tokens", "d_model": 8, "d_ff": 16,
              "heads": 2, "layers": 3, "dropout": 0.1},
    "optimizer": {"lr": 3e-3, "epochs": 1, "batch_size": 64, "patience": 5},
    "pruning": {"alpha": 0.3},
}
TEMPORAL = ["model.mode=temporal_tokens", "model.patch_len=8",
            "model.patch_stride=4", "model.norm_placement=post",
            "model.activation=relu", "pruning.rescore_between_removals=true"]
WORKLOADS = ("pipeline_temporal", "score_variate", "serve_pruned")


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name of every ``def`` in
    ``src/spat``, nested ones included."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found[(path.name, code.co_firstlineno, code.co_name)] = (
                    f"{path.stem}.{code.co_qualname}")
    return found


def commands(tmp: Path) -> list[list[str]]:
    """The subcommands, in an order where each finds the files it reads."""
    cfg = tmp / "tiny.yaml"
    cfg.write_text(yaml.safe_dump({**TINY, "run_dir": str(tmp / "runs")}))
    target = tmp / "target.yaml"
    target.write_text(yaml.safe_dump(
        {**TINY, "data": {**TINY["data"], "name": "target",
                          "synthetic": {**TINY["data"]["synthetic"], "seed": 5}}}))
    csv, stages = tmp / "series.csv", tmp / "stages"

    def cmd(name, *args, sets=()):
        return [name, "--config", str(cfg), *(a for s in sets for a in ("--set", s)),
                *map(str, args)]

    return [
        cmd("synth-data", "--out", csv),
        cmd("run", "--run-dir", tmp / "variate"),
        cmd("run", "--run-dir", tmp / "temporal", sets=TEMPORAL),
        cmd("run", "--run-dir", tmp / "csv",
            sets=["data.source=csv", f"data.path={csv}"]),
        cmd("sweep", "--run-dir", tmp / "sweep", "--alphas", "0.3", "0.6"),
        cmd("pretrain", "--run-dir", stages),
        cmd("score", "--run-dir", stages, "--checkpoint",
            stages / "pretrained.ckpt", "--alpha", "0.3"),
        cmd("prune", "--run-dir", stages, "--checkpoint",
            stages / "pretrained.ckpt", "--report",
            stages / "send_report_alpha_0.3.txt"),
        cmd("finetune", "--run-dir", stages, "--checkpoint", stages / "pruned.ckpt"),
        cmd("eval", "--run-dir", stages, "--checkpoint", stages / "finetuned.ckpt"),
        cmd("zeroshot", "--run-dir", stages, "--checkpoint",
            stages / "finetuned.ckpt", "--target-config", target),
    ]


def main() -> int:
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    failures = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        sys.settrace(trace)
        threading.settrace(trace)
        try:
            from spat.cli import main as spat_main
            spec = importlib.util.spec_from_file_location(
                "perfbench_run", ROOT / "perfbench" / "run.py")
            perfbench = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(perfbench)
            perfbench.WORK = tmp / "perfbench"
            runs = [("spat " + argv[0], spat_main, argv) for argv in commands(tmp)]
            runs += [(f"perfbench {w}", perfbench.main,
                      ["--workload", w, "--seed", "1", "--seconds", "2",
                       "--trace", "1"]) for w in WORKLOADS]
            for label, run, argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = run(argv)
                if code != 0:
                    failures.append(f"{label} exited {code}")
        finally:
            threading.settrace(None)
            sys.settrace(None)

    reached = {(Path(c.co_filename).name, c.co_firstlineno, c.co_name)
               for c in entered if Path(c.co_filename).parent == SRC}
    never = sorted(q for key, q in defined_functions().items() if key not in reached)
    for line in failures:
        print(f"census incomplete: {line}", file=sys.stderr)
    for qualname in never:
        print(qualname)
    return 1 if never or failures else 0


if __name__ == "__main__":
    sys.exit(main())

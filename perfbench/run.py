"""spat benchmark: one workload, one closed loop, one result line.

    python3 perfbench/run.py --workload pipeline_temporal --seed 1 --seconds 30 --trace 0

Run from the root of a spat checkout; spat is imported from ``src/``. The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Lines above it give the same figures with the workload-specific names, the
machine, and any failed output check. A traced run also writes its spans
and their self times to ``perfbench/_work/``.
"""

import os

# Pinned before numpy loads OpenBLAS: one BLAS thread on a 2-core machine
# keeps the benchmark process from competing with itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "spat_source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spat" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no spat checkout at {ROOT} (need src/spat and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"error: unknown workload {args.workload!r}; one of {workload_names}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, work=work, tracer=tracer)
    crashed = False
    try:
        workloads.run_workload(args.workload, run)
    except Exception:
        traceback.print_exc()
        run.tally.attempted += 1
        run.tally.failed += 1
        crashed = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        measured = {**spans.layer_metrics(tracer), **run.layer}
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        measured = run.metrics
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in measured]
    if missing and not crashed:
        print(f"error: workload produced no {missing}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**run.metrics, **run.extra}.items():
        line = f"{args.workload:18s} {name:28s} {value:>14.6g} {unit}"
        if name == "prune_speedup_b64" and "cost.flops_reduction_pct" in run.layer:
            line += f"  (count_flops cut {run.layer['cost.flops_reduction_pct'][0]:.4g}%)"
        print(line)
    if run.tally.attempted:
        print(f"{args.workload:18s} {'error_rate':28s} "
              f"{run.tally.failed / run.tally.attempted:>14.6g} failed/attempted "
              f"({run.tally.failed}/{run.tally.attempted})")
    for problem in run.tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    metrics = {name: {"value": measured[name][0], "unit": measured[name][1]}
               for name in wanted if name in measured}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        (WORK / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))
        top = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])[:12]
        for name, s in top:
            print(f"self-time {name:34s} {s['self_s']:10.4f} s  "
                  f"total {s['total_s']:10.4f} s  calls {s['calls']}")
    correct = not crashed and run.tally.failed == 0
    result = {"correct": correct, "attempted": run.tally.attempted,
              "failed": run.tally.failed, "metrics": metrics}
    (WORK / f"{stem}-result.json").write_text(json.dumps(
        {"env": env, "result": result,
         "named": {k: {"value": v, "unit": u}
                   for k, (v, u) in {**run.metrics, **run.extra}.items()}},
        indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

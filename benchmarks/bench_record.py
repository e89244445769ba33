"""Write a ``BENCH_<n>_<sha>.json`` from paired perfbench runs.

Each side (the parent commit and the change) is a checkout whose
``perfbench/run.py`` wrote ``perfbench/_work/<workload>-seed<s>-trace<t>-
result.json``. Run both sides on the same seeds, back to back for each
seed, alternating which side runs first, then:

    python benchmarks/bench_record.py --n 8 --sha 1d41cb6 \\
        --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT

For every workload and every end-to-end metric in ``BENCHMARK.json`` the
file holds the per-run values of both sides in seed order, their medians
and interquartile ranges, the ratio of the medians and the number of seed
pairs in which the change was better. ``first`` says which side ran
first for each seed, read from the result files' modification times.
Traced runs (``--trace 1``), where present, add their per-layer metrics
the same way. ``machine`` is the environment record of the runs (CPU,
Python, numpy, BLAS, BLAS threads).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])"
                    r"-result\.json$")


def load_runs(checkout: Path) -> dict:
    """(workload, trace) -> {seed: (result record, mtime)} under
    ``checkout``."""
    runs: dict = {}
    for path in sorted((checkout / "perfbench" / "_work").glob("*-result.json")):
        m = RESULT.match(path.name)
        if m:
            key = (m["workload"], int(m["trace"]))
            runs.setdefault(key, {})[int(m["seed"])] = (
                json.loads(path.read_text()), path.stat().st_mtime)
    return runs


def summary(values: list[float]) -> dict:
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": statistics.median(values), "iqr": float(q3 - q1)}


def compare(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name = spec["name"]
        if name not in parent[0]["result"]["metrics"]:
            continue
        sides = {side: [r["result"]["metrics"][name]["value"] for r in runs]
                 for side, runs in (("parent", parent), ("change", change))}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        better = sum(sign * (c - p) > 0
                     for p, c in zip(sides["parent"], sides["change"]))
        p_sum, c_sum = summary(sides["parent"]), summary(sides["change"])
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": sides["parent"], "change": sides["change"],
            "parent_median": p_sum["median"], "parent_iqr": p_sum["iqr"],
            "change_median": c_sum["median"], "change_iqr": c_sum["iqr"],
            "ratio_of_medians": (c_sum["median"] / p_sum["median"]
                                 if p_sum["median"] else None),
            "pairs_better": f"{better}/{len(sides['parent'])}",
        }
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, required=True, help="change number")
    parser.add_argument("--sha", required=True, help="short sha of the parent")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads, machine = {}, None
    for (workload, trace), p_runs in sorted(parent.items()):
        c_runs = change.get((workload, trace), {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        first = ["parent" if p_runs[s][1] < c_runs[s][1] else "change"
                 for s in seeds]
        p, c = [p_runs[s][0] for s in seeds], [c_runs[s][0] for s in seeds]
        machine = machine or {k: v for k, v in p[0]["env"].items()
                              if k not in ("seed", "git_commit",
                                           "spat_source_sha256")}
        entry = workloads.setdefault(workload, {})
        key = "per_layer" if trace else "end_to_end"
        entry[key] = {
            "seeds": seeds,
            "first": first,
            "spat_source_sha256": {"parent": p[0]["env"]["spat_source_sha256"],
                                   "change": c[0]["env"]["spat_source_sha256"]},
            "failed": {"parent": [r["result"]["failed"] for r in p],
                       "change": [r["result"]["failed"] for r in c]},
            "metrics": compare(bench[key], p, c),
        }
    record = {
        "bench": args.n,
        "parent": args.sha,
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {bench['run_seconds']} --trace T"),
        "machine": machine,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}_{args.sha}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()

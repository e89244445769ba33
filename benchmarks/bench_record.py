"""Write a ``BENCH_<n>_<sha>.json`` from paired perfbench runs.

Each side (the parent commit and the change) is a checkout whose
``perfbench/run.py`` wrote ``perfbench/_work/<workload>-seed<s>-trace<t>-
result.json``. Both sides run on the same seeds, back to back for each
seed, alternating which side runs first. ``--run`` runs those pairs here,
one child process per run of ``BENCHMARK.json``'s ``run_seconds``, and
records each run's process CPU time over its wall time
(``getrusage(RUSAGE_CHILDREN)`` around the child) in the side's
``bench_cpu_wall.json``; a child's result file from an earlier run is
deleted before it starts. Then, or for pairs run earlier:

    python benchmarks/bench_record.py --n 8 --sha 1d41cb6 \\
        --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        [--run pipeline_temporal --seeds 7301-7310]

Given ``--seeds``, only those seeds' result files are read, for every
workload, so results that earlier or smoke-test runs left in ``_work`` stay
out of the record; without it, every result file there is read.

For every workload and every end-to-end metric in ``BENCHMARK.json`` the
file holds the per-run values of both sides in seed order (seeds where
either side's run wrote no result, or one without every metric, are
listed apart under ``incomplete_runs``), their medians
and interquartile ranges, the ratio of the medians and the number of seed
pairs in which the change was better. ``first`` says which side ran
first for each seed, read from the result files' modification times.
``cpu_per_wall`` holds each run's CPU/wall where recorded. A second core
helps only where the machine lets two threads of one process run at once
(which a virtual machine may allow only at times), so ``by_overlap`` gives the
ratio of medians and the pairs better again, apart, for the pairs whose
change ran with overlap (CPU/wall >= ``OVERLAP``) and those whose change
ran without. Traced runs (``--trace 1``), where present, add their
per-layer metrics the same way. ``machine`` is the environment record of
the runs (CPU, Python, numpy, BLAS, BLAS threads).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])"
                    r"-result\.json$")
CPU_WALL = "bench_cpu_wall.json"
OVERLAP = 1.2


def result_path(checkout: Path, workload: str, seed: int, trace: int) -> Path:
    return (checkout / "perfbench" / "_work"
            / f"{workload}-seed{seed}-trace{trace}-result.json")


def load_runs(checkout: Path, seeds: list[int]) -> dict:
    """(workload, trace) -> {seed: (result record, mtime)} under
    ``checkout``, for ``seeds`` only where any are given."""
    runs: dict = {}
    for path in sorted((checkout / "perfbench" / "_work").glob("*-result.json")):
        m = RESULT.match(path.name)
        if m and (not seeds or int(m["seed"]) in seeds):
            key = (m["workload"], int(m["trace"]))
            runs.setdefault(key, {})[int(m["seed"])] = (
                json.loads(path.read_text()), path.stat().st_mtime)
    return runs


def load_cpu_wall(checkout: Path) -> dict:
    path = checkout / CPU_WALL
    return json.loads(path.read_text()) if path.exists() else {}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` child in ``checkout``, with its wall time
    and the CPU time it and its threads used. Its seed's result file from
    an earlier run goes first, so a child that writes none leaves none."""
    result_path(checkout, workload, seed, 0).unlink(missing_ok=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        print(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
              f"{proc.stderr}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "cpu_per_wall": cpu / wall,
            "exit": proc.returncode}


def run_pairs(sides: dict[str, Path], workload: str, seeds: list[int],
              seconds: float) -> None:
    """Run each seed on both sides back to back, the parent first for
    every other seed, adding each run's CPU/wall to the side's record."""
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record = load_cpu_wall(sides[side])
            record[f"{workload}-seed{seed}"] = run_once(
                sides[side], workload, seed, seconds)
            (sides[side] / CPU_WALL).write_text(json.dumps(record, indent=1) + "\n")
            print(f"{workload} seed {seed} {side}: CPU/wall "
                  f"{record[f'{workload}-seed{seed}']['cpu_per_wall']:.2f}",
                  file=sys.stderr)


def summary(values: list[float]) -> dict:
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": statistics.median(values), "iqr": float(q3 - q1)}


def ratio(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Ratio of the medians and pairs better, change against parent."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med = statistics.median(parent)
    return {"ratio_of_medians": (statistics.median(change) / p_med
                                 if p_med else None),
            "pairs_better": f"{better}/{len(parent)}"}


def compare(metrics: list[dict], parent: list[dict], change: list[dict],
            overlap: list[bool | None]) -> dict:
    out = {}
    for spec in metrics:
        name = spec["name"]
        if name not in parent[0]["result"]["metrics"]:
            continue
        sides = {side: [r["result"]["metrics"][name]["value"] for r in runs]
                 for side, runs in (("parent", parent), ("change", change))}
        p_sum, c_sum = summary(sides["parent"]), summary(sides["change"])
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": sides["parent"], "change": sides["change"],
            "parent_median": p_sum["median"], "parent_iqr": p_sum["iqr"],
            "change_median": c_sum["median"], "change_iqr": c_sum["iqr"],
            **ratio(spec, sides["parent"], sides["change"]),
        }
        by_overlap = {}
        for label, state in (("overlap", True), ("no_overlap", False)):
            pairs = [i for i, o in enumerate(overlap) if o is state]
            if pairs:
                by_overlap[label] = ratio(
                    spec, [sides["parent"][i] for i in pairs],
                    [sides["change"][i] for i in pairs])
        if by_overlap:
            out[name]["by_overlap"] = by_overlap
    return out


def seed_list(text: str) -> list[int]:
    """``"7301-7305,7401"`` -> [7301, ..., 7305, 7401]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, required=True, help="change number")
    parser.add_argument("--sha", required=True, help="short sha of the parent")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--run", help="workload to run pairs of first")
    parser.add_argument("--seeds", type=seed_list, default=[],
                        help="seeds of the pairs to run, e.g. 7301-7310")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.run:
        run_pairs(sides, args.run, args.seeds, bench["run_seconds"])
    parent, change = (load_runs(sides[side], args.seeds)
                      for side in ("parent", "change"))
    cpu_wall = {side: load_cpu_wall(path) for side, path in sides.items()}
    workloads, machine = {}, None
    for (workload, trace), p_runs in sorted(parent.items()):
        c_runs = change.get((workload, trace), {})
        key = "per_layer" if trace else "end_to_end"
        names = {spec["name"] for spec in bench[key]}
        incomplete = {side: sorted(
            s for s in set(p_runs) | set(c_runs) if s not in runs
            or not names <= set(runs[s][0]["result"]["metrics"]))
            for side, runs in (("parent", p_runs), ("change", c_runs))}
        seeds = sorted(set(p_runs) & set(c_runs) - set(sum(incomplete.values(), [])))
        if not seeds:
            continue
        first = ["parent" if p_runs[s][1] < c_runs[s][1] else "change"
                 for s in seeds]
        p, c = [p_runs[s][0] for s in seeds], [c_runs[s][0] for s in seeds]
        machine = machine or {k: v for k, v in p[0]["env"].items()
                              if k not in ("seed", "git_commit",
                                           "spat_source_sha256")}
        ratios = {side: [cpu_wall[side].get(f"{workload}-seed{s}", {})
                         .get("cpu_per_wall") for s in seeds]
                  for side in sides}
        overlap = [None if r is None or trace else r >= OVERLAP
                   for r in ratios["change"]]
        entry = workloads.setdefault(workload, {})
        entry[key] = {
            "seeds": seeds,
            "incomplete_runs": incomplete,
            "first": first,
            "spat_source_sha256": {"parent": p[0]["env"]["spat_source_sha256"],
                                   "change": c[0]["env"]["spat_source_sha256"]},
            "failed": {"parent": [r["result"]["failed"] for r in p],
                       "change": [r["result"]["failed"] for r in c]},
            **({} if trace else {"cpu_per_wall": ratios}),
            "metrics": compare(bench[key], p, c, overlap),
        }
    record = {
        "bench": args.n,
        "parent": args.sha,
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {bench['run_seconds']} --trace T"),
        "overlap_threshold": OVERLAP,
        "machine": machine,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}_{args.sha}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()

"""``benchmarks/bench_record.py`` pairs only results its own runs wrote."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A perfbench/run.py stand-in: writes a result with one metric, except for
# seed 2 in the change's checkout, where it exits 1 and writes none.
STUB = """\
import argparse, json, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
if a.seed == "2" and Path.cwd().name == "change":
    sys.exit(1)
work = Path("perfbench/_work")
work.mkdir(parents=True, exist_ok=True)
(work / f"{a.workload}-seed{a.seed}-trace0-result.json").write_text(json.dumps(
    {"env": {"spat_source_sha256": "0", "git_commit": "0", "seed": a.seed},
     "result": {"failed": 0,
                "metrics": {"windows_per_s": {"value": 10.0 + int(a.seed),
                                              "unit": "windows/s"}}}}))
"""


def load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "benchmarks" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_childs_seed_is_left_out(tmp_path, monkeypatch):
    """The change's seed-2 child exits 1 and writes no result, so the
    result an earlier run left for that seed is deleted, not paired, and
    the seed is listed under ``incomplete_runs``. Seed 9, which an earlier
    run left complete on both sides, is not one of ``--seeds`` and is read
    for no workload."""
    bench_record = load_bench_record()
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 30, "per_layer": [],
        "end_to_end": [{"name": "windows_per_s", "unit": "windows/s",
                        "better": "higher"}]}))
    sides = {}
    for side in ("parent", "change"):
        checkout = sides[side] = tmp_path / side
        (checkout / "perfbench" / "_work").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(STUB)
    stale = bench_record.result_path(sides["change"], "pipeline_temporal", 2, 0)
    stale.write_text(json.dumps({"env": {}, "result": {"failed": 0, "metrics": {
        "windows_per_s": {"value": 99.0, "unit": "windows/s"}}}}))
    # complete results of seeds outside --seeds, on both sides
    for side, checkout in sides.items():
        for workload in ("pipeline_temporal", "score_variate"):
            bench_record.result_path(checkout, workload, 9, 0).write_text(
                json.dumps({"env": {"spat_source_sha256": "0"},
                            "result": {"failed": 0, "metrics": {
                                "windows_per_s": {"value": 99.0,
                                                  "unit": "windows/s"}}}}))
    bench_record.main(["--n", "0", "--sha", "abc", "--parent",
                       str(sides["parent"]), "--change", str(sides["change"]),
                       "--run", "pipeline_temporal", "--seeds", "1-3"])
    record = json.loads((tmp_path / "BENCH_0_abc.json").read_text())
    entry = record["workloads"]["pipeline_temporal"]["end_to_end"]
    assert not stale.exists()
    assert entry["seeds"] == [1, 3]
    assert list(record["workloads"]) == ["pipeline_temporal"]
    assert entry["incomplete_runs"] == {"parent": [], "change": [2]}
    assert entry["metrics"]["windows_per_s"]["change"] == [11.0, 13.0]
    assert record["command"].endswith("--seconds 30 --trace T")
    cpu_wall = json.loads((sides["change"] / "bench_cpu_wall.json").read_text())
    assert cpu_wall["pipeline_temporal-seed2"]["exit"] == 1

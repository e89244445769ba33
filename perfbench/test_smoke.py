"""Cheap checks of the benchmark itself; run with

    python -m pytest perfbench/test_smoke.py -q

They sit outside the tier-1 ``tests/`` tree on purpose: the benchmark is
its own package and the library's test suite does not depend on it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from spat import model, pipeline, send, tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                    ["c", 5.0, 6.0, 0], ["d", 2.0, 3.0, 1]]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"]["self_s"] == 2.0
    assert summary["d"]["self_s"] == 1.0


def test_instrument_traces_layers_and_restores_spat():
    originals = (tensor.Tape.backward, model.Forecaster.forward,
                 pipeline.compute_sensitivity, send.send_score)
    cfg = model.ModelConfig(d_model=8, d_ff=16, heads=2, layers=2)
    net = model.Forecaster(cfg, seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(4, 96, 7)), rng.normal(size=(4, 24, 7))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        pipeline.compute_sensitivity(net, [(x, y)])
    assert originals == (tensor.Tape.backward, model.Forecaster.forward,
                         pipeline.compute_sensitivity, send.send_score)
    summary = tracer.summary()
    for name in ("send.compute_sensitivity", "tensor.backward", "model.forward",
                 "model.block0.attention", "model.block1.ffn", "send.reduce.send_score"):
        assert summary[name]["calls"] >= 1, name
    metrics = spans.layer_metrics(tracer)
    assert metrics["send.windows"] == (4.0, "count")
    assert metrics["model.attention_gflops_per_s"][0] > 0.0
    assert metrics["pipeline.adam_ms_per_step"][0] == 0.0


def test_serve_run_prints_the_contract_line():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "serve_pruned", "--seed", "3",
                    "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", "serve_pruned", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

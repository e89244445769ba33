"""CLI behavior: subcommands, exit codes, artifact round trips."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spat import model as model_module
from spat.cli import main, resolve_run_dir
from spat.config import (
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    load_config,
    serialize_config,
)
from spat.checkpoint import load_checkpoint, save_checkpoint
from spat.data import dataset_windows
from spat.errors import ConfigError
from spat.model import Forecaster, ModelConfig, field_type_error
from spat.pipeline import load_dataset, run_pipeline, scoring_batches
from spat.send import build_plan, compute_sensitivity, format_report, parse_report


def tiny_config_dict(run_dir):
    return {
        "seed": 3,
        "run_dir": str(run_dir),
        "data": {"source": "synthetic",
                 "synthetic": {"channels": 3, "length": 300, "seed": 2,
                               "frequencies": [5.0, 9.0], "noise_std": 0.05}},
        "window": {"lookback": 16, "horizon": 4},
        "model": {"mode": "variate_tokens", "d_model": 8, "d_ff": 16,
                  "heads": 2, "layers": 3, "dropout": 0.1},
        "optimizer": {"lr": 3e-3, "epochs": 1, "batch_size": 64, "patience": 5},
        "pruning": {"alpha": 0.3},
    }


@pytest.fixture
def workspace(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(tiny_config_dict(tmp_path / "run")))
    return tmp_path, cfg_path


# split_counts of the tiny config's 300 rows (lookback 16, horizon 4) that
# leave one split without windows, and the error every entry point gives
EMPTY_SPLITS = {
    "train": ([15, 135, 150], "training split yields no windows"),
    "val": ([270, 0, 30], "validation split is empty; set optimizer.patience"),
    "test": ([270, 30, 0], "test split yields no windows"),
}

# checkpoint (lookback, horizon, channels) that do not fit the tiny config's
# windows, and the error every command that runs the model on them gives
OTHER_SHAPES = [
    ((24, 4, 3), "checkpoint expects lookback 24 / horizon 4, got 16 / 4"),
    ((16, 6, 3), "checkpoint expects lookback 16 / horizon 6, got 16 / 4"),
    ((16, 4, 5), "variate-token checkpoint expects 5 channels")]

# metrics.csv and send_report.txt of run_pipeline on tiny_config_dict,
# pinned so that a change which moves any digit fails here
GOLDEN_METRICS = """\
stage,dataset,horizon,mse,mae,flops,params
pretrained,synthetic,4,1.1070100479799303,0.8578891743101956,15150,1988
pruned,synthetic,4,1.2509213247297701,0.9255098801157858,12840,1700
finetuned,synthetic,4,0.9342239891905506,0.8026151973617748,12840,1700
"""
GOLDEN_REPORT = """\
send_report_version: 1
layers: 3
alpha: 0.3
k: 1
batches: 3
layer 0: send=0.003563069292522956 rank=1 pruned=false
layer 1: send=0.0019813578656530336 rank=2 pruned=false
layer 2: send=0.0009327506337782152 rank=3 pruned=true
"""
# SHA-256 of the same run's checkpoints, so that a change which moves any
# weight bit fails here too. Re-pinned when checkpoints stopped saving the
# all-ones attention masks: every parameter tensor kept its name, shape and
# bytes, and only the mask entries left the files.
GOLDEN_CHECKPOINTS = {
    "pretrained.ckpt":
        "69f571da3dc59837634e2f52e2443aaf4414e7bdfe075fea7bfafb1c1f87c840",
    "finetuned.ckpt":
        "910369c77f6aec1c17ac58c599fbc17cd8e77a09c057c2f291d2162513e1ae6e",
}


# what run writes for its ratio, and sweep for each of its ratios
BRANCH_FILES = ("send_report.txt", "pruned.ckpt", "cost_pruned.txt",
                "finetuned.ckpt", "metrics.csv")


def ledger_rows(run_dir) -> list[dict]:
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    return list(csv.DictReader(lines))


def ledger_by_stage(run_dir) -> dict:
    return {r["stage"]: r for r in ledger_rows(run_dir)}


def reloaded(cfg, path):
    """``cfg`` written with ``serialize_config`` and read back with
    ``load_config``, as a run directory's ``config.yaml`` is re-run."""
    path.write_text(serialize_config(cfg))
    return load_config(path)


class TestConfigRoundTrip:
    def test_parse_serialize_identity(self, workspace):
        tmp_path, cfg_path = workspace
        cfg = load_config(cfg_path)
        assert reloaded(cfg, tmp_path / "saved.yaml") == cfg

    def test_default_config_round_trips(self, tmp_path):
        cfg = ExperimentConfig()
        assert reloaded(cfg, tmp_path / "saved.yaml") == cfg

    def test_overrides_win_over_file(self, workspace):
        _, cfg_path = workspace
        cfg = load_config(cfg_path, ["optimizer.epochs=9", "pruning.alpha=0.5"])
        assert cfg.optimizer.epochs == 9
        assert cfg.pruning.alpha == 0.5

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"optimizer": {"learning_rate": 1e-3}})
        assert "optimizer.learning_rate" in str(err.value)

    def test_alpha_zero_rejected_at_parse(self):
        with pytest.raises(ConfigError):
            config_from_dict({"pruning": {"alpha": 0.0}})

    def test_model_section_checked_at_load(self, workspace):
        _, cfg_path = workspace
        with pytest.raises(ConfigError, match="not divisible by heads 3"):
            load_config(cfg_path, ["model.heads=3"])


def leaf_fields(obj, prefix=""):
    """(dotted override key, annotation) of every leaf field of a config."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f.type


LEAF_FIELDS = sorted(leaf_fields(ExperimentConfig()))


RAW_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "no", "null", "~", "", "[8]", "[0.5, true]",
                     "{a: 1}", "'8'", "8.0", "1e3", "2024-01-01", ".nan"]),
    st.text(max_size=8))


def number_text(value) -> bool:
    if not isinstance(value, str):
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


class TestOverrideFuzz:
    """``--set <section>.<field>=<value>`` with a value YAML reads as another
    type than the field's must raise ConfigError (exit 2) naming the field,
    never reach the run. A float field also takes the strings ``float()``
    reads, since PyYAML leaves ``1e-4`` a string."""

    @pytest.fixture(scope="class")
    def cfg_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "config.yaml"
        path.write_text(yaml.safe_dump(tiny_config_dict("runs/fuzz")))
        return path

    def test_every_section_is_covered(self):
        sections = {key.split(".")[0] for key, _ in LEAF_FIELDS if "." in key}
        assert sections == {"data", "window", "model", "optimizer", "pruning"}
        assert ("data.synthetic.channels", "int") in LEAF_FIELDS
        assert ("seed", "int") in LEAF_FIELDS

    @staticmethod
    def check(cfg_path, key, annotation, raw):
        item = f"{key}={raw}"
        value = apply_overrides({}, [item])
        for part in key.split("."):
            value = value[part]
        assume(field_type_error(key, annotation, value) is not None)
        if "float" in annotation:
            assume(not number_text(value))
            assume(not (isinstance(value, list) and any(map(number_text, value))))
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(cfg_path, [item])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), raw=RAW_VALUES)
    def test_model_field_of_another_type(self, cfg_path, data, raw):
        key, annotation = data.draw(st.sampled_from(
            [f for f in LEAF_FIELDS if f[0].startswith("model.")]))
        self.check(cfg_path, key, annotation, raw)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), raw=RAW_VALUES)
    def test_other_field_of_another_type(self, cfg_path, data, raw):
        key, annotation = data.draw(st.sampled_from(
            [f for f in LEAF_FIELDS if not f[0].startswith("model.")]))
        self.check(cfg_path, key, annotation, raw)


class TestExitCodes:
    @pytest.mark.parametrize("item", [
        "model.d_model=16.0", "model.layers=true", "model.dropout=high",
        "model.mode=3", "window.lookback=96.0", "optimizer.batch_size=64.0",
        "optimizer.epochs=2.5", "pruning.score_batches=1.5", "seed=1.5",
        "optimizer.lr=true", "data.synthetic.channels=7.0"])
    def test_model_value_of_wrong_type_exits_2(self, workspace, capsys, item):
        _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--set", item]) == 2
        assert item.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("item, message", [
        *((item, item.split("=")[0] + " must") for item in [
            "optimizer.lr=.nan", "optimizer.lr=.inf", "optimizer.finetune_lr=.nan",
            "optimizer.finetune_lr=-0.5", "optimizer.lr_min=-1.0",
            "optimizer.beta1=2.0", "optimizer.beta2=1.0", "optimizer.eps=-1.0",
            "optimizer.eps=0.0", "optimizer.finetune_epochs=-1", "seed=-1",
            "data.synthetic.seed=-1"]),
        ("data.split_ratios=[0.7, .nan, 0.2]", "ratios must be three non-negative"),
        ("data.split_ratios=[0.7, -0.1, 0.2]", "ratios must be three non-negative"),
        ("data.split_ratios=[0.7, 0.3]", "ratios must be three non-negative")])
    def test_value_out_of_range_exits_2(self, workspace, capsys, item, message):
        _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--set", item]) == 2
        err = capsys.readouterr().err
        assert f"error: {item.split('=')[0]} " in err and message in err

    @pytest.mark.parametrize("counts, message", [
        ("[200, -1, 50]", "must be three non-negative ints"),
        ("[200, 50]", "must be three non-negative ints"),
        ("[200, 50, 51]", "exceed series length 300")])
    def test_bad_split_counts_exit_2(self, workspace, capsys, counts, message):
        _, cfg_path = workspace
        code = main(["run", "--config", str(cfg_path), "--set",
                     "data.split_ratios=null", "--set",
                     f"data.split_counts={counts}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: data.split_counts " in err and message in err

    def test_one_row_csv_exits_2_without_numpy_warnings(self, workspace):
        tmp_path, cfg_path = workspace
        path = tmp_path / "one_row.csv"
        path.write_text("date,a,b,c\n0,1.0,2.0,3.0\n")
        out = subprocess.run(
            [sys.executable, "-m", "spat.cli", "pretrain", "--config",
             str(cfg_path), "--set", "data.source=csv",
             "--set", f"data.path={path}"], capture_output=True, text=True)
        assert out.returncode == 2
        assert "training split is empty" in out.stderr
        assert "Warning" not in out.stderr

    def test_split_without_windows_exits_2_without_warnings(self, workspace):
        _, cfg_path = workspace
        out = subprocess.run(
            [sys.executable, "-m", "spat.cli", "pretrain", "--config",
             str(cfg_path), "--set", "data.split_ratios=null",
             "--set", "data.split_counts=[15,135,150]"],
            capture_output=True, text=True)
        assert out.returncode == 2
        assert "training split yields no windows" in out.stderr
        assert "Warning" not in out.stderr

    def test_exponent_float_string_is_a_float(self, workspace):
        _, cfg_path = workspace
        cfg = load_config(cfg_path, ["optimizer.eps=1e-8", "optimizer.lr=2e-3"])
        assert cfg.optimizer.eps == 1e-8 and cfg.optimizer.lr == 2e-3

    def test_checkpoint_header_without_tensors_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        cfg = ModelConfig(mode="variate_tokens", lookback=16, horizon=4,
                          channels=3, d_model=512, d_ff=512, heads=2, layers=3)
        ckpt = tmp_path / "large.ckpt"
        ckpt.write_bytes(json.dumps(
            {"version": 1, "config": dataclasses.asdict(cfg), "pruned": [],
             "tensors": [], "meta": {}}).encode() + b"\n")
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
        assert code == 2
        assert "large.ckpt" in capsys.readouterr().err

    def test_alpha_zero_exits_2(self, workspace):
        _, cfg_path = workspace
        code = main(["run", "--config", str(cfg_path), "--set",
                     "pruning.alpha=0.0"])
        assert code == 2

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2

    def test_malformed_yaml_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.yaml"
        cfg_path.write_text("seed: [1,\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "invalid YAML" in capsys.readouterr().err

    def test_non_mapping_root_with_override_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.yaml"
        cfg_path.write_text("- 1\n- 2\n")
        assert main(["run", "--config", str(cfg_path), "--set", "seed=3"]) == 2
        assert "mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("pruned", [7]),
                                              ("config", {"depth": 3})])
    def test_malformed_checkpoint_header_exits_2(self, workspace, capsys,
                                                 field, value):
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "pretrained.ckpt"
        header_line, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header[field] = value
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
        assert code == 2
        assert "pretrained.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("d_model", 8.0), ("layers", 3.0),
                                            ("heads", True)])
    def test_checkpoint_config_of_wrong_type_exits_2(self, workspace, capsys,
                                                     key, value):
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "pretrained.ckpt"
        header_line, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["config"][key] = value
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_checkpoint_with_masks_exits_2(self, workspace, capsys):
        """A checkpoint in the earlier layout, which also saved each block's
        all-ones attention mask, no longer loads."""
        tmp_path, cfg_path = workspace
        cfg = load_config(cfg_path).model.to_model_config(16, 4, 3)
        ckpt = tmp_path / "masked.ckpt"
        save_checkpoint(ckpt, Forecaster(cfg))
        header_line, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        s = cfg.token_count
        for i in range(cfg.layers):
            header["tensors"].append({"name": f"blocks.{i}.mask",
                                      "shape": [cfg.heads, s, s]})
            payload += np.ones((cfg.heads, s, s), dtype="<f8").tobytes()
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "masked.ckpt" in err and "blocks.0.mask" in err

    @pytest.mark.parametrize("command, meta", [
        ("eval", None), ("prune", 5), ("finetune", []),
        ("zeroshot", {"dataset_name": {"a": 1}}),
    ], ids=["eval", "prune", "finetune", "zeroshot"])
    def test_checkpoint_meta_of_another_type_exits_2(self, workspace, capsys,
                                                     command, meta):
        """Each command that loads a checkpoint exits 2 on a meta that is
        not an object, or whose dataset_name is not a str, and writes no
        ledger row."""
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "pretrained.ckpt"
        header_line, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["meta"] = meta
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        report = tmp_path / "report.txt"
        report.write_text(format_report([], build_plan([(0, 0.3), (1, 0.1),
                                                        (2, 0.2)], alpha=0.3)))
        extra = ["--report", str(report)] if command == "prune" else []
        ledger = (tmp_path / "run" / "metrics.csv").read_bytes()
        code = main([command, "--config", str(cfg_path), "--checkpoint",
                     str(ckpt), *extra])
        assert code == 2
        assert "pretrained.ckpt: checkpoint meta" in capsys.readouterr().err
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == ledger

    def test_missing_target_file_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        code = main(["zeroshot", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "run" / "pretrained.ckpt"),
                     "--set", "data.source=csv",
                     "--set", f"data.path={tmp_path}/missing.csv"])
        assert code == 2
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["directory", "latin1.csv", "wide.csv"])
    def test_unreadable_dataset_exits_2(self, workspace, capsys, target):
        tmp_path, cfg_path = workspace
        path = tmp_path / target
        if target == "directory":
            path.mkdir()
        elif target == "wide.csv":  # a cell over the csv field size limit
            path.write_text("date,a\n1,2\n2," + "3" * 200_000 + "\n")
        else:
            path.write_bytes(b"date,a\n1,2\xb0\n")
        code = main(["pretrain", "--config", str(cfg_path),
                     "--set", "data.source=csv", "--set", f"data.path={path}"])
        assert code == 2
        assert target in capsys.readouterr().err

    def test_self_contradicting_report_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        plan = build_plan([(0, 0.3), (1, 0.1), (2, 0.2)], alpha=0.3)
        report = tmp_path / "swapped.txt"
        report.write_text(format_report([], plan)
                          .replace("rank=3 pruned=true", "rank=3 pruned=false")
                          .replace("rank=2 pruned=false", "rank=2 pruned=true"))
        code = main(["prune", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "run" / "pretrained.ckpt"),
                     "--report", str(report)])
        assert code == 2
        assert "send report" in capsys.readouterr().err
        assert not (tmp_path / "run" / "pruned.ckpt").exists()

    def test_repeated_report_header_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        plan = build_plan([(0, 0.3), (1, 0.1), (2, 0.2)], alpha=0.3)
        report = tmp_path / "repeated.txt"
        report.write_text(format_report([], plan).replace("k: 1\n", "k: 7\nk: 1\n"))
        code = main(["prune", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "run" / "pretrained.ckpt"),
                     "--report", str(report)])
        assert code == 2
        assert "repeated header 'k'" in capsys.readouterr().err
        assert not (tmp_path / "run" / "pruned.ckpt").exists()

    def test_report_for_another_depth_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        report = tmp_path / "two_layers.txt"
        report.write_text(format_report([], build_plan([(0, 0.3), (1, 0.1)],
                                                       alpha=0.3)))
        code = main(["prune", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "run" / "pretrained.ckpt"),
                     "--report", str(report)])
        assert code == 2
        assert "two_layers.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("split", sorted(EMPTY_SPLITS))
    @pytest.mark.parametrize("command", ["run", "sweep", "pretrain", "finetune"])
    def test_empty_split_fails_alike_before_training(self, workspace, capsys,
                                                     command, split):
        tmp_path, cfg_path = workspace
        counts, message = EMPTY_SPLITS[split]
        argv = [command, "--config", str(cfg_path),
                "--set", "data.split_ratios=null",
                "--set", f"data.split_counts={counts}"]
        if command == "sweep":
            argv += ["--alphas", "0.3"]
        if command == "finetune":
            cfg = load_config(cfg_path)
            ckpt = tmp_path / "model.ckpt"
            save_checkpoint(ckpt, Forecaster(cfg.model.to_model_config(16, 4, 3)))
            argv += ["--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("item, message", [
        ("model.heads=3", "d_model 8 not divisible by heads 3"),
        ("optimizer.finetune_epochs=-1", "optimizer.finetune_epochs must"),
        ("data.synthetic.noise_std=-1.0", "noise_std must be finite"),
        ("data.synthetic.noise_std=.nan", "noise_std must be finite"),
        ("data.synthetic.frequencies=[5.0, 1e999]", "frequencies must be finite"),
        ("data.synthetic.trend=-.inf", "trend must be finite"),
        ("data.synthetic.phase_shift=.nan", "phase_shift must be finite")])
    @pytest.mark.parametrize("command", ["run", "sweep", "pretrain"])
    def test_bad_config_fails_before_the_run_directory(self, workspace, capsys,
                                                       command, item, message):
        tmp_path, cfg_path = workspace
        argv = [command, "--config", str(cfg_path), "--set", item]
        if command == "sweep":
            argv += ["--alphas", "0.3"]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("shape, message", OTHER_SHAPES)
    def test_finetune_of_another_shape_fails_before_the_run_directory(
            self, workspace, capsys, shape, message):
        tmp_path, cfg_path = workspace
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, Forecaster(
            load_config(cfg_path).model.to_model_config(*shape)))
        assert main(["finetune", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("shape, message", OTHER_SHAPES)
    def test_score_of_another_shape_fails_before_the_run_directory(
            self, workspace, capsys, shape, message):
        """Scoring checks the fit before it runs the model, as finetune
        does, instead of failing inside the loss or the embedding."""
        tmp_path, cfg_path = workspace
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, Forecaster(
            load_config(cfg_path).model.to_model_config(*shape)))
        assert main(["score", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_checkpoint_config_missing_a_field_exits_2(self, workspace, capsys):
        """A header config without a field does not load with its default."""
        tmp_path, cfg_path = workspace
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "pretrained.ckpt"
        header_line, payload = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        del header["config"]["activation"], header["config"]["instance_norm"]
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
        assert code == 2
        assert ("pretrained.ckpt: checkpoint config lacks activation, "
                "instance_norm") in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config_dir", "checkpoint_dir", "report_dir",
                                      "out_dir", "config_latin1", "report_latin1"])
    def test_unreadable_path_exits_2_without_traceback(self, workspace, case):
        tmp_path, cfg_path = workspace
        folder = tmp_path / "folder"
        folder.mkdir()
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"seed: 1 # \xb0\n")
        ckpt = tmp_path / "model.ckpt"
        cfg = load_config(cfg_path)
        save_checkpoint(ckpt, Forecaster(cfg.model.to_model_config(16, 4, 3)))
        prune = ["prune", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--report"]
        argv = {"config_dir": ["pretrain", "--config", str(folder)],
                "checkpoint_dir": ["eval", "--config", str(cfg_path),
                                   "--checkpoint", str(folder)],
                "report_dir": prune + [str(folder)],
                "out_dir": ["synth-data", "--config", str(cfg_path),
                            "--out", str(folder)],
                "config_latin1": ["pretrain", "--config", str(latin1)],
                "report_latin1": prune + [str(latin1)]}[case]
        out = subprocess.run([sys.executable, "-m", "spat.cli", *argv],
                             capture_output=True, text=True)
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
        assert str(folder if case.endswith("_dir") else latin1) in out.stderr

    def test_numeric_divergence_exits_3(self, workspace):
        _, cfg_path = workspace
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(cfg_path), "--set",
                         "optimizer.lr=1e150"])
        assert code == 3


class TestBlasThreads:
    """``import spat`` pins OpenBLAS to one thread unless the environment
    sets a count, and the outputs do not depend on the count."""

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_import_sets_one_thread_unless_set(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run(
            [sys.executable, "-c",
             "import os, spat; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected

    def test_run_outputs_equal_at_one_and_two_threads(self, workspace):
        tmp_path, cfg_path = workspace
        outputs = []
        for threads in ("1", "2"):
            run_dir = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "spat.cli", "run", "--config",
                 str(cfg_path), "--run-dir", str(run_dir)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, check=True)
            outputs.append([(run_dir / name).read_bytes()
                            for name in ("metrics.csv", "send_report.txt")])
        assert outputs[0] == outputs[1]


class TestRunAndStages:
    def test_full_run_then_rerun_is_byte_identical(self, workspace):
        tmp_path, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "run" / "metrics.csv").read_bytes()
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == first

    def test_run_matches_golden_ledger_and_report(self, workspace, schedule):
        """The pinned bytes hold on one CPU, where every leaf gradient and
        keep mask is computed inline, and on two."""
        tmp_path, cfg_path = workspace
        run_pipeline(load_config(cfg_path))
        self.assert_golden(tmp_path / "run")

    @staticmethod
    def assert_golden(run_dir):
        assert (run_dir / "metrics.csv").read_text() == GOLDEN_METRICS
        assert (run_dir / "send_report.txt").read_text() == GOLDEN_REPORT
        for name, digest in GOLDEN_CHECKPOINTS.items():
            data = (run_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_run_in_lanes_matches_golden_ledger_and_report(
            self, workspace, schedule, monkeypatch, lanes_ran):
        """With the lanes' size limit lowered to one FFN element, the tiny
        config's batches of four windows or more run as lanes on two CPUs:
        every training step, evaluation and scoring batch. The run still
        writes the pinned bytes of one CPU."""
        monkeypatch.setattr(model_module, "_LANE_ELEMENTS", 1)
        tmp_path, cfg_path = workspace
        run_pipeline(load_config(cfg_path))
        self.assert_golden(tmp_path / "run")
        train, score = [64, 64, 63], [64, 64, 63]
        evaluate = [27, 57]                   # validation, then test windows
        assert lanes_ran == (train + evaluate + score + evaluate[1:] + train
                             + evaluate if schedule == "two_threads" else [])

    def test_stagewise_chain(self, workspace):
        """pretrain -> score -> prune -> finetune reproduces ``run``, and so
        does ``sweep`` at the config's alpha."""
        tmp_path, cfg_path = workspace
        chain, full, sweep = (tmp_path / name for name in ("run", "full", "sweep"))

        def spat(command, *argv, run_dir=chain):
            assert main([command, "--config", str(cfg_path),
                         "--run-dir", str(run_dir), *argv]) == 0

        spat("pretrain")
        ckpt = chain / "pretrained.ckpt"
        spat("score", "--checkpoint", str(ckpt))
        report = chain / "send_report_alpha_0.3.txt"
        spat("prune", "--checkpoint", str(ckpt), "--report", str(report))
        model, meta = load_checkpoint(chain / "pruned.ckpt")
        assert len(model.pruned_layers()) == 1
        assert meta["stage"] == "pruned"
        spat("finetune", "--checkpoint", str(chain / "pruned.ckpt"))
        spat("eval", "--checkpoint", str(chain / "finetuned.ckpt"))
        rows = ledger_rows(chain)
        assert [r["stage"] for r in rows] == ["pretrained", "finetuned", "eval"]

        spat("run", run_dir=full)
        spat("sweep", "--alphas", "0.3", run_dir=sweep)
        assert ckpt.read_bytes() == (full / "pretrained.ckpt").read_bytes()
        assert report.read_text() == (full / "send_report.txt").read_text()
        expected = {stage: ledger_by_stage(full)[stage]
                    for stage in ("pretrained", "finetuned")}
        assert {r["stage"]: r for r in rows[:2]} == expected
        for name in BRANCH_FILES:
            assert ((sweep / "alpha_0.3" / name).read_bytes()
                    == (full / name).read_bytes()), name
        for name in ("pruned.ckpt", "finetuned.ckpt"):
            assert (chain / name).read_bytes() == (full / name).read_bytes(), name

    def test_sweep_matches_run_when_rescoring(self, tmp_path):
        """With rescoring between removals, ``sweep`` at the config's alpha
        writes what ``run`` writes. On seed 3 rescoring removes other layers
        than the single-shot plan, so a sweep that ignored it would differ."""
        config = tiny_config_dict(tmp_path / "run")
        config["model"].update(mode="temporal_tokens", patch_len=8,
                               patch_stride=4)
        config["pruning"] = {"alpha": 0.6, "rescore_between_removals": True}
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--alphas", "0.6",
                     "--run-dir", str(tmp_path / "sweep")]) == 0
        for name in BRANCH_FILES:
            assert ((tmp_path / "sweep" / "alpha_0.6" / name).read_bytes()
                    == (tmp_path / "run" / name).read_bytes()), name
        plan = parse_report((tmp_path / "run" / "send_report.txt").read_text())
        assert sorted(plan.i_pruned) == [0, 2]
        model, _ = load_checkpoint(tmp_path / "sweep" / "alpha_0.6" / "pruned.ckpt")
        assert model.pruned_layers() == [1, 2]

    def test_score_refuses_pruned_checkpoint(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        run = tmp_path / "run"
        main(["pretrain", "--config", str(cfg_path)])
        main(["score", "--config", str(cfg_path),
              "--checkpoint", str(run / "pretrained.ckpt")])
        main(["prune", "--config", str(cfg_path),
              "--checkpoint", str(run / "pretrained.ckpt"),
              "--report", str(run / "send_report_alpha_0.3.txt")])
        code = main(["score", "--config", str(cfg_path),
                     "--checkpoint", str(run / "pruned.ckpt")])
        assert code == 2
        assert "pruned" in capsys.readouterr().err


class TestScore:
    def test_three_rows_descending_rank_and_shared_scores(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        run = tmp_path / "run"
        main(["pretrain", "--config", str(cfg_path)])
        code = main(["score", "--config", str(cfg_path),
                     "--checkpoint", str(run / "pretrained.ckpt"),
                     "--alpha", "0.3", "--alpha", "0.6"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("layer ") == 3

        plan_a = parse_report((run / "send_report_alpha_0.3.txt").read_text())
        plan_b = parse_report((run / "send_report_alpha_0.6.txt").read_text())
        assert plan_a.send_scores == plan_b.send_scores     # shared scoring pass
        assert plan_a.k == 1 and plan_b.k == 2
        scores = dict(plan_a.send_scores)
        ranked = plan_a.i_ranked
        assert all(scores[a] >= scores[b] for a, b in zip(ranked, ranked[1:]))

    def test_report_matches_library_scoring(self, workspace):
        tmp_path, cfg_path = workspace
        run = tmp_path / "run"
        main(["pretrain", "--config", str(cfg_path)])
        main(["score", "--config", str(cfg_path),
              "--checkpoint", str(run / "pretrained.ckpt")])
        plan = parse_report((run / "send_report_alpha_0.3.txt").read_text())

        cfg = load_config(cfg_path)
        model, _ = load_checkpoint(run / "pretrained.ckpt")
        dataset = load_dataset(cfg)
        windows = dataset_windows(dataset, "train", cfg.window)
        batches = scoring_batches(windows, cfg.optimizer.batch_size,
                                  cfg.pruning.score_batches)
        records = compute_sensitivity(model, batches)
        assert plan.send_scores == [(r.layer_index, r.send) for r in records]


class TestZeroShot:
    def test_degenerate_transfer_matches_eval(self, workspace):
        tmp_path, cfg_path = workspace
        run = tmp_path / "run"
        main(["pretrain", "--config", str(cfg_path)])
        main(["eval", "--config", str(cfg_path),
              "--checkpoint", str(run / "pretrained.ckpt")])
        main(["zeroshot", "--config", str(cfg_path),
              "--checkpoint", str(run / "pretrained.ckpt")])
        rows = ledger_rows(run)
        eval_row = [r for r in rows if r["stage"] == "eval"][0]
        zs_row = [r for r in rows if r["stage"] == "zeroshot"][0]
        assert zs_row["mse"] == eval_row["mse"]
        assert zs_row["mae"] == eval_row["mae"]
        assert zs_row["dataset"] == "synthetic→synthetic"

    def test_transfer_label_names_both_datasets(self, workspace, tmp_path):
        ws_path, cfg_path = workspace
        run = ws_path / "run"
        main(["pretrain", "--config", str(cfg_path)])
        target = tiny_config_dict(ws_path / "other")
        target["data"]["name"] = "shifted"
        target["data"]["synthetic"]["phase_shift"] = 0.7
        target_path = ws_path / "target.yaml"
        target_path.write_text(yaml.safe_dump(target))
        code = main(["zeroshot", "--config", str(cfg_path),
                     "--checkpoint", str(run / "pretrained.ckpt"),
                     "--target-config", str(target_path)])
        assert code == 0
        rows = ledger_rows(run)
        assert rows[-1]["dataset"] == "synthetic→shifted"


class TestSweepAndSynthData:
    def test_sweep_shares_pretraining(self, workspace):
        tmp_path, cfg_path = workspace
        code = main(["sweep", "--config", str(cfg_path),
                     "--alphas", "0.3", "0.9"])
        assert code == 0
        run = tmp_path / "run"
        assert (run / "pretrained.ckpt").exists()
        for alpha, k in (("0.3", 1), ("0.9", 3)):
            sub = run / f"alpha_{alpha}"
            model, _ = load_checkpoint(sub / "finetuned.ckpt")
            assert len(model.pruned_layers()) == k
            assert (sub / "metrics.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "score"])
    @pytest.mark.parametrize("alphas", [["0.3", "0.3000001"], ["0.3", "0.3"],
                                        ["0.3", "0"], ["0.3", "1.5"]])
    def test_ratios_with_one_label_rejected_before_training(
            self, workspace, capsys, command, alphas):
        tmp_path, cfg_path = workspace
        if command == "sweep":
            argv = ["--alphas", *alphas]
        else:
            ckpt = tmp_path / "model.ckpt"
            save_checkpoint(ckpt, Forecaster(
                load_config(cfg_path).model.to_model_config(16, 4, 3)))
            argv = ["--checkpoint", str(ckpt), "--alpha", alphas[0],
                    "--alpha", alphas[1]]
        assert main([command, "--config", str(cfg_path), *argv]) == 2
        err = capsys.readouterr().err
        first, second = map(float, alphas)
        if 0 < second < 1:
            assert f"error: pruning ratios {first!r} and {second!r}" in err
        else:
            assert f"error: pruning ratio must lie in (0, 1), got {second!r}" in err
        assert not (tmp_path / "run").exists()

    def test_synth_data_writes_loadable_csv(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "series.csv"
        assert main(["synth-data", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        from spat.data import load_csv
        raw = load_csv(out)
        assert raw.values.shape == (300, 3)

    def test_run_root_env_variable(self, workspace, monkeypatch):
        tmp_path, cfg_path = workspace
        monkeypatch.setenv("SPAT_RUN_ROOT", str(tmp_path / "root"))
        cfg = load_config(cfg_path, ["run_dir=nested/exp"])
        resolved = resolve_run_dir(cfg)
        assert resolved == tmp_path / "root" / "nested" / "exp"

    def test_module_invocation_smoke(self):
        out = subprocess.run([sys.executable, "-m", "spat.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        for name in ("run", "score", "prune", "zeroshot", "sweep", "synth-data"):
            assert name in out.stdout

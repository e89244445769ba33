"""Checkpoint container round-trip and stability tests."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from spat import model as model_module
from spat.checkpoint import load_checkpoint, save_checkpoint
from spat.errors import ContractError, ParseError, ShapeError, SpatError
from spat.model import Forecaster, ModelConfig, clone_model, state_shapes
from spat.pipeline import prune
from spat.send import build_plan
from spat.tensor import Tape, Tensor


def make_model(seed=0, layers=3):
    cfg = ModelConfig(mode="variate_tokens", lookback=16, horizon=4, channels=3,
                      d_model=8, d_ff=16, heads=2, layers=layers, dropout=0.1)
    return Forecaster(cfg, seed=seed)


class TestRoundTrip:
    def test_weights_and_config_survive(self, tmp_path):
        model = make_model(seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, meta={"dataset_name": "synth"})
        loaded, meta = load_checkpoint(path)
        assert meta["dataset_name"] == "synth"
        assert loaded.cfg == model.cfg
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_byte_stable(self, tmp_path):
        full = make_model(seed=9)
        pruned = clone_model(full)
        pruned.blocks[0].remove_attention()
        for model in (full, pruned):
            first = tmp_path / "a.ckpt"
            second = tmp_path / "b.ckpt"
            save_checkpoint(first, model)
            loaded, _ = load_checkpoint(first)
            save_checkpoint(second, loaded)
            assert first.read_bytes() == second.read_bytes()

    def test_pruned_flags_survive_masks_do_not(self, tmp_path):
        """Pruned flags are saved; masks are not state, so a probe that
        stands for one is never held by a block, nor saved, nor loaded."""
        model = make_model(seed=3)
        model.blocks[1].remove_attention()
        x = np.random.default_rng(0).normal(size=(2, 16, 3))
        expected = model.forecast(x)
        s = model.cfg.token_count
        probe = Tensor(np.ones((model.cfg.heads, s, s)), requires_grad=True)
        with Tape():
            model.forward(x, probes={0: probe})
        path = tmp_path / "pruned.ckpt"
        save_checkpoint(path, model)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert [e["name"] for e in header["tensors"]] == list(model.state_dict())
        loaded, _ = load_checkpoint(path)
        assert loaded.pruned_layers() == [1]
        assert loaded.blocks[1].w_q is None
        assert not any(hasattr(blk, "probe")
                       for blk in model.blocks + loaded.blocks)
        np.testing.assert_array_equal(loaded.forecast(x), expected)

    def test_truncated_payload_rejected(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", ["not_utf8", "nested_too_deep"])
    def test_undecodable_header_rejected(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        header_line, payload = path.read_bytes().split(b"\n", 1)
        if header == "not_utf8":
            header_line = header_line.replace(b'"meta"', b'"m\xffta"')
        else:
            header_line = b"[" * 100_000
        path.write_bytes(header_line + b"\n" + payload)
        with pytest.raises(ParseError, match="model.ckpt: invalid checkpoint header"):
            load_checkpoint(path)


def rewrite_header(path, **changes):
    """Replace header fields of a saved checkpoint, keeping its payload."""
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header.update(changes)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return header


class TestMalformedHeader:
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_of_another_type_rejected(self, tmp_path, version):
        """``True == 1.0 == 1`` in Python, yet the format's version is the
        int 1, as every other int field of the header rejects a bool."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        rewrite_header(path, version=version)
        with pytest.raises(ParseError,
                           match="model.ckpt: unsupported checkpoint version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("pruned", [[7], [-1], [1, 1], ["1"], 1, None])
    def test_pruned_layers_must_index_the_model(self, tmp_path, pruned):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        rewrite_header(path, pruned=pruned)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        rewrite_header(path, config={**header["config"], "depth": 3})
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_config_missing_a_field_rejected(self, tmp_path):
        """A header config without a field is not filled from the default:
        that would load a gelu, instance-norm model from a relu one."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Forecaster(ModelConfig(
            mode="variate_tokens", lookback=12, horizon=3, channels=4,
            d_model=8, d_ff=16, heads=2, layers=1, activation="relu",
            instance_norm=False)))
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        del header["config"]["activation"], header["config"]["instance_norm"]
        rewrite_header(path, config=header["config"])
        with pytest.raises(ParseError, match="lacks activation, instance_norm"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("d_model", 8.0), ("layers", 3.0), ("heads", True), ("lookback", "16"),
        ("dropout", "0.1"), ("dropout", False), ("end_padding", 1),
        ("mode", None), ("activation", ["gelu"])])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, key, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        rewrite_header(path, config={**header["config"], key: value})
        with pytest.raises(ParseError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("changes", [
        {"layers": 0}, {"heads": 3, "d_model": 4}, {"dropout": 1.5}])
    def test_config_failing_its_own_checks_names_the_file(self, tmp_path,
                                                          changes):
        """A header config of the right types that ``ModelConfig`` rejects
        is a defect of the checkpoint, not of the user's config file."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        rewrite_header(path, config={**header["config"], **changes})
        with pytest.raises(ParseError, match="model.ckpt: checkpoint config"):
            load_checkpoint(path)

    def test_int_dropout_is_a_float(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        rewrite_header(path, config={**header["config"], "dropout": 0})
        assert load_checkpoint(path)[0].cfg.dropout == 0

    def test_parameter_of_another_shape_rejected(self, tmp_path):
        # a parameter [8, 8] read as [4, 16]: the byte count still matches
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        tensors = [{**e, "shape": [4, 16]} if e["name"] == "blocks.0.w_q" else e
                   for e in header["tensors"]]
        rewrite_header(path, tensors=tensors)
        with pytest.raises(ShapeError, match="blocks.0.w_q"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensors", [7, [7], [{"name": "x"}],
                                         [{"name": "x", "shape": "ab"}],
                                         [{"name": "x", "shape": [-1, -1]}],
                                         [{"name": "x", "shape": [2.0]}],
                                         [{"name": 7, "shape": [2]}]])
    def test_malformed_tensor_table_rejected(self, tmp_path, tensors):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        rewrite_header(path, tensors=tensors)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_unknown_tensor_name_rejected(self, tmp_path):
        # a pruned block's attention weights are not tensors of the model
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        rewrite_header(path, pruned=[1])
        with pytest.raises(ContractError, match="blocks.1.w_q"):
            load_checkpoint(path)

    def test_load_state_dict_rejects_unknown_names(self):
        model = make_model()
        state = model.state_dict()
        state["head.extra"] = np.zeros(2)
        with pytest.raises(ContractError, match="head.extra"):
            model.load_state_dict(state)


class TestHeaderAllocation:
    """The tensor table is checked against the payload and the config
    before the model is built: a small file cannot make the loader
    allocate a large model. A well-formed file is loaded into one copy of
    the model beside its payload."""

    cfg = ModelConfig(d_model=512, d_ff=512, layers=3)
    model_bytes = 8 * sum(math.prod(shape)
                          for shape in state_shapes(cfg).values())

    @pytest.mark.parametrize("tensors", ["none", "no_payload"])
    def test_rejected_before_the_model_is_built(self, tmp_path, tensors):
        table = [] if tensors == "none" else [
            {"name": n, "shape": list(shape)}
            for n, shape in state_shapes(self.cfg).items()]
        header = {"version": 1, "config": asdict(self.cfg), "pruned": [],
                  "tensors": table, "meta": {}}
        path = tmp_path / "model.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        assert self.model_bytes > 30e6

        def load():
            with pytest.raises(ParseError):
                load_checkpoint(path)

        assert traced_peak(load) < self.model_bytes / 100

    def test_load_allocates_one_model(self, tmp_path):
        """The payload and one array per parameter: no initial values are
        drawn to be overwritten."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Forecaster(self.cfg))
        assert traced_peak(lambda: load_checkpoint(path)) < 2.5 * self.model_bytes

    def test_repeated_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_model())
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        last = header["tensors"][-1]
        header["tensors"].append(last)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload
                         + payload[-8 * math.prod(last["shape"]):])
        with pytest.raises(ParseError, match="repeats"):
            load_checkpoint(path)


class TestBuiltFromArrays:
    """A loaded or cloned model is built from its arrays: it draws no
    initial value, and each parameter holds an array of its own."""

    @pytest.fixture
    def saved(self, tmp_path):
        """A model, and the paths of its checkpoint and of its copy with
        block 1 pruned."""
        model = make_model(seed=4)
        full, pruned = tmp_path / "full.ckpt", tmp_path / "pruned.ckpt"
        save_checkpoint(full, model)
        save_checkpoint(pruned, prune(model, build_plan(
            [(0, 3.0), (1, 1.0), (2, 2.0)], alpha=0.3)))
        return model, full, pruned

    def test_nothing_is_drawn(self, saved, monkeypatch):
        model, full, pruned = saved

        def draw(*args):
            raise AssertionError("an initial value was drawn")
        monkeypatch.setattr(model_module, "_initial_value", draw)
        want = model.state_dict()
        for path, layers in ((full, []), (pruned, [1])):
            loaded, _ = load_checkpoint(path)
            assert loaded.pruned_layers() == layers
            for name, p in loaded.named_parameters():
                np.testing.assert_array_equal(p.data, want[name])
        twin = clone_model(model)
        for name, p in twin.named_parameters():
            np.testing.assert_array_equal(p.data, want[name])
        plan = build_plan([(0, 1.0), (1, 3.0), (2, 2.0)], alpha=0.3)
        assert prune(model, plan).pruned_layers() == [0]

    def test_no_buffer_is_shared(self, saved):
        """No parameter array of a loaded or cloned model shares memory
        with its source model, another load of the file, or another
        parameter. Each owns its buffer, so none is a view of the payload
        the loader read, and each is writable."""
        model, full, pruned = saved
        models = [model, clone_model(model), load_checkpoint(full)[0],
                  load_checkpoint(full)[0], load_checkpoint(pruned)[0],
                  load_checkpoint(pruned)[0]]
        arrays = [p.data for m in models for p in m.parameters()]
        for i, a in enumerate(arrays):
            assert a.flags.owndata and a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


class TestHeaderFuzz:
    """A header with one config value of another type, a meta of another
    type, or one tensor-table entry changed, must raise a SpatError (exit 2
    in the CLI), never another exception. Dimensions stay small, so no mutation asks for a
    large allocation."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
        save_checkpoint(path, make_model())
        return path.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           value=st.one_of(st.none(), st.booleans(), st.integers(-2, 20),
                           st.floats(allow_nan=False), st.text(max_size=4),
                           st.lists(st.integers(0, 3), max_size=2)))
    def test_config_value_of_another_type(self, tmp_path_factory, saved, data,
                                          value):
        header_line, payload = saved.split(b"\n", 1)
        header = json.loads(header_line)
        key = data.draw(st.sampled_from(sorted(header["config"])))
        assume(type(value) is not type(header["config"][key]))
        assume(not (key == "dropout" and type(value) is int))
        header["config"][key] = value
        path = tmp_path_factory.mktemp("cfg") / "model.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(SpatError):
            load_checkpoint(path)

    @settings(max_examples=100, deadline=None)
    @given(meta=st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
        st.text(max_size=4), st.lists(st.integers(), max_size=2),
        st.fixed_dictionaries({"dataset_name": st.one_of(
            st.none(), st.integers(), st.lists(st.text(max_size=2), max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))})))
    def test_meta_of_another_type(self, tmp_path_factory, saved, meta):
        """``meta`` must be an object, and its ``dataset_name``, when
        given, a str: the CLI spreads the one and prints the other."""
        header_line, payload = saved.split(b"\n", 1)
        header = json.loads(header_line)
        header["meta"] = meta
        path = tmp_path_factory.mktemp("meta") / "model.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ParseError, match="model.ckpt: checkpoint meta"):
            load_checkpoint(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           name=st.one_of(st.text(max_size=12), st.integers(), st.none()),
           shape=st.one_of(st.lists(st.integers(-1, 20), max_size=4),
                           st.lists(st.floats(0, 20), min_size=1, max_size=3),
                           st.text(max_size=3), st.integers(0, 9)))
    def test_tensor_table_entry(self, tmp_path_factory, saved, data, name,
                                shape):
        header_line, payload = saved.split(b"\n", 1)
        header = json.loads(header_line)
        i = data.draw(st.integers(0, len(header["tensors"]) - 1))
        entry = header["tensors"][i]
        new = data.draw(st.sampled_from([{**entry, "name": name},
                                         {**entry, "shape": shape},
                                         {"name": entry["name"]}, 0]))
        assume(new != entry)
        header["tensors"][i] = new
        path = tmp_path_factory.mktemp("table") / "model.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(SpatError):
            load_checkpoint(path)

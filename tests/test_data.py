"""Data ingestion, splitting, windowing and batching tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spat.config import DataConfig
from spat.data import (
    RawSeries,
    SyntheticSpec,
    WindowSpec,
    batch_iterator,
    dataset_windows,
    generate_synthetic,
    load_csv,
    make_windows,
    split,
    window_count,
    write_csv,
)
from spat.errors import ConfigError, ParseError, SpatError


def series(values) -> RawSeries:
    return RawSeries("series", values)


def write_file(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_small_matrix(self, tmp_path):
        p = write_file(tmp_path, "date,a,b\n1,1.0,2.0\n2,3.0,4.0\n3,5.0,6.0\n")
        raw = load_csv(p)
        assert raw.values.shape == (3, 2)

    def test_ett_style_column_count(self, tmp_path):
        header = "date," + ",".join(f"c{i}" for i in range(7))
        rows = "\n".join(f"t{i}," + ",".join("1.5" for _ in range(7))
                         for i in range(5))
        raw = load_csv(write_file(tmp_path, header + "\n" + rows + "\n"))
        assert raw.values.shape == (5, 7)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = write_file(tmp_path, "date,a\n1,1.0\n2,abc\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert "row 2" in str(err.value) and "'abc'" in str(err.value)

    def test_ragged_row_rejected(self, tmp_path):
        p = write_file(tmp_path, "date,a,b\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert "row 2" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write_file(tmp_path, ""))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_csv(tmp_path / "nope.csv")
        assert "nope.csv" in str(err.value)

    def test_non_utf8_bytes_are_parse_error(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("date,temp\n1,20.5\n2,21\xb0C\n".encode("latin-1"))
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert "UTF-8" in str(err.value) and "latin1.csv" in str(err.value)

    def test_directory_path_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_csv(tmp_path)
        assert "directory" in str(err.value)

    def test_oversized_field_is_parse_error(self, tmp_path):
        p = write_file(tmp_path, "date,a\n1,2\n2," + "3" * 200_000 + "\n")
        with pytest.raises(ParseError, match="line 3: field larger"):
            load_csv(p)

    @settings(max_examples=300, deadline=None)
    @given(content=st.one_of(
        st.binary(max_size=120),
        st.text(alphabet="0123456789.,-+eEinfa \"\r\n\x00é", max_size=120)
        .map(str.encode)), date_column=st.booleans())
    def test_any_bytes_load_and_split_or_raise_spat_error(
            self, tmp_path_factory, content, date_column):
        p = tmp_path_factory.mktemp("fuzz") / "data.csv"
        p.write_bytes(content)
        try:
            split(load_csv(p, date_column=date_column), ratios=(0.7, 0.1, 0.2))
        except SpatError:
            pass

    def test_round_trip_through_write(self, tmp_path):
        raw = generate_synthetic(SyntheticSpec(channels=3, length=20, seed=1))
        p = tmp_path / "series.csv"
        write_csv(p, raw)
        again = load_csv(p)
        np.testing.assert_array_equal(again.values, raw.values)


class TestSplit:
    def test_ratio_split_row_counts(self):
        ds = split(series(np.zeros((100, 2))), ratios=(0.7, 0.1, 0.2))
        assert (ds.train_end, ds.val_end - ds.train_end,
                ds.test_end - ds.val_end) == (70, 10, 20)

    def test_ett_border_window_counts(self):
        spec = WindowSpec(lookback=336, horizon=96)
        values = np.random.default_rng(0).normal(size=(17420, 7))
        ds = split(series(values), counts=(8640, 2880, 2880))
        got = tuple(
            window_count(len(ds.region(s, lookback=336 if s != "train" else 0)), spec)
            for s in ("train", "val", "test"))
        assert got == (8209, 2785, 2785)

    def test_counts_exceeding_length_rejected(self):
        with pytest.raises(ConfigError):
            split(series(np.zeros((10, 1))), counts=(8, 2, 2))

    @pytest.mark.parametrize("ratios, counts", [
        ((0.7, 0.1, 0.2), None), (None, (0, 1, 0))])
    def test_empty_training_region_rejected_before_stats(self, ratios, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="training split is empty"):
                split(series(np.ones((1, 2))), ratios=ratios, counts=counts)

    @pytest.mark.parametrize("ratios, counts", [
        ((0.7, -0.1, 0.2), None), ((0.7, float("nan"), 0.2), None),
        ((0.5, 0.5), None), ((0.6, 0.5, 0.1), None), (None, (1, -1, 1)),
        (None, (1, 2)), (None, None), ((0.7, 0.1, 0.2), (1, 1, 1))])
    def test_bad_ratios_or_counts_name_the_field(self, ratios, counts):
        with pytest.raises(ConfigError, match="data.split_"):
            split(series(np.ones((10, 1))), ratios=ratios, counts=counts,
                  names=DataConfig.SPLIT_FIELDS)
        with pytest.raises(ConfigError, match="data.split_"):
            DataConfig(split_ratios=ratios, split_counts=counts)

    def test_stats_come_from_train_region_only(self):
        values = np.zeros((100, 1))
        values[:70] = 2.0
        values[70:] = 1000.0
        ds = split(series(values), ratios=(0.7, 0.1, 0.2))
        assert ds.mean[0] == 2.0

    def test_test_region_mutation_does_not_leak(self):
        values = np.random.default_rng(1).normal(size=(100, 2))
        mutated = values.copy()
        mutated[80:] += 1e6
        a = split(series(values), ratios=(0.7, 0.1, 0.2))
        b = split(series(mutated), ratios=(0.7, 0.1, 0.2))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std, b.std)

    def test_constant_channel_std_floored(self):
        ds = split(series(np.ones((50, 1))), ratios=(0.8, 0.1, 0.1))
        assert ds.std[0] == 1e-8

    def test_deterministic_given_same_input(self, tmp_path):
        raw = generate_synthetic(SyntheticSpec(channels=2, length=60, seed=3))
        p = tmp_path / "x.csv"
        write_csv(p, raw)
        a = split(load_csv(p), ratios=(0.7, 0.1, 0.2))
        b = split(load_csv(p), ratios=(0.7, 0.1, 0.2))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.mean, b.mean)


class TestWindows:
    def test_count_formula(self):
        x, y = make_windows(np.zeros((10, 1)), WindowSpec(4, 2))
        assert len(x) == 5

    def test_first_window_of_ramp(self):
        region = np.arange(10.0)[:, None]
        x, y = make_windows(region, WindowSpec(3, 1))
        np.testing.assert_array_equal(x[0][:, 0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(y[0][:, 0], [3.0])

    def test_too_short_region_is_empty(self):
        x, y = make_windows(np.zeros((3, 2)), WindowSpec(4, 2))
        assert x.shape == (0, 4, 2) and y.shape == (0, 2, 2)

    def test_dataset_windows_use_train_stats(self):
        values = np.random.default_rng(3).normal(size=(80, 2))
        ds = split(series(values), ratios=(0.7, 0.1, 0.2))
        spec = WindowSpec(8, 4)
        x, _ = dataset_windows(ds, "train", spec)
        manual = (ds.region("train") - ds.mean) / ds.std
        np.testing.assert_array_equal(x[0], manual[:8])

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(0, 40), lookback=st.integers(1, 8),
           horizon=st.integers(1, 8), stride=st.integers(1, 4))
    def test_count_matches_enumeration(self, length, lookback, horizon, stride):
        spec = WindowSpec(lookback, horizon, stride)
        enumerated = sum(
            1 for start in range(0, max(length, 0), stride)
            if start + lookback + horizon <= length
            # enumeration must also respect the stride grid
            and start % stride == 0)
        assert window_count(length, spec) == enumerated
        if length >= lookback + horizon:
            x, _ = make_windows(np.zeros((length, 1)), spec)
            assert len(x) == enumerated


class TestBatching:
    def test_partial_final_batch_kept(self):
        x = np.zeros((10, 4, 1))
        y = np.zeros((10, 2, 1))
        sizes = [len(b.x) for b in batch_iterator(x, y, 4)]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_order(self):
        x = np.arange(20.0).reshape(10, 2, 1)
        y = x[:, :1, :]
        a = [b.x.tolist() for b in batch_iterator(x, y, 3, shuffle_seed=5)]
        b = [b.x.tolist() for b in batch_iterator(x, y, 3, shuffle_seed=5)]
        assert a == b

    def test_no_shuffle_is_chronological(self):
        x = np.arange(6.0).reshape(6, 1, 1)
        y = x.copy()
        got = np.concatenate([b.x for b in batch_iterator(x, y, 4)])
        np.testing.assert_array_equal(got, x)

    def test_batch_pairs_stay_aligned(self):
        x = np.arange(8.0).reshape(8, 1, 1)
        y = x * 10
        for b in batch_iterator(x, y, 3, shuffle_seed=0):
            np.testing.assert_array_equal(b.y, b.x * 10)


class TestSynthetic:
    def test_shape_and_determinism(self):
        spec = SyntheticSpec(channels=4, length=128, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.values.shape == (128, 4)
        np.testing.assert_array_equal(a.values, b.values)

    def test_phase_shift_changes_series(self):
        base = generate_synthetic(SyntheticSpec(channels=2, length=64, seed=1))
        shifted = generate_synthetic(
            SyntheticSpec(channels=2, length=64, seed=1, phase_shift=1.0))
        assert not np.allclose(base.values, shifted.values)

    def test_noise_free_is_smooth_mixture(self):
        spec = SyntheticSpec(channels=1, length=100, noise_std=0.0,
                             frequencies=(2.0,), seed=4)
        values = generate_synthetic(spec).values[:, 0]
        # one pure sinusoid: second difference bounded by frequency scale
        assert np.abs(np.diff(values, 2)).max() < (2 * np.pi * 2.0 / 100) ** 2 * 1.3

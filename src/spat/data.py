"""CSV ingestion, chronological splits, sliding windows and batching.

Splits are contiguous and ordered (train < val < test). Validation and
test regions are extended backward by the lookback length when windows are
extracted, so the first prediction of each region starts right after the
previous region ends; this is the border convention the standard
long-horizon benchmarks use. Normalization statistics always come from the
training region alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, ParseError

STD_FLOOR = 1e-8


@dataclass
class WindowSpec:
    lookback: int
    horizon: int
    stride: int = 1

    def __post_init__(self):
        if self.lookback < 1 or self.horizon < 1 or self.stride < 1:
            raise ConfigError(
                f"window spec needs lookback, horizon, stride >= 1, got "
                f"({self.lookback}, {self.horizon}, {self.stride})")


def window_count(region_length: int, spec: WindowSpec) -> int:
    usable = region_length - spec.lookback - spec.horizon
    return 0 if usable < 0 else usable // spec.stride + 1


@dataclass
class RawSeries:
    name: str
    values: np.ndarray                 # [time, C]


@dataclass
class SeriesDataset:
    """A loaded series with chronological split boundaries and train stats."""

    name: str
    values: np.ndarray                 # [time, C]
    train_end: int
    val_end: int
    test_end: int
    mean: np.ndarray = field(init=False)   # [C], training region only
    std: np.ndarray = field(init=False)    # [C], floored at STD_FLOOR

    def __post_init__(self):
        if self.train_end == 0:
            raise ConfigError(
                f"the training split is empty ({len(self.values)} rows in "
                f"all), so there are no normalization statistics")
        train = self.values[:self.train_end]
        self.mean = train.mean(axis=0)
        self.std = np.maximum(train.std(axis=0), STD_FLOOR)

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def region(self, split: str, lookback: int = 0) -> np.ndarray:
        """Rows of one split; val/test are extended back by ``lookback``."""
        if split == "train":
            return self.values[:self.train_end]
        if split == "val":
            return self.values[max(self.train_end - lookback, 0):self.val_end]
        if split == "test":
            return self.values[max(self.val_end - lookback, 0):self.test_end]
        raise ConfigError(f"unknown split {split!r}")


def load_csv(path, date_column: bool = True, name: str | None = None) -> RawSeries:
    """Parse a comma-separated file with a header row into a [time, C] matrix.

    An optional leading date column is skipped. Parse failures report the
    offending row and column.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"dataset file does not exist: {path}")
    if path.is_dir():
        raise ConfigError(f"dataset path is a directory, not a file: {path}")
    try:
        rows = _read_rows(path, date_column)
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from None
    return RawSeries(name=name or path.stem,
                     values=np.array(rows, dtype=np.float64))


def _read_rows(path: Path, date_column: bool) -> list[list[float]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = _csv_rows(path, f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        start = 1 if date_column else 0
        columns = header[start:]
        if not columns:
            raise ParseError(f"{path}: no numeric columns after the date column")
        rows = []
        for row_idx, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {row_idx} has {len(row)} cells, "
                                 f"expected {len(header)}")
            parsed = []
            for col_idx, cell in enumerate(row[start:]):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_idx}, column {columns[col_idx]!r}: "
                        f"cannot parse {cell!r} as a number") from None
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows below the header")
    return rows


def _csv_rows(path: Path, f) -> Iterator[list[str]]:
    reader = csv.reader(f)
    try:
        yield from reader
    except csv.Error as e:  # e.g. a cell over the field size limit
        raise ParseError(f"{path}: line {reader.line_num}: {e}") from None


def write_csv(path, series: RawSeries) -> None:
    """Write a date column (the row index) and one ``ch{i}`` column per
    channel."""
    values = series.values
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["date"] + [f"ch{i}" for i in range(values.shape[1])])
        for t in range(values.shape[0]):
            writer.writerow([str(t)] + [repr(float(v)) for v in values[t]])


def check_split(ratios, counts, names=("ratios", "counts")) -> None:
    """Raise ``ConfigError`` unless exactly one of ``ratios`` (three
    non-negative numbers summing to <= 1) and ``counts`` (three
    non-negative ints) is given. ``names`` name the two in the message,
    e.g. as the config fields they came from."""
    ratios_name, counts_name = names
    if (ratios is None) == (counts is None):
        raise ConfigError(f"give exactly one of {ratios_name} and {counts_name}")
    if ratios is not None:
        # a NaN ratio makes the sum NaN, which fails <=
        if (len(ratios) != 3 or any(r < 0 for r in ratios)
                or not sum(ratios) <= 1 + 1e-9):
            raise ConfigError(f"{ratios_name} must be three non-negative "
                              f"numbers summing to <= 1, got {list(ratios)}")
    elif len(counts) != 3 or any(c < 0 for c in counts):
        raise ConfigError(f"{counts_name} must be three non-negative ints, "
                          f"got {list(counts)}")


def split(series: RawSeries, ratios=None, counts=None,
          names: tuple[str, str] = ("ratios", "counts")) -> SeriesDataset:
    """Cut a series into contiguous train/val/test regions.

    Either fractional ``ratios`` (train, val, test) or explicit row
    ``counts`` must be given; counts support the fixed border conventions
    of the benchmark datasets. ``names`` name the two in error messages,
    as in :func:`check_split`.
    """
    name, values = series.name, series.values
    length = len(values)
    check_split(ratios, counts, names)
    if ratios is not None:
        train_n = int(length * ratios[0])
        val_n = int(length * ratios[1])
        test_n = length - train_n - val_n
    else:
        train_n, val_n, test_n = counts
        if train_n + val_n + test_n > length:
            raise ConfigError(f"{names[1]} {list(counts)} exceed series "
                              f"length {length}")
    if not np.isfinite(values).all():
        raise ParseError(f"dataset {name!r} contains non-finite values")
    return SeriesDataset(
        name=name, values=values,
        train_end=train_n, val_end=train_n + val_n,
        test_end=train_n + val_n + test_n)


def make_windows(region: np.ndarray, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sliding (X, Y) pairs: X rows [i, i+L), Y rows [i+L, i+L+T).

    A region too short for a single window yields empty arrays; the caller
    decides whether an empty split is an error.
    """
    n = window_count(len(region), spec)
    channels = region.shape[1]
    if n == 0:
        return (np.zeros((0, spec.lookback, channels)),
                np.zeros((0, spec.horizon, channels)))
    starts = np.arange(n) * spec.stride
    x = np.stack([region[s:s + spec.lookback] for s in starts])
    y = np.stack([region[s + spec.lookback:s + spec.lookback + spec.horizon]
                  for s in starts])
    return x, y


def dataset_windows(ds: SeriesDataset, split_name: str,
                    spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Windows of one split, standardized with the training statistics."""
    lookback = 0 if split_name == "train" else spec.lookback
    region = ds.region(split_name, lookback=lookback)
    return make_windows((region - ds.mean) / ds.std, spec)


class ForecastBatch(NamedTuple):
    x: np.ndarray    # [batch, L, C]
    y: np.ndarray    # [batch, T, C]


def batch_iterator(x: np.ndarray, y: np.ndarray, batch_size: int,
                   shuffle_seed: int | None = None) -> Iterator[ForecastBatch]:
    """Deterministic batches; a partial final batch is kept.

    ``shuffle_seed`` draws one permutation (training); ``None`` keeps
    chronological order (validation/test).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(x)
    order = (np.random.default_rng(shuffle_seed).permutation(n)
             if shuffle_seed is not None else np.arange(n))
    for start in range(0, n, batch_size):
        sel = order[start:start + batch_size]
        yield ForecastBatch(x[sel], y[sel])


# -- synthetic data ------------------------------------------------------


@dataclass
class SyntheticSpec:
    """Seeded mixture of sinusoids with optional trend and noise."""

    channels: int = 7
    length: int = 2000
    frequencies: tuple[float, ...] = (11.0, 23.0, 41.0)
    noise_std: float = 0.1
    trend: float = 0.0
    phase_shift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.channels < 1 or self.length < 2:
            raise ConfigError("synthetic spec needs channels >= 1, length >= 2")
        # false for NaN as well
        if not 0.0 <= self.noise_std < math.inf:
            raise ConfigError(
                f"noise_std must be finite and >= 0, got {self.noise_std}")
        self.frequencies = tuple(float(f) for f in self.frequencies)
        for name, values in (("frequencies", self.frequencies),
                             ("trend", (self.trend,)),
                             ("phase_shift", (self.phase_shift,))):
            if not all(map(math.isfinite, values)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")


def generate_synthetic(spec: SyntheticSpec, name: str = "synthetic") -> RawSeries:
    """Per-channel random mixtures over a shared frequency list.

    Frequencies are cycles over the full length; the phase shift moves
    every component, which gives a related-but-different series family for
    transfer experiments.
    """
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length)[:, None] / spec.length        # [time, 1]
    values = np.zeros((spec.length, spec.channels))
    for f in spec.frequencies:
        amp = rng.uniform(0.4, 1.2, size=spec.channels)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=spec.channels)
        values += amp * np.sin(2.0 * np.pi * f * t + phase + spec.phase_shift)
    values += spec.trend * t
    if spec.noise_std > 0.0:
        values += rng.normal(0.0, spec.noise_std, size=values.shape)
    return RawSeries(name=name, values=values)

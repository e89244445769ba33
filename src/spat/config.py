"""Declarative experiment configuration: YAML file plus flag overrides.

The on-disk config is the single source of truth for a run; every run
directory gets an exact snapshot of the config that produced it, and
``load_config`` of a file holding ``serialize_config(cfg)`` gives back
``cfg`` for any valid config.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .data import SyntheticSpec, WindowSpec, check_split
from .errors import ConfigError
from .model import ArchitectureConfig, field_type_error


def _read_floats(annotation: str, value):
    """PyYAML reads a float written without a dot (``1e-4``) as a string;
    where a float is due, read such a string as the number it spells."""
    if isinstance(value, str) and annotation.split(" | ")[0] == "float":
        try:
            return float(value)
        except ValueError:
            return value
    if isinstance(value, list) and annotation.startswith("tuple[float"):
        return [_read_floats("float", v) for v in value]
    return value


@dataclass
class DataConfig:
    source: str = "synthetic"            # synthetic | csv
    path: str | None = None
    name: str | None = None
    date_column: bool = True
    split_ratios: tuple[float, ...] | None = (0.7, 0.1, 0.2)
    split_counts: tuple[int, ...] | None = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    SPLIT_FIELDS = ("data.split_ratios", "data.split_counts")

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"data.source must be 'synthetic' or 'csv', "
                              f"got {self.source!r}")
        if self.source == "csv" and not self.path:
            raise ConfigError("data.path is required when data.source is 'csv'")
        if self.synthetic.seed < 0:
            raise ConfigError(f"data.synthetic.seed must be >= 0, "
                              f"got {self.synthetic.seed}")
        check_split(self.split_ratios, self.split_counts, self.SPLIT_FIELDS)
        if self.split_ratios is not None:
            self.split_ratios = tuple(float(r) for r in self.split_ratios)
        if self.split_counts is not None:
            self.split_counts = tuple(int(c) for c in self.split_counts)

    def dataset_name(self) -> str:
        if self.name:
            return self.name
        if self.source == "csv":
            return Path(self.path).stem
        return "synthetic"


@dataclass
class OptimizerConfig:
    lr: float = 1e-4
    lr_min: float = 0.0
    epochs: int = 10
    finetune_epochs: int | None = None   # default: half the pretrain budget
    finetune_lr: float | None = None     # default: reuse lr
    patience: int | None = 5             # None disables early stopping
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self.lr = float(self.lr)
        self.lr_min = float(self.lr_min)
        if self.finetune_lr is not None:
            self.finetune_lr = float(self.finetune_lr)
        # every test below is false for NaN; a zero finetune_lr finetunes
        # without moving a weight
        ft_lr = 0.0 if self.finetune_lr is None else self.finetune_lr
        ranges = {"lr": (0.0 < self.lr < math.inf, "finite and > 0"),
                  "finetune_lr": (0.0 <= ft_lr < math.inf, "finite and >= 0"),
                  "lr_min": (0.0 <= self.lr_min < math.inf, "finite and >= 0"),
                  "beta1": (0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                  "beta2": (0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                  "eps": (0.0 < self.eps < math.inf, "finite and > 0")}
        for name, (ok, rule) in ranges.items():
            if not ok:
                raise ConfigError(
                    f"optimizer.{name} must be {rule}, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError("optimizer.epochs must be >= 0")
        if self.finetune_epochs is not None and self.finetune_epochs < 0:
            raise ConfigError("optimizer.finetune_epochs must be >= 0 or null")
        if self.batch_size < 1:
            raise ConfigError("optimizer.batch_size must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise ConfigError("optimizer.patience must be >= 1 or null")


@dataclass
class PruningConfig:
    alpha: float = 0.3
    score_batches: int | None = None     # None = one full training epoch
    rescore_between_removals: bool = False

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"pruning.alpha must lie in (0, 1), got {self.alpha}")
        if self.score_batches is not None and self.score_batches < 1:
            raise ConfigError("pruning.score_batches must be >= 1 or null")


@dataclass
class ExperimentConfig:
    seed: int = 0
    run_dir: str = "runs/experiment"
    data: DataConfig = field(default_factory=DataConfig)
    window: WindowSpec = field(default_factory=lambda: WindowSpec(96, 24))
    model: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# Fields that hold a section of their own, by annotation
_SECTIONS = {cls.__name__: cls for cls in (
    DataConfig, SyntheticSpec, WindowSpec, ArchitectureConfig, OptimizerConfig,
    PruningConfig)}


def _build(cls, data: dict, path: str):
    """``cls`` from a mapping. Each value is checked against its field's
    annotation (``model.FIELD_TYPES``) before ``cls`` sees it."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    annotations = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = f"{path}.{key}" if path else str(key)
        if key not in annotations:
            raise ConfigError(f"{name}: unknown field")
        section = _SECTIONS.get(annotations[key])
        if section is not None:
            value = _build(section, value, name)
        else:
            value = _read_floats(annotations[key], value)
            wrong = field_type_error(name, annotations[key], value)
            if wrong:
                raise ConfigError(wrong)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{path}: {e}") from e


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return _build(ExperimentConfig, data, "")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    def clean(x):
        if isinstance(x, tuple):
            return [clean(v) for v in x]
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        return x

    return clean(asdict(cfg))


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply dotted ``section.field=value`` overrides; flags win over file."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        node = data
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r}: {part} is not a section")
        node[parts[-1]] = value
    return data


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e.reason}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    if data is None:
        data = {}
    if overrides:
        data = apply_overrides(data, overrides)
    return config_from_dict(data)

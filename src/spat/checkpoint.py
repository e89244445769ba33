"""Versioned checkpoint container for forecaster models.

Layout: one JSON header line (sorted keys, compact separators) followed by
the raw little-endian float64 buffers of the model's parameters
(``Forecaster.state_dict``) in header order. Nothing else is saved: a loaded
model is built from the file's arrays alone (``Forecaster.from_state``),
each parameter holding a copy of its slice of the payload, and draws no
initial values. The header is checked in full against the payload and the
config before anything is allocated for the model. The encoding is fully
deterministic, so save -> load -> save reproduces the original file byte
for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ParseError, ShapeError
from .model import (
    Forecaster,
    ModelConfig,
    check_state_shapes,
    field_type_error,
    state_shapes,
)

FORMAT_VERSION = 1


def _model_config(path, config) -> ModelConfig:
    """ModelConfig from a header's ``config`` object, which must give every
    field, each value type-checked: a default in place of a missing field
    would build another model than the one saved."""
    if not isinstance(config, dict):
        raise ParseError(f"{path}: checkpoint config is not an object")
    annotations = {f.name: f.type for f in fields(ModelConfig)}
    missing = [key for key in annotations if key not in config]
    if missing:
        raise ParseError(f"{path}: checkpoint config lacks "
                         f"{', '.join(missing)}")
    for key, value in config.items():
        if key not in annotations:
            raise ParseError(f"{path}: unknown checkpoint config key {key!r}")
        wrong = field_type_error(key, annotations[key], value)
        if wrong:
            raise ParseError(f"{path}: checkpoint config {wrong}")
    try:
        return ModelConfig(**config)
    except ConfigError as e:
        raise ParseError(f"{path}: checkpoint config: {e}") from e


def save_checkpoint(path, model: Forecaster, meta: dict | None = None) -> None:
    entries = model.state_dict().items()
    header = {
        "version": FORMAT_VERSION,
        "config": asdict(model.cfg),
        "pruned": model.pruned_layers(),
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in entries],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    with open(path, "wb") as f:
        f.write(blob)
        for _, arr in entries:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Forecaster, dict]:
    path = Path(path)
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as e:  # not UTF-8 JSON, or too deep
        raise ParseError(f"{path}: invalid checkpoint header: {e}") from e
    version = header.get("version") if isinstance(header, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version!r}")

    cfg = _model_config(path, header.get("config"))
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: checkpoint meta is not an object")
    if not isinstance(meta.get("dataset_name", ""), str):
        raise ParseError(f"{path}: checkpoint meta dataset_name "
                         f"{meta['dataset_name']!r} is not a str")
    pruned = header.get("pruned")
    if not (isinstance(pruned, list)
            and all(type(i) is int and 0 <= i < cfg.layers for i in pruned)
            and len(set(pruned)) == len(pruned)):
        raise ParseError(f"{path}: pruned layers {pruned!r} are not distinct "
                         f"indices of the model's {cfg.layers} blocks")
    entries = header.get("tensors")
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and type(e.get("name")) is str
            and isinstance(e.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in e["shape"])
            for e in entries)):
        raise ParseError(f"{path}: malformed checkpoint tensor table: each "
                         "entry needs a str name and a list of ints >= 0 shape")
    table = [(e["name"], tuple(e["shape"])) for e in entries]
    # the table is checked against the payload and the config before the
    # model is built, so a header alone cannot set the allocation
    shapes = dict(table)
    if len(shapes) != len(table):
        raise ParseError(f"{path}: checkpoint tensor table repeats a name")
    n_bytes = sum(8 * math.prod(shape) for _, shape in table)
    if n_bytes != len(payload):
        raise ParseError(f"{path}: checkpoint tensor table needs {n_bytes} "
                         f"payload bytes, the file has {len(payload)}")
    expected = state_shapes(cfg, pruned)
    missing = [name for name in expected if name not in shapes]
    if missing:
        raise ParseError(f"{path}: checkpoint has no tensor for parameters "
                         f"{', '.join(missing)}")
    try:
        check_state_shapes(shapes, expected)
    except (ContractError, ShapeError) as e:
        raise type(e)(f"{path}: {e}") from e

    state = {}
    offset = 0
    for name, shape in table:
        size = 8 * math.prod(shape)
        state[name] = np.frombuffer(payload, dtype="<f8", count=size // 8,
                                    offset=offset).reshape(shape).copy()
        offset += size
    if list(shapes) != list(expected):   # a table in another order
        state = {name: state[name] for name in expected}
    return Forecaster.from_state(cfg, pruned, state), meta

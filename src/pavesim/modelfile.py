"""On-disk formats for trained models and adapted datasets.

Both artifacts are laid out by :func:`pavesim.tables.json_chunks` (``#``
audit lines, then a JSON body). ``save_model`` and ``save_dataset`` hand
their arrays to it as they are and stream its pieces to the file in
place by ``tables.write_text``, so the file text is never built whole;
the arrays are written a block of rows at a time. A file is read by
``tables.read_json``, which drops the ``#`` lines and refuses a
missing, unreadable, non-UTF-8 or non-JSON file and a non-object. Floats
serialize through ``repr`` (Python's shortest round-tripping decimal
form), so save followed by load reproduces every parameter bit-exactly,
and identical inputs produce byte-identical files.

A model file carries the network parameters with explicit shape
metadata, the normalization statistics needed to de-normalize outputs,
and both configs. Its ``network`` record fixes every layer's ``shape``
key, weights shape and bias shape, and the feature count; one rule
checks this, and that every parameter is finite, on save and on load,
so a saved model always loads. A dataset file carries the train and
test splits plus their shared normalization statistics. Configs and
statistics are written field for field by ``dataclasses.asdict`` and
read back by :func:`pavesim.errors.check_record`, each with exactly its
dataclass's fields (no default is filled in), whose numbers the
dataclass checks. Every other object (the top level, each layer, the
normalization object and each split) holds exactly the keys written, by
the same key rule, :func:`pavesim.errors.check_keys`. Weights, biases,
``X`` and ``y`` hold JSON numbers only. A missing or unknown key, a
wrong shape or a refused value is a malformed file.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .adapter import ColumnStats, Dataset, NormalizationStats
from .errors import DataError, check_keys, check_number, check_record
from .network import NetworkConfig, NetworkParams, TrainConfig
from .tables import json_chunks, read_json, write_text

MODEL_FORMAT = "pavesim-model"
DATASET_FORMAT = "pavesim-dataset"
FORMAT_VERSION = 1


def _load_commented_json(path: str | Path, expected_format: str) -> dict:
    raw = read_json(path)
    if raw.get("format") != expected_format:
        raise DataError(f"{path} is not a {expected_format} file "
                        f"(format tag {raw.get('format')!r})")
    version = raw.get("version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path} has format version {version!r}; this tool reads "
            f"version {FORMAT_VERSION}"
        )
    return raw


def _float_array(name: str, value) -> np.ndarray:
    """`value`, nested lists of JSON numbers, as a float array; np.array
    alone also reads ``"0.5"``, ``true`` and ``null``."""
    array = np.array(value, dtype=float)
    items = [value]
    for _ in range(array.ndim):
        items = list(itertools.chain.from_iterable(items))
    if not set(map(type, items)) <= {int, float}:
        check_number(name, next(v for v in items if type(v) not in (int, float)))
    return array


def _stats_from_obj(obj: dict) -> NormalizationStats:
    try:
        check_keys("normalization", obj, ("features", "target"))
        return NormalizationStats(
            features=tuple(check_record(ColumnStats, "column", e)
                           for e in obj["features"]),
            target=check_record(ColumnStats, "column", obj["target"]),
        )
    except (TypeError, DataError) as exc:
        raise DataError(f"malformed normalization statistics: {exc}") from exc


def _check_model(params: NetworkParams, stats: NormalizationStats,
                 net_cfg: NetworkConfig, shapes: list) -> None:
    """The one shape rule of a model file, on save and on load: the
    network record fixes the feature count and each layer's `shapes`
    entry (its ``shape`` key), weights shape and bias shape; every
    parameter is finite."""
    if len(stats.features) != net_cfg.input_dim:
        raise DataError(f"the normalization has {len(stats.features)} "
                        f"features but the network has input_dim "
                        f"{net_cfg.input_dim}")
    dims = net_cfg.layer_dims
    if not len(dims) == len(shapes) == len(params.weights) == len(params.biases):
        raise DataError(f"the network record fixes {len(dims)} layers, got "
                        f"{len(params.weights)} weights and "
                        f"{len(params.biases)} biases")
    for i, (dim, shape, w, b) in enumerate(
            zip(dims, shapes, params.weights, params.biases)):
        if w.shape != dim or b.shape != dim[1:]:
            raise DataError(f"layer {i} holds weights {list(w.shape)} and "
                            f"bias {list(b.shape)}, but the network record "
                            f"fixes {list(dim)} and {list(dim[1:])}")
        if shape != list(dim):
            raise DataError(f"layer {i} declares shape {shape}, but the "
                            f"network record fixes {list(dim)}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise DataError(f"layer {i} holds non-finite parameters")


def _model_payload(params: NetworkParams, stats: NormalizationStats,
                   net_cfg: NetworkConfig, train_cfg: TrainConfig) -> dict:
    shapes = [list(w.shape) for w in params.weights]
    _check_model(params, stats, net_cfg, shapes)
    layers = [
        {"shape": shape, "weights": w, "bias": b}
        for shape, w, b in zip(shapes, params.weights, params.biases)
    ]
    return {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "network": asdict(net_cfg),
        "training": asdict(train_cfg),
        "normalization": asdict(stats),
        "layers": layers,
    }


def save_model(
    path: str | Path,
    params: NetworkParams,
    stats: NormalizationStats,
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig,
    header_comments=(),
) -> None:
    write_text(path, json_chunks(
        header_comments, _model_payload(params, stats, net_cfg, train_cfg)))


def load_model(
    path: str | Path,
) -> tuple[NetworkParams, NormalizationStats, NetworkConfig, TrainConfig]:
    raw = _load_commented_json(path, MODEL_FORMAT)
    try:
        check_keys("model", raw, ("format", "version", "network", "training",
                                  "normalization", "layers"))
        net_cfg = check_record(NetworkConfig, "network", raw["network"])
        train_cfg = check_record(TrainConfig, "training", raw["training"])
        stats = _stats_from_obj(raw["normalization"])
        shapes, weights, biases = [], [], []
        for i, layer in enumerate(raw["layers"]):
            check_keys(f"layer {i}", layer, ("shape", "weights", "bias"))
            shapes.append(layer["shape"])
            weights.append(_float_array(f"layer {i} weights", layer["weights"]))
            biases.append(_float_array(f"layer {i} bias", layer["bias"]))
        params = NetworkParams(weights, biases)
        _check_model(params, stats, net_cfg, shapes)
    except (TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    return params, stats, net_cfg, train_cfg


def _dataset_payload(train: Dataset, test: Dataset) -> dict:
    if train.norm_stats != test.norm_stats:
        raise DataError("train and test splits carry different normalization "
                        "statistics")
    return {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "normalization": asdict(train.norm_stats),
        "train": {"X": train.X, "y": train.y},
        "test": {"X": test.X, "y": test.y},
    }


def save_dataset(
    path: str | Path, train: Dataset, test: Dataset, header_comments=()
) -> None:
    write_text(path, json_chunks(header_comments,
                                 _dataset_payload(train, test)))


def load_dataset(path: str | Path) -> tuple[Dataset, Dataset]:
    raw = _load_commented_json(path, DATASET_FORMAT)
    try:
        check_keys("dataset", raw, ("format", "version", "normalization",
                                    "train", "test"))
        stats = _stats_from_obj(raw["normalization"])
        splits = []
        for part in ("train", "test"):
            arrays = check_keys(part, raw[part], ("X", "y"))
            X = _float_array(f"{part} X", arrays["X"])
            y = _float_array(f"{part} y", arrays["y"])
            if X.size == 0:
                X = X.reshape(0, len(stats.features))
            splits.append(Dataset(X=X, y=y, norm_stats=stats))
    except (TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"malformed dataset file {path}: {exc}") from exc
    return splits[0], splits[1]

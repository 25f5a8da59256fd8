"""On-disk formats for trained models and adapted datasets.

Both artifacts are laid out by :func:`pavesim.tables.json_text` (``#``
audit lines, then a JSON body), written in place by ``tables.write_text``
and read by ``tables.read_json``, which drops those lines and refuses a
missing, unreadable, non-UTF-8 or non-JSON file and a non-object. Floats
serialize through ``repr`` (Python's shortest round-tripping decimal
form), so save followed by load reproduces every parameter bit-exactly,
and identical inputs produce byte-identical files.

A model file carries the network parameters with explicit shape
metadata, the normalization statistics needed to de-normalize outputs,
and both configs. A dataset file carries the train and test splits plus
their shared normalization statistics. Configs and statistics are
written field for field by ``dataclasses.asdict`` and read back raw: the
dataclasses check each number by :func:`pavesim.errors.check_number`,
and weights, biases, ``X`` and ``y`` hold JSON numbers only. A missing
key, a wrong shape or a refused value is a malformed file.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .adapter import ColumnStats, Dataset, NormalizationStats
from .errors import DataError, check_number
from .network import NetworkConfig, NetworkParams, TrainConfig
from .tables import json_text, read_json, write_text

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
    items = np.array(value, dtype=object).ravel()
    if not set(map(type, items)) <= {int, float}:
        check_number(name, next(v for v in items if type(v) not in (int, float)))
    return array


def _stats_from_obj(obj: dict) -> NormalizationStats:
    def column(entry: dict) -> ColumnStats:
        return ColumnStats(
            name=entry["name"], kind=entry["kind"],
            mean=entry["mean"], std=entry["std"],
        )
    try:
        return NormalizationStats(
            features=tuple(column(e) for e in obj["features"]),
            target=column(obj["target"]),
        )
    except (KeyError, TypeError, DataError) as exc:
        raise DataError(f"malformed normalization statistics: {exc}") from exc


def model_to_text(
    params: NetworkParams,
    stats: NormalizationStats,
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig,
    header_comments=(),
) -> str:
    params.validate()
    layers = [
        {
            "shape": list(w.shape),
            "weights": w.tolist(),
            "bias": b.tolist(),
        }
        for w, b in zip(params.weights, params.biases)
    ]
    payload = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "network": asdict(net_cfg),
        "training": asdict(train_cfg),
        "normalization": asdict(stats),
        "layers": layers,
    }
    return json_text(header_comments, payload)


def save_model(
    path: str | Path,
    params: NetworkParams,
    stats: NormalizationStats,
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig,
    header_comments=(),
) -> None:
    write_text(
        path, model_to_text(params, stats, net_cfg, train_cfg, header_comments)
    )


def load_model(
    path: str | Path,
) -> tuple[NetworkParams, NormalizationStats, NetworkConfig, TrainConfig]:
    raw = _load_commented_json(path, MODEL_FORMAT)
    try:
        n, t = raw["network"], raw["training"]
        net_cfg = NetworkConfig(input_dim=n["input_dim"],
                                hidden_widths=tuple(n["hidden_widths"]),
                                seed=n["seed"])
        train_cfg = TrainConfig(**{f.name: t[f.name] for f in fields(TrainConfig)})
        stats = _stats_from_obj(raw["normalization"])
        weights, biases = [], []
        for i, layer in enumerate(raw["layers"]):
            w = _float_array(f"layer {i} weights", layer["weights"])
            b = _float_array(f"layer {i} bias", layer["bias"])
            if list(w.shape) != list(layer["shape"]):
                raise DataError(
                    f"layer {i} declares shape {layer['shape']} but holds "
                    f"{list(w.shape)}"
                )
            weights.append(w)
            biases.append(b)
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    params = NetworkParams(weights, biases)
    params.validate()
    expected = [tuple(d) for d in net_cfg.layer_dims]
    if params.shapes() != expected:
        raise DataError(
            f"model file layers {params.shapes()} do not match the declared "
            f"architecture {expected}"
        )
    return params, stats, net_cfg, train_cfg


def _split_to_obj(ds: Dataset) -> dict:
    return {"X": ds.X.tolist(), "y": ds.y.tolist()}


def dataset_to_text(
    train: Dataset, test: Dataset, header_comments=()
) -> str:
    if train.norm_stats != test.norm_stats:
        raise DataError("train and test splits carry different normalization "
                        "statistics")
    payload = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "normalization": asdict(train.norm_stats),
        "train": _split_to_obj(train),
        "test": _split_to_obj(test),
    }
    return json_text(header_comments, payload)


def save_dataset(
    path: str | Path, train: Dataset, test: Dataset, header_comments=()
) -> None:
    write_text(path, dataset_to_text(train, test, header_comments))


def load_dataset(path: str | Path) -> tuple[Dataset, Dataset]:
    raw = _load_commented_json(path, DATASET_FORMAT)
    try:
        stats = _stats_from_obj(raw["normalization"])
        splits = []
        for part in ("train", "test"):
            X = _float_array(f"{part} X", raw[part]["X"])
            y = _float_array(f"{part} y", raw[part]["y"])
            if X.size == 0:
                X = X.reshape(0, len(stats.features))
            splits.append(Dataset(X=X, y=y, norm_stats=stats))
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"malformed dataset file {path}: {exc}") from exc
    return splits[0], splits[1]

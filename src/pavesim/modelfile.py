"""On-disk formats for trained models and adapted datasets.

Both artifacts are laid out by :func:`pavesim.tables.json_text` (``#``
audit lines, then a JSON body), written by ``tables.write_text_atomic``
and read by ``tables.read_json``, which drops those lines and refuses a
missing, unreadable, non-UTF-8 or non-JSON file and a non-object. Floats
serialize through ``repr`` (Python's shortest round-tripping decimal
form), so save followed by load reproduces every parameter bit-exactly,
and identical inputs produce byte-identical files.

A model file carries the network parameters with explicit shape
metadata, the normalization statistics needed to de-normalize outputs,
and both configs. A dataset file carries the train and test splits plus
their shared normalization statistics. Configs and statistics are
written field for field by ``dataclasses.asdict`` and read back by the
rule of operation configs: a boolean or a string is never a number, and
an integer field takes only a JSON integer.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from .adapter import ColumnStats, Dataset, NormalizationStats
from .errors import DataError
from .network import NetworkConfig, NetworkParams, TrainConfig
from .tables import json_text, read_json, write_text_atomic

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


def _number(value, kind: type = float):
    """A JSON number as `kind`, by the rule of operation configs: a boolean
    or a string is never a number, and an ``int`` field takes only JSON
    integers. Raises ``TypeError`` otherwise."""
    allowed, what = (int, "integer") if kind is int else ((int, float), "number")
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise TypeError(f"expected a JSON {what}, got {value!r}")
    return kind(value)


def _stats_from_obj(obj: dict) -> NormalizationStats:
    def column(entry: dict) -> ColumnStats:
        return ColumnStats(
            name=entry["name"], kind=entry["kind"],
            mean=_number(entry["mean"]), std=_number(entry["std"]),
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
    write_text_atomic(
        path, model_to_text(params, stats, net_cfg, train_cfg, header_comments)
    )


def load_model(
    path: str | Path,
) -> tuple[NetworkParams, NormalizationStats, NetworkConfig, TrainConfig]:
    raw = _load_commented_json(path, MODEL_FORMAT)
    try:
        n = raw["network"]
        net_cfg = NetworkConfig(
            input_dim=_number(n["input_dim"], int),
            hidden_widths=tuple(_number(w, int) for w in n["hidden_widths"]),
            seed=_number(n["seed"], int),
        )
        t = raw["training"]
        train_cfg = TrainConfig(
            epochs=_number(t["epochs"], int),
            batch_size=_number(t["batch_size"], int),
            learning_rate=_number(t["learning_rate"]),
            adam_beta1=_number(t["adam_beta1"]),
            adam_beta2=_number(t["adam_beta2"]),
            adam_epsilon=_number(t["adam_epsilon"]),
            shuffle_seed=_number(t["shuffle_seed"], int),
        )
        stats = _stats_from_obj(raw["normalization"])
        weights, biases = [], []
        for i, layer in enumerate(raw["layers"]):
            w = np.array(layer["weights"], dtype=float)
            b = np.array(layer["bias"], dtype=float)
            if list(w.shape) != list(layer["shape"]):
                raise DataError(
                    f"layer {i} declares shape {layer['shape']} but holds "
                    f"{list(w.shape)}"
                )
            weights.append(w)
            biases.append(b)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    write_text_atomic(path, dataset_to_text(train, test, header_comments))


def load_dataset(path: str | Path) -> tuple[Dataset, Dataset]:
    raw = _load_commented_json(path, DATASET_FORMAT)
    try:
        stats = _stats_from_obj(raw["normalization"])
        splits = []
        for part in ("train", "test"):
            X = np.array(raw[part]["X"], dtype=float)
            y = np.array(raw[part]["y"], dtype=float)
            if X.size == 0:
                X = X.reshape(0, len(stats.features))
            splits.append(Dataset(X=X, y=y, norm_stats=stats))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed dataset file {path}: {exc}") from exc
    return splits[0], splits[1]

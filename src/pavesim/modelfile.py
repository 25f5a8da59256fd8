"""On-disk formats for trained models and adapted datasets.

Both artifacts are written by :func:`pavesim.tables.json_text`: ``#``
comment lines (the audit header of the command-line tool), then a JSON
body; every loader strips those lines. Floats serialize through ``repr``
(Python's shortest round-tripping decimal form), so save followed by
load reproduces every parameter bit-exactly, and identical inputs
produce byte-identical files.

A model file carries the network parameters with explicit shape
metadata, the normalization statistics needed to de-normalize outputs,
and both configs. A dataset file carries the train and test splits plus
their shared normalization statistics. Configs and statistics are
written field for field by ``dataclasses.asdict``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .adapter import ColumnStats, Dataset, NormalizationStats
from .errors import DataError
from .network import NetworkConfig, NetworkParams, TrainConfig
from .tables import json_text, without_comments

MODEL_FORMAT = "pavesim-model"
DATASET_FORMAT = "pavesim-dataset"
FORMAT_VERSION = 1


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a uniquely named sibling temp file and rename, so
    failures leave no partial output and concurrent writers of one path
    never share a temp file.

    The temp file is created like ``open(path, "w")`` creates a file,
    with mode 0o666 less the umask; ``tempfile.mkstemp`` would force 0o600.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as stream:
            stream.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_commented_json(path: str | Path, expected_format: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        raw = json.loads("".join(
            without_comments(path.read_text().splitlines(keepends=True))))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("format") != expected_format:
        raise DataError(
            f"{path} is not a {expected_format} file "
            f"(format tag {raw.get('format') if isinstance(raw, dict) else None!r})"
        )
    version = raw.get("version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path} has format version {version!r}; this tool reads "
            f"version {FORMAT_VERSION}"
        )
    return raw


def _stats_from_obj(obj: dict) -> NormalizationStats:
    def column(entry: dict) -> ColumnStats:
        return ColumnStats(
            name=entry["name"], kind=entry["kind"],
            mean=float(entry["mean"]), std=float(entry["std"]),
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
        net_cfg = NetworkConfig(
            input_dim=int(raw["network"]["input_dim"]),
            hidden_widths=tuple(int(w) for w in raw["network"]["hidden_widths"]),
            seed=int(raw["network"]["seed"]),
        )
        t = raw["training"]
        train_cfg = TrainConfig(
            epochs=int(t["epochs"]),
            batch_size=int(t["batch_size"]),
            learning_rate=float(t["learning_rate"]),
            adam_beta1=float(t["adam_beta1"]),
            adam_beta2=float(t["adam_beta2"]),
            adam_epsilon=float(t["adam_epsilon"]),
            shuffle_seed=int(t["shuffle_seed"]),
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

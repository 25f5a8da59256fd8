import json
import re
import stat
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from pavesim.adapter import (ColumnStats, Dataset, NormalizationStats,
                             encode_and_normalize, split)
from pavesim.errors import DataError
from pavesim.modelfile import (
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from pavesim.network import (
    NetworkConfig,
    NetworkParams,
    TrainConfig,
    init_network,
    train,
)
from pavesim.synthetic import generate_paving_dataset
from pavesim.tables import NUMERIC

from params_helpers import params_equal
from test_tables import write_text_atomic


def trained_fixture():
    table = generate_paving_dataset(60, 19)
    ds = encode_and_normalize(table, "Productivity")
    net_cfg = NetworkConfig(input_dim=9, hidden_widths=(4,), seed=2)
    train_cfg = TrainConfig(epochs=2, shuffle_seed=3)
    params, _ = train(ds, net_cfg, train_cfg)
    return params, ds, net_cfg, train_cfg


def test_model_round_trip_is_bit_exact(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg,
               header_comments=("trained on 60 rows",))
    loaded_params, loaded_stats, loaded_net, loaded_train = load_model(path)
    assert params_equal(loaded_params, params)
    assert loaded_stats == ds.norm_stats
    assert loaded_net == net_cfg
    assert loaded_train == train_cfg


def test_model_text_is_reproducible(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    save_model(a, params, ds.norm_stats, net_cfg, train_cfg)
    save_model(b, params, ds.norm_stats, net_cfg, train_cfg)
    assert a.read_bytes() == b.read_bytes()


def test_saved_model_rewrites_identically(tmp_path):
    # save -> load -> save must produce the same bytes
    params, ds, net_cfg, train_cfg = trained_fixture()
    first = tmp_path / "a.model"
    save_model(first, params, ds.norm_stats, net_cfg, train_cfg)
    second = tmp_path / "b.model"
    save_model(second, *load_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_comment_lines_are_ignored_on_load(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg,
               header_comments=("one", "two"))
    text = path.read_text()
    assert text.startswith("# one\n# two\n{")
    bare = tmp_path / "bare.model"
    bare.write_text("".join(
        l for l in text.splitlines(keepends=True) if not l.startswith("#")))
    loaded_params, _, _, _ = load_model(bare)
    assert params_equal(loaded_params, params)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_model(tmp_path / "gone.model")


def test_load_model_rejects_broken_json(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_model(path)


def test_load_model_rejects_wrong_format_tag(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    model_path = tmp_path / "m.model"
    save_model(model_path, params, ds.norm_stats, net_cfg, train_cfg)
    # a dataset file is not a model file
    train_ds, test_ds = split(
        encode_and_normalize(generate_paving_dataset(20, 1), "Productivity"),
        0.5, 1)
    ds_path = tmp_path / "d.json"
    save_dataset(ds_path, train_ds, test_ds)
    with pytest.raises(DataError, match="not a pavesim-model file"):
        load_model(ds_path)
    with pytest.raises(DataError, match="not a pavesim-dataset file"):
        load_dataset(model_path)


def test_load_model_rejects_future_version(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    raw["version"] = 2
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="format version 2"):
        load_model(path)


def test_load_model_rejects_shape_metadata_mismatch(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    raw["layers"][0]["shape"] = [3, 3]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=re.escape(
            "layer 0 declares shape [3, 3], but the network record fixes "
            "[9, 4]")):
        load_model(path)


def test_load_model_rejects_architecture_mismatch(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    raw["network"]["hidden_widths"] = [4, 4]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="the network record fixes 3 layers, "
                                        "got 2 weights and 2 biases"):
        load_model(path)


def test_load_model_refuses_a_feature_count_other_than_input_dim(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    del raw["normalization"]["features"][-1]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=re.escape(
            f"malformed model file {path}: the normalization has 8 features "
            "but the network has input_dim 9")):
        load_model(path)


def test_load_dataset_refuses_a_target_that_is_a_feature(tmp_path):
    train_ds, test_ds = split(
        encode_and_normalize(generate_paving_dataset(20, 1), "Productivity"),
        0.5, 1)
    path = tmp_path / "d.json"
    save_dataset(path, train_ds, test_ds)
    raw = json.loads(path.read_text())
    raw["normalization"]["target"] = raw["normalization"]["features"][0]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=re.escape(
            f"malformed dataset file {path}: malformed normalization "
            "statistics: target 'Slump' cannot also be a feature")):
        load_dataset(path)


@pytest.mark.parametrize("kind", ["model", "dataset"])
def test_load_refuses_a_feature_listed_twice(tmp_path, kind):
    # Slump in place of Congestion: Slump would feed the Congestion input
    path = edited_file(tmp_path, kind, ("normalization", "features"),
                       lambda f: [f[0], f[0], *f[2:]])
    assert refusal(kind, path) == (
        f"malformed {kind} file {path}: malformed normalization statistics: "
        "feature 'Slump' is listed more than once")


def test_save_model_refuses_inconsistent_params(tmp_path):
    path = tmp_path / "m.model"
    stats = NormalizationStats((ColumnStats("X", NUMERIC, 0.0, 1.0),),
                               ColumnStats("Y", NUMERIC, 0.0, 1.0))
    train_cfg = TrainConfig()
    good = NetworkParams([np.array([[2.0]]), np.array([[1.0, 0.0]])],
                         [np.array([1.0]), np.array([0.0, 0.0])])
    save_model(path, good, stats, NetworkConfig(1, (1,)), train_cfg)
    path.unlink()
    nan = NetworkParams(good.weights, good.biases)
    nan.weights[0][0, 0] = np.nan
    for params, hidden, message in [
        (NetworkParams(good.weights, good.biases[:1]), (1,),
         "the network record fixes 2 layers, got 2 weights and 1 biases"),
        (NetworkParams([np.zeros((1, 3)), np.zeros((1, 2))],
                       [np.zeros(3), np.zeros(2)]), (3,),
         "layer 1 holds weights [1, 2] and bias [2], but the network record "
         "fixes [3, 2] and [2]"),
        (NetworkParams([np.zeros((1, 3))], [np.zeros(3)]), (),
         "layer 0 holds weights [1, 3] and bias [3], but the network record "
         "fixes [1, 2] and [2]"),
        (nan, (1,), "layer 0 holds non-finite parameters"),
        # written, these would make a file that load_model refuses
        (init_network(NetworkConfig(1, (6, 6))), (5,),
         "the network record fixes 2 layers, got 3 weights and 3 biases"),
    ]:
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            save_model(path, params, stats, NetworkConfig(1, hidden),
                       train_cfg)
        assert not path.exists()


def test_load_model_rejects_missing_section(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    del raw["training"]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="malformed model file"):
        load_model(path)


@pytest.mark.parametrize("kind", ["model", "dataset"])
@pytest.mark.parametrize("key, value, message", [
    ("std", 0.0, "numeric column 'Slump' has std 0"),
    pytest.param("kind", "bogus", "kind of column 'Slump' must be numeric "
                 "or boolean, got 'bogus'", id="kind-bogus-unknown kind 'bogus'"),
    pytest.param("mean", float("nan"),
                 "mean of column 'Slump' must be a finite number, got nan",
                 id="mean-nan-non-finite mean"),
])
def test_load_rejects_malformed_column_stats(tmp_path, kind, key, value,
                                             message):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / f"f.{kind}"
    if kind == "model":
        save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    else:
        save_dataset(path, *split(ds, 0.8, 5))
    raw = json.loads(path.read_text())
    raw["normalization"]["features"][0][key] = value  # Slump, numeric
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=message):
        (load_model if kind == "model" else load_dataset)(path)


def test_load_accepts_a_boolean_column_with_std_0(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    assert raw["normalization"]["features"][1]["kind"] == "boolean"
    raw["normalization"]["features"][1]["std"] = 0.0
    path.write_text(json.dumps(raw))
    assert load_model(path)[1].features[1].std == 0.0


def write_with_literal(path, raw, literal):
    """Write ``raw`` as JSON with each ``"LITERAL"`` string replaced by the
    raw number text ``literal``, which ``json.dumps`` cannot produce."""
    path.write_text(json.dumps(raw).replace('"LITERAL"', literal))


@pytest.mark.parametrize("literal", ["1e400", "-Infinity"])
@pytest.mark.parametrize("section, key", [
    ("network", "input_dim"), ("network", "hidden_widths"),
    ("network", "seed"), ("training", "epochs"),
    ("training", "batch_size"), ("training", "shuffle_seed"),
])
def test_load_model_refuses_an_infinite_integer_field(tmp_path, section, key,
                                                       literal):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    if key == "hidden_widths":
        raw[section][key][0] = "LITERAL"
    else:
        raw[section][key] = "LITERAL"
    write_with_literal(path, raw, literal)
    with pytest.raises(DataError, match="malformed model file"):
        load_model(path)


@pytest.mark.parametrize("kind, field", [
    ("model", "mean"), ("dataset", "mean"), ("dataset", "X"),
])
def test_load_refuses_an_integer_too_large_for_a_float(tmp_path, kind, field):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / f"f.{kind}"
    if kind == "model":
        save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    else:
        save_dataset(path, *split(ds, 0.8, 5))
    raw = json.loads(path.read_text())
    if field == "X":
        raw["train"]["X"][0][0] = "LITERAL"
    else:
        raw["normalization"]["features"][0]["mean"] = "LITERAL"
    write_with_literal(path, raw, "1" + "0" * 400)
    with pytest.raises(DataError, match=f"malformed {kind} file"):
        (load_model if kind == "model" else load_dataset)(path)


@pytest.mark.parametrize("kind, section, key, value", [
    ("model", "network", "seed", True), ("model", "network", "seed", "2"),
    ("model", "network", "seed", 2.7), ("model", "network", "input_dim", 9.9),
    ("model", "network", "hidden_widths", [4.0]),
    ("model", "training", "epochs", "1"),
    ("model", "training", "shuffle_seed", False),
    ("model", "training", "learning_rate", "0.001"),
    ("model", "training", "adam_beta1", True),
    ("model", "normalization", "mean", "1.5"),
    ("model", "normalization", "std", True),
    ("dataset", "normalization", "mean", "1.5"),
    ("dataset", "normalization", "std", True),
])
def test_load_refuses_an_ill_typed_scalar(tmp_path, kind, section, key, value):
    # a boolean or a string is never a number; an integer field takes only
    # a JSON integer
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / f"f.{kind}"
    if kind == "model":
        save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    else:
        save_dataset(path, *split(ds, 0.8, 5))
    raw = json.loads(path.read_text())
    if section == "normalization":
        raw[section]["features"][0][key] = value
        message = "malformed normalization statistics"
    else:
        raw[section][key] = value
        message = "malformed model file"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=message):
        (load_model if kind == "model" else load_dataset)(path)


def edited_file(tmp_path, kind, where, edit):
    """A saved model or dataset file whose JSON node at the key path
    `where` (the top-level object if empty) is replaced by `edit` of it."""
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / f"f.{kind}"
    if kind == "model":
        save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    else:
        save_dataset(path, *split(ds, 0.8, 5))
    root = {"file": json.loads(path.read_text())}
    parent, where = root, ("file", *where)
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = edit(parent[where[-1]])
    path.write_text(json.dumps(root["file"]))
    return path


def refusal(kind, path):
    with pytest.raises(DataError) as info:
        (load_model if kind == "model" else load_dataset)(path)
    return str(info.value)


@pytest.mark.parametrize("kind, where, value, message", [
    ("model", ("layers", 0, "weights", 0, 0), "0.5",
     "layer 0 weights must be a finite number, got '0.5'"),
    ("model", ("layers", 1, "bias", 0), True,
     "layer 1 bias must be a finite number, got True"),
    ("dataset", ("train", "X", 0, 1), True,
     "train X must be a finite number, got True"),
    ("dataset", ("test", "y", 0), None,
     "test y must be a finite number, got None"),
], ids=["string-weight", "bool-bias", "bool-X-cell", "null-y"])
def test_load_refuses_a_non_number_in_an_array(tmp_path, kind, where, value,
                                               message):
    # np.array(..., dtype=float) alone reads "0.5" as 0.5, true as 1.0
    # and null as nan
    path = edited_file(tmp_path, kind, where, lambda _: value)
    assert refusal(kind, path) == f"malformed {kind} file {path}: {message}"


STATS = "malformed normalization statistics: "


def without(*keys):
    return lambda node: {k: v for k, v in node.items() if k not in keys}


def extra(node):
    return dict(node, extra=1)


@pytest.mark.parametrize("kind, where, edit, message", [
    ("model", ("network",), extra, "unknown network keys: extra"),
    ("model", ("training",), extra, "unknown training keys: extra"),
    ("model", ("normalization", "features", 0), extra,
     STATS + "unknown column keys: extra"),
    ("dataset", ("normalization", "target"), extra,
     STATS + "unknown column keys: extra"),
    ("model", ("network",), without("seed"), "network is missing keys: seed"),
    # a model file holds every field: a default is never filled in
    ("model", ("training",), without("epochs", "adam_beta1"),
     "training is missing keys: adam_beta1, epochs"),
    ("dataset", ("normalization", "target"), without("std"),
     STATS + "column is missing keys: std"),
    ("model", ("network",), lambda _: [1],
     "network must be a JSON object, got [1]"),
    ("dataset", ("normalization", "features", 0), lambda _: "Slump",
     STATS + "column must be a JSON object, got 'Slump'"),
    # the objects that are not records hold exactly the keys written too
    ("model", (), extra, "unknown model keys: extra"),
    ("model", (), without("layers"), "model is missing keys: layers"),
    ("model", ("layers", 0), extra, "unknown layer 0 keys: extra"),
    ("model", ("layers", 1), without("shape"),
     "layer 1 is missing keys: shape"),
    ("model", ("layers",), lambda _: [1],
     "layer 0 must be a JSON object, got 1"),
    ("model", ("normalization",), extra,
     STATS + "unknown normalization keys: extra"),
    ("dataset", (), extra, "unknown dataset keys: extra"),
    ("dataset", (), without("test"), "dataset is missing keys: test"),
    ("dataset", ("normalization",), without("target"),
     STATS + "normalization is missing keys: target"),
    ("dataset", ("train",), extra, "unknown train keys: extra"),
    # a long non-object is not written out whole
    ("dataset", ("train",), lambda _: list(range(10 ** 4)),
     "train must be a JSON object, got [0, 1, 2, 3, 4, 5, ...]"),
    ("dataset", ("test",), without("y"), "test is missing keys: y"),
], ids=["unknown-network", "unknown-training", "unknown-model-feature",
        "unknown-dataset-target", "missing-network-seed",
        "missing-training-two", "missing-dataset-target-std", "network-list",
        "feature-string", "unknown-model-top", "missing-model-layers",
        "unknown-layer-key", "missing-layer-shape", "layer-number",
        "unknown-normalization-key", "unknown-dataset-top",
        "missing-dataset-test", "missing-normalization-target",
        "unknown-train-key", "train-list", "missing-test-y"])
def test_load_reads_network_training_and_columns_by_their_fields(
        tmp_path, kind, where, edit, message):
    path = edited_file(tmp_path, kind, where, edit)
    assert refusal(kind, path) == f"malformed {kind} file {path}: {message}"


@pytest.mark.parametrize("key, value, rule", [
    ("adam_beta1", -3, "a finite number >= 0 and < 1"),
    ("adam_beta2", 1.5, "a finite number >= 0 and < 1"),
    ("adam_beta2", 1, "a finite number >= 0 and < 1"),
    ("adam_epsilon", 0, "a finite number > 0"),
])
def test_load_model_refuses_adam_fields_out_of_range(tmp_path, key, value,
                                                      rule):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    raw["training"][key] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as info:
        load_model(path)
    assert str(info.value) == (f"malformed model file {path}: {key} must be "
                               f"{rule}, got {value!r}")


def test_load_refuses_statistics_without_features(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    raw["normalization"]["features"] = []
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="malformed normalization statistics: "
                       "there is no feature column besides the target "
                       "'Productivity'"):
        load_model(path)


def test_model_text_validates_params_before_writing(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    params.weights[0][0, 0] = np.inf
    path = tmp_path / "m.model"
    with pytest.raises(DataError, match="non-finite"):
        save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    assert not path.exists()


def test_dataset_round_trip_is_bit_exact(tmp_path):
    table = generate_paving_dataset(40, 23)
    ds = encode_and_normalize(table, "Productivity")
    train_ds, test_ds = split(ds, 0.8, 6)
    path = tmp_path / "d.json"
    save_dataset(path, train_ds, test_ds, header_comments=("split 0.8",))
    loaded_train, loaded_test = load_dataset(path)
    assert np.array_equal(loaded_train.X, train_ds.X)
    assert np.array_equal(loaded_train.y, train_ds.y)
    assert np.array_equal(loaded_test.X, test_ds.X)
    assert np.array_equal(loaded_test.y, test_ds.y)
    assert loaded_train.norm_stats == ds.norm_stats
    assert loaded_test.norm_stats == ds.norm_stats


def test_save_dataset_streams_the_file(tmp_path):
    # the file is written a block of rows at a time: writing it holds well
    # under half its size, where building the text whole held 4.4 times it
    rng = np.random.default_rng(5)
    stats = NormalizationStats(
        tuple(ColumnStats(f"x{i}", NUMERIC, 0.0, 1.0) for i in range(9)),
        ColumnStats("Productivity", NUMERIC, 60.0, 10.0))
    train_ds, test_ds = (Dataset(rng.normal(size=(n, 9)), rng.normal(size=n),
                                 stats) for n in (4000, 1000))
    path = tmp_path / "d.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_dataset(path, train_ds, test_ds, header_comments=("audit",))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2
    assert path.read_text() == "# audit\n" + json.dumps({
        "format": "pavesim-dataset", "version": 1,
        "normalization": asdict(stats),
        "train": {"X": train_ds.X.tolist(), "y": train_ds.y.tolist()},
        "test": {"X": test_ds.X.tolist(), "y": test_ds.y.tolist()},
    }, indent=2, sort_keys=True) + "\n"


def test_dataset_text_rejects_mismatched_stats(tmp_path):
    a = encode_and_normalize(generate_paving_dataset(20, 1), "Productivity")
    b = encode_and_normalize(generate_paving_dataset(20, 2), "Productivity")
    path = tmp_path / "d.json"
    with pytest.raises(DataError, match="different normalization"):
        save_dataset(path, a, b)
    assert not path.exists()


def test_write_text_atomic_replaces_and_leaves_no_droppings(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    write_text_atomic(path, "new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]



def test_write_text_atomic_two_writers_of_one_path(tmp_path):
    # Each write must land whole, and neither writer may trip over the
    # other's temp file.
    path = tmp_path / "out.txt"
    texts = ["a" * 200_000 + "\n", "b" * 200_000 + "\n"]
    errors = []

    def writer(text):
        try:
            for _ in range(20):
                write_text_atomic(path, text)
                assert path.read_text() in texts
        except BaseException as exc:
            errors.append(exc)

    for _ in range(10):
        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    assert errors == []
    assert path.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_text_atomic_gives_the_mode_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    atomic = tmp_path / "atomic.txt"
    write_text_atomic(atomic, "x")
    assert (stat.S_IMODE(atomic.stat().st_mode)
            == stat.S_IMODE(plain.stat().st_mode))


def test_write_text_atomic_removes_its_temp_file_on_failure(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "lone surrogate \ud800")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

def test_fresh_nets_round_trip_without_training(tmp_path):
    # exercise a multi-hidden-layer shape straight from the initializer
    ds = encode_and_normalize(generate_paving_dataset(20, 4), "Productivity")
    net_cfg = NetworkConfig(input_dim=9, hidden_widths=(5, 3), seed=8)
    params = init_network(net_cfg)
    path = tmp_path / "fresh.model"
    save_model(path, params, ds.norm_stats, net_cfg, TrainConfig())
    loaded, _, _, _ = load_model(path)
    assert params_equal(loaded, params)
    assert [w.shape for w in loaded.weights] == [(9, 5), (5, 3), (3, 2)]

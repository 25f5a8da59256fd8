import json
import stat
import threading

import numpy as np
import pytest

from pavesim.adapter import encode_and_normalize, split
from pavesim.errors import DataError
from pavesim.modelfile import (
    dataset_to_text,
    load_dataset,
    load_model,
    model_to_text,
    save_dataset,
    save_model,
)
from pavesim.network import (
    NetworkConfig,
    TrainConfig,
    init_network,
    train,
)
from pavesim.synthetic import generate_paving_dataset

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


def test_model_text_is_reproducible():
    params, ds, net_cfg, train_cfg = trained_fixture()
    a = model_to_text(params, ds.norm_stats, net_cfg, train_cfg)
    b = model_to_text(params, ds.norm_stats, net_cfg, train_cfg)
    assert a == b


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
    with pytest.raises(DataError, match="declares shape"):
        load_model(path)


def test_load_model_rejects_architecture_mismatch(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / "m.model"
    save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    raw = json.loads(path.read_text())
    raw["network"]["hidden_widths"] = [4, 4]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="declared architecture"):
        load_model(path)


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
    ("kind", "bogus", "unknown kind 'bogus'"),
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
    raw = json.loads(model_to_text(params, ds.norm_stats, net_cfg, train_cfg))
    if key == "hidden_widths":
        raw[section][key][0] = "LITERAL"
    else:
        raw[section][key] = "LITERAL"
    path = tmp_path / "m.model"
    write_with_literal(path, raw, literal)
    with pytest.raises(DataError, match="malformed model file"):
        load_model(path)


@pytest.mark.parametrize("kind, field", [
    ("model", "mean"), ("dataset", "mean"), ("dataset", "X"),
])
def test_load_refuses_an_integer_too_large_for_a_float(tmp_path, kind, field):
    params, ds, net_cfg, train_cfg = trained_fixture()
    if kind == "model":
        raw = json.loads(model_to_text(params, ds.norm_stats, net_cfg,
                                       train_cfg))
    else:
        raw = json.loads(dataset_to_text(*split(ds, 0.8, 5)))
    if field == "X":
        raw["train"]["X"][0][0] = "LITERAL"
    else:
        raw["normalization"]["features"][0]["mean"] = "LITERAL"
    path = tmp_path / f"f.{kind}"
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
    params, ds, net_cfg, train_cfg = trained_fixture()
    path = tmp_path / f"f.{kind}"
    if kind == "model":
        save_model(path, params, ds.norm_stats, net_cfg, train_cfg)
    else:
        save_dataset(path, *split(ds, 0.8, 5))
    raw = json.loads(path.read_text())
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as info:
        (load_model if kind == "model" else load_dataset)(path)
    assert str(info.value) == f"malformed {kind} file {path}: {message}"


@pytest.mark.parametrize("key, value, rule", [
    ("adam_beta1", -3, "a finite number >= 0 and < 1"),
    ("adam_beta2", 1.5, "a finite number >= 0 and < 1"),
    ("adam_beta2", 1, "a finite number >= 0 and < 1"),
    ("adam_epsilon", 0, "a finite number > 0"),
])
def test_load_model_refuses_adam_fields_out_of_range(tmp_path, key, value,
                                                      rule):
    params, ds, net_cfg, train_cfg = trained_fixture()
    raw = json.loads(model_to_text(params, ds.norm_stats, net_cfg, train_cfg))
    raw["training"][key] = value
    path = tmp_path / "m.model"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as info:
        load_model(path)
    assert str(info.value) == (f"malformed model file {path}: {key} must be "
                               f"{rule}, got {value!r}")


def test_load_refuses_statistics_without_features(tmp_path):
    params, ds, net_cfg, train_cfg = trained_fixture()
    raw = json.loads(model_to_text(params, ds.norm_stats, net_cfg, train_cfg))
    raw["normalization"]["features"] = []
    path = tmp_path / "m.model"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="malformed normalization statistics: "
                       "there is no feature column besides the target "
                       "'Productivity'"):
        load_model(path)


def test_model_text_validates_params_before_writing():
    params, ds, net_cfg, train_cfg = trained_fixture()
    params.weights[0][0, 0] = np.inf
    with pytest.raises(DataError, match="non-finite"):
        model_to_text(params, ds.norm_stats, net_cfg, train_cfg)


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


def test_dataset_text_rejects_mismatched_stats():
    a = encode_and_normalize(generate_paving_dataset(20, 1), "Productivity")
    b = encode_and_normalize(generate_paving_dataset(20, 2), "Productivity")
    with pytest.raises(DataError, match="different normalization"):
        dataset_to_text(a, b)


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
    assert loaded.shapes() == [(9, 5), (5, 3), (3, 2)]

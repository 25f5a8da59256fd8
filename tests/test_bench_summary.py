"""tools/bench_summary.py over hand-made perfbench result records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
    "end_to_end": [
        {"name": "wall_vs_ref", "unit": "x", "better": "lower"},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower"},
    ],
}
ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
SEEDS = [31, 32, 33, 34, 35]


def record(seed, workload, **changes):
    """A result record as perfbench writes it: wall_vs_ref is seed / 100,
    peak_rss_mb 50 + seed, on beta one more."""
    extra = 1 if workload == "beta" else 0
    return {"correct": True, "failed": 0, "seconds": 30,
            "environment": dict(ENVIRONMENT),
            "metrics": {"wall_vs_ref": {"value": seed / 100 + extra},
                        "peak_rss_mb": {"value": 50.0 + seed + extra}},
            **changes}


def write_results(results: Path, seeds=SEEDS, special=None):
    """One record per workload and seed; `special` maps (workload, seed)
    to the changes its record gets, or None for no record."""
    results.mkdir(parents=True, exist_ok=True)
    for workload in ("alpha", "beta"):
        for seed in seeds:
            changes = (special or {}).get((workload, seed), {})
            if changes is None:
                continue
            path = results / f"{workload}-seed{seed}-trace0.json"
            path.write_text(json.dumps(record(seed, workload, **changes)))


def test_summary_gives_median_min_and_max(tmp_path):
    write_results(tmp_path, seeds=[35, 31, 34, 32, 33, 40])
    summary = bench_summary.summarize(BENCHMARK, tmp_path,
                                      [40, 31, 32, 33, 34, 35, 31])
    assert summary["command"] == BENCHMARK["command"]
    assert summary["environment"] == ENVIRONMENT
    alpha = summary["workloads"]["alpha"]
    assert alpha["seeds"] == [31, 32, 33, 34, 35, 40]
    assert alpha["run_seconds"] == [30]
    # six seeds: the median is the mean of the middle two
    assert alpha["metrics"]["peak_rss_mb"] == {
        "unit": "MiB", "better": "lower",
        "median": 83.5, "min": 81.0, "max": 90.0}
    assert alpha["metrics"]["wall_vs_ref"]["median"] == pytest.approx(0.335)
    beta = summary["workloads"]["beta"]["metrics"]["wall_vs_ref"]
    assert (beta["min"], beta["max"]) == (pytest.approx(1.31),
                                         pytest.approx(1.40))


def test_summary_refuses_fewer_than_five_seeds(tmp_path):
    write_results(tmp_path)
    with pytest.raises(ValueError, match="at least 5 distinct seeds"):
        bench_summary.summarize(BENCHMARK, tmp_path, [31, 32, 33, 34, 34])


@pytest.mark.parametrize("changes, message", [
    (None, "no result"),
    ({"correct": False}, "records a failed run"),
    ({"failed": 2}, "records a failed run"),
    ({"environment": {**ENVIRONMENT, "nproc": 4}}, "another environment"),
])
def test_summary_refuses_a_missing_failed_or_foreign_record(tmp_path,
                                                            changes, message):
    write_results(tmp_path, special={("beta", 33): changes})
    with pytest.raises(ValueError, match=message):
        bench_summary.summarize(BENCHMARK, tmp_path, SEEDS)


def test_main_writes_the_summary_or_says_why_not(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    Path("BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    write_results(tmp_path / ".perfbench" / "results")
    seeds = [str(s) for s in SEEDS]
    assert bench_summary.main(["--seeds", *seeds, "--out", "B.json"]) == 0
    assert json.loads(Path("B.json").read_text()) == bench_summary.summarize(
        BENCHMARK, Path(".perfbench/results"), SEEDS)
    assert bench_summary.main(["--seeds", *seeds[:4], "--out", "C.json"]) == 1
    assert capsys.readouterr().err.startswith("error: need at least 5")
    assert not Path("C.json").exists()


# ------------------------------------------------ parent against change

PAIR_SEEDS = list(range(41, 51))
PAIR_BENCHMARK = {**BENCHMARK, "end_to_end": [
    {"name": "wall_vs_ref", "unit": "x", "better": "lower", "bound": 0.25},
    {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.25}]}


def write_side(results, wall, ops, special=None):
    """One record per workload and seed of PAIR_SEEDS, the i-th seed's
    wall_vs_ref being wall[i] and its ops ops[i]; `special` maps
    (workload, seed) to the changes its record gets, or None for none."""
    results.mkdir(parents=True, exist_ok=True)
    for workload in ("alpha", "beta"):
        for seed, w, o in zip(PAIR_SEEDS, wall, ops):
            changes = (special or {}).get((workload, seed), {})
            if changes is None:
                continue
            rec = record(seed, workload, **changes)
            rec["metrics"] = {"wall_vs_ref": {"value": w},
                              "ops": {"value": o}}
            path = results / f"{workload}-seed{seed}-trace0.json"
            path.write_text(json.dumps(rec))


#: The parent's runs: median 1.0, quartiles 0.95 and 1.05 (a spread of
#: 0.1), and ops the same numbers times 100.
PARENT_WALL = [0.9, 0.95, 0.95, 0.95, 1.0, 1.0, 1.05, 1.05, 1.05, 1.1]


@pytest.mark.parametrize("wall, wins, holds", [
    # lower in every pair, and by more than the parent's spread
    ([w - 0.2 for w in PARENT_WALL], 10, True),
    # lower in nine pairs; the tenth a tie, which counts for neither
    ([w - 0.2 for w in PARENT_WALL[:9]] + [1.1], 9, True),
    # lower in every pair, but by less than the parent's spread
    ([w - 0.05 for w in PARENT_WALL], 10, False),
    # far lower, but in eight pairs only
    ([w - 0.5 for w in PARENT_WALL[:8]] + [2.0, 2.0], 8, False),
])
def test_compare_counts_the_pairs_and_applies_the_claim_rule(
        tmp_path, wall, wins, holds):
    write_side(tmp_path / "parent", PARENT_WALL,
               [100 * w for w in PARENT_WALL])
    # ops is better higher: the same moves up are gains
    write_side(tmp_path / "change", wall,
               [200 * p - 100 * w for p, w in zip(PARENT_WALL, wall)])
    rows = bench_summary.compare(PAIR_BENCHMARK, tmp_path / "parent",
                                 tmp_path / "change", PAIR_SEEDS)
    assert list(rows) == ["alpha", "beta"]
    wall_row, ops_row = rows["alpha"]["wall_vs_ref"], rows["alpha"]["ops"]
    assert wall_row["parent"] == pytest.approx([1.0, 0.95, 1.05])
    assert wall_row["change"][0] == pytest.approx(sorted(wall)[4] / 2
                                                  + sorted(wall)[5] / 2)
    assert (wall_row["wins"], wall_row["pairs"]) == (wins, 10)
    assert wall_row["claim_holds"] is holds
    assert ops_row["parent"] == pytest.approx([100.0, 95.0, 105.0])
    assert (ops_row["wins"], ops_row["claim_holds"]) == (wins, holds)
    # the parent's spread, 10% of its median, is within the 25% bound
    assert wall_row["verdict"] == ops_row["verdict"] == "within bound"
    lines = bench_summary.comparison_lines(rows, PAIR_BENCHMARK)
    assert lines[0].startswith("alpha wall_vs_ref (x): 1 [0.95-1.05] -> ")
    assert lines[0].endswith(f"], within bound at 25%, better in {wins}/10 "
                             "pairs, claim "
                             + ("holds" if holds else "does not hold"))


WIDE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


@pytest.mark.parametrize("before, after, sign, expected", [
    # a median worse by exactly the bound (1 on 4) is within it
    ([4.0] * 10, [5.0] * 10, 1, "within bound"),
    ([4.0] * 10, [5.5] * 10, 1, "worse"),
    ([4.0] * 10, [3.0] * 10, -1, "within bound"),
    ([4.0] * 10, [2.5] * 10, -1, "worse"),
    ([4.0] * 10, [4.0] * 9 + [9.0], 1, "within bound"),
    # quartiles 3.25 and 7.75 lie 4.5 apart, wider than 25% of 5.5 ...
    (WIDE, WIDE, 1, "unresolved"),
    (WIDE, WIDE, -1, "unresolved"),
    # ... unless every change run beat every parent run; a tie is no win
    (WIDE, [0.5] * 10, 1, "within bound"),
    (WIDE, [0.5] * 9 + [1.0], 1, "unresolved"),
    (WIDE, [10.5] * 10, -1, "within bound"),
    (WIDE, [10.0] * 10, -1, "unresolved"),
    # worse beyond the bound is worse, however wide the parent's spread
    (WIDE, [7.0] * 10, 1, "worse"),
    (WIDE, [4.0] * 10, -1, "worse"),
])
def test_verdict_applies_the_bound_to_the_parent_median(before, after, sign,
                                                        expected):
    assert bench_summary.verdict(before, after, sign, 0.25) == expected


def test_a_spread_of_exactly_the_bound_is_resolved():
    # quartiles 3.25 and 4.75, 1.5 apart: 37.5% of the median 4
    before = [3.0] * 3 + [4.0] * 4 + [5.0] * 3
    assert bench_summary.verdict(before, before, 1, 0.375) == "within bound"
    assert bench_summary.verdict(before, before, 1, 0.37) == "unresolved"


def test_compare_states_each_metric_against_its_bound(tmp_path):
    # wall_vs_ref: 1.0 -> 1.3, 30% worse than the parent against a 25%
    # bound; ops: the parent's quartiles 10% apart against a 5% bound
    benchmark = {**PAIR_BENCHMARK, "end_to_end": [
        {**PAIR_BENCHMARK["end_to_end"][0], "bound": 0.25},
        {**PAIR_BENCHMARK["end_to_end"][1], "bound": 0.05}]}
    write_side(tmp_path / "parent", PARENT_WALL,
               [100 * w for w in PARENT_WALL])
    write_side(tmp_path / "change", [w + 0.3 for w in PARENT_WALL],
               [100 * w for w in PARENT_WALL])
    rows = bench_summary.compare(benchmark, tmp_path / "parent",
                                 tmp_path / "change", PAIR_SEEDS)
    assert rows["beta"]["wall_vs_ref"]["verdict"] == "worse"
    assert rows["beta"]["ops"]["verdict"] == "unresolved"
    lines = bench_summary.comparison_lines(rows, benchmark)
    assert ", worse at 25%, better in 0/10 pairs" in lines[0]
    assert ", unresolved at 5%, better in 0/10 pairs" in lines[1]


@pytest.mark.parametrize("side, changes, message", [
    ("parent", None, "no result"),
    ("parent", {"failed": 1}, "records a failed run"),
    ("change", {"correct": False}, "records a failed run"),
    ("change", {"environment": {**ENVIRONMENT, "nproc": 4}},
     "another environment"),
])
def test_compare_refuses_a_missing_failed_or_foreign_record(
        tmp_path, side, changes, message):
    for name in ("parent", "change"):
        special = {("beta", 44): changes} if name == side else None
        write_side(tmp_path / name, PARENT_WALL, PARENT_WALL, special)
    with pytest.raises(ValueError, match=message):
        bench_summary.compare(PAIR_BENCHMARK, tmp_path / "parent",
                              tmp_path / "change", PAIR_SEEDS)


def test_compare_refuses_two_sides_from_two_environments(tmp_path):
    write_side(tmp_path / "parent", PARENT_WALL, PARENT_WALL)
    other = {(w, s): {"environment": {**ENVIRONMENT, "numpy": "2.0.0"}}
             for w in ("alpha", "beta") for s in PAIR_SEEDS}
    write_side(tmp_path / "change", PARENT_WALL, PARENT_WALL, other)
    with pytest.raises(ValueError, match="the two sides ran in other "
                                         "environments"):
        bench_summary.compare(PAIR_BENCHMARK, tmp_path / "parent",
                              tmp_path / "change", PAIR_SEEDS)


def test_main_prints_the_comparison(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("BENCHMARK.json").write_text(json.dumps(PAIR_BENCHMARK))
    write_side(tmp_path / "parent" / ".perfbench" / "results", PARENT_WALL,
               PARENT_WALL)
    write_side(tmp_path / ".perfbench" / "results",
               [w - 0.2 for w in PARENT_WALL], PARENT_WALL)
    seeds = [str(s) for s in PAIR_SEEDS]
    assert bench_summary.main(["--seeds", *seeds, "--parent", "parent"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and not Path("B.json").exists()
    assert out[0].endswith("within bound at 25%, better in 10/10 pairs, "
                           "claim holds")
    assert out[1].endswith("within bound at 25%, better in 0/10 pairs, "
                           "claim does not hold")
    assert bench_summary.main(["--seeds", *seeds, "--parent", "parent",
                               "--out", "B.json"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote B.json"
    with pytest.raises(SystemExit):
        bench_summary.main(["--seeds", *seeds])
    assert "give --out, --parent or both" in capsys.readouterr().err


# ----------------------------------------------- per-layer, traced runs

LAYER_BENCHMARK = {**BENCHMARK, "per_layer": [
    {"name": "network.train.s", "unit": "s", "better": "lower"},
    {"name": "network.loss_gradients.p50_us", "unit": "us",
     "better": "lower"},
    {"name": "simulator.run_replication.s", "unit": "s", "better": "lower"}]}


def write_traced(results, workload, seed, metrics, **changes):
    """A trace1 record of `workload` at `seed` holding `metrics` (name to
    value, None for a null one)."""
    results.mkdir(parents=True, exist_ok=True)
    rec = record(seed, workload, trace=1, **changes)
    rec["metrics"] = {name: {"value": value} for name, value in
                      metrics.items()}
    path = results / f"{workload}-seed{seed}-trace1.json"
    path.write_text(json.dumps(rec))


def test_layers_compare_the_medians_of_the_seeds_both_sides_traced(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, train_s in ((7, 1.0), (8, 1.2), (9, 1.4)):
        write_traced(parent, "alpha", seed, {
            "network.train.s": train_s,
            "network.loss_gradients.p50_us": 200.0 + seed,
            "simulator.run_replication.s": None})
    # seed 9 has no traced change record, and seed 10 no parent record
    for seed, train_s in ((7, 0.8), (8, 1.0), (10, 5.0)):
        write_traced(change, "alpha", seed, {
            "network.train.s": train_s,
            "network.loss_gradients.p50_us": None if seed == 8 else 150.0,
            "simulator.run_replication.s": 0.5})
    # beta was traced by the parent alone, and its untraced record is no
    # traced one
    write_traced(parent, "beta", 7, {"network.train.s": 0.0})
    write_results(change, seeds=[7])
    rows = bench_summary.compare_layers(LAYER_BENCHMARK, parent, change,
                                        [7, 8, 9, 10])
    assert list(rows) == ["alpha"]
    # a null value is left out; a metric null on one side is left out
    # each side's median, min and max
    assert rows["alpha"] == {
        "network.train.s": {"parent": pytest.approx([1.1, 1.0, 1.2]),
                            "change": pytest.approx([0.9, 0.8, 1.0]),
                            "seeds": 2},
        "network.loss_gradients.p50_us": {"parent": [207.5, 207.0, 208.0],
                                          "change": [150.0, 150.0, 150.0],
                                          "seeds": 2}}
    lines = bench_summary.layer_lines(rows, LAYER_BENCHMARK)
    assert lines == [
        "alpha network.train.s (s): 1.1 [1-1.2] -> 0.9 [0.8-1] (0.818), "
        "median [min-max] of 2 traced seeds",
        "alpha network.loss_gradients.p50_us (us): 207.5 [207-208] -> 150 "
        "[150-150] (0.723), median [min-max] of 2 traced seeds"]
    one = bench_summary.compare_layers(LAYER_BENCHMARK, parent, change, [7])
    assert one["alpha"]["network.train.s"] == {
        "parent": [1.0, 1.0, 1.0], "change": [0.8, 0.8, 0.8], "seeds": 1}
    assert bench_summary.layer_lines(
        {"alpha": {"network.train.s": {"parent": [0.0, 0.0, 0.0],
                                       "change": [0.0, 0.0, 0.0],
                                       "seeds": 1}}}, LAYER_BENCHMARK) == [
        "alpha network.train.s (s): 0 [0-0] -> 0 [0-0], median [min-max] "
        "of 1 traced seed"]


@pytest.mark.parametrize("changes, message", [
    ({"correct": False}, "records a failed run"),
    ({"failed": 1}, "records a failed run"),
    ({"environment": {**ENVIRONMENT, "nproc": 4}}, "another environment"),
])
def test_layers_refuse_a_failed_or_foreign_record(tmp_path, changes,
                                                  message):
    metrics = {"network.train.s": 1.0}
    write_traced(tmp_path / "parent", "alpha", 7, metrics)
    write_traced(tmp_path / "change", "alpha", 7, metrics, **changes)
    with pytest.raises(ValueError, match=message):
        bench_summary.compare_layers(LAYER_BENCHMARK, tmp_path / "parent",
                                     tmp_path / "change", [7])


def test_layers_refuse_seeds_that_neither_side_traced(tmp_path):
    write_traced(tmp_path / "parent", "alpha", 7, {"network.train.s": 1.0})
    write_traced(tmp_path / "change", "alpha", 8, {"network.train.s": 1.0})
    with pytest.raises(ValueError, match="no traced result at seeds "
                                         r"\[7, 8\] on both sides"):
        bench_summary.compare_layers(LAYER_BENCHMARK, tmp_path / "parent",
                                     tmp_path / "change", [7, 8])


def test_main_prints_the_layers(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("BENCHMARK.json").write_text(json.dumps(LAYER_BENCHMARK))
    write_traced(tmp_path / "parent" / ".perfbench" / "results", "beta", 7,
                 {"network.train.s": 2.0})
    write_traced(tmp_path / ".perfbench" / "results", "beta", 7,
                 {"network.train.s": 1.5})
    assert bench_summary.main(["--seeds", "7", "--parent", "parent",
                               "--layers"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "beta network.train.s (s): 2 [2-2] -> 1.5 [1.5-1.5] (0.750), "
        "median [min-max] of 1 traced seed"]
    assert bench_summary.main(["--seeds", "8", "--parent", "parent",
                               "--layers"]) == 1
    assert capsys.readouterr().err.startswith("error: no traced result")
    for argv in (["--layers"], ["--layers", "--parent", "p", "--out", "B"]):
        with pytest.raises(SystemExit):
            bench_summary.main(["--seeds", "7", *argv])
        assert "--layers needs --parent" in capsys.readouterr().err

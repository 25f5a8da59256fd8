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

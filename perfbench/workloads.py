"""Workload definitions: sizes, generated inputs and the stage plan.

Each workload turns the benchmark seed into (a) input files written once
per run and (b) a plan: the small config files the workload process
writes during set-up, the ordered stages it runs in one closed loop, and
how many passes over those stages a paired repeat makes.
A stage is either a ``pavesim`` CLI invocation (``argv``) or the library
call ``load_dataset`` (``path``). Every stage seed is derived from the
benchmark seed, so the same seed gives the same inputs and artifacts.

The generating law used for the inputs and for the sigma* answer key is
written out here on purpose instead of calling ``pavesim.synthetic``:
the benchmark must be able to catch a change to the program's own law.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("pipeline", "fleet_sim", "ingest")

#: Cycle times shared by both simulate configs (hours), from the README.
CYCLE = {"load_time": 0.15, "haul_time": 0.4, "dump_time": 0.1,
         "return_time": 0.25}

#: Stage sizes. ``full`` is what the benchmark measures; ``smoke`` only
#: exercises the harness (self-test), so its quality tolerances are wide.
SIZES = {
    "full": {
        "pipeline": {"synth_rows": 10000, "epochs": 16, "scenarios": 64,
                     "reps": 5000, "mixture_rows": 10000,
                     "quantity": 120, "trucks": 3, "capacity": 12,
                     "max_coverage_err": 0.08, "max_sigma_rel_err": 0.2,
                     "passes": 1},
        "fleet_sim": {"quantity": 12000, "trucks": 8, "capacity": 12,
                      "reps": 100, "companion_reps": 3, "passes": 8},
        "ingest": {"shared_rows": 9500, "unmatched_rows": 500,
                   "blank_fraction": 0.01, "passes": 4},
    },
    "smoke": {
        "pipeline": {"synth_rows": 500, "epochs": 2, "scenarios": 8,
                     "reps": 100, "mixture_rows": 300,
                     "quantity": 120, "trucks": 3, "capacity": 12,
                     "max_coverage_err": 1.0, "max_sigma_rel_err": 10.0,
                     "passes": 1},
        "fleet_sim": {"quantity": 600, "trucks": 8, "capacity": 12,
                      "reps": 20, "companion_reps": 2, "passes": 2},
        "ingest": {"shared_rows": 800, "unmatched_rows": 10,
                   "blank_fraction": 0.01, "passes": 2},
    },
}

#: Direct productivity pair of the fleet workload, m^3/h.
FLEET_PRODUCTIVITY = {"mean": 55.0, "variance": 30.0}

TRAIN_FRACTION = 0.8  # the CLI default for adapt

FEATURES = ("Slump", "Congestion", "Spreader", "AirEntrainment",
            "Temperature", "Humidity", "Slope", "Curvature", "PaverAge")
INGEST_A = ("Productivity", "Slump", "Congestion", "Spreader",
            "AirEntrainment")
INGEST_B = ("Temperature", "Humidity", "Slope", "Curvature", "PaverAge")


def stage_seeds(seed: int, workload: str, count: int) -> list[int]:
    """``count`` CLI seeds derived from the benchmark seed."""
    tag = WORKLOADS.index(workload)
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) % 2**31 for s in state]


def input_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, WORKLOADS.index(workload), 1]))


# ------------------------------------------------------- generating law


def sample_features(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """``n`` feature rows drawn over the documented synthetic ranges."""
    return {
        "Slump": rng.uniform(2.5, 5.0, n),
        "Congestion": (rng.random(n) < 0.5).astype(float),
        "Spreader": (rng.random(n) < 0.3).astype(float),
        "AirEntrainment": rng.uniform(3.8, 5.0, n),
        "Temperature": rng.uniform(2.0, 32.0, n),
        "Humidity": rng.uniform(50.0, 95.0, n),
        "Slope": rng.uniform(-4.0, 4.0, n),
        "Curvature": rng.uniform(-0.002, 0.002, n),
        "PaverAge": np.round(rng.uniform(0.0, 5.0, n) * 2.0) / 2.0,
    }


def true_mu(f: dict) -> np.ndarray:
    """mu*(x) of the README's generating law, in m^3/h."""
    return (90.0 - 4.5 * f["PaverAge"] - 8.0 * f["Congestion"]
            + 7.0 * f["Spreader"] + 2.5 * (f["Slump"] - 4.0)
            - 0.045 * (f["Temperature"] - 20.0) ** 2
            - 0.06 * (f["Humidity"] - 70.0)
            - 1.5 * np.abs(f["Slope"]) - 800.0 * np.abs(f["Curvature"]))


def true_sigma(f: dict) -> np.ndarray:
    """sigma*(x) of the README's generating law, in m^3/h."""
    return np.maximum(1.0, 2.5 + 0.7 * f["PaverAge"]
                      + 2.0 * f["Congestion"] - 1.0 * f["Spreader"])


# ------------------------------------------------------------ inputs


def _write_csv(path, columns: dict[str, list[str]], order) -> None:
    names = list(columns)
    lines = [",".join(names)]
    cells = [columns[name] for name in names]
    lines.extend(",".join(col[i] for col in cells) for i in order)
    path.write_text("\n".join(lines) + "\n")


def _fmt(values: np.ndarray) -> list[str]:
    return [repr(float(v)) for v in values]


def scenario_rows(seed: int, n: int) -> list[dict[str, float]]:
    """The pipeline's derive scenarios, as plain feature mappings."""
    feats = sample_features(input_rng(seed, "pipeline"), n)
    return [{name: float(feats[name][i]) for name in FEATURES}
            for i in range(n)]


def write_inputs(workload: str, size: str, seed: int, inputs_dir) -> dict:
    """Write the workload's generated input files; return facts about them."""
    sz = SIZES[size][workload]
    if workload == "pipeline":
        rows = scenario_rows(seed, sz["scenarios"])
        columns = {"Scenario": [f"s{i}" for i in range(len(rows))]}
        for name in FEATURES:
            columns[name] = [repr(r[name]) for r in rows]
        _write_csv(inputs_dir / "scen.csv", columns, range(len(rows)))
        return {"scenarios": rows}
    if workload == "ingest":
        return _write_ingest_sources(seed, sz, inputs_dir)
    return {}


def _write_ingest_sources(seed: int, sz: dict, inputs_dir) -> dict:
    """Two keyed sources: A holds the target and four features, B the
    other five; B is in reverse key order. Each source also holds keys
    the other lacks, and about ``blank_fraction`` of non-key cells are
    blank so the impute path runs."""
    rng = input_rng(seed, "ingest")
    shared, extra = sz["shared_rows"], sz["unmatched_rows"]
    n = shared + 2 * extra
    feats = sample_features(rng, n)
    prod = rng.normal(true_mu(feats), true_sigma(feats))
    keys = rng.permutation(np.arange(100000, 100000 + n))
    cols = {"Productivity": _fmt(prod)}
    for name in FEATURES:
        cols[name] = _fmt(feats[name])
    for name in cols:
        blank = rng.random(n) < sz["blank_fraction"]
        cols[name] = ["" if b else c for b, c in zip(blank, cols[name])]
    key_text = [str(int(k)) for k in keys]
    a_rows = np.arange(0, shared + extra)          # shared + A-only
    b_rows = np.concatenate([np.arange(shared), np.arange(shared + extra, n)])
    b_rows = b_rows[np.argsort(-keys[b_rows], kind="stable")]
    _write_csv(inputs_dir / "a.csv",
               {"JobId": key_text, **{c: cols[c] for c in INGEST_A}}, a_rows)
    _write_csv(inputs_dir / "b.csv",
               {"JobId": key_text, **{c: cols[c] for c in INGEST_B}}, b_rows)
    return {"source_rows": len(a_rows) + len(b_rows), "joined_rows": shared}


# -------------------------------------------------------------- plans


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _sim_config(sz: dict, source: dict, mode: str) -> dict:
    return {"total_quantity": sz["quantity"], "truck_count": sz["trucks"],
            "truck_capacity": sz["capacity"], **CYCLE,
            "resample_mode": mode, **source}


def build_plan(workload: str, size: str, seed: int, facts: dict) -> dict:
    """Files to write at set-up and the stages to run, with stage facts."""
    sz = SIZES[size][workload]
    if workload == "pipeline":
        s = stage_seeds(seed, workload, 5)
        cfg = _sim_config(sz, {"scenario": facts["scenarios"][0]},
                          "per_replication")
        train_rows = math.floor(sz["synth_rows"] * TRAIN_FRACTION)
        return {
            "files": {"sim.cfg": json.dumps(cfg, indent=1)},
            "stages": [
                _cli("synth", ["--n", sz["synth_rows"], "--seed", s[0],
                               "--out", "d.csv"], ["d.csv"]),
                _cli("adapt", ["--data", "d.csv", "--seed", s[1],
                               "--out", "ds.json", "--report", "rep.json"],
                     ["ds.json", "rep.json"]),
                _cli("train", ["--data", "ds.json", "--seed", s[2],
                               "--epochs", sz["epochs"], "--out", "m.model"],
                     ["m.model"]),
                _cli("evaluate", ["--model", "m.model", "--data", "ds.json",
                                  "--level", "0.95", "--out", "cov.csv"],
                     ["cov.csv"]),
                _cli("derive", ["--model", "m.model", "--scenarios",
                                "../inputs/scen.csv", "--out", "der.csv"],
                     ["der.csv"]),
                _cli("simulate", ["--config", "sim.cfg", "--model", "m.model",
                                  "--reps", sz["reps"], "--seed", s[3],
                                  "--out", "sim.csv"], ["sim.csv"]),
                _cli("mixture-demo", ["--n", sz["mixture_rows"], "--seed",
                                      s[4], "--out", "mix.csv",
                                      "--samples-out", "samples.csv"],
                     ["mix.csv", "samples.csv"]),
            ],
            "hot_stages": ["train"],
            "items": sz["epochs"] * train_rows,
            "passes": sz["passes"],
            "sim": {"config": cfg, "reps": sz["reps"], "out": "sim.csv"},
        }
    if workload == "fleet_sim":
        s = stage_seeds(seed, workload, 1)
        cfg = _sim_config(sz, {"productivity": FLEET_PRODUCTIVITY},
                          "per_truckload")
        return {
            "files": {"fleet.cfg": json.dumps(cfg, indent=1)},
            "stages": [
                _cli("simulate", ["--config", "fleet.cfg", "--reps",
                                  sz["reps"], "--seed", s[0],
                                  "--out", "fleet.csv"], ["fleet.csv"]),
            ],
            "hot_stages": ["simulate"],
            "items": sz["reps"] * ceil_div(sz["quantity"], sz["capacity"]),
            "passes": sz["passes"],
            "sim": {"config": cfg, "reps": sz["reps"], "out": "fleet.csv"},
        }
    s = stage_seeds(seed, workload, 1)
    return {
        "files": {},
        "stages": [
            _cli("adapt", ["--data", "../inputs/a.csv", "--data",
                           "../inputs/b.csv", "--key", "JobId",
                           "--outliers", "drop_row", "--seed", s[0],
                           "--out", "ds.json", "--report", "rep.json"],
                 ["ds.json", "rep.json"]),
            {"name": "load_dataset", "path": "ds.json", "outputs": []},
        ],
        "hot_stages": ["adapt", "load_dataset"],
        "items": facts["source_rows"],
        "passes": sz["passes"],
    }


def companion_config(seed: int, size: str) -> dict:
    """The fleet config with zero productivity variance, for the oracle."""
    sz = SIZES[size]["fleet_sim"]
    source = {"productivity": {"mean": FLEET_PRODUCTIVITY["mean"],
                               "variance": 0.0}}
    return {"config": _sim_config(sz, source, "per_truckload"),
            "reps": sz["companion_reps"],
            "seed": stage_seeds(seed, "fleet_sim", 2)[1]}


def _cli(name: str, args: list, outputs: list[str]) -> dict:
    return {"name": name, "argv": [name, *map(str, args)], "outputs": outputs}

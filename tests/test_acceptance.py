"""Acceptance checks for the whole pipeline, one test per claim.

Each test measures one end-to-end property the package promises
(gradient exactness, interval coverage, recovery of the generating
moments, scenario ordering, mixture variance splitting, simulator
agreement, byte-identical reruns) and prints a single summary line, so
``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
"""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from pavesim import cli
from pavesim.adapter import encode_and_normalize, split, split_indices
from pavesim.inputmodel import (
    GaussianInputModel,
    coverage,
    derive,
)
from pavesim.network import (
    NetworkConfig,
    TrainConfig,
    forward_batch,
    init_network,
    loss_gradients,
    train,
)
from pavesim.simulator import SimConfig, run_monte_carlo, run_replication
from pavesim.synthetic import (
    DEMO_SCENARIOS,
    generate_paving_dataset,
    generate_weather_mixture,
)
from test_simulator import completion_oracle, tenths_config


def check(label: str, detail: str, ok: bool) -> None:
    print(f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label}: {detail}"


# ------------------------------------------------- gradient correctness


def _hidden_preactivations(params, X):
    a = X
    pre = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
    return pre


def finite_difference_error(params, X, y, h=1e-5):
    """Max relative error of analytic vs central-difference gradients.

    Layers whose downstream hidden pre-activations sit within 1e-6 of
    the ReLU kink are skipped; the output layer is always checked.
    """
    pre = _hidden_preactivations(params, X)
    kinks = [bool((np.abs(z) < 1e-6).any()) for z in pre]
    n_hidden = len(kinks)
    _, analytic = loss_gradients(params, X, y)

    worst = 0.0
    for layer in range(params.num_layers):
        if any(kinks[layer:n_hidden]):
            continue
        for stack, grad_stack in ((params.weights, analytic.weights),
                                  (params.biases, analytic.biases)):
            values = stack[layer].ravel()
            grads = grad_stack[layer].ravel()
            for j in range(values.size):
                kept = values[j]
                values[j] = kept + h
                up, _ = loss_gradients(params, X, y)
                values[j] = kept - h
                down, _ = loss_gradients(params, X, y)
                values[j] = kept
                fd = (up - down) / (2.0 * h)
                scale = max(abs(grads[j]), abs(fd), 1e-8)
                worst = max(worst, abs(grads[j] - fd) / scale)
    return worst


def test_gradients_match_finite_differences_on_twenty_draws():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        net = init_network(
            NetworkConfig(input_dim=9, hidden_widths=(8, 8), seed=1500 + k)
        )
        X = rng.normal(size=(16, 9))
        y = rng.normal(size=16)
        worst = max(worst, finite_difference_error(net, X, y))
    check("gradient check", f"max rel err {worst:.3e} (tol 1e-4)",
          worst < 1e-4)


# ------------------------------------- trained-model quality (shared fit)


@pytest.fixture(scope="module")
def study():
    table = generate_paving_dataset(4000, 101, include_truth=True)
    ds = encode_and_normalize(table, "Productivity")
    train_ds, test_ds = split(ds, 0.8, 202)
    params, _ = train(
        train_ds,
        NetworkConfig(input_dim=9, hidden_widths=(6, 6, 6), seed=303),
        TrainConfig(epochs=300, shuffle_seed=404),
    )
    return SimpleNamespace(
        table=table, ds=ds, train_ds=train_ds, test_ds=test_ds, params=params,
    )


def test_heldout_interval_coverage_near_nominal(study):
    fraction = coverage(
        study.params, study.ds.norm_stats, study.test_ds, 0.95
    ).coverage_fraction
    check("95% interval coverage",
          f"{fraction:.4f} (required 0.92..0.975)",
          0.92 <= fraction <= 0.975)


def test_sigma_correlation_and_rmse_beat_pooled_baseline(study):
    table = study.table
    train_idx, test_idx = split_indices(4000, 0.8, 202)
    mu_star = np.array(table.column_values("MuStar"))[test_idx]
    sigma_star = np.array(table.column_values("SigmaStar"))[test_idx]

    stats = study.ds.norm_stats
    mu_norm, s = forward_batch(study.params, study.test_ds.X)
    mu_hat = mu_norm * stats.target.std + stats.target.mean
    sigma_hat = np.sqrt(np.exp(s)) * stats.target.std

    corr = float(np.corrcoef(sigma_hat, sigma_star)[0, 1])

    pooled = float(np.mean(
        np.array(table.column_values("Productivity"))[train_idx]))
    rmse_net = float(np.sqrt(np.mean((mu_hat - mu_star) ** 2)))
    rmse_pooled = float(np.sqrt(np.mean((pooled - mu_star) ** 2)))
    ratio = rmse_net / rmse_pooled

    check("moment recovery",
          f"corr(sigma_hat, sigma*) {corr:.4f} (>= 0.8), "
          f"rmse(mu) ratio vs pooled {ratio:.4f} (<= 0.5)",
          corr >= 0.8 and ratio <= 0.5)


def test_derived_scenario_means_are_ordered(study):
    means = {
        name: derive(study.params, features, study.ds.norm_stats).mean
        for name, features in DEMO_SCENARIOS.items()
    }
    check("scenario ordering",
          "best {best:.2f} > medium {medium:.2f} > worst {worst:.2f}".format(
              **means),
          means["best"] > means["medium"] > means["worst"])


# ------------------------------------------- mixture variance splitting


def test_weather_mixture_variance_decomposition():
    table = generate_weather_mixture(30000, 7)
    durations = table.column_values("Duration")
    by_condition = {}
    for condition, duration in zip(table.column_values("Condition"),
                                   durations):
        by_condition.setdefault(str(condition), []).append(float(duration))

    pooled_var = float(np.var(durations))
    stds = {label: float(np.std(vals)) for label, vals in by_condition.items()}

    ok = abs(pooled_var / 28.0 - 1.0) < 0.05
    for std in stds.values():
        ok = ok and 1.9 < std < 2.1 and std ** 2 < pooled_var
    check("mixture decomposition",
          f"pooled var {pooled_var:.3f} (28 +/- 5%), per-condition stds "
          + ", ".join(f"{label} {std:.3f}" for label, std in sorted(stds.items())),
          ok)


# ------------------------------------------- the multi-source claim

#: The sources of one synth table, split by column as perfbench's ingest
#: splits them; each also holds the JobId key, and A the answer key.
SOURCE_A = ("Productivity", "Slump", "Congestion", "Spreader",
            "AirEntrainment", "MuStar", "SigmaStar")
SOURCE_B = ("Temperature", "Humidity", "Slope", "Curvature", "PaverAge")


def csv_columns(path):
    """A CSV's columns by name, as floats; ``#`` lines skipped."""
    with open(path, newline="") as stream:
        rows = list(csv.reader(line for line in stream
                               if not line.startswith("#")))
    return {name: np.array([float(row[i]) for row in rows[1:]])
            for i, name in enumerate(rows[0])}


def write_source(path, columns, names, order):
    """The rows `order` of `columns`, the key JobId and then `names`."""
    lines = [",".join(("JobId",) + names)]
    lines += [",".join([f"job{i}"]
                       + [repr(float(columns[n][i])) for n in names])
              for i in order]
    path.write_text("\n".join(lines) + "\n")


def gaussian_nll(y, mu, sigma):
    return float(np.mean(0.5 * np.log(2.0 * np.pi * sigma ** 2)
                         + (y - mu) ** 2 / (2.0 * sigma ** 2)))


def test_joined_sources_beat_one_source_at_sixteen_epochs(tmp_path):
    # The paper's thesis: an input model fitted on several joined sources
    # is sharper and more faithful than one fitted on a single source.
    # Scores are computed here from evaluate's mu and sigma columns, in
    # physical units, against the answer key of fresh rows.
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv[0]

    run("synth", "--n", 2000, "--seed", 5, "--truth",
        "--out", tmp_path / "d.csv")
    run("synth", "--n", 4000, "--seed", 99, "--truth",
        "--out", tmp_path / "fresh.csv")
    data = csv_columns(tmp_path / "d.csv")
    write_source(tmp_path / "a.csv", data, SOURCE_A, range(2000))
    write_source(tmp_path / "b.csv", data, SOURCE_B, reversed(range(2000)))
    fresh = csv_columns(tmp_path / "fresh.csv")

    scores = {}
    for name, sources in (("A", ["a.csv"]), ("A+B", ["a.csv", "b.csv"])):
        run("adapt", *(x for s in sources for x in ("--data", tmp_path / s)),
            "--key", "JobId", "--seed", 6, "--out", tmp_path / "ds.json")
        run("train", "--data", tmp_path / "ds.json", "--seed", 7,
            "--epochs", 16, "--out", tmp_path / "m.model")
        run("evaluate", "--model", tmp_path / "m.model",
            "--data", tmp_path / "fresh.csv", "--out", tmp_path / "cov.csv")
        cov = csv_columns(tmp_path / "cov.csv")
        mu, sigma = cov["mu"], cov["sigma"]
        w2 = np.sqrt((mu - fresh["MuStar"]) ** 2
                     + (sigma - fresh["SigmaStar"]) ** 2)
        scores[name] = (gaussian_nll(cov["observed"], mu, sigma),
                        float(np.mean(w2)),
                        float(np.median(sigma / fresh["SigmaStar"])))
    y = data["Productivity"]
    pooled = gaussian_nll(fresh["Productivity"], y.mean(), y.std())

    (nll_a, w2_a, _), (nll_ab, w2_ab, ratio_ab) = scores["A"], scores["A+B"]
    check("multi-source claim",
          f"NLL A+B {nll_ab:.3f} < A {nll_a:.3f} and < pooled {pooled:.3f}, "
          f"mean W2 A+B {w2_ab:.2f} < A {w2_a:.2f}, "
          f"median sigma/sigma* A+B {ratio_ab:.2f} (0.8..1.25)",
          nll_ab < nll_a and nll_ab < pooled and w2_ab < w2_a
          and 0.8 <= ratio_ab <= 1.25)


# ------------------------------------------------- simulator correctness


def test_simulator_agrees_with_closed_form_and_independent_mc():
    # Part one: zero-variance runs against the constant-rate oracle, which
    # plans loads and waves on whole tenths of m^3.
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(50):
        p = float(rng.uniform(20, 120))
        q10 = int(rng.integers(500, 5001))
        c10 = int(rng.integers(50, 301))
        trucks = int(rng.integers(1, 7))
        legs = tuple(float(x) for x in rng.uniform(0.05, 1.5, size=4))
        cfg = tenths_config(q10, c10, trucks, legs, p)
        worst = max(worst, abs(run_replication(cfg, 3)[0]
                               - completion_oracle(q10, c10, trucks, legs, p)))

    # Part two: an unconstrained stochastic operation against a direct
    # million-draw estimate of E[offset + Q / max(1, P)].
    cfg = SimConfig(
        total_quantity=100.0, truck_count=10, truck_capacity=100.0,
        load_time=1e-6, haul_time=0.5, dump_time=1e-6, return_time=1e-6,
        productivity_source=GaussianInputModel(50.0, 25.0),
    )
    result = run_monte_carlo(cfg, 2000, 2024)
    draws = np.random.default_rng(9090).normal(50.0, 5.0, 10 ** 6)
    oracle = (1e-6 + 0.5 + 1e-6) + 100.0 / np.maximum(1.0, draws)
    se = float(np.sqrt(np.var(result.completion_times) / 2000
                       + oracle.var() / 10 ** 6))
    z = abs(result.mean - float(oracle.mean())) / se

    check("simulator",
          f"max |simulator - oracle| {worst:.2e} (< 1e-9), "
          f"independent MC z-score {z:.2f} (< 3)",
          worst < 1e-9 and z < 3.0)


# ------------------------------------------------ deterministic pipeline


SCENARIO_CSV = (
    "Scenario,Slump,Congestion,Spreader,AirEntrainment,"
    "Temperature,Humidity,Slope,Curvature,PaverAge\n"
    "best,3.0,0,1,4.5,7.7,60.1,1.2028,-0.001,0.0\n"
)

SIM_CONFIG = {
    "total_quantity": 120,
    "truck_count": 3,
    "truck_capacity": 12,
    "load_time": 0.15,
    "haul_time": 0.4,
    "dump_time": 0.1,
    "return_time": 0.25,
    "productivity": {"mean": 55.0, "variance": 30.0},
}


def test_cli_pipeline_reruns_byte_identical(tmp_path):
    scen = tmp_path / "scen.csv"
    scen.write_text(SCENARIO_CSV)
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(json.dumps(SIM_CONFIG))

    paths = {
        name: str(tmp_path / name)
        for name in ("d.csv", "ds.json", "rep.json", "m.model", "cov.csv",
                     "der.csv", "sim.csv", "mix.csv", "mixsamp.csv")
    }
    stages = [
        ["synth", "--n", "200", "--seed", "11", "--out", paths["d.csv"]],
        ["adapt", "--data", paths["d.csv"], "--seed", "12",
         "--out", paths["ds.json"], "--report", paths["rep.json"]],
        ["train", "--data", paths["ds.json"], "--seed", "13",
         "--epochs", "20", "--hidden", "6,6", "--out", paths["m.model"]],
        ["evaluate", "--model", paths["m.model"], "--data", paths["ds.json"],
         "--out", paths["cov.csv"]],
        ["derive", "--model", paths["m.model"], "--scenarios", str(scen),
         "--out", paths["der.csv"]],
        ["simulate", "--config", str(sim_cfg), "--reps", "200",
         "--seed", "14", "--out", paths["sim.csv"]],
        ["mixture-demo", "--n", "2000", "--seed", "15",
         "--out", paths["mix.csv"], "--samples-out", paths["mixsamp.csv"]],
    ]

    def run_all():
        for argv in stages:
            assert cli.main(argv) == 0, argv[0]
        return {name: (tmp_path / name).read_bytes() for name in paths}

    first = run_all()
    second = run_all()
    stable = [name for name in paths if first[name] == second[name]]
    check("pipeline determinism",
          f"{len(stable)}/{len(paths)} artifacts byte-identical on rerun",
          len(stable) == len(paths))

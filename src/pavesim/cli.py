"""Command-line front end wiring the pipeline stages together.

One binary, seven subcommands, staged file artifacts::

    synth --------> raw CSV
    adapt --------> dataset file (train/test splits + normalization)
    train --------> model file
    evaluate -----> coverage CSV
    derive -------> per-scenario distribution listing
    simulate -----> completion-time CSV
    mixture-demo -> pooled-vs-conditioned CSV

Every command that consumes randomness takes an explicit ``--seed``;
there is no entropy default, and each run prints its effective seeds.
Every output file starts with a ``#`` audit header recording the tool
version, subcommand, and all effective parameters, with no timestamps,
so a rerun with identical flags is byte-identical. Outputs are written
to a temp file and renamed, so failures leave no partial artifacts.

Exit codes: 0 success, 1 validation or data error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .adapter import (
    CleanPolicy,
    DROP_ROW,
    FLAG_ONLY,
    IMPUTE_MEDIAN,
    clean,
    dataset_with_stats,
    encode_and_normalize,
    join_sources,
    split,
)
from .errors import DataError, NumericalError, PavesimError
from .inputmodel import (
    GaussianInputModel,
    Z_VALUES,
    compare_pooled_vs_conditioned,
    confidence_interval,
    coverage,
    derive,
    pooled_fit,
)
from .modelfile import (
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    write_text_atomic,
)
from .network import NetworkConfig, TrainConfig, train
from .simulator import build_sim_config, parse_sim_config, run_monte_carlo
from .synthetic import (
    DEFAULT_WEATHER_MIXTURE,
    generate_paving_dataset,
    generate_weather_mixture,
)
from .tables import (
    CATEGORICAL,
    NUMERIC,
    ScenarioFeatures,
    TARGET_COLUMN,
    csv_text,
    json_text,
    load_csv,
    table_to_csv,
    without_comments,
)


class _UsageError(PavesimError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with status 2, which is reserved
    # here for numerical failure.
    def error(self, message):
        raise _UsageError(message)


def _audit_header(subcommand: str, args: argparse.Namespace) -> list[str]:
    """Deterministic provenance lines for the top of every output file."""
    lines = [f"pavesim {__version__}", f"subcommand: {subcommand}"]
    for name in sorted(vars(args)):
        if name in ("func", "subcommand"):
            continue
        value = getattr(args, name)
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{name} = {value}")
    return lines


def _first_line(path: str, none_error: str) -> str:
    """First line that is neither a ``#`` comment nor blank."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such file: {path}")
    for line in without_comments(p.read_text().splitlines()):
        if line.strip():
            return line
    raise DataError(f"{none_error}: {path}")


def _is_dataset_file(path: str) -> bool:
    """True when the file looks like a dataset JSON, not a CSV."""
    return _first_line(path, "file is empty").lstrip().startswith("{")


def _cmd_synth(args) -> None:
    table = generate_paving_dataset(args.n, args.seed, include_truth=args.truth)
    write_text_atomic(
        args.out, table_to_csv(table, _audit_header("synth", args))
    )
    print(f"seed = {args.seed}")
    print(f"wrote {table.num_rows} rows to {args.out}")


def _parse_seed(value: str) -> int:
    """A seed flag: numpy's generators take only non-negative integers."""
    if not value.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"seeds must be non-negative integers, got {value!r}")
    return int(value)


def _parse_missing(value: str) -> str:
    if value not in (DROP_ROW, IMPUTE_MEDIAN):
        raise argparse.ArgumentTypeError(
            f"--missing must be {DROP_ROW} or {IMPUTE_MEDIAN}, got {value!r}"
        )
    return value


def _parse_outliers(value: str) -> str:
    if value not in (DROP_ROW, FLAG_ONLY):
        raise argparse.ArgumentTypeError(
            f"--outliers must be {FLAG_ONLY} or {DROP_ROW}, got {value!r}"
        )
    return value


def _cmd_adapt(args) -> None:
    tables = [load_csv(p) for p in args.data]
    if len(tables) > 1:
        if args.key is None:
            raise DataError("joining multiple files requires --key")
        table, dropped = join_sources(tables, args.key)
        print(f"joined {len(tables)} files on {args.key!r}: "
              f"{table.num_rows} rows, {dropped} input rows dropped")
    else:
        table = tables[0]

    policy = CleanPolicy(
        missing_strategy=args.missing,
        outlier_strategy=args.outliers,
        iqr_multiplier=args.iqr_multiplier,
    )
    cleaned, report = clean(table, policy)

    feature_columns = None
    if args.key is not None and args.key in cleaned.column_names:
        feature_columns = tuple(
            c for c in cleaned.column_names if c not in (args.target, args.key)
        )
    ds = encode_and_normalize(cleaned, args.target, feature_columns)
    train_ds, test_ds = split(ds, args.train_fraction, args.seed)
    save_dataset(args.out, train_ds, test_ds, _audit_header("adapt", args))

    if args.report is not None:
        write_text_atomic(args.report, json_text(
            _audit_header("adapt", args), asdict(report)))

    print(f"seed = {args.seed}")
    print(f"cleaned: {report.summary()}")
    print(f"split: {train_ds.n} train / {test_ds.n} test rows -> {args.out}")


def _load_train_split(args):
    if _is_dataset_file(args.data):
        train_ds, _ = load_dataset(args.data)
        return train_ds, (f"split_seed = (stored in {args.data})",)
    table = load_csv(args.data)
    cleaned, _ = clean(table)
    ds = encode_and_normalize(cleaned, args.target)
    split_seed = args.seed if args.split_seed is None else args.split_seed
    train_ds, _ = split(ds, args.train_fraction, split_seed)
    return train_ds, (f"split_seed = {split_seed}",)


def _parse_hidden(value: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(w) for w in value.split(",") if w.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--hidden must be comma-separated integers, got {value!r}"
        ) from None
    if not widths:
        raise argparse.ArgumentTypeError("--hidden must name at least one width")
    return widths


def _cmd_train(args) -> None:
    train_ds, seed_notes = _load_train_split(args)
    net_cfg = NetworkConfig(
        input_dim=train_ds.X.shape[1],
        hidden_widths=args.hidden,
        seed=args.seed,
    )
    train_cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        shuffle_seed=args.seed,
    )
    print(f"seed = {args.seed} (init and shuffle)")
    for note in seed_notes:
        print(note)
    print(f"training on {train_ds.n} rows, {train_ds.X.shape[1]} features, "
          f"hidden {list(args.hidden)}, {args.epochs} epochs")
    params, report = train(train_ds, net_cfg, train_cfg)
    save_model(
        args.out, params, train_ds.norm_stats, net_cfg, train_cfg,
        _audit_header("train", args),
    )
    print(f"final epoch mean loss = {report.final_loss:.6f}")
    print(f"wrote model to {args.out}")


def _cmd_evaluate(args) -> None:
    params, stats, _, _ = load_model(args.model)
    if _is_dataset_file(args.data):
        _, test_ds = load_dataset(args.data)
        if test_ds.norm_stats != stats:
            raise DataError(
                "dataset was normalized under different statistics than the "
                "model; evaluate on the dataset the model was trained from"
            )
    else:
        table = load_csv(args.data)
        test_ds = dataset_with_stats(table, stats, args.target)
    report = coverage(params, stats, test_ds, args.level)
    if args.out is not None:
        write_text_atomic(
            args.out, report.to_csv(_audit_header("evaluate", args))
        )
        print(f"wrote {len(report.points)} rows to {args.out}")
    print("seeds: none (deterministic)")
    print(f"coverage fraction = {report.coverage_fraction:.4f} "
          f"at level {args.level}")


def _read_scenarios(path: str) -> list[tuple[str, ScenarioFeatures]]:
    header = [c.strip() for c in
              _first_line(path, "file has no header row").split(",")]
    kinds = tuple(
        CATEGORICAL if name == "Scenario" else NUMERIC for name in header
    )
    table = load_csv(path, kinds=kinds)
    out = []
    for i, row in enumerate(table.rows):
        mapping = dict(zip(table.column_names, row))
        label = mapping.get("Scenario") or f"row {i}"
        out.append((label, ScenarioFeatures.from_mapping(mapping)))
    if not out:
        raise DataError(f"scenario file {path} has no rows")
    return out


def _cmd_derive(args) -> None:
    params, stats, _, _ = load_model(args.model)
    scenarios = _read_scenarios(args.scenarios)
    print("seeds: none (deterministic)")
    rows = []
    for label, features in scenarios:
        model = derive(params, features, stats)
        lo, hi = confidence_interval(model, 0.95)
        print(f"{label}: mean = {model.mean:.4f}, variance = "
              f"{model.variance:.4f}, 95% CI = [{lo:.4f}, {hi:.4f}]")
        rows.append((label, model.mean, model.variance, lo, hi))
    if args.out is not None:
        write_text_atomic(args.out, csv_text(
            _audit_header("derive", args),
            ("scenario", "mean", "variance", "lo95", "hi95"), rows))
        print(f"wrote {len(scenarios)} rows to {args.out}")


def _cmd_simulate(args) -> None:
    raw = parse_sim_config(args.config)
    if "productivity" in raw:
        if args.model is not None:
            raise DataError(
                "config provides the productivity distribution directly; "
                "drop --model or switch the config to a 'scenario' block"
            )
        entry = raw["productivity"]
        input_model = GaussianInputModel(
            mean=float(entry["mean"]), variance=float(entry["variance"])
        )
    else:
        if args.model is None:
            raise DataError(
                "config has a 'scenario' block, so --model is required"
            )
        params, stats, _, _ = load_model(args.model)
        features = ScenarioFeatures.from_mapping(raw["scenario"])
        input_model = derive(params, features, stats)

    cfg = build_sim_config(raw, input_model)
    result = run_monte_carlo(cfg, args.reps, args.seed)
    write_text_atomic(args.out, result.to_csv(_audit_header("simulate", args)))
    print(f"seed = {args.seed}")
    print(f"input model: mean = {input_model.mean:.4f}, "
          f"std = {input_model.std:.4f}")
    print(f"{args.reps} replications: mean completion = {result.mean:.4f} h, "
          f"std = {result.std:.4f} h, p5 = {result.percentile(5):.4f} h, "
          f"p95 = {result.percentile(95):.4f} h")
    print(f"wrote {args.out}")


def _cmd_mixture_demo(args) -> None:
    table = generate_weather_mixture(args.n, args.seed)
    durations = {c.label: [] for c in DEFAULT_WEATHER_MIXTURE.components}
    duration_idx = table.column_index("Duration")
    condition_idx = table.column_index("Condition")
    for row in table.rows:
        durations[str(row[condition_idx])].append(float(row[duration_idx]))

    labels = [
        c.label for c in DEFAULT_WEATHER_MIXTURE.components
        if durations[c.label]
    ]
    components = [
        (len(durations[label]) / args.n, pooled_fit(durations[label]))
        for label in labels
    ]
    comparison = compare_pooled_vs_conditioned(components, labels)
    write_text_atomic(
        args.out, comparison.to_csv(_audit_header("mixture-demo", args))
    )
    if args.samples_out is not None:
        write_text_atomic(
            args.samples_out,
            table_to_csv(table, _audit_header("mixture-demo", args)),
        )
    print(f"seed = {args.seed}")
    print(f"pooled: mean = {comparison.pooled.mean:.4f}, "
          f"variance = {comparison.pooled.variance:.4f}")
    for row in comparison.components:
        print(f"{row.label}: weight = {row.weight:.4f}, "
              f"mean = {row.model.mean:.4f}, "
              f"variance = {row.model.variance:.4f}, "
              f"pooled/component = {row.variance_ratio:.2f}")
    print(f"wrote {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pavesim",
        description="Condition-aware Gaussian input models for road-paving "
                    "simulation: synthesize data, train, validate coverage, "
                    "derive distributions, simulate.",
    )
    parser.add_argument("--version", action="version",
                        version=f"pavesim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic operation CSV")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--truth", action="store_true",
                   help="append the generating MuStar/SigmaStar columns")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("adapt",
                       help="clean, encode, normalize, and split raw CSVs")
    p.add_argument("--data", action="append", required=True,
                   help="input CSV; repeat to join multiple sources")
    p.add_argument("--key", default=None,
                   help="join key column (required for multiple --data)")
    p.add_argument("--target", default=TARGET_COLUMN)
    p.add_argument("--missing", type=_parse_missing, default=IMPUTE_MEDIAN,
                   help=f"{IMPUTE_MEDIAN} (default) or {DROP_ROW}")
    p.add_argument("--outliers", type=_parse_outliers, default=FLAG_ONLY,
                   help=f"{FLAG_ONLY} (default) or {DROP_ROW}")
    p.add_argument("--iqr-multiplier", type=float, default=1.5)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=_parse_seed, required=True,
                   help="split seed")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--report", default=None,
                   help="optional cleaning-report JSON path")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("train", help="train the heteroscedastic network")
    p.add_argument("--data", required=True,
                   help="dataset file from adapt, or a raw CSV")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--seed", type=_parse_seed, required=True,
                   help="init and shuffle seed")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--hidden", type=_parse_hidden, default=(64, 64, 64),
                   help="comma-separated hidden widths (default 64,64,64)")
    p.add_argument("--target", default=TARGET_COLUMN,
                   help="target column (CSV input only)")
    p.add_argument("--train-fraction", type=float, default=0.8,
                   help="train share (CSV input only)")
    p.add_argument("--split-seed", type=_parse_seed, default=None,
                   help="split seed (CSV input only; defaults to --seed)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate",
                       help="check interval coverage on held-out data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True,
                   help="dataset file (its test split is used) or a raw CSV")
    p.add_argument("--level", type=float, default=0.95,
                   choices=tuple(Z_VALUES))
    p.add_argument("--target", default=TARGET_COLUMN,
                   help="target column (CSV input only)")
    p.add_argument("--out", default=None, help="coverage CSV path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("derive",
                       help="derive per-scenario productivity distributions")
    p.add_argument("--model", required=True)
    p.add_argument("--scenarios", required=True,
                   help="CSV of feature rows, optional Scenario label column")
    p.add_argument("--out", default=None, help="optional output CSV")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("simulate", help="Monte-Carlo paving simulation")
    p.add_argument("--model", default=None,
                   help="model file (required for 'scenario' configs)")
    p.add_argument("--config", required=True, help="operation config JSON")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mixture-demo",
                       help="pooled vs per-condition hauling-duration models")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out", required=True, help="comparison CSV path")
    p.add_argument("--samples-out", default=None,
                   help="optional raw sample CSV path")
    p.set_defaults(func=_cmd_mixture_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PavesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

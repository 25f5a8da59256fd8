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
so a rerun with identical flags is byte-identical. A command stages its
outputs and stdout lines in a :class:`_Run`, whose header :func:`main`
builds once. Then main renames every output into place and prints, or,
if anything failed (two outputs naming one file too), writes and prints
nothing.

Exit codes: 0 success, 1 validation or data error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

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
from .errors import (DataError, NumericalError, PavesimError, check_object,
                     check_record)
from .inputmodel import (
    GaussianInputModel,
    Z_VALUES,
    compare_pooled_vs_conditioned,
    confidence_interval,
    coverage,
    derive,
)
from .modelfile import load_dataset, load_model, save_dataset, save_model
from .network import NetworkConfig, TrainConfig, train
from .simulator import SimConfig, run_monte_carlo
from .synthetic import (
    WEATHER_MIXTURE,
    generate_paving_dataset,
    generate_weather_mixture,
)
from .tables import (
    DERIVED_LABEL,
    MIXTURE_LABEL,
    SCENARIO_LABEL,
    TARGET_COLUMN,
    TRUTH_COLUMNS,
    csv_text,
    json_chunks,
    load_csv,
    open_text,
    read_json,
    staged_files,
    table_to_csv,
    without_comments,
    write_text,
)


class _UsageError(PavesimError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with status 2, which is reserved
    # here for numerical failure.
    def error(self, message):
        raise _UsageError(message)


def _audit_header(args: argparse.Namespace) -> list[str]:
    """Deterministic provenance lines for the top of every output file."""
    lines = [f"pavesim {__version__}", f"subcommand: {args.subcommand}"]
    for name in sorted(vars(args)):
        if name in ("func", "subcommand"):
            continue
        value = getattr(args, name)
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{name} = {value}")
    return lines


@dataclass
class _Run:
    """One invocation: its audit header, the ``stage`` function of its
    :func:`staged_files`, and the lines printed once those are committed."""

    header: list[str]
    stage: Callable[..., Path]
    lines: list[str]


def _is_dataset_file(path: str) -> bool:
    """True when the file looks like a dataset JSON, not a CSV: its first
    line that is neither a ``#`` comment nor blank opens an object."""
    with open_text(path) as stream:  # read lazily: a dataset may be megabytes
        for line in without_comments(stream):
            if line.strip():
                return line.lstrip().startswith("{")
    raise DataError(f"file is empty: {path}")


def _cmd_synth(args, run: _Run) -> None:
    table = generate_paving_dataset(args.n, args.seed, include_truth=args.truth)
    run.stage(args.out, table_to_csv(table, run.header))
    run.lines += [f"seed = {args.seed}",
                  f"wrote {table.num_rows} rows to {args.out}"]


def _parse_seed(value: str) -> int:
    """A seed flag: numpy's generators take only non-negative integers."""
    if not value.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"seeds must be non-negative integers, got {value!r}")
    return int(value)


def _cmd_adapt(args, run: _Run) -> None:
    policy = CleanPolicy(  # before any parse: a bad flag costs no read
        missing_strategy=args.missing,
        outlier_strategy=args.outliers,
        iqr_multiplier=args.iqr_multiplier,
    )
    tables = [load_csv(p, lambda name: name != args.key) for p in args.data]
    if args.key is not None:
        table, dropped = join_sources(tables, args.key)
        if len(tables) > 1:
            run.lines.append(f"joined {len(tables)} files on {args.key!r}: "
                             f"{table.num_rows} rows, {dropped} input rows "
                             "dropped")
    elif len(tables) > 1:
        raise DataError("joining multiple files requires --key")
    else:
        table = tables[0]
    cleaned, report = clean(table, policy)
    ds = encode_and_normalize(cleaned, args.target)
    train_ds, test_ds = split(ds, args.train_fraction, args.seed)
    save_dataset(run.stage(args.out), train_ds, test_ds, run.header)
    if args.report is not None:
        write_text(run.stage(args.report),
                   json_chunks(run.header, asdict(report)))
    run.lines += [f"seed = {args.seed}", f"cleaned: {report.summary()}",
                  "features: " + ", ".join(c.name for c in ds.norm_stats.features),
                  f"split: {train_ds.n} train / {test_ds.n} test rows "
                  f"-> {args.out}"]


def _parse_hidden(value: str) -> tuple[int, ...]:
    # an empty item ("6,,6", "6,") is refused, not skipped
    try:
        return tuple(int(w) for w in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--hidden must be comma-separated integers, got {value!r}"
        ) from None


def _cmd_train(args, run: _Run) -> None:
    if not _is_dataset_file(args.data):
        raise DataError(f"{args.data} is not a dataset file: run 'pavesim "
                        f"adapt --data {args.data} --seed K --out ds.json' "
                        "first, then train --data ds.json")
    train_ds, _ = load_dataset(args.data)
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
    params, report = train(train_ds, net_cfg, train_cfg)
    save_model(run.stage(args.out), params, train_ds.norm_stats,
               net_cfg, train_cfg, run.header)
    run.lines += [f"seed = {args.seed} (init and shuffle)",
                  f"split_seed = (stored in {args.data})",
                  f"training on {train_ds.n} rows, {train_ds.X.shape[1]} "
                  f"features, hidden {list(args.hidden)}, "
                  f"{args.epochs} epochs",
                  f"final epoch mean loss = {report.final_loss:.6f}",
                  f"wrote model to {args.out}"]


def _cmd_evaluate(args, run: _Run) -> None:
    params, stats, _, _ = load_model(args.model)
    if _is_dataset_file(args.data):
        _, test_ds = load_dataset(args.data)
    else:
        names = {c.name for c in (*stats.features, stats.target)}
        table = load_csv(args.data, names.__contains__)
        test_ds = dataset_with_stats(table, stats)
    report = coverage(params, stats, test_ds, args.level)
    if args.out is not None:
        run.stage(args.out, report.to_csv(run.header))
        run.lines.append(f"wrote {report.observed.size} rows to {args.out}")
    run.lines += ["seeds: none (deterministic)",
                  f"coverage fraction = {report.coverage_fraction:.4f} "
                  f"at level {args.level}"]


def _cmd_derive(args, run: _Run) -> None:
    params, stats, _, _ = load_model(args.model)
    names = {c.name for c in stats.features}
    table = load_csv(args.scenarios, names.__contains__)
    if not table.num_rows:
        raise DataError(f"scenario file {args.scenarios} has no rows")
    run.lines.append("seeds: none (deterministic)")
    rows = []
    for i, cells in enumerate(zip(*table.columns)):
        values = dict(zip(table.column_names, cells))
        label = values.get(SCENARIO_LABEL) or f"row {i}"
        model = derive(params, values, stats)
        lo, hi = confidence_interval(model.mean, model.std, 0.95)
        run.lines.append(f"{label}: mean = {model.mean:.4f}, variance = "
                         f"{model.variance:.4f}, 95% CI = [{lo:.4f}, {hi:.4f}]")
        rows.append((label, model.mean, model.variance, lo, hi))
    if args.out is not None:
        run.stage(args.out, csv_text(run.header, (
            DERIVED_LABEL, "mean", "variance", "lo95", "hi95"), rows))
        run.lines.append(f"wrote {len(rows)} rows to {args.out}")


def _cmd_simulate(args, run: _Run) -> None:
    """A config: one productivity source, an object, and SimConfig's fields."""
    raw = read_json(args.config)
    sources = [k for k in ("productivity", "scenario") if k in raw]
    if len(sources) != 1:
        raise DataError(
            "config must provide exactly one of 'productivity' or "
            f"'scenario', got {sources or 'neither'}"
        )
    source = check_object(sources[0], raw.pop(sources[0]))
    if sources == ["productivity"]:
        if args.model is not None:
            raise DataError(
                "config provides the productivity distribution directly; "
                "drop --model or switch the config to a 'scenario' block"
            )
        input_model = check_record(GaussianInputModel, "productivity", source)
    else:
        if args.model is None:
            raise DataError(
                "config has a 'scenario' block, so --model is required"
            )
        params, stats, _, _ = load_model(args.model)
        input_model = derive(params, source, stats)

    cfg = check_record(SimConfig, "config", raw, complete=False,
                       productivity_source=input_model)
    result = run_monte_carlo(cfg, args.reps, args.seed)
    run.stage(args.out, result.to_csv(run.header))
    run.lines += [f"seed = {args.seed}", f"input model: mean = "
                  f"{input_model.mean:.4f}, std = {input_model.std:.4f}",
                  f"{args.reps} replications: mean completion = "
                  f"{result.mean:.4f} h, std = {result.std:.4f} h, "
                  f"p5 = {result.percentile(5):.4f} h, "
                  f"p95 = {result.percentile(95):.4f} h", f"wrote {args.out}"]


def _cmd_mixture_demo(args, run: _Run) -> None:
    table = generate_weather_mixture(args.n, args.seed)
    rows = compare_pooled_vs_conditioned(
        [label for label, *_ in WEATHER_MIXTURE],
        table.column_values("Condition"), table.column_values("Duration"))
    run.stage(args.out, csv_text(run.header, (
        MIXTURE_LABEL, "weight", "mean", "variance", "pooled_variance_ratio"),
        rows))
    if args.samples_out is not None:
        run.stage(args.samples_out, table_to_csv(table, run.header))
    (_, _, mean, variance, _), *conditions = rows
    run.lines += [f"seed = {args.seed}",
                  f"pooled: mean = {mean:.4f}, variance = {variance:.4f}"]
    run.lines += (f"{label}: weight = {w:.4f}, mean = {m:.4f}, "
                  f"variance = {v:.4f}, pooled/component = {r:.2f}"
                  for label, w, m, v, r in conditions)
    run.lines.append(f"wrote {args.out}")


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
                   help=f"append the answer key, {'/'.join(TRUTH_COLUMNS)}")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("adapt",
                       help="clean, encode, normalize, and split raw CSVs")
    p.add_argument("--data", action="append", required=True,
                   help="input CSV; repeat to join multiple sources")
    p.add_argument("--key", default=None,
                   help="join key column, read as text and dropped after the join "
                        "(required for multiple --data)")
    p.add_argument("--target", default=TARGET_COLUMN)
    p.add_argument("--missing", default=CleanPolicy.missing_strategy,
                   help=f"{IMPUTE_MEDIAN} or {DROP_ROW} (default %(default)s)")
    p.add_argument("--outliers", default=CleanPolicy.outlier_strategy,
                   help=f"{FLAG_ONLY} or {DROP_ROW} (default %(default)s)")
    p.add_argument("--iqr-multiplier", type=float,
                   default=CleanPolicy.iqr_multiplier)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=_parse_seed, required=True,
                   help="split seed")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--report", default=None,
                   help="optional cleaning-report JSON path")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("train", help="train the heteroscedastic network")
    p.add_argument("--data", required=True,
                   help="dataset file from adapt (its train split is used)")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--seed", type=_parse_seed, required=True,
                   help="init and shuffle seed")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--hidden", type=_parse_hidden,
                   default=NetworkConfig.hidden_widths,
                   help="comma-separated hidden widths (default " + ",".join(
                       map(str, NetworkConfig.hidden_widths)) + ")")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate",
                       help="check interval coverage on held-out data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True,
                   help="dataset file (its test split is used) or a raw CSV")
    p.add_argument("--level", type=float, default=0.95,
                   help=" or ".join(map(str, Z_VALUES))
                   + " (default %(default)s)")
    p.add_argument("--out", default=None, help="coverage CSV path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("derive",
                       help="derive per-scenario productivity distributions")
    p.add_argument("--model", required=True)
    p.add_argument("--scenarios", required=True,
                   help=f"CSV of feature rows, optional {SCENARIO_LABEL} column")
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
        with staged_files() as stage:
            run = _Run(_audit_header(args), stage, [])
            args.func(args, run)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PavesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in run.lines:
        print(line)
    return 0


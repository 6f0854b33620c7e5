"""Command-line front end.

Subcommands: experiment | bounds | verify | deviation | generate.
Study-style runs take a JSON config with a top-level "command"
discriminator.  Every config value, and every `bounds` flag, is checked
once against its subcommand's schema (`_typed`) for its type, and for
being given where the schema requires it; unknown keys are rejected.
Each command then makes one call: `run_studies`, `bounds.evaluate` or
`bounds.sweep`, `run_suite`, `run_coverage` or `generate_dataset`.  That
call holds the defaults the schema leaves out and checks the values;
the command prints or writes what it returns.  `bounds` takes either a
config or plain flags, not both.  Exit codes: 0 success,
1 check failure, 2 usage/config error (also a bound that overflows, or a
config that asks for more memory than there is), 3 IO error.  Commands
raise, and `main` alone prints the `error:` line and picks the code;
an IO error names the action that failed (`cannot write CSV: ...`).
Every command with replicates (`experiment`, `verify`, `deviation`) runs
them on one pool, `datagen.map_replicates`: min(CPUs, replicates) worker
threads, each with one BLAS thread while two or more run.  `verify all`
runs its five suites on that pool too, and the gap checks' replicates run
on a pool nested in their suite's worker.  Only
`experiment` takes `--threads`, which caps that pool.  Inputs are drawn
as X = Lambda^{1/2} Z with a diagonal covariance Lambda.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

from . import theory_checks
from .bounds import BOUNDS, GAUSSIAN_K, BoundParams, evaluate, sweep
from .datagen import GenerativeConfig, generate_dataset, make_covariance, write_dataset
from .experiments import StudyConfig, run_coverage, run_studies, write_replications, write_table1, write_table2

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3


# the default of a schema entry that must be given
REQUIRED = object()


@contextlib.contextmanager
def _io_action(action: str):
    """Re-raise an OSError from the block with the failed action named."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot {action}: {exc}") from exc


def _load_config(path: str, command: str, schema: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    if raw.get("command") != command:
        raise ValueError(f"config command is {raw.get('command')!r}, expected {command!r}")
    return _typed({k: v for k, v in raw.items() if k != "command"}, schema, "config")


def _typed(raw: dict, schema: dict, what: str) -> dict:
    """The entries of ``raw`` checked against ``schema``, with defaults filled in.

    A schema entry is a type, a nested schema (a dict, for a JSON object
    checked the same way), or a ``(type, default)`` pair whose default is
    REQUIRED for a key that must be given.  A key without a default stays
    absent when ``raw`` omits it.  Ints widen to float where float is
    expected; a bool is never accepted.  Unknown keys, missing required
    keys and wrong types raise ValueError.
    """
    unknown = set(raw) - set(schema)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    out = {}
    for key, entry in schema.items():
        kind, default = entry if isinstance(entry, tuple) else (entry, None)
        if key not in raw:
            if default is REQUIRED:
                raise ValueError(f"{what} requires {key!r}")
            if default is not None:
                out[key] = default
            continue
        value = raw[key]
        expected = dict if isinstance(kind, dict) else kind
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ValueError(f"{what} key {key!r} must be {expected.__name__}")
        out[key] = _typed(value, kind, key) if isinstance(kind, dict) else value
    return out


def _positive_int(text: str) -> int:
    """The argparse type of `--threads`: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _thread_count(args) -> int:
    if args.threads is not None:
        return args.threads
    return len(os.sched_getaffinity(0))


# keys left out keep the StudyConfig defaults
_SOLVER_SCHEMA = {"max_iters": int, "grad_map_tol": float}
_EXPERIMENT_SCHEMA = {
    "p": int,
    "n": int,
    "n_test": int,
    "beta": float,
    "R": float,
    "replications": int,
    "base_seed": int,
    "solver": _SOLVER_SCHEMA,
}


def cmd_experiment(args) -> int:
    cfg_raw = _load_config(args.config, "experiment", _EXPERIMENT_SCHEMA)
    solver = dataclasses.replace(StudyConfig().solver_opts, **cfg_raw.pop("solver", {}))
    cfg = StudyConfig(solver_opts=solver, **cfg_raw)
    threads = _thread_count(args)
    # made before any study runs, so that a bad path fails at once
    with _io_action("create output directory"):
        os.makedirs(args.out_dir, exist_ok=True)
    studies = run_studies(cfg, threads=threads, progress=args.verbose)
    with _io_action("write outputs"):
        write_table1(os.path.join(args.out_dir, "table1.csv"), studies["reciprocal"], studies["identity"])
        write_table2(os.path.join(args.out_dir, "table2.csv"), studies["reciprocal"], studies["identity"])
        write_replications(os.path.join(args.out_dir, "replications.csv"), studies)
    print(f"wrote table1.csv, table2.csv, replications.csv to {args.out_dir}")
    return EXIT_OK


# rules left out keep the bounds.sweep defaults
_SWEEP_SCHEMA = {
    "n_start": (int, REQUIRED),
    "n_stop": (int, REQUIRED),
    "steps": (int, REQUIRED),
    "trace_rule": str,
    "delta_rule": str,
}
_BOUNDS_SCHEMA = {
    "n": (int, REQUIRED),
    "R": (float, 0.0),
    "K": (float, GAUSSIAN_K),
    "delta": (float, REQUIRED),
    "trace": (float, REQUIRED),
    "norm": (float, REQUIRED),
    "a": (float, 1.0),
    "sweep": _SWEEP_SCHEMA,
}


def _print_bounds_table(rows) -> None:
    for name, report in rows:
        if report is None:
            print(f"{name:10s} n/a (delta > {BOUNDS[name][1]})")
            continue
        terms = "  ".join(f"{k}={v:.6g}" for k, v in report.terms.items())
        print(f"{name:10s} total={report.total:.6g}  confidence={report.confidence:.6g}  [{terms}]")


def _write_sweep(points, out_path: str | None) -> None:
    # the CSV is opened before any bound is evaluated, so that a bad path fails at once
    with _io_action("write sweep CSV"):
        fh = open(out_path, "w", newline="", encoding="utf-8") if out_path else None
    with fh or contextlib.nullcontext():
        rows = []
        for n, trace, delta, reports in points:
            rows.append([n, f"{trace:.6g}", f"{delta:.6g}"]
                        + [f"{report.total if report else math.nan:.6g}" for _, report in reports])
        rows.insert(0, ["n", "trace", "delta"] + [f"{name}_total" for name, _ in reports])
        if fh is None:
            csv.writer(sys.stdout).writerows(rows)
            return
        # closed here, so that a failed flush is named too
        with _io_action("write sweep CSV"), fh:
            csv.writer(fh).writerows(rows)


def _integral(text: str) -> int | float | str:
    """A `--sweep` bound as the sweep schema expects it: an integral number,
    also in float notation such as 1e8, becomes an int; anything else is
    left as it is, for the schema check to reject."""
    try:
        value = float(text)
    except ValueError:
        return text
    return int(value) if value.is_integer() else value


def _sweep_flag(args) -> dict:
    """The `--sweep n=start:stop:steps` flag and the rule flags as a sweep config object."""
    spec, _, grid = args.sweep.partition("=")
    bounds = grid.split(":")
    if spec != "n" or len(bounds) != 3:
        raise ValueError("--sweep must look like n=start:stop:steps")
    grid_keys = dict(zip(("n_start", "n_stop", "steps"), map(_integral, bounds)))
    rules = {"trace_rule": args.trace_rule, "delta_rule": args.delta_rule}
    return grid_keys | {key: rule for key, rule in rules.items() if rule is not None}


def cmd_bounds(args) -> int:
    # each config key has a flag of its name; the rule flags go into the sweep
    flags = [key for key in (*_BOUNDS_SCHEMA, "trace_rule", "delta_rule") if getattr(args, key) is not None]
    if args.config:
        if flags:
            names = ", ".join("--" + key.replace("_", "-") for key in flags)
            raise ValueError(f"parameter flags cannot be combined with a config: {names}")
        cfg = _load_config(args.config, "bounds", _BOUNDS_SCHEMA)
    else:
        raw = {key: getattr(args, key) for key in flags if key in _BOUNDS_SCHEMA}
        if args.sweep:
            raw["sweep"] = _sweep_flag(args)
        cfg = _typed(raw, _BOUNDS_SCHEMA, "bounds")
    params = BoundParams(n=cfg["n"], R=cfg["R"], delta=cfg["delta"], trace_sigma=cfg["trace"],
                         norm_sigma=cfg["norm"], K=cfg["K"], log_n_constant_a=cfg["a"])
    if "sweep" in cfg:
        _write_sweep(sweep(params, args.bound, **cfg["sweep"]), args.out)
        return EXIT_OK
    unused = [flag for flag in ("--trace-rule", "--delta-rule", "--out") if getattr(args, flag[2:].replace("-", "_"))]
    if unused:
        raise ValueError(f"{', '.join(unused)}: only used with a sweep")
    _print_bounds_table(evaluate(params, args.bound))
    return EXIT_OK


def cmd_verify(args) -> int:
    # the CSV is opened before any suite runs, so that a bad path fails at once
    with _io_action("write CSV"):
        fh = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else None
    with fh or contextlib.nullcontext():
        reports = theory_checks.run_suite(args.suite)
        for report in reports:
            print(theory_checks.format_report(report))
        failed = [r for r in reports if not r.passed]
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
        if fh is not None:
            # closed here, so that a failed flush is named too
            with _io_action("write CSV"), fh:
                writer = csv.writer(fh)
                writer.writerow(["name", "lhs", "rhs", "residual", "tolerance", "passed"])
                for r in reports:
                    writer.writerow([r.name, repr(r.lhs), repr(r.rhs), repr(r.abs_residual),
                                     repr(r.tolerance), int(r.passed)])
    return EXIT_OK if not failed else EXIT_CHECK_FAILURE


# keys left out keep the run_coverage defaults
_DEVIATION_SCHEMA = {
    "p": int,
    "n": int,
    "cov_kind": str,
    "beta": float,
    "R": float,
    "delta": float,
    "replicates": int,
    "starts": int,
    "budget": int,
    "base_seed": int,
    "grid_resolution": int,
}


def cmd_deviation(args) -> int:
    """Estimate sup |R_n - R| in each replicate and compare it with the bounds.

    `run_coverage` runs the replicates on as many threads as the process
    has CPUs, each from streams derived from (base_seed, replicate), so
    the output is identical for any CPU or BLAS thread count.
    """
    cfg = _load_config(args.config, "deviation", _DEVIATION_SCHEMA)
    theorem_total, classical_total, results = run_coverage(**cfg)
    header = ["replicate", "sup_estimate", "theorem_bound", "classical_bound", "holds_theorem"]
    if results[0][1] is not None:
        header.append("grid_estimate")
    # the rows are written once every replicate has run, so a run that fails part way leaves stdout empty
    rows = [header]
    held = 0
    for rep, (sup, grid) in enumerate(results):
        holds = sup <= theorem_total
        held += int(holds)
        row = [rep, f"{sup:.5f}", f"{theorem_total:.5f}", f"{classical_total:.5f}", int(holds)]
        if grid is not None:
            row.append(f"{grid:.5f}")
        rows.append(row)
    csv.writer(sys.stdout).writerows(rows)
    print(f"holding_frequency={held / len(results):.5f}")
    return EXIT_OK


_GENERATE_SCHEMA = {
    "p": (int, REQUIRED),
    "n": (int, REQUIRED),
    "cov_kind": (str, "reciprocal"),
    "beta": (float, 1e3),
    "seed": (int, 0),
    "out": (str, REQUIRED),
}


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, "generate", _GENERATE_SCHEMA)
    gen = GenerativeConfig(p=cfg["p"], n=cfg["n"], cov=make_covariance(cfg["cov_kind"], cfg["p"]),
                           beta=cfg["beta"], seed=cfg["seed"])
    data, theta_star = generate_dataset(gen)
    with _io_action("write dataset"):
        write_dataset(cfg["out"], data, theta_star)
    print(f"wrote {data.n} x {data.p} dataset to {cfg['out']}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulln",
        description="Constrained logistic regression: bound evaluation, table reproduction, "
                    "deviation search, identity verification, dataset dumps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_exp = sub.add_parser("experiment", help="run a replicated study and emit table CSVs")
    p_exp.add_argument("config", help="JSON config with command='experiment'")
    p_exp.add_argument("out_dir", help="directory for table1.csv/table2.csv/replications.csv")
    p_exp.add_argument("--threads", type=_positive_int, default=None,
                       help="the most replicates run at once, each on one BLAS thread when two or "
                            "more do (default and limit: the CPUs this process may use)")
    p_exp.add_argument("--verbose", action="store_true")
    p_exp.set_defaults(func=cmd_experiment)

    p_bounds = sub.add_parser("bounds", help="evaluate the three uniform concentration bounds")
    p_bounds.add_argument("config", nargs="?", help="optional JSON config with command='bounds'")
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--R", type=float)
    p_bounds.add_argument("--K", type=float)
    p_bounds.add_argument("--delta", type=float)
    p_bounds.add_argument("--trace", type=float)
    p_bounds.add_argument("--norm", type=float)
    p_bounds.add_argument("--a", type=float, help="absolute constant of the extended bound")
    p_bounds.add_argument("--bound", choices=("all", *BOUNDS), default="all")
    p_bounds.add_argument("--sweep", help="n=start:stop:steps sweep of totals vs n (CSV)")
    p_bounds.add_argument("--trace-rule", choices=("fixed", "n_over_log_n"), help="default: fixed")
    p_bounds.add_argument("--delta-rule", choices=("fixed", "inverse_n_squared"), help="default: fixed")
    p_bounds.add_argument("--out", help="write sweep CSV to this path instead of stdout")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the identity check suites")
    p_verify.add_argument("suite", choices=theory_checks.SUITE_NAMES)
    p_verify.add_argument("--csv", help="also write the report as CSV")
    p_verify.set_defaults(func=cmd_verify)

    p_dev = sub.add_parser("deviation", help="compare sup-deviation estimates against the bounds")
    p_dev.add_argument("config", help="JSON config with command='deviation'")
    p_dev.set_defaults(func=cmd_deviation)

    p_gen = sub.add_parser("generate", help="dump a dataset in the flat binary format")
    p_gen.add_argument("config", help="JSON config with command='generate'")
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        # a config that asks for more memory than the machine has is a config error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR if isinstance(exc, OSError) else EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

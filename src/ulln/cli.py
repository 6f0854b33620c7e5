"""Command-line front end.

Subcommands: experiment | bounds | verify | deviation | generate.
Study-style runs take a JSON config with a top-level "command"
discriminator (schema-checked, unknown keys rejected); `bounds` also
accepts plain flags.  Exit codes: 0 success, 1 check failure, 2
usage/config error, 3 IO error.  Only `experiment` takes `--threads`:
above 1, each replicate draws its test set on a helper thread while the
calling thread draws its training set.  Inputs are drawn as
X = Lambda^{1/2} Z with a diagonal covariance Lambda.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import theory_checks
from .bounds import BoundParams, BoundReport, bound_classical, bound_extended, bound_theorem
from .datagen import (
    GenerativeConfig,
    derive_seed,
    generate_dataset,
    make_covariance,
    sample_theta_star,
    write_dataset,
)
from .deviation import sup_deviation_grid, sup_deviation_search
from .experiments import (
    StudyConfig,
    run_study,
    write_replications,
    write_table1,
    write_table2,
)
from .solver import SolverOptions

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3


class ConfigError(Exception):
    pass


def _load_config(path: str, command: str, schema: dict[str, type | tuple]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("command") != command:
        raise ConfigError(f"config command is {raw.get('command')!r}, expected {command!r}")
    return _typed({k: v for k, v in raw.items() if k != "command"}, schema, "config")


def _typed(raw: dict, schema: dict[str, type | tuple], what: str) -> dict:
    """The entries of ``raw``, checked against ``schema`` (ints widen to
    float where float is allowed; bools are not ints); unknown keys and
    wrong types raise ConfigError."""
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    out = {}
    for key, kind in schema.items():
        if key not in raw:
            continue
        value = raw[key]
        expected = kind if isinstance(kind, tuple) else (kind,)
        if float in expected and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or isinstance(value, bool) and bool not in expected:
            names = "/".join(t.__name__ for t in expected)
            raise ConfigError(f"{what} key {key!r} must be {names}")
        out[key] = value
    return out


_SOLVER_SCHEMA = {"max_iters": int, "grad_map_tol": float}


def _solver_opts(raw: dict | None) -> SolverOptions:
    if raw is None:
        return StudyConfig().solver_opts
    try:
        return SolverOptions(**_typed(raw, _SOLVER_SCHEMA, "solver"))
    except ValueError as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    return len(os.sched_getaffinity(0))


_EXPERIMENT_SCHEMA = {
    "p": int,
    "n": int,
    "n_test": int,
    "beta": float,
    "R": float,
    "replications": int,
    "base_seed": int,
    "solver": dict,
}


def cmd_experiment(args) -> int:
    cfg_raw = _load_config(args.config, "experiment", _EXPERIMENT_SCHEMA)
    solver = _solver_opts(cfg_raw.pop("solver", None))
    threads = _thread_count(args)
    studies = {}
    for cov_kind in ("reciprocal", "identity"):
        cfg = StudyConfig(cov_kind=cov_kind, solver_opts=solver, **cfg_raw)
        print(f"running {cfg.replications} replications with {cov_kind} covariance ...", flush=True)
        studies[cov_kind] = run_study(cfg, threads=threads, progress=args.verbose)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        write_table1(os.path.join(args.out_dir, "table1.csv"), studies["reciprocal"], studies["identity"])
        write_table2(os.path.join(args.out_dir, "table2.csv"), studies["reciprocal"], studies["identity"])
        write_replications(os.path.join(args.out_dir, "replications.csv"), studies)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(f"wrote table1.csv, table2.csv, replications.csv to {args.out_dir}")
    return EXIT_OK


_BOUNDS_SCHEMA = {
    "n": int,
    "R": float,
    "K": float,
    "delta": float,
    "trace": float,
    "norm": float,
    "a": float,
    "sweep": dict,
}

_SWEEP_SCHEMA_KEYS = {"n_start", "n_stop", "steps", "trace_rule", "delta_rule"}


def _bound_rows(params: BoundParams, which: str) -> list[tuple[str, BoundReport | None]]:
    rows: list[tuple[str, BoundReport | None]] = []
    if which in ("all", "theorem"):
        rows.append(("theorem", bound_theorem(params) if params.delta <= 1 / 6 else None))
    if which in ("all", "classical"):
        rows.append(("classical", bound_classical(params)))
    if which in ("all", "extended"):
        rows.append(("extended", bound_extended(params)))
    return rows


def _print_bounds_table(rows) -> None:
    for name, report in rows:
        if report is None:
            print(f"{name:10s} n/a (delta > 1/6)")
            continue
        terms = "  ".join(f"{k}={v:.6g}" for k, v in report.terms.items())
        print(f"{name:10s} total={report.total:.6g}  confidence={report.confidence:.6g}  [{terms}]")


def _run_sweep(base: dict, sweep: dict, which: str, out_path: str | None) -> int:
    unknown = set(sweep) - _SWEEP_SCHEMA_KEYS
    if unknown:
        raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
    try:
        n_start = int(sweep["n_start"])
        n_stop = int(sweep["n_stop"])
        steps = int(sweep["steps"])
    except KeyError as exc:
        raise ConfigError(f"sweep requires n_start, n_stop, steps; missing {exc}") from exc
    trace_rule = sweep.get("trace_rule", "fixed")
    delta_rule = sweep.get("delta_rule", "fixed")
    if trace_rule not in ("fixed", "n_over_log_n"):
        raise ConfigError("trace_rule must be 'fixed' or 'n_over_log_n'")
    if delta_rule not in ("fixed", "inverse_n_squared"):
        raise ConfigError("delta_rule must be 'fixed' or 'inverse_n_squared'")
    if steps < 2 or n_start < 2 or n_stop <= n_start:
        raise ConfigError("sweep needs n_stop > n_start >= 2 and steps >= 2")

    grid = np.unique(np.logspace(math.log10(n_start), math.log10(n_stop), steps).astype(np.int64))
    writer = csv.writer(sys.stdout)
    rows_out = []
    for n in grid:
        n = int(n)
        trace = base["trace_sigma"] if trace_rule == "fixed" else base["norm_sigma"] * n / math.log(n)
        delta = base["delta"] if delta_rule == "fixed" else min(1.0, 1.0 / n**2)
        params = BoundParams(
            n=n, R=base["R"], delta=delta, trace_sigma=trace, norm_sigma=base["norm_sigma"],
            K=base["K"], log_n_constant_a=base["log_n_constant_a"],
        )
        reports = _bound_rows(params, which)
        rows_out.append([n, f"{trace:.6g}", f"{delta:.6g}"]
                        + [f"{report.total if report else math.nan:.6g}" for _, report in reports])
    rows_out.insert(0, ["n", "trace", "delta"] + [f"{name}_total" for name, _ in reports])
    if out_path:
        try:
            with open(out_path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows_out)
        except OSError as exc:
            print(f"error: cannot write sweep CSV: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
    else:
        writer.writerows(rows_out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.config:
        raw = _load_config(args.config, "bounds", _BOUNDS_SCHEMA)
    else:
        raw = {}
        for key in ("n", "R", "K", "delta", "trace", "norm", "a"):
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        if args.sweep:
            try:
                spec, rng = args.sweep.split("=", 1)
                lo, hi, steps = rng.split(":")
                if spec != "n":
                    raise ValueError
                raw["sweep"] = {
                    "n_start": int(float(lo)), "n_stop": int(float(hi)), "steps": int(steps),
                    "trace_rule": args.trace_rule, "delta_rule": args.delta_rule,
                }
            except ValueError:
                raise ConfigError("--sweep must look like n=start:stop:steps")
    missing = [k for k in ("n", "delta", "trace", "norm") if k not in raw]
    if missing:
        raise ConfigError(f"missing required bound parameters: {missing}")
    base = dict(
        n=raw["n"], R=raw.get("R", 0.0), delta=raw["delta"], trace_sigma=raw["trace"],
        norm_sigma=raw["norm"], K=raw.get("K", math.sqrt(2.0)), log_n_constant_a=raw.get("a", 1.0),
    )
    try:
        params = BoundParams(**base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if "sweep" in raw:
        return _run_sweep(base, raw["sweep"], args.bound, args.out)

    if args.bound == "theorem" and params.delta > 1 / 6:
        print("error: the theorem bound requires delta <= 1/6", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    _print_bounds_table(_bound_rows(params, args.bound))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = theory_checks.run_suite(args.suite)
    for report in reports:
        print(theory_checks.format_report(report))
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    if args.csv:
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["name", "lhs", "rhs", "residual", "tolerance", "passed"])
                for r in reports:
                    writer.writerow([r.name, repr(r.lhs), repr(r.rhs), repr(r.abs_residual),
                                     repr(r.tolerance), int(r.passed)])
        except OSError as exc:
            print(f"error: cannot write CSV: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
    return EXIT_OK if not failed else EXIT_CHECK_FAILURE


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
    raw = _load_config(args.config, "deviation", _DEVIATION_SCHEMA)
    p = raw.get("p", 5)
    n = raw.get("n", 500)
    cov_kind = raw.get("cov_kind", "reciprocal")
    beta = raw.get("beta", 1e3)
    radius = raw.get("R", 1.0)
    delta = raw.get("delta", 0.05)
    replicates = raw.get("replicates", 20)
    starts = raw.get("starts", 6)
    budget = raw.get("budget", 4000)
    base_seed = raw.get("base_seed", 0)
    grid_resolution = raw.get("grid_resolution", 20000)
    if cov_kind not in ("reciprocal", "identity"):
        raise ConfigError("cov_kind must be 'reciprocal' or 'identity'")
    # checked before the CSV header is written, so a bad config leaves stdout empty
    for key, value in (("p", p), ("n", n), ("replicates", replicates), ("starts", starts), ("budget", budget)):
        if value < 1:
            raise ConfigError(f"config key {key!r} must be >= 1")
    if grid_resolution < 2:
        raise ConfigError("config key 'grid_resolution' must be >= 2")
    if not (math.isfinite(radius) and radius >= 0):
        raise ConfigError("config key 'R' must be finite and >= 0")
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError("config key 'beta' must be finite and >= 0")
    if not 0 < delta <= 1:
        raise ConfigError("config key 'delta' must lie in (0, 1]")

    cov = make_covariance(cov_kind, p)
    params = BoundParams(n=n, R=radius, delta=delta, trace_sigma=cov.trace, norm_sigma=cov.spectral_norm)
    theorem_total = bound_theorem(params).total if delta <= 1 / 6 else float("nan")
    classical_total = bound_classical(params).total

    writer = csv.writer(sys.stdout)
    header = ["replicate", "sup_estimate", "theorem_bound", "classical_bound", "holds_theorem"]
    if p == 1:
        header.append("grid_estimate")
    writer.writerow(header)
    held = 0
    for rep in range(replicates):
        theta_star = sample_theta_star(p, derive_seed(base_seed, rep, 0))
        gen = GenerativeConfig(p=p, n=n, cov=cov, beta=beta, theta_star=theta_star,
                               seed=derive_seed(base_seed, rep, 1))
        data, _ = generate_dataset(gen)
        est = sup_deviation_search(data, gen, radius, starts=starts, budget=budget,
                                   seed=derive_seed(base_seed, rep, 2))
        holds = est.sup_value <= theorem_total
        held += int(holds)
        row = [rep, f"{est.sup_value:.5f}", f"{theorem_total:.5f}", f"{classical_total:.5f}", int(holds)]
        if p == 1:
            grid = sup_deviation_grid(data, gen, radius, grid_resolution)
            row.append(f"{grid.sup_value:.5f}")
        writer.writerow(row)
    print(f"holding_frequency={held / replicates:.5f}")
    return EXIT_OK


_GENERATE_SCHEMA = {
    "p": int,
    "n": int,
    "cov_kind": str,
    "beta": float,
    "seed": int,
    "out": str,
}


def cmd_generate(args) -> int:
    raw = _load_config(args.config, "generate", _GENERATE_SCHEMA)
    for key in ("p", "n", "out"):
        if key not in raw:
            raise ConfigError(f"generate config requires {key!r}")
    cov_kind = raw.get("cov_kind", "reciprocal")
    if cov_kind not in ("reciprocal", "identity"):
        raise ConfigError("cov_kind must be 'reciprocal' or 'identity'")
    gen = GenerativeConfig(
        p=raw["p"], n=raw["n"], cov=make_covariance(cov_kind, raw["p"]),
        beta=raw.get("beta", 1e3), seed=raw.get("seed", 0),
    )
    data, theta_star = generate_dataset(gen)
    try:
        write_dataset(raw["out"], data, theta_star)
    except OSError as exc:
        print(f"error: cannot write dataset: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(f"wrote {data.n} x {data.p} dataset to {raw['out']}")
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
    p_exp.add_argument("--threads", type=int, default=None,
                       help="above 1, draw each replicate's test set on a helper thread "
                            "(default: the CPUs this process may use)")
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
    p_bounds.add_argument("--bound", choices=("all", "theorem", "classical", "extended"), default="all")
    p_bounds.add_argument("--sweep", help="n=start:stop:steps sweep of totals vs n (CSV)")
    p_bounds.add_argument("--trace-rule", choices=("fixed", "n_over_log_n"), default="fixed")
    p_bounds.add_argument("--delta-rule", choices=("fixed", "inverse_n_squared"), default="fixed")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of the ulln command line.

Usage:
    python3 bench/run.py --workload {table_study,deviation_coverage,identity_checks,all}
                         --seed N --seconds S --trace {0,1} [--size {paper,tiny}]

Each workload call is a fresh interpreter (`bench/worker.py`) that imports
`ulln.cli` from this checkout's `src/`, writes the call's generated config
and runs `cli.main`.  With `--trace 0` the calls repeat for `--seconds`
and the end-to-end metrics of `BENCHMARK.json` are medians over them.
With `--trace 1` one untraced call is followed by one traced call of the
same input (serial, since spans cannot cross the process pool), and the
per-layer metrics of `BENCHMARK.json` come from the traced call's spans.
Every call's output is checked against the references in
`bench/references/`, made by `bench/make_references.py` from the seed
program.  The last stdout line is the JSON result; the full record, with
the run manifest, goes to `.bench_build/results/`.
"""
import argparse
import csv
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
BUILD = os.path.join(ROOT, ".bench_build")

sys.path.insert(0, BENCH)
from spans import layer_metrics, self_times  # noqa: E402

# A run must end within 180 s; a call still going at this point is killed.
DEADLINE_S = 170.0
# Set-up samples per run at least; set-up-only interpreters make up what the
# calls do not give.  One discarded warm-up first compiles the bytecode that a
# user's installed package would already have.
SETUP_SAMPLES = 9
# Reference inputs per workload, and the cost strata the seed draws them from.
REFERENCE_INPUTS = {"paper": 64, "tiny": 4}
STRATA = 8
BASE_SEED = 20260808
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ULLN_THREADS")

# Tolerances of the correctness gate.  CSV numbers are printed with 5
# decimals, so one unit in the last printed place is allowed; check values
# are printed with repr and may move by reassociation only.
TABLE_ATOL = 1.01e-5
CHECK_RTOL, CHECK_ATOL = 1e-6, 1e-9

CONFIGS = {
    "paper": {
        "table_study": {"command": "experiment", "p": 3000, "n": 1000, "n_test": 1000, "beta": 1000.0,
                        "R": 1.0, "replications": 3},
        "deviation_coverage": {"command": "deviation", "p": 5, "n": 500, "cov_kind": "reciprocal",
                               "beta": 1000.0, "R": 1.0, "delta": 0.05, "replicates": 2, "starts": 6,
                               "budget": 4000},
        "identity_checks": "all",
    },
    "tiny": {
        "table_study": {"command": "experiment", "p": 300, "n": 100, "n_test": 100, "beta": 1000.0,
                        "R": 1.0, "replications": 2},
        "deviation_coverage": {"command": "deviation", "p": 5, "n": 100, "cov_kind": "reciprocal",
                               "beta": 1000.0, "R": 1.0, "delta": 0.05, "replicates": 1, "starts": 1,
                               "budget": 400},
        "identity_checks": "ito",
    },
}
WORKLOADS = tuple(CONFIGS["paper"])


class BenchError(Exception):
    pass


def _call_plan(workload: str, size: str, k: int, out_dir: str, serial: bool) -> dict:
    """The argv, config and output files of one call on reference input k."""
    config = CONFIGS[size][workload]
    if workload == "identity_checks":
        # the identity streams are keyed by check names: there is one input
        return {"argv": ["verify", config, "--csv", os.path.join(out_dir, "checks.csv")], "config": None,
                "config_path": None, "outputs": ["checks.csv"]}
    config = dict(config, base_seed=BASE_SEED + k)
    config_path = os.path.join(out_dir, "config.json")
    if workload == "table_study":
        argv = ["experiment", config_path, out_dir] + (["--threads", "1"] if serial else [])
        outputs = ["table1.csv", "table2.csv", "replications.csv"]
    else:
        argv, outputs = ["deviation", config_path], ["stdout.txt"]
    return {"argv": argv, "config": config, "config_path": config_path, "outputs": outputs}


def _spawn(job: dict, deadline: float) -> dict:
    """Run one worker interpreter in its own process group and parse its report."""
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(job)], stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("a workload call did not finish before the run deadline")
    finally:
        # the CLI's pool workers share the group; none may outlive the call
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def input_sequence(costs: dict[str, int], seed: int):
    """Endless input order drawn from the seed, one input per cost stratum.

    The inputs are sorted by cost (solver iterations of the reference call)
    and cut into strata; each round takes one seeded draw from every
    stratum, middle strata first, so the median over any prefix of calls
    sits near the middle of the cost range whatever the seed.
    """
    keys = sorted(costs, key=lambda k: (costs[k], int(k)))
    strata = min(STRATA, len(keys))
    groups = [keys[i * len(keys) // strata:(i + 1) * len(keys) // strata] for i in range(strata)]
    middle_out = sorted(range(strata), key=lambda i: abs(i - (strata - 1) / 2))
    rng = random.Random(seed)
    while True:
        for i in middle_out:
            yield int(rng.choice(groups[i]))


def _run_call(workload, size, k, work, deadline, serial=False, traced=False, setup_only=False):
    """One worker interpreter on input k: its report and its output files' text."""
    out_dir = tempfile.mkdtemp(dir=work)
    plan = _call_plan(workload, size, k, out_dir, serial)
    job = {"src": SRC, "argv": plan["argv"], "config": plan["config"], "config_path": plan["config_path"],
           "stdout_path": os.path.join(out_dir, "stdout.txt"),
           "spans_path": os.path.join(out_dir, "spans.json") if traced else None, "setup_only": setup_only}
    report = _spawn(job, deadline)
    outputs = {}
    for name in [] if setup_only else plan["outputs"]:
        try:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                outputs[name] = fh.read()
        except FileNotFoundError:
            outputs[name] = None
    if traced:
        with open(job["spans_path"], encoding="utf-8") as fh:
            report["trace"] = json.load(fh)
    shutil.rmtree(out_dir)
    return report, outputs


# ---------------------------------------------------------------------------
# correctness gate


def _same(got: str, want: str, atol: float, rtol: float = 0.0) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("holding_frequency=")))


def _frequency(text: str) -> list[str]:
    return [line.split("=", 1)[1] for line in text.splitlines() if line.startswith("holding_frequency=")]


def _table_matches(got: str, want: str) -> bool:
    got_rows, want_rows = _csv(got), _csv(want)
    return len(got_rows) == len(want_rows) and all(
        len(g) == len(w) and all(_same(a, b, TABLE_ATOL) for a, b in zip(g, w)) for g, w in zip(got_rows, want_rows))


def failed_items(workload: str, report: dict, outputs: dict, reference: dict) -> tuple[int, int]:
    """(attempted, failed) items of one call, judged against the seed reference.

    An item is a replication in table_study, a replicate in
    deviation_coverage and a check in identity_checks.  A call that raises,
    exits non-zero or returns a different number of items fails every item;
    so does a mismatch in a figure that aggregates all items (table1.csv,
    table2.csv, holding_frequency).
    """
    items_file = {"table_study": "replications.csv", "deviation_coverage": "stdout.txt"}.get(workload, "checks.csv")
    header, *want_rows = _csv(reference[items_file])
    attempted = len(want_rows)
    if report["exit_code"] != 0 or any(outputs[name] is None for name in reference):
        return attempted, attempted
    got_rows = _csv(outputs[items_file])[1:]
    if len(got_rows) != attempted:
        return attempted, attempted

    if workload == "table_study":
        if not all(_table_matches(outputs[name], reference[name]) for name in ("table1.csv", "table2.csv")):
            return attempted, attempted
        converged = header.index("converged")
        bad = [len(g) != len(w) or g[converged] != "1" or not all(_same(a, b, TABLE_ATOL) for a, b in zip(g, w))
               for g, w in zip(got_rows, want_rows)]
    elif workload == "deviation_coverage":
        got_freq, want_freq = _frequency(outputs[items_file]), _frequency(reference[items_file])
        if len(got_freq) != 1 or not _same(got_freq[0], want_freq[0], TABLE_ATOL):
            return attempted, attempted
        bad = [len(g) != len(w) or not all(_same(a, b, TABLE_ATOL) for a, b in zip(g, w))
               for g, w in zip(got_rows, want_rows)]
    else:
        # name, lhs, rhs, residual, tolerance, passed: residual and tolerance follow from lhs and rhs
        bad = [len(g) != len(w) or g[0] != w[0] or g[5] != "1" or w[5] != "1"
               or not all(_same(a, b, CHECK_ATOL, CHECK_RTOL) for a, b in zip(g[1:3], w[1:3]))
               for g, w in zip(got_rows, want_rows)]
    return attempted, sum(bad)


# ---------------------------------------------------------------------------
# manifest and statistics


def _cache_sizes() -> dict:
    """Data cache sizes in bytes as the C library reports them (`getconf`)."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    names = {"LEVEL1_DCACHE_SIZE": "L1d", "LEVEL2_CACHE_SIZE": "L2", "LEVEL3_CACHE_SIZE": "L3"}
    sizes = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        if key in names and value.strip().isdigit():
            sizes[names[key]] = int(value)
    return sizes


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return result.stdout.strip() or None


def _manifest(workload, seed, size, first_report, inputs) -> dict:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        ulln_version = tomllib.load(fh)["project"]["version"]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seed_changes_input": workload != "identity_checks",
        "base_seeds": [BASE_SEED + k for k in inputs] if workload != "identity_checks" else None,
        "cores": len(os.sched_getaffinity(0)),
        "workers": first_report["workers"],
        "blas": first_report["blas"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "versions": dict(first_report["versions"], ulln=ulln_version),
        "git_sha": _git_sha(),
        "caches": _cache_sizes(),
    }


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _metric_specs(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


NOTES = [
    "Byte and element figures are computed from array sizes, not measured: solver.matvec_gb_computed is "
    "2*n*p*8 bytes per accepted solver iteration (backtracking passes are not counted), "
    "datagen.normals_per_s counts n*p normals per generate_dataset call, model.elements and "
    "theory_checks.kernel_elements count the largest array argument of each call.",
    "The L3 cache reported above can hold the 24 MB design matrix, so no roofline or bandwidth claim is made.",
    "identity_checks streams are keyed by check names: the seed does not change its input.",
]


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "paper") -> dict:
    if not os.path.isdir(os.path.join(SRC, "ulln")):
        raise BenchError(f"no ulln sources under {SRC}")
    ref_path = os.path.join(BENCH, "references", f"{size}_{workload}.json")
    with open(ref_path, encoding="utf-8") as fh:
        stored = json.load(fh)
    references, inputs = stored["inputs"], input_sequence(stored["cost"], seed)
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(BUILD, exist_ok=True)
    work = tempfile.mkdtemp(dir=BUILD)
    try:
        calls, attempted, failed = [], 0, 0
        start = None
        # stop before a call that would end past --seconds, at the pace of the last one
        while not calls or (not trace and time.monotonic() - start + calls[-1]["wall_s"] <= seconds):
            k = next(inputs)
            if start is None:
                _run_call(workload, size, k, work, deadline, setup_only=True)
                start = time.monotonic()
            report, outputs = _run_call(workload, size, k, work, deadline)
            a, f = failed_items(workload, report, outputs, references[str(k)])
            report.update(input=k, attempted=a, failed=f)
            calls.append(report)
            attempted, failed = attempted + a, failed + f
        first = calls[0]["input"]
        setups = [c["setup_s"] for c in calls]
        if not trace:
            setups += [_run_call(workload, size, first, work, deadline, setup_only=True)[0]["setup_s"]
                       for _ in range(SETUP_SAMPLES - len(setups))]

        result = {"manifest": _manifest(workload, seed, size, calls[0], [c["input"] for c in calls]),
                  "notes": NOTES}
        if trace:
            first_outputs = outputs
            baseline = calls[0]
            if workload == "table_study":
                baseline, outputs = _run_call(workload, size, first, work, deadline, serial=True)
                a, f = failed_items(workload, baseline, outputs, references[str(first)])
                f = a if outputs != first_outputs else f
                attempted, failed = attempted + a, failed + f
            traced, outputs = _run_call(workload, size, first, work, deadline, serial=True, traced=True)
            a, f = failed_items(workload, traced, outputs, references[str(first)])
            # results must not depend on the worker count: the serial traced call
            # must reproduce the default-worker call byte for byte
            f = a if outputs != first_outputs else f
            attempted, failed = attempted + a, failed + f
            spans = traced["trace"]["spans"]
            measured = layer_metrics(spans, traced["trace"]["cache_misses"])
            replications = sum(s[4] - s[3] for s in spans if s[0] == "experiments.run_replication")
            measured["experiments.pool_efficiency"] = (
                replications / (calls[0]["workers"] * calls[0]["wall_s"]) if replications else 0.0)
            measured["trace.overhead_s"] = traced["wall_s"] - baseline["wall_s"]
            own = self_times(spans)
            result["trace"] = {
                "untraced_wall_s": baseline["wall_s"],
                "traced_wall_s": traced["wall_s"],
                "spans": len(spans),
                "self_sum_s": sum(own),
                "min_self_s": min(own),
            }
            specs = _metric_specs("per_layer")
        else:
            measured = {
                "setup_s": setups,
                "wall_s": [c["wall_s"] for c in calls],
                "items_per_s": [c["attempted"] / c["wall_s"] for c in calls],
                "cpu_s": [c["cpu_s"] for c in calls],
                "peak_rss_mb": [c["peak_rss_mb"] for c in calls],
            }
            result["stats"] = {name: _stats(values) for name, values in measured.items()}
            measured = {name: s["median"] for name, s in result["stats"].items()}
            result["failed_share"] = failed / attempted
            measured["ok_share"] = 1.0 - result["failed_share"]
            specs = _metric_specs("end_to_end")
        result["calls"] = [{k: v for k, v in c.items() if k != "trace"} for c in calls]
        result["setup_samples_s"] = setups
        result.update(correct=failed == 0, attempted=attempted, failed=failed)
        result["metrics"] = {s["name"]: {"value": measured[s["name"]], "unit": s["unit"]} for s in specs}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    result_path = os.path.join(BUILD, "results", f"{workload}-{size}-seed{seed}-trace{int(trace)}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    result["path"] = result_path
    return result


def _print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: {len(result['calls'])} calls, {result['attempted']} items, "
          f"{result['failed']} failed; record in {result['path']}")
    for name, metric in result["metrics"].items():
        stats = result.get("stats", {}).get(name)
        spread = f"  q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']}" if stats else ""
        print(f"  {name:40s} {metric['value']:<14.6g} {metric['unit']}{spread}")
    if "failed_share" in result:
        print(f"  {'failed_share':40s} {result['failed_share']:<14.6g} ratio")
    if "trace" in result:
        t = result["trace"]
        print(f"  tracing overhead {t['traced_wall_s'] - t['untraced_wall_s']:.4f} s "
              f"({t['spans']} spans, self-time sum {t['self_sum_s']:.4f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(CONFIGS), default="paper",
                        help="'tiny' shrinks every workload for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run(w, args.seed, args.seconds, bool(args.trace), args.size) for w in workloads}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for workload, result in results.items():
        _print_table(workload, result)
    if args.workload == "all":
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

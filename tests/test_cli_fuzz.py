"""Property test of the exit-code contract: every subcommand, fed configs
drawn from its schema, returns 0, 1, 2 or 3 without raising, and a call
that returns 2 (a bad config) leaves stdout empty.

The draws mix plausible values with extreme finite floats, negative and
huge seeds, missing, extra and wrong-typed keys, and unwritable output
paths.  Every size that sets the work (p, n, n_test, replications,
replicates, starts, budget, grid_resolution, solver.max_iters, sweep
steps) comes from a small range, so that no call runs long; a size too
large for memory is covered by the MemoryError tests in test_cli.py.
"""
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from ulln.cli import main

FUZZ_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

# about one key in six is left out, wrong-typed or extreme, so that most
# draws hold one or two faults and some hold none
FAULTS = st.sampled_from(["none"] * 15 + ["missing", "wrong type", "extreme"])
# argparse rejects a wrong-typed or unknown flag before `main` runs
FLAG_FAULTS = st.sampled_from(["none"] * 15 + ["missing", "extreme"])
WRONG_TYPED = st.sampled_from(["x", True, None, [1], {"k": 1}, 0.5])
EXTRA_KEY = st.sampled_from([None] * 15 + ["bogus", "seed ", "Command"])

EXTREME_FLOATS = st.one_of(st.sampled_from([1e155, 1e200, 1e308, 5e-324]),
                           st.floats(allow_nan=False, allow_infinity=False))
HUGE_INTS = st.integers(-(2**80), 2**80)
NOT_POSITIVE = st.integers(-(2**63), 0)
SEED = (st.integers(0, 2**32), HUGE_INTS)
COV_KIND = (st.sampled_from(["reciprocal", "identity"]), st.just("diagonal"))
# what an output path points at: a writable place, a path below a regular
# file, or a path below a directory that does not exist
OUT_PATHS = st.sampled_from(["writable", "below_a_file", "missing_parent"])


def size(hi):
    """A work-setting size: good in 1..hi, extreme when not positive."""
    return st.integers(1, hi), NOT_POSITIVE


def real(lo, hi):
    """A float field: good in [lo, hi], extreme anywhere finite."""
    return st.floats(lo, hi), EXTREME_FLOATS


@st.composite
def objects(draw, fields, faults=FAULTS, keep=(), extra=EXTRA_KEY):
    """A JSON object over ``fields``, a map from key to (good values,
    extreme values); each key may be left out, wrong-typed or extreme, and
    an ``extra`` key may be added.  The keys in ``keep`` are never left out,
    because their defaults are sizes too large for a quick call."""
    obj = {}
    for key, (good, extreme) in fields.items():
        fault = draw(faults)
        if fault == "missing" and key in keep:
            fault = "none"
        if fault != "missing":
            obj[key] = draw({"none": good, "wrong type": WRONG_TYPED, "extreme": extreme}[fault])
    unknown = draw(extra)
    if unknown is not None:
        obj[unknown] = 1
    return obj


def run(argv):
    """Run ``main(argv)`` and check its exit code against the contract."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
    if code in (2, 3):
        assert "error: " in err.getvalue(), argv


def out_path(root, kind, name):
    if kind == "below_a_file":
        blocker = os.path.join(root, "blocker")
        with open(blocker, "w") as fh:
            fh.write("a file, not a directory")
        return os.path.join(blocker, name)
    if kind == "missing_parent":
        return os.path.join(root, "missing", name)
    return os.path.join(root, name)


def write_config(root, command, cfg):
    path = os.path.join(root, "cfg.json")
    with open(path, "w") as fh:
        json.dump({"command": command} | cfg, fh)
    return path


SOLVER_FIELDS = {"max_iters": size(30), "grad_map_tol": real(1e-8, 1e-2)}
EXPERIMENT_FIELDS = {
    "p": size(6),
    "n": size(30),
    "n_test": size(30),
    "beta": real(0.0, 1e3),
    "R": real(0.0, 10.0),
    "replications": size(2),
    "base_seed": SEED,
    "solver": (objects(SOLVER_FIELDS, keep=["max_iters"]),
               objects(SOLVER_FIELDS, faults=st.just("extreme"), extra=st.none())),
}


@FUZZ_SETTINGS
@given(cfg=objects(EXPERIMENT_FIELDS, keep=["p", "n", "n_test", "replications", "solver"]), out=OUT_PATHS)
def test_experiment(cfg, out):
    with tempfile.TemporaryDirectory() as root:
        run(["experiment", write_config(root, "experiment", cfg), out_path(root, out, "tables"),
             "--threads", "1"])


BOUND_FIELDS = {
    "n": (st.integers(1, 10**6), HUGE_INTS),
    "R": real(0.0, 10.0),
    "K": real(0.1, 3.0),
    "delta": real(1e-6, 1.0),
    "trace": real(1.0, 100.0),
    "norm": real(0.0, 1.0),
    "a": real(0.1, 10.0),
}
SWEEP_FIELDS = {
    "n_start": (st.integers(2, 100), HUGE_INTS),
    "n_stop": (st.integers(101, 10**6), HUGE_INTS),
    "steps": (st.integers(2, 5), st.integers(-(2**63), 1)),
    "trace_rule": (st.sampled_from(["fixed", "n_over_log_n"]), st.just("other")),
    "delta_rule": (st.sampled_from(["fixed", "inverse_n_squared"]), st.just("other")),
}
WHICH_BOUND = st.sampled_from(["all", "theorem", "classical", "extended"])


@FUZZ_SETTINGS
@given(cfg=objects(BOUND_FIELDS), sweep=st.none() | objects(SWEEP_FIELDS), which=WHICH_BOUND,
       out=st.none() | OUT_PATHS)
def test_bounds_config(cfg, sweep, which, out):
    with tempfile.TemporaryDirectory() as root:
        argv = ["bounds", "--bound", which]
        if sweep is not None:
            cfg = cfg | {"sweep": sweep}
            # --out is only used with a sweep
            argv += [] if out is None else ["--out", out_path(root, out, "sweep.csv")]
        run(argv + [write_config(root, "bounds", cfg)])


@FUZZ_SETTINGS
@given(flags=objects(BOUND_FIELDS, faults=FLAG_FAULTS, extra=st.none()), which=WHICH_BOUND,
       sweep=st.none() | st.tuples(*(good for good, _ in list(SWEEP_FIELDS.values())[:3])))
def test_bounds_flags(flags, which, sweep):
    argv = ["bounds", "--bound", which] + [f"--{key}={value!r}" for key, value in flags.items()]
    run(argv + ([] if sweep is None else ["--sweep=n={}:{}:{}".format(*sweep)]))


DEVIATION_FIELDS = {
    "p": (st.sampled_from([1, 2, 3]), NOT_POSITIVE),
    "n": size(30),
    "cov_kind": COV_KIND,
    "beta": real(0.0, 1e3),
    "R": real(0.0, 10.0),
    "delta": real(1e-6, 1.0),
    "replicates": size(2),
    "starts": size(2),
    "budget": size(100),
    "base_seed": SEED,
    "grid_resolution": (st.integers(2, 100), st.integers(-(2**63), 1)),
}


@FUZZ_SETTINGS
@given(cfg=objects(DEVIATION_FIELDS, keep=["p", "n", "replicates", "starts", "budget", "grid_resolution"]))
def test_deviation(cfg):
    with tempfile.TemporaryDirectory() as root:
        run(["deviation", write_config(root, "deviation", cfg)])


GENERATE_FIELDS = {
    "p": size(6),
    "n": size(30),
    "cov_kind": COV_KIND,
    "beta": real(0.0, 1e3),
    "seed": SEED,
}


@FUZZ_SETTINGS
@given(cfg=objects(GENERATE_FIELDS), out=OUT_PATHS)
def test_generate(cfg, out):
    with tempfile.TemporaryDirectory() as root:
        run(["generate", write_config(root, "generate", cfg | {"out": out_path(root, out, "data.bin")})])

"""Tier-1 checks of what the benchmark in bench/ relies on, made without
writing into bench/.

The tracer (bench/spans.py) wraps a few entry points by name and looks each
module up in sys.modules; every one must be there.  The correctness gate
compares each call's output with its checked-in reference: here `verify
all` meets the identity_checks reference, and three reference inputs run
through `cli.main` meet the deviation_coverage and table_study ones, so a
change that would fail a gate fails here first.  One guard keeps the
identity_checks workload's `expsup` scan off the slow pair rule."""
import ast
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ulln
from ulln import cli, make_covariance
from ulln.datagen import make_rng
from ulln.solver import project_to_ball
from ulln.theory_checks import EXPSUP_POLISH_TOP, EXPSUP_PROBES, _expsup_replicate, _GapSurface, run_suite

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# run in a fresh interpreter, so that only what `import ulln.cli` loads is in
# sys.modules; -B keeps bytecode out of bench/
CHECK = """
import importlib.util, sys
import ulln.cli
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
assert spans.EXTRA_WRAPS
for modname, attr in spans.EXTRA_WRAPS:
    if not callable(getattr(sys.modules.get(modname), attr, None)):
        print(f"{modname}.{attr}")
"""


def test_every_extra_wrap_exists_after_importing_the_cli():
    src = os.path.dirname(os.path.dirname(ulln.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-B", "-c", CHECK, str(SPANS)], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""


# the g suite traced the way bench/run.py traces a call: its replicates run on a thread pool, and
# every span they open must close after it opened, with no quadrature rule built twice
TRACED_G_SUITE = """
import importlib.util, json, sys
import ulln.cli
from ulln import quadrature, theory_checks
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
try:
    reports = theory_checks.run_suite("g")
finally:
    tracer.restore()
caches = [fn.cache_info() for fn in vars(quadrature).values() if hasattr(fn, "cache_info")]
print(json.dumps({"passed": all(r.passed for r in reports), "spans": len(tracer.spans),
                  "suite_spans": sum(1 for span in tracer.spans if span[0] == "theory_checks._g_suite"),
                  "backwards": sum(1 for span in tracer.spans if span[4] < span[3]),
                  "rebuilt": sum(info.misses - info.currsize for info in caches)}))
"""


def test_traced_g_suite_runs_on_its_thread_pool():
    src = os.path.dirname(os.path.dirname(ulln.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-B", "-c", TRACED_G_SUITE, str(SPANS)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["passed"] and summary["spans"] > 0
    assert summary["suite_spans"] == 1  # run_suite reaches the suite through its wrapped module attribute
    assert summary["backwards"] == 0
    assert summary["rebuilt"] == 0


# a tiny `deviation` call traced the way bench/run.py traces one, on one CPU so that the replicates run
# in turn: the search is a call across modules, so each replicate records one span of it
TRACED_DEVIATION = """
import importlib.util, json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import ulln.cli
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
try:
    code = ulln.cli.main(["deviation", sys.argv[2]])
finally:
    tracer.restore()
searches = [span for span in tracer.spans if span[0] == "deviation.sup_deviation_search"]
metrics = spans.layer_metrics(tracer.spans, tracer.quadrature_cache_misses())
print(json.dumps({"code": code, "searches": len(searches), "sites": sorted({span[1] for span in searches}),
                  "p50": metrics["deviation.replicate_p50_s"],
                  "model_calls": metrics["deviation.model_calls_per_replicate"]}))
"""


def test_traced_deviation_records_one_search_span_per_replicate(tmp_path):
    src = os.path.dirname(os.path.dirname(ulln.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"command": "deviation", "p": 5, "n": 100, "replicates": 3, "starts": 1,
                               "budget": 400}))
    result = subprocess.run([sys.executable, "-B", "-c", TRACED_DEVIATION, str(SPANS), str(cfg)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["code"] == 0
    assert summary["searches"] == 3 and summary["sites"] == ["experiments"]
    assert summary["p50"] > 0 and summary["model_calls"] > 0


def test_expsup_replicate_scores_only_the_polish_by_the_pair_rule(monkeypatch):
    # the scan is ranked by the identity values; the pair rule sees the top-ranked probe and the polished paths
    seen = []
    value_many = _GapSurface.value_many

    def spy(surface, thetas):
        seen.append(len(thetas))
        return value_many(surface, thetas)

    monkeypatch.setattr(_GapSurface, "value_many", spy)
    rng = make_rng(4)
    probes = np.vstack([np.zeros(3), project_to_ball(rng.standard_normal((EXPSUP_PROBES, 3)), 1.0)])
    sup = _expsup_replicate(rng.standard_normal((50, 3)), rng.standard_normal((160, 3)), probes, 1.0, 1.0,
                            make_covariance("reciprocal", 3))
    assert np.isfinite(sup)
    assert 0 < sum(seen) <= 1 + EXPSUP_POLISH_TOP


RUN = SPANS.with_name("run.py")
REFERENCES = SPANS.parent / "references"


def _bench_constants() -> dict:
    """The literal top-level constants of bench/run.py (the gate's
    tolerances, CONFIGS, BASE_SEED), read from its source without importing it."""
    constants = {}
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        try:
            value = ast.literal_eval(node.value)
        except ValueError:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Tuple):
            constants.update(zip((name.id for name in target.elts), value))
        else:
            constants[target.id] = value
    return constants


def test_verify_all_passes_the_benchmark_gate():
    # the identity_checks gate: same names, every check passes, lhs and rhs within atol + rtol |reference|
    constants = _bench_constants()
    rtol, atol = constants["CHECK_RTOL"], constants["CHECK_ATOL"]
    reference = json.loads((REFERENCES / "paper_identity_checks.json").read_text(encoding="utf-8"))
    (checks_csv,) = [call["checks.csv"] for call in reference["inputs"].values()]
    want = list(csv.DictReader(io.StringIO(checks_csv)))
    got = run_suite("all")
    assert [r.name for r in got] == [row["name"] for row in want]
    for report, row in zip(got, want):
        assert report.passed and row["passed"] == "1", report.name
        for value, ref in ((report.lhs, float(row["lhs"])), (report.rhs, float(row["rhs"]))):
            assert abs(value - ref) <= atol + rtol * abs(ref), (report.name, value, ref)


def _cells(text: str) -> list[list[str]]:
    # holding_frequency=<value> becomes two cells; a text cell is compared whole on both sides
    return list(csv.reader(text.replace("=", ",").splitlines()))


# deviation_coverage input 0 and table_study input 34 are the cheapest of their workloads; table_study
# input 33 holds an under-converged reciprocal fit, the one most likely to move when the solver's rounding does
@pytest.mark.parametrize("workload, k", [("deviation_coverage", 0), ("table_study", 34), ("table_study", 33)])
def test_reference_inputs_pass_the_benchmark_gate(workload, k, tmp_path, capsys):
    # the deviation_coverage and table_study gates: the same rows and text, every number within
    # TABLE_ATOL of the reference, and every fit converged
    constants = _bench_constants()
    config_path = tmp_path / "config.json"
    config = dict(constants["CONFIGS"]["paper"][workload], base_seed=constants["BASE_SEED"] + k)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    reference = json.loads((REFERENCES / f"paper_{workload}.json").read_text(encoding="utf-8"))["inputs"][str(k)]
    if workload == "table_study":
        assert cli.main(["experiment", str(config_path), str(tmp_path)]) == 0
        got = {name: (tmp_path / name).read_text(encoding="utf-8") for name in reference}
    else:
        assert cli.main(["deviation", str(config_path)]) == 0
        got = {"stdout.txt": capsys.readouterr().out}
    atol = constants["TABLE_ATOL"]
    for name, want in reference.items():
        got_rows, want_rows = _cells(got[name]), _cells(want)
        assert [len(row) for row in got_rows] == [len(row) for row in want_rows], name
        for got_row, want_row in zip(got_rows, want_rows):
            for a, b in zip(got_row, want_row):
                try:
                    assert abs(float(a) - float(b)) <= atol, (name, got_row, want_row)
                except ValueError:
                    assert a == b, (name, got_row, want_row)
    if workload == "table_study":
        header, *rows = _cells(got["replications.csv"])
        assert [row[header.index("converged")] for row in rows] == ["1"] * len(rows)

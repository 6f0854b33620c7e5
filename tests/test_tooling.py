"""Tier-1 checks of what the benchmark in bench/ relies on, made without
writing into bench/.

The tracer (bench/spans.py) wraps a few entry points by name and looks each
module up in sys.modules; every one must be there.  The identity_checks
gate compares `verify all` with its checked-in reference; a change that
would fail that gate fails here first."""
import ast
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import ulln
from ulln.theory_checks import run_suite

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
    assert summary["backwards"] == 0
    assert summary["rebuilt"] == 0


RUN = SPANS.with_name("run.py")
IDENTITY_REFERENCE = SPANS.parent / "references" / "paper_identity_checks.json"


def _gate_tolerances() -> tuple[float, float]:
    """CHECK_RTOL and CHECK_ATOL of the benchmark's correctness gate, read
    from the source of bench/run.py without importing it."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            names = [target.id for target in node.targets[0].elts]
            if names == ["CHECK_RTOL", "CHECK_ATOL"]:
                return ast.literal_eval(node.value)
    raise AssertionError("CHECK_RTOL, CHECK_ATOL not found in bench/run.py")


def test_verify_all_passes_the_benchmark_gate():
    # the identity_checks gate: same names, every check passes, lhs and rhs within atol + rtol |reference|
    rtol, atol = _gate_tolerances()
    reference = json.loads(IDENTITY_REFERENCE.read_text(encoding="utf-8"))
    (checks_csv,) = [call["checks.csv"] for call in reference["inputs"].values()]
    want = list(csv.DictReader(io.StringIO(checks_csv)))
    got = run_suite("all")
    assert [r.name for r in got] == [row["name"] for row in want]
    for report, row in zip(got, want):
        assert report.passed and row["passed"] == "1", report.name
        for value, ref in ((report.lhs, float(row["lhs"])), (report.rhs, float(row["rhs"]))):
            assert abs(value - ref) <= atol + rtol * abs(ref), (report.name, value, ref)

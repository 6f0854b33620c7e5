"""The benchmark's tracer (bench/spans.py) wraps a few entry points by name
and looks each module up in sys.modules; every one must be there."""
import os
import pathlib
import subprocess
import sys

import ulln

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

"""Each script in demos/ runs to completion in a fresh interpreter."""
import os
import pathlib
import subprocess
import sys

import pytest

import ulln

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(ulln.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # tmp_path as the working directory keeps any file a demo writes out of the tree
    result = subprocess.run([sys.executable, "-B", str(demo)], cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()

"""Every walkthrough in demos/ runs to the end without an exception, and
prints the same bytes each time."""
import glob
import os
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(PKG_ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, path], capture_output=True, text=True, env=env, cwd=PKG_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

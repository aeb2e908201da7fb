import subprocess
import sys

import pytest

from support import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr

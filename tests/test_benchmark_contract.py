"""The benchmark under perfbench/ drives the package's layer objects, ops and
optimizer directly, so a change to their shapes or signatures can break it
without breaking any other test. Its self-test runs both workloads at
gradient-check sizes, traced and untraced, in a few seconds."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, timeout=600)
    assert done.returncode == 0, (done.stdout.decode() + done.stderr.decode())[-4000:]

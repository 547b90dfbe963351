"""The benchmark's own test: `python -m pytest perfbench` runs smoke mode."""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_passes():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1].startswith("smoke PASS")

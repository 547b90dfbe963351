"""Every demo script runs to completion as a plain file and prints exactly
the stdout recorded for it (sha256), so a change that moves a printed digit
fails here.

Demos 06 and 07 drive `mean_value` and `katai_statistic` with plain
callables, which no other test runs end to end.  The hashes were recorded
before Hayes characters became exponent-table arrays; each demo printed
the same bytes on two runs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_field_and_polynomials": "7a61cd4a6cabb6bec5f2f54be286c2adaba2a9813772ae407d1c0d5e3377400f",
    "02_characters": "11eb16e781e6ff6a7e44ecf2ca209bd6000868be08d7b0fb9e894cb3716b1cf5",
    "03_linear_phase_dichotomy": "8cedd77e8f24c92bd3b0c7217e2c089bf92c588f9be278b51b120cf8933e1c6e",
    "04_gowers_and_progressions": "2c4640a4eb47b6a1a68060d0f06211f7fff81c9920f664a5f98de568f604ed0c",
    "05_bias_and_rank": "3de94085e19f5fc2bf9da0a53f7ea9703938e826ccd0ebbdd7fdf490ad7ca84c",
    "06_pretentious_distance": "cb4dc2ce19dcc627dec04a068569587903fc241fc09d52af91657fd13e95d29c",
    "07_aperiodic_decay": "cb17ab23e8ce1aecf0361ae3bdaa9aac27ede471f31f74ca9ec12fdaa8c5e9af",
    "08_experiment_runner": "0d61c22a3822e92256138219d8929f434335b75572676bed65357bb84e9e1828",
}


def test_demos_are_found():
    assert len(DEMOS) >= 8
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem]

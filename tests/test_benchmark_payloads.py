"""The benchmark's four payloads, reproduced in-process.

`perfbench/` checks its pinned payload sha256s only when the benchmark runs.
Here each workload's default-seed config (`perfbench/workloads.make_config`)
runs through `run_experiment(stream=...)`, and the streamed CSV, header
included, must hash to the pin in `perfbench/payload_sha256.json`.  Both
files are only read.
"""

import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from ffmult.experiments import run_experiment

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_payload_matches_the_pin(workload):
    cfg = workloads.make_config(workload, workloads.DEFAULT_SEED)
    pinned = workloads.pinned_sha256(workload, cfg)
    buf = io.StringIO()
    run_experiment(cfg, stream=buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == pinned

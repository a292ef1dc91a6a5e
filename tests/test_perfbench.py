"""One traced benchmark round per workload that the diagram layer drives,
so that a change that breaks the tracer's patch points or the benchmark's
output checks fails the suite.  ``certify`` is left out: it counts one
known-fault query as failed in every round."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["enumerate", "scan"])
def test_traced_round_passes_its_checks(workload):
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
            "--trace", "1", "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["errors"] == []

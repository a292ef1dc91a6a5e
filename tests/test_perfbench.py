"""One traced benchmark round per workload that the diagram layer and the
area oracles drive, so that a change that breaks the tracer's patch points
or the benchmark's output checks fails the suite; and the same patch
points, plus the library's imports, checked in process in milliseconds."""

import ast
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["enumerate", "scan", "certify", "refute"])
def test_traced_round_passes_its_checks(workload):
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
            "--trace", "1", "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["errors"] == []


def test_tracer_installs_and_restores_in_process():
    """Every name the tracer wraps is still an attribute of its module or
    class, and ``restore`` puts each original back."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig, attr


def test_library_imports_nothing_unused():
    """Each module of the library uses every name it imports, except
    ``enumeration.attach_face``, which is kept for the tracer to wrap;
    ``__init__`` only re-exports."""
    unused = set()
    for path in sorted((ROOT / "src" / "vankampen").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in imported - used}
    assert unused == {"enumeration.attach_face"}

"""Rewrite reference.json: the per-area diagram counts of the enumerate
workload's jobs, computed by the enumerator of the checkout it runs in.

    python3 perfbench/make_reference.py

Run it when a change is meant to alter what the enumerator emits, and
review the diff: the enumerate workload fails its check until the
reference agrees with the program.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from vankampen.enumeration import EnumerationConfig, enumerate_diagrams  # noqa: E402


def area_counts(gid: str, area: int) -> dict:
    counts: dict = {}
    x = workloads.galleries(gid)[2]
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=area)):
        counts[str(d.area)] = counts.get(str(d.area), 0) + 1
    return counts


reference = {
    "enumerate": {
        f"{gid}:{area}": area_counts(gid, area) for gid, area in workloads.ENUMERATE_JOBS
    }
}
workloads.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
print(json.dumps(reference, sort_keys=True))

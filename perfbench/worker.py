"""One measured round of a workload, in a fresh interpreter.

Sets up the inputs, times the workload's calls between two timings of the
reference loop (``calibrate.py``), checks every output and prints one
JSON line.  ``run.py`` starts one of these per round, one at a
time, so every round begins with the library's module-level caches empty,
as a command-line user's process does.

    python3 perfbench/worker.py --workload scan --seed 1 --trace 0 --spawned-at <monotonic>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import vankampen  # noqa: E402

if Path(vankampen.__file__).resolve().parent != SRC / "vankampen":
    sys.exit(f"imported vankampen from {vankampen.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--spans", help="write the traced round's spans to this file")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    inputs = wl.setup(args.seed)
    # CLOCK_MONOTONIC is system-wide, so this spans interpreter start,
    # imports, gallery complexes and models, and input generation
    setup_s = time.monotonic() - args.spawned_at
    calibration_s = calibrate()
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        tr.active = True
    t0 = time.perf_counter()
    outputs = wl.run(inputs)
    wall_s = time.perf_counter() - t0
    if tr is not None:
        tr.active = False
        tr.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the host's speed on either side of the timed calls
    calibration_s = (calibration_s + calibrate()) / 2

    verdict = wl.check(inputs, outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "errors": verdict.errors,
    }
    if tr is not None:
        result["layers"] = tracing.layer_metrics(tr)
        if args.spans:
            tr.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

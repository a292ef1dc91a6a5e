"""Benchmark command: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload <enumerate|scan|certify|refute> \\
        --seed <n> --seconds <s> --trace <0|1>

Runs whole rounds of the workload, each in a fresh worker interpreter
(``worker.py``), one after another, until ``--seconds`` have passed: a
closed loop with one caller.  With ``--trace 0`` it reports the end-to-end
metrics (medians over the rounds); with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics and the
tracing overhead.  The end-to-end times are reported at the reference
speed of the host (see ``calibrate.py``); the raw seconds are printed too.
Every round's outputs are checked.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enumerate", "scan", "certify", "refute")
END_TO_END = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_ref_s", "1/s"),
)
# printed beside the end-to-end metrics, not reported in the result line
RAW = (("wall_s", "s"), ("setup_raw_s", "s"), ("items_per_s", "1/s"), ("calibration_s", "s"))
ROUND_TIMEOUT_S = 150


def run_round(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        (HERE / "traces").mkdir(exist_ok=True)
        cmd += ["--spans", str(HERE / "traces" / f"{workload}-seed{seed}.tsv.gz")]
    # fixed string hashing, so set iteration and the exact counts repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} round failed with exit code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["items_per_s"] = out["attempted"] / out["wall_s"]
    # the round's seconds had the host run the reference loop in REFERENCE_S
    scale = REFERENCE_S / out["calibration_s"]
    out["wall_ref_s"] = out["wall_s"] * scale
    out["items_per_ref_s"] = out["attempted"] / out["wall_ref_s"]
    out["setup_raw_s"], out["setup_s"] = out["setup_s"], out["setup_s"] * scale
    return out


def layer_values(traced: list, untraced: list, errors: list) -> dict:
    out = {}
    for name, unit, _better in PER_LAYER:
        if name == "tracing.overhead_s":
            out[name] = (statistics.median(r["wall_ref_s"] for r in traced)
                         - statistics.median(r["wall_ref_s"] for r in untraced))
            continue
        values = [r["layers"][name] for r in traced]
        if unit == "count":
            if len(set(values)) != 1:
                errors.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "vankampen" / "__init__.py").is_file():
        sys.stderr.write(f"no library sources under {ROOT / 'src'}\n")
        return 2

    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        untraced.append(run_round(args.workload, args.seed, False))
        if args.trace:
            traced.append(run_round(args.workload, args.seed, True))
        if time.monotonic() >= deadline:
            break

    rounds = untraced + traced
    errors = [e for r in rounds for e in r["errors"]]
    end_to_end = {name: statistics.median(r[name] for r in untraced)
                  for name, _ in END_TO_END + RAW}
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
          f" and {len(traced)} traced rounds, medians over untraced rounds")
    for name, unit in END_TO_END + RAW:
        print(f"  {name:<15} {end_to_end[name]:12.4f} {unit}")
    if args.trace:
        layers = layer_values(traced, untraced, errors)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<45} {layers[name]:14.6g} {unit}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"  attempted {attempted}, failed {failed}")
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

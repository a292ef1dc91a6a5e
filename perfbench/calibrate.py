"""A fixed pure-Python reference loop that measures how fast the host runs
Python right now.

The benchmark's host is shared: identical rounds of library work take
1.4 s in one minute and 2.7 s in the next, in CPU time as much as in wall
time, and a slow spell can outlast a whole run.  The worker times this
loop just before and just after the library's timed calls, and ``run.py``
scales each round's seconds by ``REFERENCE_S / calibration seconds``.  The
loop does what the library does most (free reduction of integer words,
minimal cyclic rotation, tuple hashing into a dict) but does not import
it, so a change to the library cannot move it.
"""

from __future__ import annotations

import random
import time

# seconds the loop takes on an uncontended core of the reference host
# (2-core shared Xeon, Python 3.11.7); with it a round's scaled seconds
# read about what its wall seconds read when nothing else runs there
REFERENCE_S = 0.085
REPS = 60
CHECKSUM = 200  # distinct minimal rotations the loop finds


def _words() -> list:
    rng = random.Random(20190111)
    return [tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(24)) for _ in range(200)]


WORDS = _words()


def kernel(reps: int) -> int:
    seen: dict = {}
    for _ in range(reps):
        for w in WORDS:
            stack: list = []
            for a in w:
                if stack and stack[-1] == -a:
                    stack.pop()
                else:
                    stack.append(a)
            r = tuple(stack)
            best = min(r[i:] + r[:i] for i in range(len(r))) if r else r
            seen[best] = seen.get(best, 0) + 1
    return len(seen)


def calibrate() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    found = kernel(REPS)
    elapsed = time.perf_counter() - t0
    if found != CHECKSUM:
        raise RuntimeError(f"reference loop found {found} rotations, not {CHECKSUM}")
    return elapsed


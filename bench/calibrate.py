"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared hosts whose speed drifts by a third or more
between runs, and a run's setup, checks and exports all slow down
together. So every timed measurement is followed by one run of a fixed
reference workload that never touches `axcat`: a transitive closure over
a seeded relation, built from the same tuples, sets and dicts the engine
spends its time in. Each time is then rescaled by the reference's local
speed:

    normalised = measured * REFERENCE_S / median(nearby reference times)

"Nearby" is the `WINDOW` reference runs on either side. A check that
takes exactly as long as the reference counts as `REFERENCE_S`, 1 ms; on
a 2-vCPU Intel Xeon VM with Python 3.11.7 the reference takes 0.8-1.2 ms,
so normalised times stay close to wall times there. A change to `axcat`
moves the measured times and not the reference, so it shows in full.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.001
WINDOW = 7

_rng = random.Random(7)
_NODES = 64
_RELATION = sorted({(_rng.randrange(_NODES), _rng.randrange(_NODES)) for _ in range(110)})


def reference() -> int:
    """The fixed workload: the size of the closure of `_RELATION`."""
    succ: dict[int, set[int]] = {}
    for a, b in _RELATION:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in range(_NODES):
        stack, seen = [start], set()
        while stack:
            x = stack.pop()
            for y in succ.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
                    closure.add((start, y))
    return len(closure)


def time_reference() -> float:
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


def normalise(times: list[float], refs: list[float]) -> list[float]:
    """Rescale `times[i]` by the reference times around `refs[i]`, which
    was measured right after it."""
    if len(times) != len(refs):
        raise ValueError("one reference time per measured time")
    return [
        t * REFERENCE_S / statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1])
        for i, t in enumerate(times)
    ]

"""Seeded two-thread coherence and message-passing litmus programs.

Every program has two threads, 2-4 loads and 2-4 stores over one or two
locations, and a probe load whose index is 1, and so reaches the secret
stored right after the probed location, only for an outcome that some of
the bundled models forbid. The slot list fixes each program's shape and
size, and its copies alternate which thread comes first; the seed picks
the stored values, the register names, where the locations sit, and the
order of the pool. The size of every choice space, the enumeration order,
and so the work per pass, do not depend on the seed.

Placeholders in the templates: P is the probed location (the secret sits
right after it), Q the other location, a/b/c three distinct nonzero values,
and r0..r3 registers.
"""

from __future__ import annotations

import random
import re

MODELS = ("inorder", "stl", "tso", "tso-mcu")
K = 1  # loop-free programs
BITS = 2  # values 0..3; the secret's sentinel is 4

# (name, probe thread, other thread)
SLOTS = (
    # CoRR style: two loads after an own store; the first may bypass it
    ("corr", ("store P, a", "load r0, P", "load r1, P",
              "load r2, P + ((r0 == 0) & (r1 == a))"),
     ("store P, b",)),
    # CoWR: a load bypasses the own store and sees the initial value
    ("cowr", ("store P, a", "load r0, P", "load r1, P + (r0 == 0)"),
     ("store P, b", "load r2, P")),
    # CoWR behind two own stores: the load sees the older one
    ("cowr-2", ("store P, a", "store P, b", "load r0, P",
                "load r1, P + (r0 == a)"),
     ("load r2, P",)),
    # CoWR behind two own stores with a third, remote store
    ("cowr-3", ("store P, a", "store P, b", "load r0, P",
                "load r1, P + (r0 == 0)"),
     ("store P, c", "load r2, P")),
    # MP: new flag, old data
    ("mp", ("load r0, P", "load r1, Q", "load r2, P + ((r0 == a) & (r1 == 0))"),
     ("store Q, b", "store P, a")),
    # CoRR style against two remote stores
    ("corr-3", ("store P, a", "load r0, P", "load r1, P",
                "load r2, P + ((r0 == 0) & (r1 == a))"),
     ("store P, b", "store P, c")),
    # MP reading the data twice
    ("mp-4", ("load r0, P", "load r1, Q", "load r3, Q",
              "load r2, P + ((r0 == a) & (r3 == 0))"),
     ("store Q, b", "store P, a")),
    # SB style: store, load of the other location, reload of the own one
    ("sb", ("store P, a", "load r0, Q", "load r1, P", "load r2, P + (r1 == 0)"),
     ("store Q, b", "load r3, P")),
)

COPIES = 2  # instances of every slot per pool


def _instantiate(threads, rng: random.Random) -> str:
    """Litmus source for one shape, its template threads in the given order."""
    a, b, c = rng.sample((1, 2, 3), 3)
    regs = rng.sample(range(8), 4)
    subst = {"a": str(a), "b": str(b), "c": str(c), "P": "x", "Q": "y"}
    subst.update({f"r{i}": f"r{regs[i]}" for i in range(4)})
    two_locations = any("Q" in stmt for body in threads for stmt in body)
    if not two_locations:
        layout = "layout x@0 secret@1"
    elif rng.random() < 0.5:
        layout = "layout x@0 secret@1 y@2"
    else:
        layout = "layout y@0 x@1 secret@2"

    lines = [layout]
    for tid, body in enumerate(threads):
        lines.append(f"thread {tid}:")
        for label, stmt in enumerate(body, 1):
            stmt = re.sub(r"\b(r[0-3]|[abcPQ])\b", lambda m: subst[m.group(1)], stmt)
            lines.append(f"{label}: {stmt}")
    return "\n".join(lines) + "\n"


def generate(seed: int) -> list[tuple[str, str]]:
    """(name, litmus source) for every program of the pool, in pool order."""
    rng = random.Random(seed)
    pool = []
    for copy in range(COPIES):
        for name, probe, other in SLOTS:
            # the thread order sets the enumeration order, and so how soon a
            # witness turns up; it alternates by copy to keep that seed-free
            threads = (probe, other) if copy % 2 == 0 else (other, probe)
            pool.append((f"{name}.{copy}", _instantiate(threads, rng)))
    rng.shuffle(pool)
    return pool

"""The store/load scaling family: how many reads-from vectors the directed
search takes to the goal test, against the value-consistent pairs.

Each thread loads `idx`, stores to `idx` a value that reads that load,
loads `idx` again and then follows a chain of loads whose addresses read
the load before.  Under `inorder` every secret-reading pair fails at its
floor, so every shape is SAFE and the search must visit every pair; the
blind product of its reads-from choices grows much faster than the pairs.
"""

import pytest

from axcat import SpecConfig, check_isolation, engine, load_model, parse_program
from test_directed import blind, directed, signature


def family(threads: int, stores: int, loads: int) -> str:
    """`threads` copies of one thread: `load r1, idx`, then `stores` stores
    `store idx, r1 & (A.size - i)` for i = 1..stores, `load r2, idx`, then
    `loads` - 1 loads `load r(j+1), A + rj`."""
    lines = ["layout A[4]@0 secret@4 input idx@5 B[1]@6 t@7"]
    for tid in range(threads):
        body = ["load r1, idx"]
        body += [f"store idx, r1 & (A.size - {i})" for i in range(1, stores + 1)]
        body += ["load r2, idx"]
        body += [f"load r{j + 1}, A + r{j}" for j in range(2, loads + 1)]
        lines.append(f"thread {tid}:")
        lines += [f"{label}: {stmt}" for label, stmt in enumerate(body, 1)]
    return "\n".join(lines) + "\n"


CFG = SpecConfig(mode="traditional")  # with inorder, k=2, bits=3

# threads x (stores, loads) -> the value-consistent (rf, inputs) pairs
SHAPES = {(1, 4, 4): 1, (2, 2, 2): 45, (2, 3, 2): 91, (2, 2, 3): 45}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x({s[1]},{s[2]})")
def test_goal_tests_stay_within_ten_times_the_consistent_pairs(monkeypatch, shape):
    """SAFE, with the pinned number of value-consistent pairs, and at most
    ten reads-from vectors at the goal test per such pair."""
    reached, pairs = [], []
    rf_vectors, find_pairs = engine._rf_vectors, engine._pairs

    def counted_vectors(*args):
        for item in rf_vectors(*args):
            reached.append(item[0])
            yield item

    def counted_pairs(*args):
        for passing in find_pairs(*args):
            pairs.extend(passing)
            yield passing

    monkeypatch.setattr(engine, "_rf_vectors", counted_vectors)
    monkeypatch.setattr(engine, "_pairs", counted_pairs)
    v = check_isolation(parse_program(family(*shape)), load_model("inorder"), CFG, 2, 3)
    assert v.outcome == "safe"
    assert len(pairs) == SHAPES[shape]
    assert len(reached) <= 10 * SHAPES[shape]


def test_the_directed_pairs_are_the_blind_subsequence():
    """On 2 x (1, 2), whose 11,664 blind candidates `enumerate_candidates`
    walks in well under a second (the pinned shapes have 600,000 and more),
    the directed pairs crossed with the coherence orders are the blind
    product's consistent, secret-reading candidates, in its order."""
    program = parse_program(family(2, 1, 2))
    got = [signature(x) for x in directed(program, CFG, 2, 3)]
    assert got == [signature(x) for x in blind(program, CFG, 2, 3)]
    assert len(got) == 30

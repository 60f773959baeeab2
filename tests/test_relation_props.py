"""Algebra laws on randomized relations over small event universes."""

import random

from axcat import catlang
from axcat.events import Relation, relation_of

TRIALS = 1_000
MAX_EVENTS = 8


def random_relation(rng, ids):
    density = rng.random() * 0.6
    pairs = [
        (a, b) for a in ids for b in ids if rng.random() < density
    ]
    return Relation.of(pairs)


def universes(seed=20240811):
    rng = random.Random(seed)
    for _ in range(TRIALS):
        n = rng.randint(0, MAX_EVENTS)
        ids = list(range(n))
        yield rng, ids


def test_double_inverse_is_identity():
    for rng, ids in universes(1):
        r = random_relation(rng, ids)
        assert r.inverse().inverse().pairs == r.pairs


def test_inverse_of_composition_swaps():
    for rng, ids in universes(2):
        r = random_relation(rng, ids)
        s = random_relation(rng, ids)
        lhs = r.compose(s).inverse()
        rhs = s.inverse().compose(r.inverse())
        assert lhs.pairs == rhs.pairs


def test_closure_unfolds_once():
    for rng, ids in universes(3):
        r = random_relation(rng, ids)
        plus = r.closure()
        assert plus.pairs == (r | r.compose(plus)).pairs


def test_star_is_identity_plus_closure():
    for rng, ids in universes(4):
        r = random_relation(rng, ids)
        assert r.rstar(ids).pairs == (Relation.identity(ids) | r.closure()).pairs


def test_closure_is_transitive_and_contains_r():
    for rng, ids in universes(5):
        r = random_relation(rng, ids)
        plus = r.closure()
        assert r.pairs <= plus.pairs
        assert plus.compose(plus).pairs <= plus.pairs


def test_bounded_composition_of_transitive_shrinks():
    # for transitive r, chaining r with itself stays inside r
    for rng, ids in universes(6):
        r = random_relation(rng, ids).closure()
        acc = r
        for _ in range(3):
            acc = r.compose(acc)
            assert acc.pairs <= r.pairs


def test_set_algebra_laws():
    for rng, ids in universes(7):
        r = random_relation(rng, ids)
        s = random_relation(rng, ids)
        assert ((r | s) - s).pairs == (r - s).pairs
        assert (r & s).pairs == (s & r).pairs
        assert ((r - s) | (r & s)).pairs == r.pairs


def test_acyclicity_agrees_with_closure_irreflexivity():
    for rng, ids in universes(8):
        r = random_relation(rng, ids)
        assert r.is_acyclic() == r.closure().is_irreflexive()


# ---------------------------------------------------------------------------
# The bitset kernel of compiled models: row i of a relation over events
# 0..n-1 is an int whose bit j is the pair (i, j).


def as_rows(r, ids):
    return catlang.rows_of(r.pairs, range(len(ids)))


def random_subset(rng, ids):
    return [e for e in ids if rng.random() < 0.5]


def test_bitset_ops_equal_relation_ops():
    for rng, ids in universes(9):
        r, s = random_relation(rng, ids), random_relation(rng, ids)
        a, b = as_rows(r, ids), as_rows(s, ids)
        universe = catlang.identity_rows(ids, range(len(ids)))

        def back(rows):
            return relation_of(rows, ids)

        assert back(a) == r
        assert back(catlang.union_rows(a, b)) == r | s
        assert back(catlang.inter_rows(a, b)) == r & s
        assert back(catlang.diff_rows(a, b)) == r - s
        assert back(catlang.compose_rows(a, b)) == r.compose(s)
        assert back(catlang.inverse_rows(a)) == r.inverse()
        assert back(catlang.plus_rows(a)) == r.closure()
        assert back(catlang.star_rows(a, universe)) == r.rstar(ids)
        k = rng.randint(0, 6)
        acc = r
        for _ in range(k):
            acc = r.compose(acc)
        assert back(catlang.power_rows(a, k)) == acc
        assert catlang.is_acyclic_rows(a) == r.is_acyclic()
        assert catlang.is_irreflexive_rows(a) == r.is_irreflexive()
        assert catlang.is_empty_rows(a) == r.is_empty()
        # no operation changed its operands
        assert back(a) == r and back(b) == s


def test_bitset_classes_equal_relation_classes():
    for rng, ids in universes(10):
        x, y = random_subset(rng, ids), random_subset(rng, ids)
        index = range(len(ids))
        ix, iy = catlang.identity_rows(x, index), catlang.identity_rows(y, index)
        assert relation_of(ix, ids) == Relation.identity(x)
        assert relation_of(catlang.cross_rows(ix, iy), ids) == Relation.cartesian(x, y)


def test_power_by_squaring_matches_repeated_composition():
    for rng, ids in universes(11):
        r = random_relation(rng, ids)
        k = rng.randint(0, 40)
        acc = r
        for _ in range(k):
            acc = r.compose(acc)
        assert relation_of(catlang.power_rows(as_rows(r, ids), k), ids) == acc


import dataclasses
import sys

import pytest

from axcat.events import (
    INIT,
    SECRET_INIT,
    Evaluator,
    base_relations,
    build_events,
    propagate_values,
    secret_sentinel,
)
from axcat.masm import parse_program, unroll

FIG2 = """\
layout A[4]@0 secret@4 input idx@5 B[2]@6
thread 0:
1: load r1, idx
2: r2 <- r1 < A.size
3: beqz r2, 7
4: load r3, A + r1
5: load r4, B + r3
6: r6 <- r6 & r4
7: skip
"""

MASKING = """\
layout A[4]@0 secret@4 input idx@5 B[1]@6 temp@7
thread 0:
1: load r1, idx
2: store idx, r1 & (A.size - 1)
3: load r2, idx
4: load r3, A + r2
5: load r4, B + r3
6: load r5, temp
7: store temp, r4 & r5
"""

MP = """\
layout A[1]@0 secret@1 x@2 y@3 B[4]@4
thread 0:
1: load r0, x
2: load r1, y
3: load r2, A + (r0 * (r0 - r1))
thread 1:
1: r2 <- 1
2: r3 <- 1
3: store y, r2
4: store x, r3
"""


def fig2():
    return unroll(parse_program(FIG2), 2)


def labels_of(x, ids):
    return sorted(x.event(i).label for i in ids)


def init_vals(p, bits=3, **inputs):
    vals = {a: 0 for a in p.declared_addresses()}
    vals[p.secret_addr] = secret_sentinel(bits)
    for addr, v in inputs.items():
        vals[int(addr)] = v
    return vals


def test_build_all_committed():
    p = fig2()
    x = build_events(p, {(0, 3): False}, {(0, 3): True})
    assert labels_of(x, {e.id for e in x.instruction_events()}) == [1, 2, 3, 4, 5, 6, 7]
    assert not x.transient


def test_build_mispredicted_partition():
    p = fig2()
    x = build_events(p, {(0, 3): True}, {(0, 3): False})
    com = [e.label for e in x.instruction_events() if e.id in x.committed]
    tr = [e.label for e in x.instruction_events() if e.id in x.transient]
    assert com == [1, 2, 3]
    assert tr == [4, 5, 6, 7]


def test_build_mispredicted_taken_path():
    p = fig2()
    x = build_events(p, {(0, 3): False}, {(0, 3): False})
    com = [e.label for e in x.instruction_events() if e.id in x.committed]
    tr = [e.label for e in x.instruction_events() if e.id in x.transient]
    assert com == [1, 2, 3]
    assert tr == [7]


def test_build_inits_for_every_declared_address():
    p = fig2()
    x = build_events(p, {(0, 3): False}, {(0, 3): True})
    inits = x.init_events()
    assert [e.addr for e in inits] == list(p.declared_addresses()) == list(range(8))
    kinds = {e.addr: e.kind for e in inits}
    assert kinds[4] == SECRET_INIT
    assert all(k == INIT for a, k in kinds.items() if a != 4)


def test_build_empty_thread_gives_inits_only():
    p = parse_program(
        "layout X@0 secret@1\nthread 0:\nthread 1:\n1: skip\n"
    )
    x = build_events(unroll(p, 1), {}, {})
    assert [e.kind for e in x.events] == [INIT, SECRET_INIT, "skip"]


def test_build_rejects_a_loop_instead_of_walking_it():
    p = parse_program("layout A@0 secret@1\nthread 0:\n1: load r1, A\n2: jmp 1\n")
    with pytest.raises(ValueError, match="unroll it first"):
        build_events(p, {}, {})
    assert len(build_events(unroll(p, 2), {}, {}).loads()) == 2
    p = parse_program("layout A@0 secret@1\nthread 0:\n1: load r1, A\n2: beqz r1, 1\n")
    with pytest.raises(ValueError, match="jumps back from label 2 to 1"):
        build_events(p, {(0, 2): True}, {(0, 2): True})
    assert len(build_events(p, {(0, 2): False}, {(0, 2): True}).loads()) == 1


def test_build_names_the_first_branch_without_an_outcome():
    with pytest.raises(KeyError) as raised:
        build_events(fig2(), {}, {})  # pht-01 unrolled twice
    assert raised.value.args == ((0, 3),)


def test_events_are_frozen():
    x = build_events(fig2(), {(0, 3): False}, {(0, 3): True})
    init, load = x.init_events()[0], x.loads()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        init.addr = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        load.addr = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        load.label = 1


def test_candidates_of_one_skeleton_keep_their_own_valuation():
    p = fig2()
    skeleton = build_events(p, {(0, 3): False}, {(0, 3): True})
    before = [dataclasses.astuple(e) for e in skeleton.events]
    rf = {e.id: "init" for e in skeleton.loads()}
    one = dataclasses.replace(skeleton, rf_choice=rf, inputs={5: 1})
    two = dataclasses.replace(skeleton, rf_choice=rf, inputs={5: 2})
    first = propagate_values(one, init_vals(p, **{"5": 1}), 3)
    assert first is one.valuation
    second = propagate_values(two, init_vals(p, **{"5": 2}), 3)
    assert second is two.valuation and one.valuation is first
    idx, array, _ = (e.id for e in skeleton.loads())  # idx, then A + r1
    assert (first[idx][1], first[array][0]) == (1, 1)
    assert (second[idx][1], second[array][0]) == (2, 2)
    assert one.events is two.events is skeleton.events
    assert [dataclasses.astuple(e) for e in skeleton.events] == before
    assert skeleton.valuation is None
    assert (one.choices["inputs"], two.choices["inputs"]) == ({5: 1}, {5: 2})
    # the choice vector is derived, so it follows an assigned choice
    one.co_order = (99,)
    assert one.choices["co"] == (99,) and two.choices["co"] == ()
    assert one.choices["outcomes"] == {(0, 3): False} and one.choices["cp"] == {(0, 3): True}


def test_propagate_masked_index_stays_in_bounds():
    p = unroll(parse_program(MASKING), 2)
    x = build_events(p, {}, {})
    loads = x.loads()
    store = x.stores()[0]
    # e3 reads the masking store, everything else reads inits
    x.rf_choice = {e.id: "init" for e in loads}
    x.rf_choice[loads[1].id] = store.id
    x.co_order = tuple(s.id for s in x.stores() if s.id in x.committed)
    vals = propagate_values(x, init_vals(p, **{"5": 7}), 3)
    assert vals is not None
    e4 = loads[2]  # load r3, A + r2
    assert x.valuation[e4.id][0] == 7 & 3  # masked
    assert (store.id, loads[1].id) in x.rf


def test_propagate_bypassed_store_reaches_secret():
    p = unroll(parse_program(MASKING), 2)
    x = build_events(p, {}, {})
    loads = x.loads()
    x.rf_choice = {e.id: "init" for e in loads}  # e3 reads the stale init
    x.co_order = tuple(s.id for s in x.stores() if s.id in x.committed)
    vals = propagate_values(x, init_vals(p, **{"5": 4}), 3)
    assert vals is not None
    e4 = loads[2]
    assert x.valuation[e4.id][0] == p.secret_addr
    src = [w for w, r in x.rf if r == e4.id]
    assert x.event(src[0]).kind == SECRET_INIT
    assert x.valuation[e4.id][1] == secret_sentinel(3)


def test_propagate_load_from_init_defaults_to_zero():
    p = fig2()
    x = build_events(p, {(0, 3): False}, {(0, 3): True})
    x.rf_choice = {e.id: "init" for e in x.loads()}
    x.co_order = ()
    vals = propagate_values(x, init_vals(p, **{"5": 2}), 3)
    assert vals is not None
    e1, e4, e5 = (x.valuation[e.id][1] for e in x.loads())
    assert e1 == 2  # the input
    assert e4 == 0  # A[2] initial value
    assert e5 == 0


def test_propagate_rejects_address_mismatch():
    p = unroll(parse_program(MASKING), 2)
    x = build_events(p, {}, {})
    loads = x.loads()
    store = x.stores()[0]  # store to idx
    x.rf_choice = {e.id: "init" for e in loads}
    x.rf_choice[loads[2].id] = store.id  # load from A+r2 cannot read store to idx
    x.co_order = tuple(s.id for s in x.stores() if s.id in x.committed)
    out = propagate_values(x, init_vals(p, **{"5": 0}), 3)
    assert out is None
    assert "different addresses" in x.inconsistency


def test_propagate_determinism():
    p = unroll(parse_program(MASKING), 2)

    def run():
        x = build_events(p, {}, {})
        x.rf_choice = {e.id: "init" for e in x.loads()}
        x.co_order = tuple(s.id for s in x.stores() if s.id in x.committed)
        v = propagate_values(x, init_vals(p, **{"5": 3}), 3)
        return v

    assert run() == run()


def test_transient_store_only_feeds_later_transient_load():
    src = """\
layout A[2]@0 secret@2 input idx@3
thread 0:
1: load r1, idx
2: beqz r1, 6
3: store A, 1
4: load r2, A
5: skip
6: skip
"""
    p = unroll(parse_program(src), 2)
    # misprediction: branch should be taken (r1 == 0) but falls through,
    # so 3,4,5 are transient; the transient load may read the transient store
    x = build_events(p, {(0, 2): True}, {(0, 2): False})
    store = x.stores()[0]
    assert store.id in x.transient
    loads = x.loads()
    x.rf_choice = {loads[0].id: "init", loads[1].id: store.id}
    x.co_order = ()
    ok = propagate_values(x, init_vals(p, **{"3": 0}), 3)
    assert ok is not None
    assert x.valuation[loads[1].id][1] == 1

    # a committed load must not read a transient store
    x2 = build_events(p, {(0, 2): True}, {(0, 2): False})
    st2 = x2.stores()[0]
    l1 = x2.loads()[0]  # committed load of idx
    x2.rf_choice = {l1.id: st2.id, x2.loads()[1].id: "init"}
    x2.co_order = ()
    out = propagate_values(x2, init_vals(p, **{"3": 0}), 3)
    assert out is None


def test_transient_stores_never_in_coherence():
    src = """\
layout A[2]@0 secret@2 input idx@3
thread 0:
1: load r1, idx
2: beqz r1, 4
3: store A, 1
4: skip
"""
    p = unroll(parse_program(src), 2)
    x = build_events(p, {(0, 2): True}, {(0, 2): False})
    store = x.stores()[0]
    x.rf_choice = {x.loads()[0].id: "init"}
    x.co_order = (store.id,)
    out = propagate_values(x, init_vals(p, **{"3": 0}), 3)
    assert out is None
    assert "coherence" in x.inconsistency


def test_base_relations_single_thread_rfe_empty():
    p = fig2()
    x = build_events(p, {(0, 3): False}, {(0, 3): True})
    x.rf_choice = {e.id: "init" for e in x.loads()}
    x.co_order = ()
    propagate_values(x, init_vals(p, **{"5": 1}), 3)
    rels = base_relations(x)
    assert rels["rfe"].is_empty()


def test_base_relations_mp_rfe_cross_thread():
    p = unroll(parse_program(MP), 2)
    x = build_events(p, {}, {})
    loads = x.loads()
    stores = {(s.thread, s.label): s for s in x.stores()}
    store_x = stores[(1, 4)]
    # thread 0 reads x from thread 1's store
    x.rf_choice = {loads[0].id: store_x.id, loads[1].id: "init", loads[2].id: "init"}
    x.co_order = tuple(sorted(s.id for s in x.stores()))
    out = propagate_values(x, init_vals(p), 3)
    assert out is not None
    rels = base_relations(x)
    assert (store_x.id, loads[0].id) in rels["rfe"]
    assert len(rels["rfe"]) == 1


def test_base_relations_addr_dependency():
    p = fig2()
    x = build_events(p, {(0, 3): False}, {(0, 3): True})
    x.rf_choice = {e.id: "init" for e in x.loads()}
    x.co_order = ()
    propagate_values(x, init_vals(p, **{"5": 1}), 3)
    rels = base_relations(x)
    by_label = {e.label: e.id for e in x.instruction_events()}
    # r1 feeds the address of the array access, r3 feeds the second one
    assert (by_label[1], by_label[4]) in rels["addr"]
    assert (by_label[4], by_label[5]) in rels["addr"]
    assert (by_label[1], by_label[2]) not in rels["addr"]  # e2 is not a memory event
    assert (by_label[5], by_label[4]) not in rels["addr"]


def test_base_relations_po_and_fence():
    src = """\
layout A[2]@0 secret@2 input idx@3
thread 0:
1: load r1, A
2: fence
3: store A, r1
"""
    p = unroll(parse_program(src), 2)
    x = build_events(p, {}, {})
    x.rf_choice = {x.loads()[0].id: "init"}
    x.co_order = tuple(s.id for s in x.stores())
    propagate_values(x, init_vals(p), 3)
    rels = base_relations(x)
    by_label = {e.label: e.id for e in x.instruction_events()}
    assert (by_label[1], by_label[3]) in rels["fence"]
    assert (by_label[1], by_label[2]) not in rels["fence"]
    assert (by_label[1], by_label[2]) in rels["po"]
    assert (by_label[1], by_label[3]) in rels["po"]  # po is transitive
    assert rels["loc"].pairs >= {(by_label[1], by_label[3]), (by_label[3], by_label[1])}


def test_co_total_per_address_with_init_first():
    src = """\
layout A[2]@0 secret@2 input idx@3
thread 0:
1: store A, 1
2: store A, 2
3: store A + 1, 3
"""
    p = unroll(parse_program(src), 2)
    x = build_events(p, {}, {})
    s1, s2, s3 = (e.id for e in x.stores())
    x.rf_choice = {}
    x.co_order = (s2, s1, s3)
    propagate_values(x, init_vals(p), 3)
    init0 = next(e.id for e in x.init_events() if e.addr == 0)
    init1 = next(e.id for e in x.init_events() if e.addr == 1)
    assert (init0, s1) in x.co and (init0, s2) in x.co
    assert (s2, s1) in x.co and (s1, s2) not in x.co
    assert (init1, s3) in x.co
    assert (s3, s1) not in x.co and (s1, s3) not in x.co  # different addresses


# The dataflow is evaluated on demand (`Evaluator`); its valuation must be
# the least fixpoint.  The valuations below are worked out by hand.  Event
# ids: the init events of the layout's addresses first, then thread 0's
# instructions in label order, then thread 1's.

CYCLE = """\
layout x@0 y@1 secret@2
thread 0:
1: load r1, x
2: r2 <-({guard}?) r1
3: store y, r2
thread 1:
1: load r3, y
2: store x, r3
"""


def cycle_candidate(guard):
    p = unroll(parse_program(CYCLE.format(guard=guard)), 1)
    x = build_events(p, {}, {})
    load_x, _, store_y, load_y, store_x = (e.id for e in x.instruction_events())
    x.rf_choice = {load_x: store_x, load_y: store_y}
    x.co_order = (store_y, store_x)
    return p, x


def test_must_dependency_cycle_across_threads_stays_unresolved():
    # e3 reads e7, which stores r3 from e6, which reads e5, which stores r2,
    # which a nonzero guard takes from r1, the value of e3
    p, x = cycle_candidate(1)
    out = propagate_values(x, init_vals(p), 3)
    assert out is None
    assert x.inconsistency == "unresolved value at e3 (cyclic dataflow)"
    dataflow = Evaluator(x, init_vals(p), 3)
    assert [dataflow.value(e) for e in range(3, 8)] == [None] * 5
    assert [dataflow.address(e) for e in range(3, 8)] == [0, None, 1, 1, 0]


UNDECLARED = """\
layout A[1]@0 secret@1 input in0@2 B[1]@3
thread 0:
1: load r0, 5
2: load r1, B
"""


@pytest.mark.parametrize("rf_choice,reason", [
    ({4: "init", 5: "init"}, "load e4 reads undeclared address 5"),
    ({5: "init"}, "load e4 has no reads-from source"),
])
def test_load_without_a_source_says_why(rf_choice, reason):
    p = unroll(parse_program(UNDECLARED), 1)
    x = build_events(p, {}, {})
    x.rf_choice = rf_choice
    out = propagate_values(x, init_vals(p), 3)
    assert out is None and x.inconsistency == reason


def test_load_reading_init_at_an_address_on_a_cycle_is_cyclic():
    # e5 reads init at A + r1, and r1 comes round the cycle through e5's value
    src = """\
layout A[2]@0 x@2 y@3 secret@4
thread 0:
1: load r1, x
2: load r2, A + r1
3: store y, r2
thread 1:
1: load r3, y
2: store x, r3
"""
    p = unroll(parse_program(src), 1)
    x = build_events(p, {}, {})
    load_x, load_a, store_y, load_y, store_x = (e.id for e in x.instruction_events())
    x.rf_choice = {load_x: store_x, load_a: "init", load_y: store_y}
    out = propagate_values(x, init_vals(p), 3)
    assert Evaluator(x, init_vals(p), 3).address(load_a) is None
    assert out is None and x.inconsistency == f"unresolved value at e{load_x} (cyclic dataflow)"


def test_zero_guard_breaks_a_cycle_of_the_program_text():
    # with a zero guard e4 keeps r2's old value, 0, and never reads r1
    p, x = cycle_candidate(0)
    out = propagate_values(x, init_vals(p), 3)
    assert out == ((0, 0), (1, 0), (2, 8), (0, 0), (None, 0), (1, 0), (1, 0), (0, 0))
    assert x.inconsistency is None


def test_load_from_init_resolves_its_address_from_a_later_thread():
    src = """\
layout A[2]@0 secret@2 p@3
thread 0:
1: load r1, p
2: load r2, A + r1
thread 1:
1: store p, 2
"""
    p = unroll(parse_program(src), 1)
    x = build_events(p, {}, {})
    load_p, load_a, store_p = 4, 5, 6
    assert [e.kind for e in x.events[4:]] == ["load", "load", "store"]
    x.rf_choice = {load_p: store_p, load_a: "init"}
    x.co_order = (store_p,)
    # e5 reads init at A + 2, the secret, so it takes the sentinel
    assert Evaluator(x, init_vals(p), 3).address(load_a) == 2
    out = propagate_values(x, init_vals(p), 3)
    assert out[4:] == ((3, 2), (2, secret_sentinel(3)), (3, 2))


@pytest.mark.parametrize("cyclic", [False, True])
def test_long_dependency_chain_stays_within_the_recursion_limit(cyclic):
    # thread 1 adds 1 to what it reads at y, many times over, and stores the
    # sum at x; thread 0 reads x and stores it at y
    steps = 2 * sys.getrecursionlimit() + 3
    body = "".join(f"{label}: r1 <- r1 + 1\n" for label in range(2, steps + 2))
    src = (f"layout x@0 y@1 secret@2\nthread 0:\n1: load r0, x\n2: store y, r0\n"
           f"thread 1:\n1: load r1, y\n{body}{steps + 2}: store x, r1\n")
    p = unroll(parse_program(src), 1)
    x = build_events(p, {}, {})
    load_x, load_y = x.structure.loads
    store_y, store_x = x.structure.stores
    x.rf_choice = {load_x: store_x, load_y: store_y if cyclic else "init"}
    out = propagate_values(x, init_vals(p), 3)
    if cyclic:
        assert out is None and x.inconsistency == f"unresolved value at e{load_x} (cyclic dataflow)"
    else:
        assert (out[load_x], out[store_y]) == ((0, steps % 8), (1, steps % 8))

"""Goal tests over input lanes: one `Evaluator` takes every input vector
as a lane.

Lane by lane, the compiled expressions must give what each lane gives
alone; a conditional assignment whose guard splits the lanes must be
evaluated lane by lane; and with two inputs the lanes are the input
vectors in the blind order, the first input major.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axcat import SpecConfig, engine, load_model, parse_program, unroll
from axcat.events import Evaluator
from axcat.masm import _BIN_OPS, _UN_OPS, Binary, Const, Reg, Secret, Unary, eval_expr, eval_set
from reference import brute_force_isolation
from test_directed import blind, blind_verdict, directed, signature, verdict

REGS = ("r0", "r1", "r2")


def lane(value, i):
    return value[i] if type(value) is tuple else value


def alone(regs, i):
    """Lane i's registers, each a plain value."""
    return {r: lane(v, i) for r, v in regs.items()}


def expressions():
    leaves = st.one_of(st.builds(Const, st.integers(0, 70)), st.just(Secret()),
                       st.builds(Reg, st.sampled_from(REGS)))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(sorted(_UN_OPS)), sub),
        st.builds(Binary, st.sampled_from(sorted(_BIN_OPS)), sub, sub),
    ), max_leaves=10)


def reads(e) -> set:
    if isinstance(e, Reg):
        return {e.name}
    subs = [sub for sub in vars(e).values() if isinstance(sub, (Reg, Unary, Binary))]
    return set().union(*map(reads, subs))


@settings(max_examples=400, deadline=None)
@given(e=expressions(), bits=st.integers(0, 4), width=st.integers(1, 5), data=st.data())
def test_each_lane_evaluates_as_it_would_alone(e, bits, width, data):
    """Lane i of the compiled closure over lane registers equals
    `eval_expr` over lane i's registers: every operator, shift counts of
    the width and more, the secret's sentinel 2^bits as an operand, and
    None in some lanes.  The result is a tuple only if the expression
    reads one.  `eval_set` over singleton sets still agrees with
    `eval_expr` wherever no lane is None."""
    mask, sentinel = (1 << bits) - 1, 1 << bits
    value = st.one_of(st.none(), st.just(sentinel), st.integers(0, sentinel))
    regs = {r: data.draw(st.one_of(value, st.tuples(*[value] * width))) for r in REGS}
    secret = data.draw(st.integers(0, mask))
    got = eval_expr(e, regs, secret, mask)
    if type(got) is tuple:
        assert len(got) == width and any(type(regs[r]) is tuple for r in reads(e))
    for i in range(width):
        want = eval_expr(e, alone(regs, i), secret, mask)
        assert lane(got, i) == want
        if None not in alone(regs, i).values():
            singletons = {r: 1 << v for r, v in alone(regs, i).items()}
            assert eval_set(e, singletons, secret, mask) == 1 << want


@pytest.mark.parametrize("op", sorted(_BIN_OPS) + [f"unary {op}" for op in sorted(_UN_OPS)])
def test_every_operator_over_every_pair_of_lanes(op):
    """Each operator over lanes that pair every two of None, 0, 1, the
    largest value, the sentinel and a shift count past the width, at 3
    bits: lane i is the operator on lane i's operands."""
    bits = 3
    mask, values = (1 << bits) - 1, (None, 0, 1, 5, 7, 1 << bits)
    pairs = list(itertools.product(values, repeat=2))
    regs = {"r0": tuple(a for a, _ in pairs), "r1": tuple(b for _, b in pairs)}
    e = Unary(op[-1], Reg("r0")) if op.startswith("unary") else Binary(op, Reg("r0"), Reg("r1"))
    got = eval_expr(e, regs, 4, mask)
    assert [lane(got, i) for i in range(len(pairs))] == [
        eval_expr(e, alone(regs, i), 4, mask) for i in range(len(pairs))]


# Conditional assignments whose guard reads an input, so that their lanes
# part: per program, the source and the first inputs that read the secret.
# The programs read the secret only where the guard is zero: idx >= 2, or
# in "first" idx < 2, the lanes at hand when the guard is met.  In
# "non-last" the guard reads x, the first of two inputs, and the load adds
# y: x < 2 reads the secret at y = 1, x >= 2 at y = 0.  In "chain" the
# second guard reads the value of the first conditional assignment, which
# its lanes already split.  In "cycle"
# the expression, read where idx < 2, closes a dependency cycle through
# the other thread; where the guard is zero it is not read.  Evaluated for
# every lane at once, the cycle would leave the stores' values None in
# those lanes too.
SPLIT = {
    "guard": ("""layout B@0 secret@1 input idx@2 C@3
thread 0:
1: load r1, idx
2: r2 <- secret
3: r2 <-(r1 < 2?) B
4: load r3, r2
""", {2: 2}),
    "first": ("""layout B@0 secret@1 input idx@2 C@3
thread 0:
1: load r1, idx
2: r2 <- secret
3: r2 <-(r1 > 1?) B
4: load r3, r2
""", {2: 0}),
    "non-last": ("""layout B@0 secret@1 input x@2 input y@3
thread 0:
1: load r1, x
2: load r6, y
3: r2 <- secret
4: r2 <-(r1 < 2?) B
5: load r3, r2 + r6
""", {2: 0, 3: 1}),
    "chain": ("""layout B@0 secret@1 input idx@2 C@3
thread 0:
1: load r1, idx
2: r2 <- secret
3: r4 <-(r1 < 2?) 1
4: r2 <-(r4?) B
5: load r3, r2
""", {2: 2}),
    "cycle": ("""layout B@0 secret@1 input idx@2 C@3
thread 0:
1: load r1, idx
2: r2 <- secret
3: load r5, B
4: r2 <-(r1 < 2?) r5
5: store C, r2
6: load r3, r2
thread 1:
1: load r6, C
2: store B, r6
""", {2: 2}),
}


def recording(monkeypatch):
    """Patch the engine's `Evaluator`; returns the list of its one-lane
    evaluations, (evaluator, lane) each, of a node whose guard splits the
    lanes."""
    alone = []

    class Recording(Evaluator):
        def _alone(self, lane):
            alone.append((self, lane))
            return super()._alone(lane)

    monkeypatch.setattr(engine, "Evaluator", Recording)
    return alone


@pytest.mark.parametrize("name", sorted(SPLIT))
@pytest.mark.parametrize("mode", ("traditional", "speculative"))
@pytest.mark.parametrize("model_name", ("inorder", "stl", "tso"))
def test_a_guard_that_splits_the_lanes_runs_them_one_at_a_time(monkeypatch, name, mode, model_name):
    """The node whose guard splits the lanes is evaluated lane by lane, and
    the verdict, witness and counts are the blind enumeration's, the
    verdict the reference's; the witness's inputs are the first that read
    the secret, and its candidates the blind ones."""
    alone = recording(monkeypatch)
    source, first = SPLIT[name]
    program, model, cfg = parse_program(source), load_model(model_name), SpecConfig(mode=mode)
    got = verdict(program, model, cfg, 1, 2)
    assert alone  # the split node ran lane by lane
    assert got == blind_verdict(program, model, cfg, 1, 2)
    assert got[0] == brute_force_isolation(unroll(program, 1), model, mode, cfg.window,
                                           cfg.buffer, 2)
    assert got[0] == "unsafe" and got[1]["inputs"] == first
    assert ([signature(x) for x in directed(program, cfg, 1, 2)]
            == [signature(x) for x in blind(program, cfg, 1, 2)])


# every lane reads the secret at label 4; the guard at label 2 splits them
GUARD_AFTER_THE_GOAL = """layout A@0 secret@1 input idx@2 B@3
thread 0:
1: load r1, idx
2: r2 <-(r1 < 2?) 1
3: store B, r2
4: load r3, secret
"""


def test_no_propagation_starts_on_a_voided_evaluation(monkeypatch):
    """No check of the search reads the guard, so every lane passes the goal
    test and only the valuation at the leaf meets the split guard: each of
    the four lanes is valued once, from the search's own evaluator, and the
    guard's node is evaluated lane by lane there."""
    alone = recording(monkeypatch)
    searches, calls = [], []
    rf_vectors = engine._rf_vectors

    def search(skeleton, dataflow, may_read, full):
        searches.append(dataflow)
        yield from rf_vectors(skeleton, dataflow, may_read, full)

    def valued(x, addrs, vals):
        # the lane's projection of the search's memo, every node evaluated
        lane = [c[x.inputs[2]] if type(c) is tuple else c for c in searches[-1].memo]
        calls.append((x.inputs, (addrs, vals) == (lane[0::2], lane[1::2])))
        return value_rejection(x, addrs, vals)

    value_rejection = engine.value_rejection
    monkeypatch.setattr(engine, "_rf_vectors", search)
    monkeypatch.setattr(engine, "value_rejection", valued)
    program = parse_program(GUARD_AFTER_THE_GOAL)
    model, cfg = load_model("inorder"), SpecConfig(mode="traditional")
    got = verdict(program, model, cfg, 1, 2)
    assert len(searches) == 1 and [e for e, _ in alone] == [searches[0]] * 4
    assert calls == [({2: idx}, True) for idx in range(4)]
    assert got == blind_verdict(program, model, cfg, 1, 2)
    assert got[0] == "unsafe" and got[1]["inputs"] == {2: 0}


TWO_INPUTS = """layout A@0 secret@1 input x@2 input y@3
thread 0:
1: load r1, x
2: load r2, y
3: r3 <- (r1 == 2) & (r2 == 3)
4: load r4, r3
"""


@pytest.mark.parametrize("mode", ("traditional", "speculative"))
def test_two_inputs_lanes_over_the_last(monkeypatch, mode):
    """With two inputs at 2 bits only x = 2, y = 3 reads the secret.  One
    reads-from search runs, its x and y cells holding the 16 input vectors
    as lanes, x major; at the goal test the only lane that is live and
    reads the secret is lane 11 (x = 2, y = 3), as the others are decided
    at a prefix.  The verdict, witness inputs and
    `generated` are those of the first consistent secret reader of the
    blind enumeration, and the verdict the reference's."""
    searches = []  # per reads-from search, the input cells it starts from
    reached = []  # per goal test: x, y and the lanes that are live and read the secret
    rf_vectors = engine._rf_vectors

    def recording(skeleton, dataflow, may_read, full):
        init = skeleton.structure.init_by_addr
        cells = [dataflow.memo[2 * init[a] + 1] for a in (2, 3)]
        searches.append(cells)
        for item in rf_vectors(skeleton, dataflow, may_read, full):
            reached.append((*cells, item[2] & item[3]))
            yield item

    monkeypatch.setattr(engine, "_rf_vectors", recording)
    program, model, cfg = parse_program(TWO_INPUTS), load_model("inorder"), SpecConfig(mode=mode)
    got = verdict(program, model, cfg, 1, 2)
    assert got[0] == "unsafe" and got[1]["inputs"] == {2: 2, 3: 3}
    assert got == blind_verdict(program, model, cfg, 1, 2)
    assert got[0] == brute_force_isolation(unroll(program, 1), model, mode, cfg.window,
                                           cfg.buffer, 2)
    lanes = list(itertools.product(range(4), repeat=2))
    assert searches == [[tuple(x for x, _ in lanes), tuple(y for _, y in lanes)]]
    assert reached and all(r == (*searches[0], 1 << 11) for r in reached)
    assert ([signature(x) for x in directed(program, cfg, 1, 2)]
            == [signature(x) for x in blind(program, cfg, 1, 2)])


FIRST_PAIR_LEAKS = """thread 0:
1: load r1, secret
2: load r2, A
thread 1:
1: store A, 1
"""


@pytest.mark.parametrize("layout", ("layout A@0 secret@1",
                                    "layout A@0 secret@1 input x@2 input y@3"),
                         ids=("no-input", "two-inputs"))
def test_a_check_that_stops_at_its_first_pair_starts_no_later_goal_test(
        monkeypatch, layout):
    """The first candidate, reads-from vector (init, init), reads the secret
    and is consistent.  The search is used without looking ahead: it has
    brought its first vector to the goal test, and not its second, (init,
    the store)."""
    reached = []
    rf_vectors = engine._rf_vectors

    def recording(*args):
        for item in rf_vectors(*args):
            reached.append(item[0])
            yield item

    monkeypatch.setattr(engine, "_rf_vectors", recording)
    program, model, cfg = (parse_program(f"{layout}\n{FIRST_PAIR_LEAKS}"),
                           load_model("inorder"), SpecConfig(mode="traditional"))
    got = verdict(program, model, cfg, 1, 2)
    assert got[0] == "unsafe" and got[2] == 1
    assert got == blind_verdict(program, model, cfg, 1, 2)
    assert reached == [("init", "init")]

from dataclasses import replace

import pytest

from axcat import masm
from axcat.events import build_events
from axcat.masm import (
    Assign,
    Beqz,
    Binary,
    Const,
    CondAssign,
    Fence,
    Jmp,
    Load,
    ParseError,
    Reg,
    Skip,
    Store,
    parse_program,
    pred,
    unroll,
)

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

MINIMAL = """\
layout secret@1 X@0
thread 0:
1: skip
"""


def test_parse_minimal_skip():
    p = parse_program(MINIMAL)
    assert len(p.threads) == 1
    assert len(p.threads[0]) == 1
    assert isinstance(p.threads[0][0].stmt, Skip)
    assert p.secret_addr == 1


def test_parse_fig2_structure():
    p = parse_program(FIG2)
    (t0,) = p.threads
    assert [i.label for i in t0] == [1, 2, 3, 4, 5, 6, 7]
    assert t0[0].stmt == Load("r1", Const(5, sym="idx"))
    assert t0[1].stmt == Assign("r2", Binary("<", Reg("r1"), Const(4, sym="A.size")))
    assert t0[2].stmt == Beqz("r2", 7)
    assert t0[3].stmt == Load("r3", Binary("+", Const(0, sym="A"), Reg("r1")))
    assert t0[6].stmt == Skip()
    assert p.secret_addr == 4
    assert p.input_locations == frozenset({5})


def test_parse_store_and_fence_and_cond_assign():
    p = parse_program(
        """\
layout C[2]@0 secret@2
thread 0:
1: store C + 0, 64
2: fence
3: r1 <-(r2?) 5
"""
    )
    (t0,) = p.threads
    assert t0[0].stmt == Store(Binary("+", Const(0, sym="C"), Const(0)), Const(64))
    assert t0[1].stmt == Fence()
    assert t0[2].stmt == CondAssign("r1", Reg("r2"), Const(5))


def test_secret_token_resolves_to_address():
    p = parse_program(
        """\
layout X@0 secret@3
thread 0:
1: load r1, secret
"""
    )
    stmt = p.threads[0][0].stmt
    assert stmt == Load("r1", masm.Secret())
    assert masm.eval_expr(stmt.addr, {}, p.secret_addr, 7) == 3


def test_shift_by_the_width_or_more_is_zero():
    shift = Binary("<<", Const(1), Reg("r1"))
    mask = (1 << 64) - 1
    # a load of the secret reads the sentinel 2^bits
    assert masm.eval_expr(shift, {"r1": 1 << 64}, 0, mask) == 0
    assert masm.eval_expr(shift, {"r1": 64}, 0, mask) == 0
    assert masm.eval_expr(shift, {"r1": 63}, 0, mask) == 1 << 63
    assert masm.eval_expr(shift, {"r1": 8}, 0, 7) == 0
    assert masm.eval_expr(shift, {"r1": 2}, 0, 7) == 4


def test_undefined_jump_target_rejected():
    src = """\
layout X@0 secret@1
thread 0:
1: skip
2: skip
3: jmp 99
"""
    with pytest.raises(ParseError, match="undefined label 99"):
        parse_program(src)


@pytest.mark.parametrize(
    "src,message",
    [
        ("layout X@0 secret@1\nthread 0:\n1: skip\n1: skip\n", "duplicate label"),
        ("layout X@0 secret@1\nthread 0:\n1: skip\n3: skip\n", "consecutive"),
        ("layout X[2]@0 Y[2]@1 secret@4\nthread 0:\n1: skip\n", "overlap"),
        ("layout X[2]@0 secret@1\nthread 0:\n1: skip\n", "inside region"),
        ("layout X@0 secret@1\nthread 0:\n1: r1 <- bogus\n", "unknown register"),
        ("layout X@0 secret@1\nthread 0:\n1: load q1, X\n", "unknown register"),
        ("layout X@0\nthread 0:\n1: skip\n", "secret"),
        ("layout A@0 secret@1 input\nthread 0:\n1: skip\n", "'input' must precede"),
        pytest.param(
            "layout X@0 secret@1\nthread 0:\n1: r1 <- " + "(" * 400 + "1" + ")" * 400 + "\n",
            "line 3: nested too deeply", id="400-nested-parentheses",
        ),
        pytest.param(
            "layout X@0 secret@1\nthread 0:\n1: r1 <- r0" + " + 1" * 1200 + "\n",
            "line 3: nested too deeply", id="1200-term-chain",
        ),
    ],
)
def test_validation_errors(src, message):
    with pytest.raises(ParseError, match=message):
        parse_program(src)


def test_expect_trailer():
    p = parse_program(
        MINIMAL + "expect safe model=inorder mode=traditional\n"
        "expect unsafe model=stl k=3 w=5\n"
    )
    a, b = p.expectations
    assert (a.outcome, a.model, a.mode) == ("safe", "inorder", "traditional")
    assert (b.outcome, b.model, b.mode) == ("unsafe", "stl", None)
    assert dict(b.overrides) == {"k": 3, "w": 5}


# ---------------------------------------------------------------------------
# pred


def test_pred_fig2_join_point():
    p = parse_program(FIG2)
    assert pred(p, 7) == frozenset({3, 6})


def test_pred_fig2_after_branch():
    p = parse_program(FIG2)
    assert pred(p, 4) == frozenset({3})


def test_pred_entry_is_empty():
    p = parse_program(FIG2)
    assert pred(p, 1) == frozenset()


def test_pred_unknown_label():
    p = parse_program(FIG2)
    with pytest.raises(KeyError):
        pred(p, 42)


def test_pred_excludes_fallthrough_after_jmp():
    p = parse_program(
        """\
layout X@0 secret@1
thread 0:
1: jmp 3
2: skip
3: skip
"""
    )
    # 2 textually precedes 3 but is unreachable fall-through of a jmp at 1?
    # No: label 2 is a skip, so it does fall into 3; label 1 is a jmp to 3.
    assert pred(p, 3) == frozenset({1, 2})
    # the jmp at 1 must not count as fall-through predecessor of 2
    assert pred(p, 2) == frozenset()


def test_pred_beqz_targeting_fallthrough_counted_once():
    p = parse_program(
        """\
layout X@0 secret@1
thread 0:
1: beqz r1, 2
2: skip
"""
    )
    assert pred(p, 2) == frozenset({1})


# ---------------------------------------------------------------------------
# unroll


def test_unroll_loop_free_identity():
    p = parse_program(FIG2)
    u = unroll(p, 3)
    assert not u.unroll_incomplete
    assert [i.label for i in u.threads[0]] == [1, 2, 3, 4, 5, 6, 7]
    assert [i.stmt for i in u.threads[0]] == [i.stmt for i in p.threads[0]]
    assert [i.provenance for i in u.threads[0]] == [(l, 1) for l in range(1, 8)]


def test_unroll_counted_loop_bodies():
    p = parse_program(
        """\
layout X@0 secret@1
thread 0:
1: r1 <- r1 + 1
2: beqz r2, 1
"""
    )
    u = unroll(p, 2)
    t0 = u.threads[0]
    assert [i.provenance for i in t0] == [(1, 1), (2, 1), (1, 2), (2, 2)]
    assert [i.label for i in t0] == [1, 2, 3, 4]
    # first back edge goes to the second body copy, the second is cut
    assert t0[1].stmt == Beqz("r2", 3)
    assert t0[3].stmt == Beqz("r2", None)
    assert u.unroll_incomplete
    # iteration one of the loop must not fall off the end into iteration two
    assert t0[1].falls_through is False
    assert t0[3].falls_through is False


def test_unroll_input_dependent_loop_flagged():
    p = parse_program(
        """\
layout A[2]@0 secret@2 input idx@3
thread 0:
1: load r1, idx
2: r2 <- r1 < A.size
3: beqz r2, 6
4: r1 <- r1 + 1
5: jmp 2
6: skip
"""
    )
    u = unroll(p, 1)
    assert u.unroll_incomplete
    # all reachable labels exist exactly once at k=1
    assert [i.provenance for i in u.threads[0]] == [
        (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
    ]
    jmp = u.threads[0][4].stmt
    assert isinstance(jmp, Jmp) and jmp.target is None


def test_unroll_idempotent_on_loop_free():
    p = parse_program(FIG2)
    once = unroll(p, 2)
    twice = unroll(once, 2)
    assert once == twice


LOOP = """\
layout X@0 secret@1
thread 0:
1: r1 <- r1 + 1
2: beqz r2, 1
"""


def test_unroll_is_kept_per_program_and_bound():
    for src, incomplete in ((FIG2, False), (LOOP, True)):
        p = parse_program(src)
        assert unroll(p, 1) is unroll(p, 1)
        with pytest.raises(ValueError, match="unroll bound must be >= 1"):
            unroll(p, 0)
        one, two = unroll(p, 1), unroll(p, 2)
        assert one is not two
        # each bound's result is the one a fresh program gets
        assert one == unroll(parse_program(src), 1)
        assert two == unroll(parse_program(src), 2)
        assert one.unroll_incomplete == two.unroll_incomplete == incomplete
    assert len(unroll(p, 2).threads[0]) == 2 * len(unroll(p, 1).threads[0])


def test_kept_tables_are_not_part_of_a_program():
    p, fresh = parse_program(FIG2), parse_program(FIG2)
    before = (hash(p), repr(p))
    u = unroll(p, 2)
    build_events(u, {(0, 3): True}, {(0, 3): True})  # keeps the init events
    addr = p.threads[0][3].stmt.addr  # A + r1; keeps its register set and closure
    assert masm.expr_registers(addr) == {"r1"} and masm.eval_expr(addr, {"r1": 1}, 4, 7) == 1
    assert p == fresh and u == unroll(fresh, 2)
    assert (hash(p), repr(p)) == before
    assert p.threads[0][3].stmt == Load("r3", Binary("+", Const(0, "A"), Reg("r1")))
    copy = replace(p)
    assert copy == p and unroll(copy, 2) is not u and unroll(copy, 2) == u


def test_unroll_indegree_invariant():
    src = """\
layout A[2]@0 secret@2 input idx@3
thread 0:
1: load r1, idx
2: beqz r1, 5
3: r1 <- r1 - 1
4: jmp 2
5: skip
"""
    u = unroll(parse_program(src), 3)
    t0 = u.threads[0]
    entry = t0[0].label
    for ins in t0:
        if ins.label == entry:
            continue
        assert pred(u, ins.label), f"label {ins.label} unreachable under pred"


def test_parser_rejects_mutations_without_crashing():
    import random

    from generator import random_program_source

    rng = random.Random(7)
    for i in range(300):
        chars = list(random_program_source(random.Random(i)))
        for _ in range(rng.randint(1, 6)):
            if not chars:
                break
            pos = rng.randrange(len(chars))
            op = rng.random()
            if op < 0.4:
                del chars[pos]
            elif op < 0.7:
                chars.insert(pos, rng.choice("abc019:,<-()*&@[]# \n"))
            else:
                chars[pos] = rng.choice("xyz:,@#<")
        try:
            parse_program("".join(chars))
        except ParseError:
            pass  # anything else propagates and fails the test


def test_pred_respects_cut_fallthrough():
    p = parse_program(
        """\
layout X@0 secret@1
thread 0:
1: r1 <- r1 + 1
2: beqz r2, 1
"""
    )
    u = unroll(p, 2)
    # label 3 is (1,2); its only predecessor is the back edge from (2,1),
    # not the textual fall-through of (2,1) which means "program done".
    assert pred(u, 3) == frozenset({2})

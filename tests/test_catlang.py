import pathlib

import pytest

from axcat.catlang import (
    CatError,
    TBase,
    TBounded,
    TCompose,
    TCross,
    TInter,
    TInverse,
    TRef,
    TSetId,
    TUnion,
    check_assertions,
    check_srf_fence,
    evaluate,
    parse_cat,
)
from axcat.events import (
    Relation,
    base_relations,
    build_events,
    propagate_values,
    secret_sentinel,
)
from axcat.masm import parse_program, unroll
from axcat.speculation import SpecConfig

MODELS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "axcat" / "models"


def bundled(name):
    return parse_cat((MODELS_DIR / f"{name}.cat").read_text(), name)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_inorder_shape():
    m = parse_cat("com = co | rf | (rf^-1;co)\nacyclic com | po\n", "inorder")
    assert [n for n, _ in m.definitions] == ["com"]
    (_, term) = m.definitions[0]
    assert term == TUnion(TUnion(TBase("co"), TBase("rf")), TCompose(TInverse(TBase("rf")), TBase("co")))
    assert len(m.assertions) == 1
    kind, aterm, _ = m.assertions[0]
    assert kind == "acyclic"
    assert aterm == TUnion(TRef("com"), TBase("po"))


def test_parse_store_buffer_window_term():
    m = parse_cat("win = [W];po;([W];po)^{<=w'-1};[R]\n", "w")
    (_, term) = m.definitions[0]
    assert term == TCompose(
        TCompose(
            TCompose(TSetId("W"), TBase("po")),
            TBounded(TCompose(TSetId("W"), TBase("po")), "w'", -1),
        ),
        TSetId("R"),
    )


def test_parse_cross_and_aliases():
    m = parse_cat("x = (po & ((L * S) | (S * S))) | add\n", "t")
    (_, term) = m.definitions[0]
    assert term == TUnion(
        TInter(TBase("po"), TUnion(TCross("R", "W"), TCross("W", "W"))),
        TBase("loc"),
    )


def test_parse_errors():
    with pytest.raises(CatError, match="undefined relation name"):
        parse_cat("x = y\n")
    with pytest.raises(CatError, match="duplicate definition"):
        parse_cat("x = po\nx = rf\n")
    with pytest.raises(CatError, match="cannot tokenize"):
        parse_cat("x = po ? rf\n")
    with pytest.raises(CatError, match="unexpected end"):
        parse_cat("x = po |\n")
    with pytest.raises(CatError, match="event class"):
        parse_cat("x = [Q]\n")
    with pytest.raises(CatError, match="redefine builtin"):
        parse_cat("po = rf\n")
    with pytest.raises(CatError, match="expect"):
        parse_cat("just words\n")
    deep = "(" * 400 + "po" + ")" * 400
    with pytest.raises(CatError, match="line 2: nested too deeply"):
        parse_cat(f"x = po\nacyclic {deep}\n")
    with pytest.raises(CatError, match="line 1: nested too deeply"):
        parse_cat(f"x = {deep}\n")
    # postfix chains nest without recursing in the parser; at 500 the term
    # used to crash when hashed, at 2,000 when classified
    for length in (500, 2000):
        with pytest.raises(CatError, match="line 2: nested too deeply"):
            parse_cat("x = po\nacyclic po" + "^-1" * length + "\n")


def test_monotone_recursion_accepted_nonmonotone_rejected():
    m = parse_cat("t = po | (t;po)\nacyclic t\n")
    assert [n for n, _ in m.definitions] == ["t"]
    with pytest.raises(CatError, match="non-monotone recursion"):
        parse_cat("t = po \\ t\n")
    with pytest.raises(CatError, match="non-monotone recursion"):
        parse_cat("a = po | b\nb = (rf \\ a)^-1\n")
    # a non-recursive name on the right of a difference is fine
    parse_cat("a = po\nb = rf \\ a\n")


def test_bundled_models_parse():
    for name in ("inorder", "stl", "psf", "tso", "tso-mcu"):
        m = bundled(name)
        assert m.assertions, name
    assert "srf" in bundled("psf").base_names()
    assert "srf" not in bundled("stl").base_names()


# ---------------------------------------------------------------------------
# Evaluation fixtures: concrete candidates


def masked_candidate(idx, bypass_store: bool):
    src = """\
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
    p = unroll(parse_program(src), 2)
    x = build_events(p, {}, {})
    loads = x.loads()
    store = x.stores()[0]
    x.rf_choice = {e.id: "init" for e in loads}
    if not bypass_store:
        x.rf_choice[loads[1].id] = store.id
    x.co_order = tuple(s.id for s in x.stores())
    vals = {a: 0 for a in p.declared_addresses()}
    vals[p.secret_addr] = secret_sentinel(3)
    vals[5] = idx
    out = propagate_values(x, vals, 3)
    assert not isinstance(out, type(None))
    return x


def test_inorder_consistency_fig6_vs_fig7():
    inorder = bundled("inorder")
    safe = masked_candidate(idx=4, bypass_store=False)
    ok, violated = check_assertions(inorder, evaluate(inorder, base_relations(safe)))
    assert ok and violated is None

    unsafe = masked_candidate(idx=4, bypass_store=True)
    ok, violated = check_assertions(inorder, evaluate(inorder, base_relations(unsafe)))
    assert not ok
    assert violated[0] == "acyclic"


def test_stl_admits_the_bypass():
    stl = bundled("stl")
    cfg = SpecConfig(mode="traditional", buffer=2)
    unsafe = masked_candidate(idx=4, bypass_store=True)
    ok, _ = check_assertions(stl, evaluate(stl, base_relations(unsafe), cfg), cfg)
    assert ok


def test_win_expansion_matches_hand_expanded_composition():
    stl = bundled("stl")
    cfg = SpecConfig(mode="traditional", buffer=2)
    x = masked_candidate(idx=3, bypass_store=False)
    rels = base_relations(x)
    bindings = evaluate(stl, rels, cfg)
    W = Relation.identity(rels["W"])
    R = Relation.identity(rels["R"])
    po = rels["po"]
    hand = W.compose(po).compose(W).compose(po).compose(W).compose(po).compose(R)
    assert bindings["win"].pairs == hand.pairs


def test_bounded_composition_of_transitive_relation_shrinks():
    m = parse_cat("x = po^{<=2}\n")
    x = masked_candidate(idx=0, bypass_store=False)
    rels = base_relations(x)
    bindings = evaluate(m, rels, None)
    assert bindings["x"].pairs <= rels["po"].pairs


def test_fixpoint_soundness_reapplication_is_noop():
    stl = bundled("stl")
    cfg = SpecConfig(mode="traditional", buffer=2)
    x = masked_candidate(idx=2, bypass_store=True)
    rels = base_relations(x)
    bindings = evaluate(stl, rels, cfg)
    again = evaluate(stl, {**rels}, cfg)
    for name in ("com", "win", "ppo"):
        assert bindings[name].pairs == again[name].pairs


def test_recursive_definition_reaches_closure():
    m = parse_cat("t = po | (t;po)\n")
    x = masked_candidate(idx=0, bypass_store=False)
    rels = base_relations(x)
    bindings = evaluate(m, rels, None)
    assert bindings["t"].pairs == rels["po"].closure().pairs


def test_empty_execution_draws_empty_derived_relations():
    p = unroll(parse_program("layout X@0 secret@1\nthread 0:\n1: skip\n"), 1)
    x = build_events(p, {}, {})
    propagate_values(x, {0: 0, 1: secret_sentinel(3)}, 3)
    inorder = bundled("inorder")
    bindings = evaluate(inorder, base_relations(x))
    assert bindings["com"].is_empty()
    ok, _ = check_assertions(inorder, bindings)
    assert ok


def test_assertion_first_violation_reported_in_order():
    m = parse_cat("empty po\nacyclic po\n")
    x = masked_candidate(idx=0, bypass_store=False)
    ok, violated = check_assertions(m, evaluate(m, base_relations(x)))
    assert not ok
    assert violated[0] == "empty"


def test_bound_symbols_resolve_from_config():
    m = parse_cat("a = po^{<=w-1}\nb = po^{<=w'-1}\nc = po^{<=0}\n")
    x = masked_candidate(idx=0, bypass_store=False)
    rels = base_relations(x)
    cfg = SpecConfig(window=1, buffer=1)
    bindings = evaluate(m, rels, cfg)
    assert bindings["a"].pairs == rels["po"].pairs  # po^{<=0} is po
    assert bindings["b"].pairs == rels["po"].pairs
    assert bindings["c"].pairs == rels["po"].pairs
    with pytest.raises(CatError, match=">= 0"):
        evaluate(parse_cat("a = po^{<=w-5}\n"), rels, SpecConfig(window=2))


# ---------------------------------------------------------------------------
# srf / fence interaction


def psf_candidate(idx, alias: bool, with_fence: bool):
    body = [
        "1: store C + 0, 2",
        "2: load r2, C + r0",
    ]
    if with_fence:
        body = ["1: store C + 0, 2", "2: fence", "3: load r2, C + r0"]
    header = "layout A[2]@0 secret@2 input idx@3 C[2]@4 B[2]@6\nthread 0:\n"
    prelude = "1: load r0, idx\n"
    lines = []
    label = 2
    for b in body:
        lines.append(f"{label}: {b.split(': ', 1)[1]}")
        label += 1
    src = header + prelude + "\n".join(lines) + "\n"
    p = unroll(parse_program(src), 2)
    x = build_events(p, {}, {}, psf=True)
    loads = x.loads()
    store = x.stores()[0]
    x.rf_choice = {loads[0].id: "init", loads[1].id: store.id if alias else "init"}
    x.co_order = (store.id,)
    vals = {a: 0 for a in p.declared_addresses()}
    vals[p.secret_addr] = secret_sentinel(3)
    vals[3] = idx
    propagate_values(x, vals, 3)
    return x


def test_srf_alias_without_fence_allowed():
    x = psf_candidate(idx=1, alias=True, with_fence=False)
    assert x.valuation is not None
    assert check_srf_fence(x)


def test_srf_alias_across_fence_rejected():
    """The reads-from rule rejects alias forwarding across a fence, so value
    propagation fails; `check_srf_fence` states the rule on a valuation."""
    x = psf_candidate(idx=1, alias=True, with_fence=True)
    assert x.valuation is None
    store, load = x.stores()[0].id, x.loads()[1].id
    assert x.inconsistency == f"alias forwarding (e{store}, e{load}) crosses a fence"
    # set by hand: the addresses of the same events when the load reads init
    x.valuation = psf_candidate(idx=1, alias=False, with_fence=True).valuation
    assert x.valuation[store][0] != x.valuation[load][0]
    assert not check_srf_fence(x)


def test_srf_same_address_across_fence_allowed():
    x = psf_candidate(idx=0, alias=True, with_fence=True)
    assert x.valuation is not None
    assert check_srf_fence(x)  # C+0 with idx=0: addresses match

import pytest

from axcat import (
    SpecConfig,
    check_isolation,
    corpus_dir,
    emit_witness_dot,
    enumerate_candidates,
    load_model,
    parse_program,
)
from axcat.engine import EngineError, candidate_consistent, violating_load
from axcat.events import _NESTED, SECRET_INIT
from axcat.masm import _MAX_EXPR_DEPTH, ParseError


def corpus(name):
    return parse_program((corpus_dir() / f"{name}.litmus").read_text())


def test_unknown_model_name():
    with pytest.raises(FileNotFoundError, match="unknown model"):
        load_model("weird")


# ---------------------------------------------------------------------------
# Candidate counting


def count(src, cfg, k=1, bits=1):
    return sum(1 for _ in enumerate_candidates(parse_program(src), cfg, k, bits))


def predicted_correctly(x):
    return all(x.choices["cp"].values())


def test_count_single_load_no_store():
    src = "layout secret@0 input in0@1\nthread 0:\n1: load r1, in0\n"
    # one rf choice (init), two input values
    assert count(src, SpecConfig(mode="traditional"), bits=1) == 1 * 2


def test_count_single_load_one_store():
    src = (
        "layout secret@0 input in0@1\nthread 0:\n"
        "1: store in0, 1\n2: load r1, in0\n"
    )
    # rf choices: init or the store; two input values
    assert count(src, SpecConfig(mode="traditional"), bits=1) == 2 * 2


def test_count_branch_traditional_vs_speculative():
    src = (
        "layout secret@0 input in0@1\nthread 0:\n"
        "1: load r1, in0\n2: beqz r1, 4\n3: skip\n4: skip\n"
    )
    # one load reading init, one input: 2 candidates per control vector
    assert count(src, SpecConfig(mode="traditional"), bits=1) == 2 * 2
    # each branch doubles again by the prediction bit
    assert count(src, SpecConfig(mode="speculative"), bits=1) == 4 * 2
    # the correctly predicted ones collapse back to the traditional count
    spec = enumerate_candidates(parse_program(src), SpecConfig(mode="speculative"), 1, 1)
    assert sum(predicted_correctly(x) for x in spec) == 2 * 2


# ---------------------------------------------------------------------------
# Verdicts (the full table is exercised by the acceptance suite)


def test_pht_verdicts():
    p = corpus("pht-01")
    inorder = load_model("inorder")
    assert check_isolation(p, inorder, SpecConfig(mode="traditional"), 2, 3).outcome == "safe"
    v = check_isolation(p, inorder, SpecConfig(mode="speculative", window=8), 2, 3)
    assert v.outcome == "unsafe"
    assert v.witness is not None
    assert v.generated > v.filtered


def test_witness_reads_secret_and_replays():
    p = corpus("pht-01")
    inorder = load_model("inorder")
    cfg = SpecConfig(mode="speculative", window=8)
    v = check_isolation(p, inorder, cfg, 2, 3)
    w = v.witness
    rid = violating_load(w)
    assert rid is not None
    sources = [a for a, b in w.rf if b == rid]
    assert [w.event(s).kind for s in sources] == [SECRET_INIT]
    ok, reason = candidate_consistent(w, inorder, cfg)
    assert ok, reason


def test_unknown_only_with_incomplete_unroll():
    inorder = load_model("inorder")
    cfg = SpecConfig(mode="speculative", window=8)
    v = check_isolation(corpus("pht-05-fence"), inorder, cfg, 2, 3)
    assert v.outcome == "unknown"
    assert v.witness is None
    # the unfenced loop still yields a concrete violation
    assert check_isolation(corpus("pht-05"), inorder, cfg, 2, 3).outcome == "unsafe"


def test_verdict_and_witness_deterministic():
    p = corpus("stl-01")
    stl = load_model("stl")
    cfg = SpecConfig(mode="traditional", buffer=2)
    v1 = check_isolation(p, stl, cfg, 2, 3)
    v2 = check_isolation(p, stl, cfg, 2, 3)
    assert v1.outcome == v2.outcome == "unsafe"
    assert (v1.generated, v1.filtered) == (v2.generated, v2.filtered)
    assert v1.witness.choices == v2.witness.choices
    assert emit_witness_dot(v1.witness) == emit_witness_dot(v2.witness)


def test_unsafe_under_inorder_implies_unsafe_under_stl():
    stl = load_model("stl")
    inorder = load_model("inorder")
    for name, cfg in [
        ("pht-01", SpecConfig(mode="speculative", window=8)),
        ("pht-02", SpecConfig(mode="speculative", window=8)),
        ("pht-01", SpecConfig(mode="traditional")),
        ("stl-01", SpecConfig(mode="traditional")),
    ]:
        p = corpus(name)
        if check_isolation(p, inorder, cfg, 2, 3).outcome == "unsafe":
            assert check_isolation(p, stl, cfg, 2, 3).outcome == "unsafe", name


def test_parameter_sweeps_match_the_window_formulas():
    def v(name, model_name, mode, **kw):
        model = load_model(model_name)
        cfg = SpecConfig(mode=mode, window=kw.get("w", 8),
                         buffer=kw.get("buffer", 2),
                         psf="srf" in model.base_names())
        return check_isolation(corpus(name), model, cfg,
                               kw.get("k", 2), kw.get("bits", 3)).outcome

    # loop-free verdicts are k- and domain-size-independent
    for k in (1, 3):
        assert v("pht-01", "inorder", "speculative", k=k) == "unsafe"
        assert v("stl-01", "stl", "traditional", k=k) == "unsafe"
    for bits in (4, 5):
        assert v("stl-02", "stl", "traditional", bits=bits) == "safe"
        assert v("pht-01", "inorder", "speculative", bits=bits) == "unsafe"

    # store-buffer window: a pair is ordered once >= w' stores sit between
    assert v("stl-04", "stl", "traditional", buffer=1) == "safe"
    assert v("stl-03", "stl", "traditional", buffer=3) == "unsafe"
    assert v("stl-01", "stl", "traditional", buffer=1) == "unsafe"  # adjacent

    # branch speculation window: the gadget's threshold sits exactly at 5
    outcomes = [v("pht-01", "inorder", "speculative", w=w) for w in range(1, 9)]
    assert outcomes == ["safe"] * 4 + ["unsafe"] * 4


def test_correct_predictions_collapse_to_traditional():
    import random

    from generator import random_program_source

    inorder = load_model("inorder")
    for seed in range(12):
        src = random_program_source(random.Random(4000 + seed))
        p = parse_program(src)

        def signature(cfg):
            out = []
            for x in enumerate_candidates(p, cfg, 1, 2):
                # speculative candidates with every prediction correct
                if x.valuation is None or not predicted_correctly(x):
                    continue
                ok, _ = candidate_consistent(x, inorder, cfg)
                if not ok:
                    continue
                out.append(
                    (
                        tuple(sorted((e.thread, e.label) for e in x.instruction_events())),
                        tuple(sorted(x.rf.pairs)),
                        tuple(sorted(x.choices["inputs"].items())),
                    )
                )
            return sorted(out)

        spec = signature(SpecConfig(mode="speculative"))
        trad = signature(SpecConfig(mode="traditional"))
        assert spec == trad, src


def test_engine_errors():
    p = corpus("pht-01")
    with pytest.raises(EngineError, match="domain"):
        check_isolation(p, load_model("inorder"), SpecConfig(), 2, 2)
    with pytest.raises(EngineError, match="srf"):
        check_isolation(p, load_model("psf"), SpecConfig(mode="speculative"), 2, 3)
    with pytest.raises(EngineError, match="bound"):
        check_isolation(p, load_model("inorder"), SpecConfig(), 0, 3)


def test_shift_of_the_secret_sentinel_in_a_wide_domain():
    # the load reads the sentinel 2^64; shifting by it must not build a
    # 2^64-bit integer before the mask is applied
    p = parse_program("layout secret@0 A@1\n1: load r1, secret\n2: r2 <- 1 << r1\n")
    cfg = SpecConfig(mode="traditional")
    for bits in (3, 64):
        assert check_isolation(p, load_model("inorder"), cfg, 1, bits).outcome == "unsafe"


def test_deepest_expressions_along_a_long_chain_resolve():
    """Every link of a register chain longer than the evaluator's nesting
    bound is an expression as deep as the parser admits; a check called
    150 frames deep still resolves the load at its end."""
    links = _NESTED + 4
    terms = " + 1" * (_MAX_EXPR_DEPTH - 1)  # r + 1 + ... + 1 nests that deep
    head = "layout A[1]@0 secret@1 input x@2\nthread 0:\n1: load r0, x\n"
    body = "".join(f"{i + 2}: r{i + 1} <- r{i}{terms}\n" for i in range(links))
    p = parse_program(f"{head}{body}{links + 2}: load r99, A + r{links}\n")
    with pytest.raises(ParseError, match="line 4: nested too deeply"):
        parse_program(f"{head}2: r1 <- r0{terms} + 1\n")

    def nested(depth):
        if depth:
            return nested(depth - 1)
        return check_isolation(p, load_model("inorder"), SpecConfig(mode="traditional"), 1, 2)

    # whatever the chain adds to x, some x makes the load read A + 1
    assert nested(150).outcome == "unsafe"


# ---------------------------------------------------------------------------
# Witness graphs


def test_dot_contains_secret_edge_and_transient_styling():
    p = corpus("pht-01")
    v = check_isolation(
        p, load_model("inorder"), SpecConfig(mode="speculative", window=8), 2, 3
    )
    dot = emit_witness_dot(v.witness)
    assert dot.startswith("digraph witness {")
    assert 'label="rf"' in dot
    assert "e_s: secret" in dot
    assert 'style="dashed"' in dot  # transient events
    assert dot.endswith("}\n")


def test_dot_po_only_without_memory_events():
    src = "layout secret@0 X@1\nthread 0:\n1: skip\n2: skip\n3: skip\n"
    p = parse_program(src)
    v = check_isolation(p, load_model("inorder"), SpecConfig(mode="traditional"), 1, 1)
    assert v.outcome == "safe"
    # render a consistent candidate directly
    x = next(enumerate_candidates(p, SpecConfig(mode="traditional"), 1, 1))
    dot = emit_witness_dot(x)
    assert dot.count('label="po"') == 2
    assert 'label="rf"' not in dot


def test_dot_mp_witness_has_rfe_edge():
    p = corpus("mcu-01")
    v = check_isolation(p, load_model("tso-mcu"), SpecConfig(mode="traditional"), 2, 3)
    assert v.outcome == "unsafe"
    dot = emit_witness_dot(v.witness)
    assert 'label="rfe"' in dot


COHERENCE_CHAIN_DOT = """\
digraph witness {
  rankdir=TB;
  node [shape=box, fontname="monospace"];
  n1 [label="e_s: secret @1", color="red"];
  n2 [label="e_0: init @2=0"];
  n3 [label="e_0: init @3=0"];
  n4 [label="e4 (t0): store x, 1"];
  n5 [label="e5 (t0): store y, 1"];
  n6 [label="e6 (t1): store x, 2"];
  n7 [label="e7 (t1): load r1, x"];
  n8 [label="e8 (t1): load r2, (A + (r1 & 1))"];
  n1 -> n8 [label="rf", style="solid"];
  n2 -> n6 [label="co", style="solid"];
  n3 -> n5 [label="co", style="solid"];
  n4 -> n5 [label="po", style="solid"];
  n4 -> n7 [label="rfe", style="solid"];
  n6 -> n4 [label="co", style="solid"];
  n6 -> n7 [label="po", style="solid"];
  n7 -> n8 [label="po", style="solid"];
}
"""


def test_dot_coherence_chains_follow_the_coherence_order():
    # thread 1 reads thread 0's x after writing x itself, so only a
    # coherence order with e6 before e4 is consistent: x's chain is
    # init, e6, e4, against id order, and y's is init, e5
    src = (
        "layout A[1]@0 secret@1 x@2 y@3\n"
        "thread 0:\n1: store x, 1\n2: store y, 1\n"
        "thread 1:\n1: store x, 2\n2: load r1, x\n3: load r2, A + (r1 & 1)\n"
    )
    v = check_isolation(
        parse_program(src), load_model("inorder"), SpecConfig(mode="traditional"), 1, 2
    )
    assert v.outcome == "unsafe"
    assert v.witness.co_order == (5, 6, 4)
    assert emit_witness_dot(v.witness) == COHERENCE_CHAIN_DOT

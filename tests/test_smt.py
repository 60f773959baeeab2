"""Solver-format emission: structure, determinism, and witness satisfaction.

Without bundling a solver, the strongest in-tree check for the Unsafe
corpus entries is that the enumeration witness, translated to an SMT
assignment, satisfies every clause of the emitted formula.
"""

import hashlib
import random
import re
from dataclasses import replace

import pytest

from axcat import (
    SpecConfig,
    base_relations,
    check_isolation,
    corpus_dir,
    emit_smt,
    evaluate,
    load_model,
    parse_cat,
    parse_program,
)
from axcat.catlang import CatError, CatModel
from axcat.engine import EngineError
from axcat.smt import FALSE, TRUE, _ands, _Emitter, _ors
from generator import random_program_source
from smt_eval import Script
from test_compiled import EVERY_OPERATOR

_KEYWORDS = {
    "and", "or", "not", "=>", "=", "distinct", "ite", "_", "true", "false",
    "bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor", "bvshl", "bvlshr",
    "bvult", "bvule", "bvugt", "bvuge", "bvneg", "bvnot",
}


def corpus_cases():
    cases = []
    for path in sorted(corpus_dir().glob("*.litmus")):
        program = parse_program(path.read_text())
        for exp in program.expectations:
            over = dict(exp.overrides)
            model = load_model(exp.model)
            cfg = SpecConfig(
                mode=exp.mode or "speculative",
                window=over.get("w", 8),
                buffer=over.get("buffer", 2),
                psf="srf" in model.base_names(),
            )
            cases.append(
                (path.stem, program, model, cfg, over.get("k", 2),
                 over.get("bits", 3), exp.outcome)
            )
    return cases


def _symbols(node, out):
    if isinstance(node, str):
        if re.match(r"^[A-Za-z_][A-Za-z0-9_'.-]*$", node) and node not in _KEYWORDS:
            out.add(node)
        return
    if node and node[0] == "_":
        return  # bitvector literal
    for child in node:
        _symbols(child, out)


@pytest.mark.parametrize(
    "case", corpus_cases(), ids=lambda c: f"{c[0]}-{c[2].name}-{c[3].mode}"
)
def test_emission_well_formed_and_deterministic(case):
    name, program, model, cfg, k, bits, _ = case
    text = emit_smt(program, model, cfg, k, bits, name)
    assert text == emit_smt(program, model, cfg, k, bits, name)
    assert text.splitlines()[-2:] == ["(check-sat)", "(exit)"]
    assert "(set-logic QF_BV)" in text
    script = Script(text)  # parses: balanced and token-clean
    declared = set(script.widths)
    used: set = set()
    for form in script.asserts:
        _symbols(form, used)
    assert used <= declared, used - declared


def _event_name(e):
    if e.is_init():
        return f"init_{e.addr}"
    return f"t{e.thread}_l{e.label}"


def witness_assignment(x, model, cfg, bits, script: Script):
    vw = bits + 1
    asg = {}
    for e in x.init_events():
        asg[f"val_init_{e.addr}"] = (e.val, vw)
    by_site = {(e.thread, e.label): e for e in x.instruction_events()}
    for tid, thread in enumerate(x.program.threads):
        for ins in thread:
            nm = f"t{tid}_l{ins.label}"
            e = by_site.get((tid, ins.label))
            asg[f"exec_{nm}"] = e is not None
            if cfg.mode == "speculative":
                asg[f"com_{nm}"] = e is not None and e.id in x.committed
                asg[f"trans_{nm}"] = e is not None and e.id in x.transient
                if f"cp_{nm}" in script.widths:
                    asg[f"cp_{nm}"] = bool(e.cp) if e is not None else True
            if e is not None and e.addr is not None and f"addr_{nm}" in script.widths:
                asg[f"addr_{nm}"] = (e.addr, vw)
            if e is not None and e.val is not None and f"val_{nm}" in script.widths:
                asg[f"val_{nm}"] = (e.val, vw)

    chosen = x.srf if cfg.psf else x.rf
    chosen_names = {(_event_name(x.event(w)), _event_name(x.event(r))) for w, r in chosen}
    for name, width in script.widths.items():
        if name.startswith("rf_"):
            w_part, r_part = name[3:].split("_t", 1)
            asg[name] = (w_part, "t" + r_part) in chosen_names
        elif name.startswith("corank_"):
            store = name[len("corank_"):]
            pos = 0
            for i, sid in enumerate(x.co_order):
                if _event_name(x.event(sid)) == store:
                    pos = i + 1
            asg[name] = (pos, width)

    # order variables for acyclicity assertions: topological positions of
    # each assertion's relation over the candidate's events
    base = base_relations(x)
    for ai, (kind, term, _src) in enumerate(model.assertions):
        if kind != "acyclic":
            continue
        # the assertion's relation, as an extra definition of the model
        probe = CatModel(model.name, model.definitions + (("probe term", term),), ())
        rel = evaluate(probe, base, cfg)["probe term"]
        ids = sorted(e.id for e in x.events)
        succs = {i: [] for i in ids}
        indeg = {i: 0 for i in ids}
        for a, b in rel:
            succs[a].append(b)
            indeg[b] += 1
        ready = sorted(i for i in ids if indeg[i] == 0)
        topo = []
        while ready:
            node = ready.pop(0)
            topo.append(node)
            for nxt in sorted(succs[node]):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        position = {eid: n for n, eid in enumerate(topo)}
        for e in x.events:
            name = f"ord{ai}_{_event_name(e)}"
            if name in script.widths:
                asg[name] = (position.get(e.id, 0), script.widths[name])
        for name, width in script.widths.items():
            if name.startswith(f"ord{ai}_") and name not in asg:
                asg[name] = (0, width)
    return asg


@pytest.mark.parametrize(
    "case",
    [c for c in corpus_cases() if c[6] == "unsafe"],
    ids=lambda c: f"{c[0]}-{c[2].name}-{c[3].mode}",
)
def test_witness_satisfies_emitted_formula(case):
    name, program, model, cfg, k, bits, _ = case
    verdict = check_isolation(program, model, cfg, k, bits)
    assert verdict.outcome == "unsafe"
    text = emit_smt(program, model, cfg, k, bits, name)
    script = Script(text)
    asg = witness_assignment(verdict.witness, model, cfg, bits, script)
    ok, failures = script.check(asg)
    assert ok, failures


@pytest.mark.parametrize("buffer", [3, 4, 5, 8])
@pytest.mark.parametrize("name", ["stl-01", "stl-03", "stl-04"])
def test_witness_satisfies_squared_bounded_power(name, buffer):
    # stl's ([W];po)^{<=w'-1} is exported as the w'-th power by repeated
    # squaring; from w' = 4 on its composition tree is no longer a chain
    program = parse_program((corpus_dir() / f"{name}.litmus").read_text())
    model = load_model("stl")
    cfg = SpecConfig(mode="traditional", buffer=buffer)
    verdict = check_isolation(program, model, cfg, 2, 3)
    assert verdict.outcome == "unsafe"
    script = Script(emit_smt(program, model, cfg, 2, 3, name))
    asg = witness_assignment(verdict.witness, model, cfg, 3, script)
    ok, failures = script.check(asg)
    assert ok, failures


def test_witness_satisfaction_with_cond_assign_and_jump():
    src = (
        "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
        "1: load r0, in0\n2: r0 <-(r0 < 1?) 3\n3: jmp 4\n4: load r1, A + (r0 & 1)\n"
    )
    _witness_satisfies(src, load_model("inorder"), SpecConfig(mode="traditional"))


def _witness_satisfies(src, model, cfg, k=1, bits=2):
    """Check `src` is unsafe and its witness satisfies the export."""
    program = parse_program(src)
    verdict = check_isolation(program, model, cfg, k, bits)
    assert verdict.outcome == "unsafe"
    script = Script(emit_smt(program, model, cfg, k, bits, "case"))
    ok, failures = script.check(witness_assignment(verdict.witness, model, cfg, bits, script))
    assert ok, failures


def test_witness_satisfaction_with_register_rewrite_breaking_addr():
    # mcu-01 with r1 rewritten between its load and the dependent access:
    # the export must drop that addr pair, as the engine's skeleton does
    src = (
        "layout A[1]@0 secret@1 x@2 y@3\nthread 0:\n"
        "1: load r0, x\n2: load r1, y\n3: r1 <- r1 + 0\n"
        "4: load r2, A + (r0 * (r0 - r1))\n"
        "thread 1:\n1: r2 <- 1\n2: r3 <- 1\n3: store y, r2\n4: store x, r3\n"
    )
    program = parse_program(src)
    emitter = _Emitter(program, load_model("tso-mcu"), SpecConfig(mode="traditional"),
                       1, 2, "case")
    load_y, access = emitter.by_site[(0, 2)], emitter.by_site[(0, 4)]
    assert emitter.addr_term(load_y, access) == FALSE
    assert emitter.addr_term(emitter.by_site[(0, 1)], access) != FALSE
    _witness_satisfies(src, load_model("tso-mcu"), SpecConfig(mode="traditional"))


def test_witness_satisfaction_with_rf_and_srf_under_psf():
    # under psf, rf is the part of srf that joins equal addresses
    model = parse_cat(
        "com = co | rf | (rf^-1;co)\nscom = co | srf | (srf^-1;co)\n"
        "acyclic com | po\nacyclic scom | po\n", "rf-srf",
    )
    src = (corpus_dir() / "psf-01.litmus").read_text()
    cfg = SpecConfig(mode="speculative", psf=True)
    _witness_satisfies(src, model, cfg, 2, 3)
    emitter = _Emitter(parse_program(src), model, cfg, 2, 3, "case")
    store, load = emitter.by_site[(0, 5)], emitter.by_site[(0, 6)]  # C + 0, C + r0
    pick = f"rf_{store.name}_{load.name}"
    assert emitter.srf_term(store, load) == pick
    assert emitter.rf_term(store, load) == f"(and {pick} (= addr_t0_l5 addr_t0_l6))"


def test_rejected_candidate_refutes_the_tighter_formula():
    # the w=8 witness run needs four transient events; the same assignment
    # must violate the window clause of the w=4 formula
    program = parse_program((corpus_dir() / "pht-01.litmus").read_text())
    model = load_model("inorder")
    wide = SpecConfig(mode="speculative", window=8)
    verdict = check_isolation(program, model, wide, 2, 3)
    assert verdict.outcome == "unsafe"

    tight = SpecConfig(mode="speculative", window=4)
    text = emit_smt(program, model, tight, 2, 3, "pht-01")
    script = Script(text)
    asg = witness_assignment(verdict.witness, model, tight, 3, script)
    ok, failures = script.check(asg)
    assert not ok
    assert any("trl_" in str(f) for f in failures)


def test_goal_trivially_false_without_loads():
    src = "layout X@0 secret@1\nthread 0:\n1: store X, 1\n2: skip\n"
    text = emit_smt(parse_program(src), load_model("inorder"),
                    SpecConfig(mode="traditional"), 1, 1, "noloads")
    assert "(assert false)" in text.splitlines()[-3]


def test_srf_model_requires_psf():
    p = parse_program((corpus_dir() / "psf-01.litmus").read_text())
    with pytest.raises(ValueError, match="srf"):
        emit_smt(p, load_model("psf"), SpecConfig(mode="speculative"), 2, 3)


def test_domain_too_small_for_layout_rejected():
    p = parse_program((corpus_dir() / "pht-01.litmus").read_text())
    with pytest.raises(EngineError, match="domain of 1 bits cannot address 7"):
        emit_smt(p, load_model("inorder"), SpecConfig(), 2, 1)
    with pytest.raises(EngineError, match="domain of 1 bits cannot address 7"):
        check_isolation(p, load_model("inorder"), SpecConfig(), 2, 1)


def test_recursive_model_emits_rank_clauses():
    src = "layout A[2]@0 secret@2 input idx@3\nthread 0:\n1: load r0, A\n2: store A, 1\n"
    model = parse_cat("t = po | (t;po)\nacyclic t | rf\n", "rec")
    text = emit_smt(parse_program(src), model, SpecConfig(mode="traditional"), 1, 2)
    assert "drk_t_" in text
    Script(text)


def test_closure_inside_recursion_rejected_by_export():
    src = "layout A[2]@0 secret@2 input idx@3\nthread 0:\n1: load r0, A\n"
    model = parse_cat("t = po | (t;po)^+\nacyclic t\n", "recplus")
    with pytest.raises(CatError, match="closure"):
        emit_smt(parse_program(src), model, SpecConfig(mode="traditional"), 1, 2)


def test_closure_operator_emits_outside_recursion():
    src = "layout A[2]@0 secret@2 input idx@3\nthread 0:\n1: load r0, A\n2: store A, 1\n"
    model = parse_cat("t = po^+ | rf^*\nacyclic t \\ (E * E)\nempty t \\ t\n", "plus")
    text = emit_smt(parse_program(src), model, SpecConfig(mode="traditional"), 1, 2)
    Script(text)


# sha256 of the export over every corpus expectation (its own settings, then
# buffer 1, 3 and 4), and over 60 generator programs under five models in
# both modes.  A change to the emitted bytes must update these on purpose.
CORPUS_SHA256 = "3f26beb1e80fb538c1b459163bd19bf323615ee98252d9e867f2d0edb302cafd"
GENERATOR_SHA256 = "3fd1a486cb67be43bb79cfa90574627dea9bab0276bb839a87223e13bc920a20"


def corpus_export_sha256():
    h = hashlib.sha256()
    for name, program, model, cfg, k, bits, _ in corpus_cases():
        for c in [cfg] + [replace(cfg, buffer=b) for b in (1, 3, 4)]:
            h.update(emit_smt(program, model, c, k, bits, name).encode())
    return h.hexdigest()


def generator_export_sha256():
    models = [load_model(n) for n in ("inorder", "stl", "tso", "psf")]
    models.append(EVERY_OPERATOR)
    h = hashlib.sha256()
    for seed in range(60):
        program = parse_program(random_program_source(random.Random(seed)))
        for model in models:
            for mode in ("traditional", "speculative"):
                cfg = SpecConfig(mode=mode, psf="srf" in model.base_names())
                h.update(emit_smt(program, model, cfg, 1, 2, f"g{seed}").encode())
    return h.hexdigest()


def test_emitted_bytes_match_golden():
    assert corpus_export_sha256() == CORPUS_SHA256
    assert generator_export_sha256() == GENERATOR_SHA256


def _recording_family(rng, events, tag, calls):
    """A cached pointwise family over `events` with a random support of
    TRUE, FALSE and variable names (TRUE on the identity of init events, as
    `[W]` and `[E]` give), logging each first call to `calls`."""
    support = {}
    for x in events:
        for y in events:
            if x is y and x.kind != "instr" and rng.random() < 0.7:
                support[x, y] = TRUE
            else:
                support[x, y] = rng.choice(
                    (FALSE, FALSE, FALSE, TRUE, f"{tag}_{x.name}_{y.name}"))
    cache = {}

    def family(x, y):
        if (x, y) not in cache:
            calls.append((tag, x.name, y.name))
            cache[x, y] = support[x, y]
        return cache[x, y]

    return family


@pytest.mark.parametrize("squaring", [False, True], ids=["compose", "plus-step"])
@pytest.mark.parametrize("seed", range(20))
def test_sparse_compose_matches_the_dense_product(seed, squaring):
    src = (
        "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
        "1: load r0, in0\n2: store A, r0\n3: load r1, B\nthread 1:\n"
        "1: store B, 1\n2: load r2, A + r0\n"
    )
    emitter = _Emitter(parse_program(src), load_model("inorder"),
                       SpecConfig(mode="traditional"), 1, 2, "p")
    events = emitter.events
    pairs = [(x, y) for x in events for y in events] * 2
    random.Random(seed).shuffle(pairs)

    def families(calls):
        rng = random.Random(seed)  # both sides see the same supports
        lf = _recording_family(rng, events, "l", calls)
        if squaring:  # the ^+ step: prev | prev;prev
            return lf, lf, lf
        return lf, _recording_family(rng, events, "r", calls), None

    dense_calls, sparse_calls = [], []
    lf, rg, first = families(dense_calls)
    dense = [
        _ors(([first(x, y)] if first else [])
             + [_ands([lf(x, m), rg(m, y)]) for m in events])
        for x, y in pairs
    ]
    lf, rg, first = families(sparse_calls)
    out = emitter._sparse_compose(lf, rg, first=first)
    assert [out(x, y) for x, y in pairs] == dense
    assert sparse_calls == dense_calls

"""Solver-format emission: structure, determinism, and witness satisfaction.

Without bundling a solver, the strongest in-tree check for the Unsafe
corpus entries is that the enumeration witness, translated to an SMT
assignment, satisfies every clause of the emitted formula.
"""

import hashlib
import itertools
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
    enumerate_candidates,
    evaluate,
    load_model,
    parse_cat,
    parse_program,
)
from axcat.catlang import (
    BASE_RELATIONS,
    SET_NAMES,
    CatError,
    CatModel,
    _groups,
    _recursive,
)
from axcat.engine import EngineError, candidate_consistent
from axcat.masm import Beqz, Fence, Jmp, fall_label
from axcat.smt import FALSE, TRUE, _ands, _Emitter, _ors
from generator import random_program_source
from reference import _naive_term
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
        asg[f"val_init_{e.addr}"] = (x.valuation[e.id][1], vw)
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
                    asg[f"cp_{nm}"] = (x.structure.predictions.get((tid, ins.label), True)
                                       if e is not None else True)
            addr, val = x.valuation[e.id] if e is not None else (None, None)
            if addr is not None and f"addr_{nm}" in script.widths:
                asg[f"addr_{nm}"] = (addr, vw)
            if val is not None and f"val_{nm}" in script.widths:
                asg[f"val_{nm}"] = (val, vw)

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

    base = base_relations(x)
    for (name, a, b), rank in derivation_ranks(model, base, cfg).items():
        var = f"drk_{name}_{_event_name(x.event(a))}_{_event_name(x.event(b))}"
        if var in script.widths:
            asg[var] = (rank, script.widths[var])
    for name, width in script.widths.items():
        if name.startswith("drk_") and name not in asg:
            asg[name] = (0, width)

    # order variables for acyclicity assertions: topological positions of
    # each assertion's relation over the candidate's events
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


def derivation_ranks(model, base, cfg):
    """{(name, a, b): rank} over the recursive groups' least fixpoints: the
    round of a simultaneous iteration from empty in which (a, b) joins
    `name`, every other definition held at its final relation.  A pair's
    round exceeds those of the pairs it is derived from."""
    terms, ranks = dict(model.definitions), {}
    groups = [g for g in _groups(model.definitions) if _recursive(g, terms)]
    if not groups:
        return ranks
    final = evaluate(model, base, cfg)
    rels = {n: final[n].pairs for n in BASE_RELATIONS}
    sets = {n: final[n] for n in SET_NAMES}
    bounds = {"w": cfg.window, "w'": cfg.buffer}
    for group in groups:
        env = {n: final[n].pairs for n in terms}
        env.update(dict.fromkeys(group, frozenset()))
        for rank in itertools.count(1):
            env.update({n: _naive_term(terms[n], rels, sets, env, bounds) for n in group})
            new = {(n, a, b) for n in group for a, b in env[n]} - ranks.keys()
            if not new:
                break
            ranks.update(dict.fromkeys(new, rank))
    return ranks


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
    addr = emitter.base("addr")[0]
    assert addr.get((load_y.id, access.id), FALSE) == FALSE
    assert addr.get((emitter.by_site[(0, 1)].id, access.id), FALSE) != FALSE
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
    pick = f"rf_{emitter.names[store.id]}_{emitter.names[load.id]}"
    assert emitter.base("srf")[0][store.id, load.id] == pick
    assert emitter.base("rf")[0][store.id, load.id] == f"(and {pick} (= addr_t0_l5 addr_t0_l6))"


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


def test_closure_under_a_difference_inside_recursion_rejected_by_export():
    src = ("layout A[2]@0 secret@2 input idx@3\nthread 0:\n"
           "1: load r0, A\n2: store A, 1\n3: load r1, A\n")
    model = parse_cat("a = po | (a;po \\ rf^+)\nacyclic a\n", "recdiff")
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
CORPUS_SHA256 = "7cf13950fc3ac8b9368f03a6009d3cc545a9c6a42acdd7d75a68b5629060424a"
GENERATOR_SHA256 = "06e9c210d587cd437ce8ccee26ff2b100c49f1bde97ca7fe859429426577e949"


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


def _random_family(rng, events, tag):
    """(values, rows): a pointwise family over `events` of TRUE, FALSE and
    variable names (TRUE on the identity of init events, as `[W]` and `[E]`
    give), and support rows that hold every pair where it is not FALSE and
    some where it is."""
    values, rows = {}, [0] * len(events)
    for x in events:
        for y in events:
            if x is y and x.is_init() and rng.random() < 0.7:
                v = TRUE
            else:
                v = rng.choice((FALSE, FALSE, FALSE, TRUE, f"{tag}_{x.id}_{y.id}"))
            values[x, y] = v
            if v != FALSE or rng.random() < 0.3:
                rows[x.id] |= 1 << y.id
    return values, rows


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
    rng = random.Random(seed)
    left, lrows = _random_family(rng, events, "l")
    right, rrows = (left, lrows) if squaring else _random_family(rng, events, "r")
    calls = []

    def side(values, role):
        def family(x, y):
            calls.append((role, x, y))
            return values[x, y]
        return family

    # the ^+ step: prev | prev;prev
    first = (side(left, "first"), lrows) if squaring else None
    out, rows = emitter._sparse_compose(
        (side(left, "l"), lrows), (side(right, "r"), rrows), first)
    pairs = [(x, y) for x in events for y in events]
    rng.shuffle(pairs)
    for x, y in pairs:
        dense = _ors(([left[x, y]] if squaring else [])
                     + [_ands([left[x, m], right[m, y]]) for m in events])
        calls.clear()
        assert out(x, y) == dense
        assert dense == FALSE or rows[x.id] >> y.id & 1
        for role, a, b in calls:  # no side is called outside both supports
            if role == "l":
                assert a is x and lrows[x.id] >> b.id & 1 and rrows[b.id] >> y.id & 1
            elif role == "r":
                assert b is y and lrows[x.id] >> a.id & 1 and rrows[a.id] >> y.id & 1
            else:
                assert (a, b) == (x, y)


SIX_MODELS = [load_model(n) for n in ("inorder", "stl", "tso", "psf", "tso-mcu")]
SIX_MODELS.append(EVERY_OPERATOR)


def generator_queries(seeds):
    """(program, model, cfg) for seeded generator programs under the six
    models in both modes, at the settings the golden hashes use."""
    for seed in seeds:
        program = parse_program(random_program_source(random.Random(seed)))
        for model in SIX_MODELS:
            for mode in ("traditional", "speculative"):
                yield program, model, SpecConfig(mode=mode, psf="srf" in model.base_names())


def _pairs_in(rows, pairs, index):
    """The pairs of event-id pairs `pairs` that lie outside `rows`."""
    return [(a, b) for a, b in pairs if not rows[index[a]] >> index[b] & 1]


@pytest.mark.parametrize("seeds", [range(0, 30), range(30, 60)], ids=["0-29", "30-59"])
def test_supports_hold_every_candidate_relation(seeds):
    # every value-consistent candidate's definitions and assertion terms lie
    # inside the static supports the export computed for them
    checked = 0
    for program, model, cfg in generator_queries(seeds):
        emitter = _Emitter(program, model, cfg, 1, 2, "g")
        emitter.render()
        names = {name: i for i, name in enumerate(emitter.names)}
        bounds = {"w": cfg.window, "w'": cfg.buffer}
        for x in enumerate_candidates(program, cfg, 1, 2):
            if x.valuation is None:
                continue
            index = {e.id: names[_event_name(e)] for e in x.events}
            final = evaluate(model, base_relations(x), cfg)
            rels = {n: final[n].pairs for n in BASE_RELATIONS}
            sets = {n: final[n] for n in SET_NAMES}
            env = {n: final[n].pairs for n, _ in model.definitions}
            for n, _ in model.definitions:
                assert not _pairs_in(emitter.def_rows[n], env[n], index), (model.name, n)
            for _, term, src in model.assertions:
                rel = _naive_term(term, rels, sets, env, bounds)
                assert not _pairs_in(emitter.support(term), rel, index), (model.name, src)
            checked += 1
    assert checked >= 3000, checked


def test_forward_reference_is_emitted_after_the_definition_it_names():
    # `a` names `b`, which the file defines later: `b` is emitted first and
    # `a` substitutes its pairs
    model = parse_cat("a = b | po\nb = rf;po\nacyclic a | co\n", "forward")
    src = (corpus_dir() / "pht-01.litmus").read_text()
    cfg = SpecConfig(mode="speculative")
    text = emit_smt(parse_program(src), model, cfg, 2, 3, "pht-01")
    defined = re.findall(r"^\(assert \(= (d_[ab])_", text, re.M)
    assert defined and defined == sorted(defined, reverse=True), defined
    _witness_satisfies(src, model, cfg, 2, 3)


def test_difference_keeps_the_pairs_its_right_side_may_lack():
    # a store and a later load of its thread are in po, and in rf only when
    # the load picks that store: po \ rf may hold there
    src = "layout A[1]@0 secret@1\nthread 0:\n1: store A, 1\n2: load r0, A\n"
    model = parse_cat("d = po \\ rf\nacyclic d\n", "diff")
    emitter = _Emitter(parse_program(src), model, SpecConfig(mode="traditional"), 1, 2, "d")
    emitter.render()
    store, load = emitter.by_site[(0, 1)], emitter.by_site[(0, 2)]
    assert emitter.def_rows["d"][store.id] >> load.id & 1
    assert emitter.values["d"][store.id, load.id] == f"d_d_{emitter.pair_name(store, load)}"


def _without_goal(text: str) -> str:
    """The script with its isolation goal, the last assertion, removed."""
    lines = text.splitlines()
    assert lines[-3].startswith("(assert ") and "goal" in lines[-4]
    return "\n".join(lines[:-3] + lines[-2:]) + "\n"


def stops_at_a_fence(x) -> bool:
    """Whether a transient run of `x` ends because the next instruction on
    its path is a fence."""
    s, program = x.structure, x.program
    for tid, ids in enumerate(s.threads):
        if not ids or all(p for (t, _), p in s.predictions.items() if t == tid):
            continue  # no transient run
        ins = program.instruction(tid, x.events[ids[-1]].label)
        labels = {i.label for i in program.threads[tid]}
        nxt = ins.stmt.target if isinstance(ins.stmt, Jmp) else fall_label(ins, labels)
        if isinstance(ins.stmt, Beqz):
            predicted = s.predictions[tid, ins.label]
            if predicted:
                continue  # a correct prediction ends the run
            if s.outcomes[tid, ins.label] == predicted:
                nxt = ins.stmt.target
        if nxt is not None and isinstance(program.instruction(tid, nxt).stmt, Fence):
            return True
    return False


def check_accepted(script, x, model, cfg, bits):
    """A candidate the model accepts satisfies `script`, an export without
    its goal, unless a transient run of it stops at a fence: the export's
    control-flow clauses make that fence transient, and then forbid it."""
    ok, failures = script.check(witness_assignment(x, model, cfg, bits, script))
    assert ok != stops_at_a_fence(x), (model.name, cfg, x.choices, failures)


def test_accepted_corpus_candidates_satisfy_the_export_without_its_goal():
    accepted = 0
    for name, program, model, cfg, k, bits, _ in corpus_cases():
        xs = [x for x in enumerate_candidates(program, cfg, k, bits) if x.valuation is not None]
        for buffer in (1, 2, 3):
            c = replace(cfg, buffer=buffer)
            script = Script(_without_goal(emit_smt(program, model, c, k, bits, name)))
            for x in xs:
                if candidate_consistent(x, model, c)[0]:
                    check_accepted(script, x, model, c, bits)
                    accepted += 1
    assert accepted >= 1000, accepted


def test_inverse_inside_a_recursive_definition_matches_the_export():
    # `^-1` inside a recursion is translated pointwise with its pair swapped:
    # without its goal, the export is satisfied by every candidate the model
    # accepts and refuted by every one its assertion rejects, over the
    # corpus programs at their own bounds but the three slowest
    model = parse_cat("t = rf | (po;t^-1)^-1\nacyclic t | co\n", "inverse")
    cfg, done = SpecConfig(mode="traditional"), set()
    refuted = accepted = 0
    for name, program, _, _, k, bits, _ in corpus_cases():
        if name in ("stl-01", "stl-01-fence", "stl-03") or (name, k, bits) in done:
            continue
        done.add((name, k, bits))
        script = Script(_without_goal(emit_smt(program, model, cfg, k, bits, name)))
        for x in enumerate_candidates(program, cfg, k, bits):
            ok, reason = candidate_consistent(x, model, cfg)
            if ok:
                check_accepted(script, x, model, cfg, bits)
                accepted += 1
            elif reason.startswith("assertion "):
                ok, failures = script.check(witness_assignment(x, model, cfg, bits, script))
                assert not ok and failures[0][0] != "unbound", (name, reason, failures)
                refuted += 1
    assert (accepted, refuted) == (96, 22)


@pytest.mark.parametrize("seeds", [range(0, 30), range(30, 60)], ids=["0-29", "30-59"])
def test_generator_witnesses_and_model_rejections_match_the_export(seeds):
    # every unsafe witness satisfies the script; without its goal, every
    # candidate the model accepts satisfies it (see `check_accepted`) and
    # every candidate that only the model's assertions reject refutes it
    witnesses = refuted = accepted = 0
    for program, model, cfg in generator_queries(seeds):
        text = emit_smt(program, model, cfg, 1, 2, "g")
        verdict = check_isolation(program, model, cfg, 1, 2)
        if verdict.outcome == "unsafe":
            script = Script(text)
            ok, failures = script.check(
                witness_assignment(verdict.witness, model, cfg, 2, script))
            assert ok, (model.name, cfg.mode, failures)
            witnesses += 1
        script = Script(_without_goal(text))
        for x in enumerate_candidates(program, cfg, 1, 2):
            ok, reason = candidate_consistent(x, model, cfg)
            if ok:
                check_accepted(script, x, model, cfg, 2)
                accepted += 1
            if ok or not reason.startswith("assertion "):
                continue
            ok, failures = script.check(witness_assignment(x, model, cfg, 2, script))
            assert not ok and failures[0][0] != "unbound", (model.name, reason, failures)
            refuted += 1
    assert witnesses >= 10 and refuted >= 150 and accepted >= 2000, (witnesses, refuted, accepted)

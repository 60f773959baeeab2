"""The compiled cat model against the oracle's naive evaluator.

Every value-consistent candidate of seeded `tests/generator.py` programs is
checked by the compiled model (bound once per control vector) and by
`reference._naive_consistent` on the candidate's base relations; the
verdicts must agree.  The public `evaluate`/`check_assertions` path must give
the same verdict and the same first violated assertion.
"""

import random

import pytest

from axcat import (
    SpecConfig,
    corpus_dir,
    enumerate_candidates,
    load_model,
    parse_program,
)
from axcat.catlang import (
    BASE_RELATIONS,
    DATA_RELATIONS,
    CatError,
    _groups,
    _negative_refs,
    check_assertions,
    compile_model,
    evaluate,
    parse_cat,
)
from axcat.events import base_relations, data_rows, relation_of
from axcat.masm import expr_registers, stmt_target_reg
from axcat.smt import _Emitter
from generator import random_program_source
from reference import _naive_consistent

PROGRAMS = 600

# every operator and class, the `add` alias, a recursive group of three
# names, and all three assertion kinds
EVERY_OPERATOR = parse_cat(
    """\
com = co | rf | (rf^-1;co)
hb = ppo | rfe | (hb;hb)
ppo = (po & ((L * M) | (S * W))) | fence | addr | sync
sync = (hb;[W];po) & add
far = ([W];po)^{<=w'-1};[R] | (po;[M])^{<=w-2} | po^{<=1}
reach = ((com \\ [E])^+ & loc) | (far^-1)^*
irreflexive hb;com
acyclic com | far | (reach & po)
empty ((rf^-1;rf) \\ [E]) & addr
""",
    "every-operator",
)

MODELS = [load_model(name) for name in ("inorder", "stl", "psf", "tso", "tso-mcu")]
MODELS.append(EVERY_OPERATOR)


def candidates(seed):
    """(model, cfg, bound model, candidate) for every value-consistent
    candidate of the seed's program (k=1, two bits) in the blind
    enumeration, the model rotating with the seed."""
    rng = random.Random(seed)
    program = parse_program(random_program_source(rng))
    model = MODELS[seed % len(MODELS)]
    cfg = SpecConfig(
        mode=rng.choice(("traditional", "speculative")),
        window=rng.choice((2, 3, 8)),
        buffer=rng.choice((1, 2, 3)),
        psf="srf" in model.base_names(),
    )
    compiled = compile_model(model, cfg)
    structure = bound = None
    for x in enumerate_candidates(program, cfg, 1, 2):
        if x.valuation is None:
            continue
        if x.structure is not structure:
            structure = x.structure
            bound = compiled.bind(structure)
        yield model, cfg, bound, x


def test_compiled_verdicts_match_the_oracle():
    checked = {model.name: [0, 0] for model in MODELS}  # consistent, not
    violated_kinds = set()
    for seed in range(PROGRAMS):
        for model, cfg, bound, x in candidates(seed):
            base = base_relations(x)
            rels = {n: base[n].pairs for n in BASE_RELATIONS}
            sets = {n: base[n] for n in ("E", "M", "W", "R")}
            want = _naive_consistent(model, rels, sets, {"w": cfg.window, "w'": cfg.buffer})
            ok, violated = bound.check(x)
            assert ok == want, (seed, model.name, x.choices)
            assert check_assertions(model, evaluate(model, base, cfg), cfg) == (ok, violated)
            checked[model.name][0 if ok else 1] += 1
            if violated:
                violated_kinds.add((model.name, violated[0]))
    for name, (consistent, inconsistent) in checked.items():
        assert consistent >= 20 and inconsistent >= 20, (name, checked[name])
    assert {kind for name, kind in violated_kinds if name == "every-operator"} == {
        "irreflexive", "acyclic", "empty"
    }


def reference_data_relations(x):
    """The data relations as pair sets, straight from the definitions: each
    load reads its chosen source (init at its own address), split into srf
    and same-address rf under predictive store forwarding; rfe is rf from a
    store of another thread; co orders each address's committed stores
    after its init event as `co_order` does; loc joins memory events at one
    address."""
    events, init = x.events, x.structure.init_by_addr
    addr = [a for a, _ in x.valuation]
    chosen = {
        (init[addr[r]] if w == "init" else w, r) for r, w in x.rf_choice.items()
    }
    if x.psf:
        srf = chosen
        rf = {(w, r) for w, r in chosen if addr[w] == addr[r]}
    else:
        srf, rf = set(), chosen
    rfe = {
        (w, r)
        for w, r in rf
        if not events[w].is_init() and events[w].thread != events[r].thread
    }
    co = set()
    for location in {addr[sid] for sid in x.co_order}:
        chain = [init[location]] + [s for s in x.co_order if addr[s] == location]
        co |= {(a, b) for i, a in enumerate(chain) for b in chain[i + 1:]}
    memory = [e.id for e in events if e.kind in ("load", "store", "init", "secret-init")]
    loc = {(a, b) for a in memory for b in memory if addr[a] == addr[b]}
    return {"rf": rf, "srf": srf, "rfe": rfe, "co": co, "loc": loc}


STATIC_RELATIONS = ("po", "fence", "addr")


def reference_static_relations(program, events):
    """po, fence and addr over `events` (of the unrolled `program`) as pair
    sets, straight from the definitions: po orders the instruction events
    of one thread by label; fence holds the po pairs with a fence event
    strictly between them; addr holds the po pairs from a load to an access
    whose address reads the load's register, with no instruction of the
    thread's text in between that rewrites it."""
    instrs = [e for e in events if not e.is_init()]
    text = {(ins.thread, ins.label): ins.stmt for thread in program.threads for ins in thread}
    po = {(a, b) for a in instrs for b in instrs if a.thread == b.thread and a.label < b.label}
    fence = {
        (a.id, b.id)
        for a, b in po
        if any(f.kind == "fence" and (a, f) in po and (f, b) in po for f in instrs)
    }
    addr = {
        (a.id, b.id)
        for a, b in po
        if a.kind == "load"
        and b.kind in ("load", "store")
        and a.stmt.reg in expr_registers(b.stmt.addr)
        and not any(
            stmt_target_reg(text[a.thread, label]) == a.stmt.reg
            for label in range(a.label + 1, b.label)
        )
    }
    return {"po": {(a.id, b.id) for a, b in po}, "fence": fence, "addr": addr}


def test_candidate_rows_equal_base_relations():
    for seed in range(0, PROGRAMS, 5):
        for _model, _cfg, _bound, x in candidates(seed):
            want = reference_data_relations(x)
            rows = data_rows(x, DATA_RELATIONS)
            ids = range(len(x.events))
            assert {n: relation_of(rows[n], ids).pairs for n in rows} == want
            base = base_relations(x)
            assert {n: base[n].pairs for n in DATA_RELATIONS} == want
            static = {n: relation_of(getattr(x.structure, n), ids).pairs
                      for n in STATIC_RELATIONS}
            assert static == reference_static_relations(x.program, x.events)
            assert {n: base[n].pairs for n in STATIC_RELATIONS} == static


def test_export_supports_equal_static_relations():
    # over every instruction instance, as if all executed, the export's
    # po, fence and addr supports are the relations themselves
    programs = [parse_program(p.read_text()) for p in sorted(corpus_dir().glob("*.litmus"))]
    programs += [parse_program(random_program_source(random.Random(seed)))
                 for seed in range(0, PROGRAMS, 5)]
    fenced = addressed = 0
    for program in programs:
        for k in (1, 2):
            emitter = _Emitter(program, load_model("inorder"), SpecConfig(), k, 3, "p")
            ids = range(emitter.n)
            got = {n: relation_of(emitter.base(n)[1], ids).pairs for n in STATIC_RELATIONS}
            assert got == reference_static_relations(emitter.program, emitter.events)
            fenced += bool(got["fence"])
            addressed += bool(got["addr"])
    assert fenced >= 30 and addressed >= 30, (fenced, addressed)


def test_definitions_are_grouped_in_dependency_order():
    model = parse_cat("a = b | po\nc = c;a\nb = rf | (d;po)\nd = b & loc\n")
    assert _groups(model.definitions) == [("b", "d"), ("a",), ("c",)]


@pytest.mark.parametrize("name", ["inorder", "stl", "psf", "tso", "tso-mcu"])
def test_two_parses_of_a_model_share_one_compiled_model(name):
    first, second = load_model(name), load_model(name)
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert "_hash" in first.__dict__  # walked once, not on every check
    cfg = SpecConfig()
    assert compile_model(first, cfg) is compile_model(second, cfg)


def test_static_part_is_evaluated_once_per_skeleton():
    # stl's win and ppo read no data: the bound model holds them, and a
    # candidate's check builds only the relations the model reads
    stl = compile_model(load_model("stl"), SpecConfig(mode="traditional"))
    assert [name for _, group in stl.static for name, _ in group] == ["win", "ppo"]
    assert [name for _, group in stl.dynamic for name, _ in group] == ["com"]
    assert stl.data == {"rf", "co"}


def test_monotone_models_name_no_data_under_a_difference():
    assert _negative_refs(parse_cat("acyclic po \\ co\n").assertions[0][1]) == {"co"}
    for name in ("inorder", "stl", "psf", "tso", "tso-mcu"):
        assert compile_model(load_model(name), SpecConfig()).monotone, name
    for text, monotone in (
        ("acyclic po \\ co\n", False),
        ("c = rf^-1;co\nacyclic po \\ c\n", False),
        ("p = po \\ fence\nacyclic co | p\n", True),  # p reads no data
        ("acyclic po \\ (po \\ rf)\n", True),  # rf is under two differences
    ):
        assert compile_model(parse_cat(text), SpecConfig()).monotone == monotone, text


def test_compile_errors_match_evaluation_errors():
    model = parse_cat("a = po^{<=w-5}\n")
    with pytest.raises(CatError, match=">= 0"):
        compile_model(model, SpecConfig(window=2))
    with pytest.raises(CatError, match="no configuration"):
        compile_model(model, None)
    assert compile_model(model, SpecConfig(window=5)) is compile_model(
        model, SpecConfig(window=5)
    )

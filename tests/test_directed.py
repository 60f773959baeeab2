"""The directed reads-from search against the blind enumeration."""

import copy
import dataclasses
import itertools
import math
import random
from types import MappingProxyType

import pytest

from axcat import (
    Program,
    SpecConfig,
    base_relations,
    build_events,
    check_isolation,
    corpus_dir,
    emit_witness_dot,
    enumerate_candidates,
    load_model,
    parse_program,
    propagate_values,
    unroll,
)
from axcat import engine
from axcat.catlang import BoundModel, CompiledModel, compile_model, parse_cat
from axcat.engine import _pairs, _query, _skeletons, candidate_consistent, violating_load
from axcat.events import _UNSET, Evaluator, _walks, rf_rejection, secret_sentinel
from axcat.masm import eval_expr, expr_registers
from axcat.speculation import check_speculative_cf, check_traditional_cf, check_window
from generator import random_program_source
from reference import brute_force_isolation

# (model, mode, compare only candidates with every prediction correct);
# psf follows the model
ROTATION = (
    ("inorder", "traditional", False),
    ("stl", "speculative", False),
    ("inorder", "speculative", True),
    ("psf", "traditional", False),
    ("psf", "speculative", False),
    ("tso", "speculative", False),
)

_MODELS = {name: load_model(name) for name in ("inorder", "stl", "psf", "tso")}


def committed_stores(x):
    return [s for s in x.structure.stores if s in x.committed]


def with_order(x, order):
    y = copy.copy(x)
    y.co_order = order
    return y


def directed(program, cfg, k, bits):
    """The directed search's (rf, inputs) pairs crossed with every coherence
    order, in the blind order."""
    unrolled = unroll(program, k)
    query = _query(unrolled, bits)
    return [
        with_order(x, order)
        for skeleton in _skeletons(unrolled, cfg)
        for passing in _pairs(skeleton, query)
        for order in itertools.permutations(committed_stores(skeleton))
        for x in passing
    ]


def reads_secret(x):
    return x.valuation is not None and violating_load(x) is not None


def blind(program, cfg, k, bits):
    """The value-consistent blind candidates that read the secret and whose
    branch values agree with their outcomes."""
    return [
        x for x in enumerate_candidates(program, cfg, k, bits)
        if reads_secret(x) and (check_traditional_cf(x) if cfg.mode == "traditional"
                                else check_speculative_cf(x, cfg))
    ]


def predicted_correctly(x):
    return all(x.choices["cp"].values())


def signature(x):
    return (x.choices, x.valuation, x.rf, x.srf, x.co)


def projection(x, order):
    """The coherence order `order` of x's committed stores, per address."""
    address = {s: x.valuation[s][0] for s in committed_stores(x)}
    return {a: [s for s in order if address[s] == a] for a in address.values()}


def first_of_class(x):
    """Whether x's coherence order is the first permutation of its committed
    stores with its per-address projection."""
    want = projection(x, x.co_order)
    orders = itertools.permutations(committed_stores(x))
    return next(o for o in orders if projection(x, o) == want) == x.co_order


def blind_verdict(program, model, cfg, k, bits):
    """What the blind enumeration decides: the first value-consistent
    candidate that reads the secret, of skeletons within the window, that
    `candidate_consistent` accepts.  It is counted as the directed engine
    counts: the first order of each coherence class that the model decides,
    with a monotone model not where the pair has several classes and its
    floor (its committed stores unordered) fails."""
    monotone = compile_model(model, cfg).monotone
    generated = filtered = 0
    for x in enumerate_candidates(program, cfg, k, bits):
        if not reads_secret(x) or not check_window(x, cfg.window):
            continue
        ok, reason = candidate_consistent(x, model, cfg)
        if ok:
            # decided before the class filter: a witness that is not its
            # class's first order is one the engine never offers
            return "unsafe", x.choices, generated + 1, filtered
        if not first_of_class(x) or not reason.startswith("assertion"):
            continue  # decided at its class's first order, or by control flow or srf
        several = len(projection(x, ())) < len(committed_stores(x))
        if monotone and several and not candidate_consistent(with_order(x, ()), model, cfg)[0]:
            continue
        generated += 1
        filtered += 1
    outcome = "unknown" if unroll(program, k).unroll_incomplete else "safe"
    return outcome, None, generated, filtered


def verdict(program, model, cfg, k, bits):
    v = check_isolation(program, model, cfg, k, bits)
    choices = v.witness.choices if v.witness is not None else None
    return v.outcome, choices, v.generated, v.filtered


def with_probe(src):
    """The program plus a thread that reads the secret when in0 is 1.  Few
    random programs read the secret; with the probe, the search's rules
    still decide which of the other loads' sources it offers."""
    return src + f"thread {src.count('thread ')}:\n1: load r0, in0\n2: load r1, A + r0\n"


def blind_mismatches(seeds, probe=False):
    """Seeds whose directed candidates or verdict differ from the blind
    enumeration's secret-reading, value-consistent subsequence."""
    mismatches = []
    for seed in seeds:
        rng = random.Random(seed)
        src = random_program_source(rng)
        if probe:
            src = with_probe(src)
        program = parse_program(src)
        model_name, mode, correct_only = ROTATION[seed % len(ROTATION)]
        model = _MODELS[model_name]
        cfg = SpecConfig(
            mode=mode,
            window=rng.choice((2, 3, 8)),
            psf="srf" in model.base_names(),
        )
        k = 1 + seed % 2
        keep = predicted_correctly if correct_only else lambda x: True
        got = [signature(x) for x in filter(keep, directed(program, cfg, k, 2))]
        want = [signature(x) for x in filter(keep, blind(program, cfg, k, 2))]
        if got != want:
            mismatches.append((seed, "candidates", src))
        elif verdict(program, model, cfg, k, 2) != blind_verdict(program, model, cfg, k, 2):
            mismatches.append((seed, "verdict", src))
    return "\n".join(f"seed {s}: {what}\n{src}" for s, what, src in mismatches)


@pytest.mark.parametrize("base", range(0, 1200, 200))
def test_directed_search_is_the_value_consistent_blind_subsequence(base):
    """The directed candidates are the secret-reading, value-consistent
    blind subsequence, and decide the same verdict with the same counts."""
    mismatches = blind_mismatches(range(base, base + 200))
    assert not mismatches, mismatches


@pytest.mark.parametrize("base", range(0, 400, 200))
def test_directed_search_with_a_secret_probe(base):
    mismatches = blind_mismatches(range(base, base + 200), probe=True)
    assert not mismatches, mismatches


def fixed_addresses(skeleton):
    """Load or store id -> its register-free address at 3 bits, or None."""
    secret = skeleton.program.secret_addr
    return {e.id: None if expr_registers(e.stmt.addr) else eval_expr(e.stmt.addr, {}, secret, 7)
            for e in (*skeleton.loads(), *skeleton.stores())}


_EDGE_LAYOUT = "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"


@pytest.mark.parametrize(
    "body",
    [
        # a cycle through a conditional assignment's expression is no
        # must-dependency: with a zero guard the store writes the old r1
        "1: load r0, A\n2: r1 <-(0?) r0\n3: store A, r1\n",
        # a load reading init needs its own address, here fed by a later store
        "1: load r0, B\n2: load r1, A + r0\n3: store B, r1\n",
        # register-free addresses that differ, forwarded only under psf
        "1: store B, 1\n2: load r0, A\n3: store A, r0\n4: load r1, B\n",
        # ... and never across a fence
        "1: store B, 1\n2: fence\n3: load r0, A\n4: store A, r0\n5: load r1, B\n",
        # a transient store feeds only later transient loads of its thread
        "1: load r0, in0\n2: beqz r0, 5\n3: store B, 3\n4: load r1, B\n5: load r2, B\n",
        # an undeclared register-free address has no init source
        "1: load r0, 5\n2: load r1, in0 + 3\n3: store A, r1\n",
    ],
)
@pytest.mark.parametrize("mode", ["traditional", "speculative"])
@pytest.mark.parametrize("psf", [False, True])
def test_directed_search_edge_cases(body, mode, psf):
    program = parse_program(with_probe(_EDGE_LAYOUT + body))
    cfg = SpecConfig(mode=mode, psf=psf)
    got = [signature(x) for x in directed(program, cfg, 1, 3)]
    want = [signature(x) for x in blind(program, cfg, 1, 3)]
    assert got == want


def test_store_buffer_sources_come_from_po():
    """A store at another register-free address than the load's is offered
    only under predictive store forwarding, and only when it is `po`-before
    the load, earlier in the load's thread, with no fence in between.  A
    transient store is offered
    only to a transient load that it is `po`-before, at any psf setting: not
    to a committed load of another thread, nor to a transient load earlier
    in its thread."""
    program = unroll(parse_program(
        _EDGE_LAYOUT + "1: store B, 1\n2: load r0, A\n3: store B, 2\n"
        "thread 1:\n1: store B, 3\n"
    ), 1)
    fenced = unroll(parse_program(
        _EDGE_LAYOUT + "1: store B, 1\n2: fence\n3: load r0, A\n"
    ), 1)
    transient = unroll(parse_program(
        _EDGE_LAYOUT + "1: beqz r0, 5\n2: load r1, B\n3: store B, 3\n4: load r2, B\n"
        "5: skip\nthread 1:\n1: load r3, B\n"
    ), 1)
    for psf in (False, True):
        skeleton = next(_skeletons(program, SpecConfig(mode="traditional", psf=psf)))
        fixed = fixed_addresses(skeleton)
        (load,) = skeleton.structure.loads
        earlier = skeleton.structure.stores[0]
        offered = engine._sources(skeleton, load, fixed)
        assert offered == (["init", earlier] if psf else ["init"])

        skeleton = next(_skeletons(fenced, SpecConfig(mode="traditional", psf=psf)))
        fixed = fixed_addresses(skeleton)
        (load,) = skeleton.structure.loads
        assert engine._sources(skeleton, load, fixed) == ["init"]

        # taken but mispredicted: thread 0 runs labels 2-5 transiently
        skeleton = build_events(transient, {(0, 1): True}, {(0, 1): False}, psf=psf)
        fixed = fixed_addresses(skeleton)
        (store,) = skeleton.structure.stores
        before, after, other = skeleton.structure.loads
        assert store in skeleton.transient and other in skeleton.committed
        assert {before, after} <= skeleton.transient
        assert engine._sources(skeleton, before, fixed) == ["init"]
        assert engine._sources(skeleton, after, fixed) == ["init", store]
        assert engine._sources(skeleton, other, fixed) == ["init"]


def rf_vectors(src):
    """The skeleton structure of a branch-free program plus a thread that
    reads the secret, and the vectors that `_rf_vectors` yields on it when
    every load may read the secret.  The probe reads init, at the secret,
    in every vector, so no vector is dropped for want of a secret read; the
    one lane reads the secret in each."""
    program = parse_program(src + f"thread {src.count('thread ')}:\n1: load r9, secret\n")
    skeleton = build_events(program, {}, {})
    dataflow = Evaluator(skeleton, _query(program, 3).init_vals, 3)
    may_read = sum(1 << load for load in skeleton.structure.loads)
    got = list(engine._rf_vectors(skeleton, dataflow, may_read, 1))
    assert all(live & seen == 1 for _, _, live, seen in got)
    return skeleton.structure, [vector for vector, *_ in got]


def test_must_dependency_cycles_are_pruned():
    """A source whose wait set, closed over the loads chosen before, holds
    the load is never offered; every other source is."""
    # load buffering: each load would read the store of the other's value
    structure, got = rf_vectors(
        "layout x@0 y@1 p@2 secret@3\nthread 0:\n1: load r1, x\n2: store y, r1\n"
        "thread 1:\n1: load r2, y\n2: store x, r2\n"
    )
    sy, sx = structure.stores
    assert got == [
        ("init", "init", "init"),
        ("init", sy, "init"),  # ly waits for lx, which reads init
        (sx, "init", "init"),
    ]
    # a store of the load's own value, later in its thread
    structure, got = rf_vectors(
        "layout A@0 p@1 secret@2\nthread 0:\n1: load r1, A\n2: store A, r1\n"
    )
    assert got == [("init", "init")]
    # the store's value waits for the conditional assignment's guard only
    structure, got = rf_vectors(
        "layout A@0 p@1 secret@2\nthread 0:\n1: load r0, A\n2: r1 <-(0?) r0\n"
        "3: store A, r1\n"
    )
    (store,) = structure.stores
    assert got == [("init", "init"), (store, "init")]


def test_thread_vectors_need_no_recursion_per_branch():
    # each branch jumps to its own fall-through, so the first vector decides
    # all 1,200 of them
    n = 1200
    body = "".join(f"{label}: beqz r0, {label + 1}\n" for label in range(1, n + 1))
    program = unroll(parse_program(
        f"layout A[1]@0 secret@1\nthread 0:\n{body}{n + 1}: load r1, A\n"
    ), 1)
    vectors = engine._walks(program, 0, {}, {}, False)
    outcomes, _, committed, transient = next(vectors)
    assert outcomes == {(0, label): False for label in range(1, n + 1)}
    assert (committed, transient) == (list(range(1, n + 2)), [])


def test_thread_vectors_run_depth_first_in_the_blind_order():
    program = unroll(parse_program(
        "layout A[1]@0 secret@1\nthread 0:\n1: beqz r0, 3\n2: skip\n3: load r1, A\n"
    ), 1)
    order = [
        (outcomes[(0, 1)], cps[(0, 1)])
        for outcomes, cps, _, _ in engine._walks(program, 0, {}, {}, True)
    ]
    assert order == [(False, True), (False, False), (True, True), (True, False)]


def corpus_expectations():
    for path in sorted(corpus_dir().glob("*.litmus")):
        program = parse_program(path.read_text())
        for exp in program.expectations:
            yield pytest.param(program, exp, id=f"{path.stem}/{exp.model}/{exp.mode or 'speculative'}")


def corpus_settings(exp):
    """(model, cfg, k, bits) of a corpus expectation, with the CLI defaults."""
    over = dict(exp.overrides)
    model = load_model(exp.model)
    cfg = SpecConfig(
        mode=exp.mode or "speculative",
        window=over.get("w", 8),
        buffer=over.get("buffer", 2),
        psf="srf" in model.base_names(),
    )
    return model, cfg, over.get("k", 2), over.get("bits", 3)


@pytest.mark.parametrize("program,exp", corpus_expectations())
def test_corpus_witness_matches_blind_enumeration(program, exp):
    model, cfg, k, bits = corpus_settings(exp)
    got = verdict(program, model, cfg, k, bits)
    assert got == blind_verdict(program, model, cfg, k, bits)
    assert got[0] == exp.outcome
    if got[0] == "unsafe":
        v = check_isolation(program, model, cfg, k, bits)
        first = next(
            x
            for x in enumerate_candidates(program, cfg, k, bits)
            if x.choices == v.witness.choices
        )
        assert emit_witness_dot(v.witness) == emit_witness_dot(first)


def test_directed_candidates_share_their_skeleton():
    # few random programs read the secret with agreeing branches: 4000
    # seeds give about 1200 (rf, inputs) pairs
    shared = 0
    for seed in range(4000):
        rng = random.Random(seed)
        program = parse_program(random_program_source(rng))
        cfg = SpecConfig(mode=rng.choice(("traditional", "speculative")))
        unrolled = unroll(program, 1 + seed % 2)
        query = _query(unrolled, 2)
        for skeleton in _skeletons(unrolled, cfg):
            for x in (x for passing in _pairs(skeleton, query) for x in passing):
                assert x.structure is skeleton.structure
                assert x.events is skeleton.events
                shared += 1
    assert shared > 1000


def test_only_pairs_with_agreeing_branches_are_propagated(monkeypatch):
    """The search drops a pair whose branch values disagree with their
    outcomes before its lanes are valued: on the corpus in speculative
    mode, every candidate that `_pairs` yields has agreeing branches,
    evaluated afresh from its inputs."""
    agreement = []  # per branch of each yielded candidate: does it agree
    pairs = engine._pairs

    def record(skeleton, query):
        for passing in pairs(skeleton, query):
            for x in passing:
                values = Evaluator(x, {**query.init_vals, **x.inputs}, query.bits)
                agreement.extend((values.value(eid) == 0) == taken
                                 for eid, taken in x.structure.branches)
            yield passing

    monkeypatch.setattr(engine, "_pairs", record)
    for param in corpus_expectations():
        program, exp = param.values
        model, cfg, k, bits = corpus_settings(exp)
        if cfg.mode == "speculative":
            check_isolation(program, model, cfg, k, bits)
    assert agreement and all(agreement)


# One program per rule that `value_rejection` decides at the search's leaf,
# with the reason it gives there (inorder, traditional, k=1, bits=3).  The
# cycle runs through the conditional assignment's expression, which the
# search's must-wait sets do not follow.
LEAF_RULES = {
    "undeclared init load": ("""layout A[1]@0 secret@1 input in0@2
1: load r1, in0
2: load r2, A + r1
3: load r3, r1 + 6
""", "load e5 reads undeclared address 7"),
    "undeclared store": ("""layout A[1]@0 secret@1 input in0@2
1: load r1, in0
2: load r2, A + r1
3: store r1 + 6, r2
""", "store e5 hits undeclared address 7"),
    "unresolved value": ("""layout A[1]@0 secret@1 X@2 Y@3 input in0@4
thread 0:
1: load r0, X
2: r1 <-(1?) r0
3: store Y, r1
4: load r5, in0
5: load r6, A + r5
thread 1:
1: load r3, Y
2: store X, r3
""", "unresolved value at e5 (cyclic dataflow)"),
}


@pytest.mark.parametrize("name", sorted(LEAF_RULES))
def test_each_leaf_rule_drops_a_lane_as_the_blind_product_does(monkeypatch, name):
    """Each rule left to the leaf gives its reason there, for every pair of
    the search, and the pairs and the verdict are the blind enumeration's."""
    source, reason = LEAF_RULES[name]
    reasons = []
    rejection = engine.value_rejection
    monkeypatch.setattr(engine, "value_rejection",
                        lambda *args: reasons.append(rejection(*args)) or reasons[-1])
    program, model = parse_program(source), _MODELS["inorder"]
    cfg = SpecConfig(mode="traditional")
    assert verdict(program, model, cfg, 1, 3) == blind_verdict(program, model, cfg, 1, 3)
    assert ([signature(x) for x in directed(program, cfg, 1, 3)]
            == [signature(x) for x in blind(program, cfg, 1, 3)])
    assert reason in reasons


def test_corpus_witnesses_rebuild_to_the_same_base_relations():
    """A witness rebuilt from its choice vector gets a fresh skeleton that
    agrees with the one the engine shared."""
    unsafe = 0
    for param in corpus_expectations():
        program, exp = param.values
        model, cfg, k, bits = corpus_settings(exp)
        x = check_isolation(program, model, cfg, k, bits).witness
        if x is None:
            continue
        unsafe += 1
        y = build_events(
            unroll(program, k),
            x.choices["outcomes"],
            x.choices["cp"],
            speculative=cfg.mode == "speculative",
            psf=cfg.psf,
        )
        y.rf_choice = dict(x.choices["rf"])
        y.co_order = tuple(x.choices["co"])
        init_vals = {a: 0 for a in program.declared_addresses()}
        init_vals[program.secret_addr] = secret_sentinel(bits)
        propagate_values(y, {**init_vals, **x.choices["inputs"]}, bits)
        assert y.structure is not x.structure
        assert base_relations(y) == base_relations(x)
    assert unsafe == 7


def test_program_that_cannot_address_the_secret_offers_no_candidate(monkeypatch):
    """Every load address is register-free and not the secret's: no
    candidate is offered and no control vector binds the model."""
    program = parse_program(
        _EDGE_LAYOUT + "1: load r0, in0\n2: beqz r0, 4\n3: load r1, A\n4: load r2, B\n"
    )
    binds = []
    bind = CompiledModel.bind
    monkeypatch.setattr(
        CompiledModel, "bind", lambda self, s: binds.append(s) or bind(self, s)
    )
    for mode in ("traditional", "speculative"):
        v = check_isolation(program, _MODELS["inorder"], SpecConfig(mode=mode), 2, 3)
        assert (v.outcome, v.generated, v.filtered) == ("safe", 0, 0)
    assert binds == []


# two stores to B before a load of B that reaches the secret when it reads 0
_TWO_STORES = _EDGE_LAYOUT + (
    "1: store B, 1\n2: store B, 2\n3: load r0, B\n4: load r1, A + (r0 == 0)\n"
)


def test_generated_counts_the_classes_offered_before_the_witness():
    """Under inorder the load of B cannot read init after the stores: every
    secret-reading pair fails at its floor and offers none of its two
    orders.  stl lets the load pass the stores, and the first order of the
    first pair is the witness."""
    program = parse_program(_TWO_STORES)
    cfg = SpecConfig(mode="traditional")
    readers = sum(reads_secret(x) for x in enumerate_candidates(program, cfg, 1, 3))
    assert readers == 16  # 8 inputs x 2 coherence orders
    for model, want in (("inorder", ("safe", 0, 0)), ("stl", ("unsafe", 1, 0))):
        got = verdict(program, _MODELS[model], cfg, 1, 3)
        assert (got[0], got[2], got[3]) == want
        assert got == blind_verdict(program, _MODELS[model], cfg, 1, 3)


def test_a_model_with_co_under_a_difference_is_not_pruned_at_its_floor():
    """The model asks every same-address store pair in po to be in co.  The
    floor orders no two stores and fails; the first order passes."""
    model = parse_cat("empty (po & loc & (W * W)) \\ co\n", "co-po")
    program = parse_program(_TWO_STORES)
    cfg = SpecConfig(mode="traditional")
    assert not compile_model(model, cfg).monotone
    v = check_isolation(program, model, cfg, 1, 3)
    assert v.outcome == "unsafe"
    assert not candidate_consistent(with_order(v.witness, ()), model, cfg)[0]
    assert verdict(program, model, cfg, 1, 3) == blind_verdict(program, model, cfg, 1, 3)


@pytest.mark.parametrize("mode", ["traditional", "speculative"])
def test_a_failing_floor_fails_every_coherence_order(mode):
    """Under the bundled (monotone) models, every (rf, inputs) pair whose
    floor fails the model has every coherence order rejected."""
    failing = 0
    for seed in range(300):
        rng = random.Random(seed)
        program = unroll(parse_program(with_probe(random_program_source(rng))), 1 + seed % 2)
        model = _MODELS[ROTATION[seed % len(ROTATION)][0]]
        cfg = SpecConfig(mode=mode, psf="srf" in model.base_names())
        compiled = compile_model(model, cfg)
        assert compiled.monotone
        query = _query(program, 2)
        for skeleton in _skeletons(program, cfg):
            bound = compiled.bind(skeleton.structure)
            for x in (x for passing in _pairs(skeleton, query) for x in passing):
                if bound.check(x)[0]:
                    continue
                failing += len(projection(x, ())) < len(committed_stores(x))
                for order in itertools.permutations(committed_stores(x)):
                    y = with_order(x, order)
                    assert not bound.check(y)[0], y.choices
    assert failing > 10


def test_each_coherence_class_has_one_first_order(monkeypatch):
    """Under a model that rejects every candidate and is not monotone, so
    that no floor is checked, each (rf, inputs) pair is offered exactly the
    first order of each of its per-address classes, in the blind order."""
    model = parse_cat("empty po \\ co\n", "never")
    offered = {}  # (skeleton, rf, inputs) -> (a candidate, the orders offered)
    check = BoundModel.check

    def record(self, x):
        key = (id(x.structure), repr(x.rf_choice), repr(x.inputs))
        offered.setdefault(key, (x, []))[1].append(x.co_order)
        return check(self, x)

    monkeypatch.setattr(BoundModel, "check", record)
    # stores to B, A and B: two classes of three orders each
    mixed = _EDGE_LAYOUT + (
        "1: store B, 1\n2: store A, 2\n3: store B, 3\n4: load r0, B\n5: load r1, A + (r0 == 0)\n"
    )
    for mode in ("traditional", "speculative"):
        v = check_isolation(parse_program(mixed), model, SpecConfig(mode=mode), 1, 2)
        assert v.outcome == "safe"
    for seed in range(200):
        rng = random.Random(seed)
        program = parse_program(with_probe(random_program_source(rng)))
        cfg = SpecConfig(mode=rng.choice(("traditional", "speculative")))
        assert check_isolation(program, model, cfg, 1 + seed % 2, 2).outcome != "unsafe"
    shapes = set()
    for x, orders in offered.values():
        stores = committed_stores(x)
        firsts = [o for o in itertools.permutations(stores) if first_of_class(with_order(x, o))]
        assert orders == firsts, x.choices
        shapes.add((len(firsts), math.factorial(len(stores))))
    # pairs with one class, with every order a class, and with neither
    assert {n == 1 or n == total for n, total in shapes} == {True, False}


def test_control_vectors_that_reach_no_secret_reader_are_not_built(monkeypatch):
    """Only label 4 may read the secret, and only the vectors whose walk
    reaches it get a skeleton; the verdict and its counts are the blind
    enumeration's."""
    program = parse_program(
        "layout A[4]@0 secret@4 input idx@5\nthread 0:\n"
        "1: load r1, idx\n2: r2 <- r1 < 4\n3: beqz r2, 5\n4: load r3, A + r1\n5: skip\n"
    )
    built = []
    build = engine.build_events

    def counted(p, outcomes, cps, **kw):
        built.append((outcomes, cps))
        return build(p, outcomes, cps, **kw)

    monkeypatch.setattr(engine, "build_events", counted)
    site = (0, 3)
    for mode, reaching in (
        # not taken and predicted, or taken and mispredicted: the fall-through
        # runs label 4, committed or transient
        ("speculative", [({site: False}, {site: True}), ({site: True}, {site: False})]),
        ("traditional", [({site: False}, {site: True})]),
    ):
        cfg = SpecConfig(mode=mode)
        built.clear()
        got = verdict(program, _MODELS["inorder"], cfg, 2, 3)
        assert built == reaching
        outcome, _, generated, filtered = blind_verdict(program, _MODELS["inorder"], cfg, 2, 3)
        assert (got[0], got[2], got[3]) == (outcome, generated, filtered)


def window_mismatches(program, k):
    """Control vectors of the k-unrolled program, in either mode, whose
    skeleton's `check_window` disagrees, for some w in 1..8, with "every
    thread's transient walk is shorter than w"."""
    unrolled = unroll(program, k)
    for mode in ("traditional", "speculative"):
        speculative = mode == "speculative"
        for skeleton in _skeletons(unrolled, SpecConfig(mode=mode)):
            outcomes, cps = dict(skeleton.structure.outcomes), dict(skeleton.structure.predictions)
            x = build_events(unrolled, outcomes, cps, speculative=speculative)
            runs = [
                len(next(_walks(unrolled, tid, outcomes, cps, speculative))[3])
                for tid in range(len(unrolled.threads))
            ]
            for w in range(1, 9):
                if check_window(x, w) != all(run < w for run in runs):
                    yield mode, outcomes, cps, w


def test_window_is_decided_by_the_transient_walks():
    """A thread's transient events follow all its committed ones, so a
    skeleton fits the window exactly when every transient walk is shorter:
    the rule the directed search applies before it builds a skeleton."""
    for path in sorted(corpus_dir().glob("*.litmus")):
        assert not list(window_mismatches(parse_program(path.read_text()), 2)), path.stem
    for seed in range(300):
        src = random_program_source(random.Random(seed))
        assert not list(window_mismatches(parse_program(src), 1 + seed % 2)), src


def test_vectors_beyond_the_window_are_not_built(monkeypatch):
    """At w=2 most mispredictions of two unfenced gadgets run too long: no
    such skeleton is built, and the verdict and its counts are the blind
    enumeration's."""
    gadget = (
        "{0}: load r1, idx\n{1}: r2 <- r1 < 4\n{2}: beqz r2, {5}\n"
        "{3}: load r3, A + r1\n{4}: load r4, B + r3\n"
    )
    program = parse_program(
        "layout A[4]@0 secret@4 input idx@5 B[1]@6\nthread 0:\n"
        + gadget.format(*range(1, 7)) + gadget.format(*range(6, 12)) + "11: skip\n"
    )
    cfg = SpecConfig(mode="speculative", window=2)
    assert not all(check_window(x, cfg.window) for x in _skeletons(unroll(program, 2), cfg))
    built = []
    build = engine.build_events
    monkeypatch.setattr(
        engine, "build_events", lambda *a, **kw: built.append(build(*a, **kw)) or built[-1]
    )
    got = verdict(program, _MODELS["inorder"], cfg, 2, 3)
    assert built and all(check_window(x, cfg.window) for x in built)
    outcome, _, generated, filtered = blind_verdict(program, _MODELS["inorder"], cfg, 2, 3)
    assert (got[0], got[2], got[3]) == (outcome, generated, filtered)


# a program whose verdict or witness at 3 bits differs from the one at 4 in
# each mode: only an idx above 7, which needs 4 bits, reaches the load at
# label 4 without a misprediction
WIDTH_DEPENDENT = """layout A[4]@0 secret@4 input idx@5
thread 0:
1: load r1, idx
2: r2 <- 7 < r1
3: beqz r2, 5
4: load r3, r1 - 4
5: skip
expect safe model=inorder mode=traditional
"""


def test_kept_tables_do_not_depend_on_earlier_checks():
    """A program keeps its unroll, init events and thread tables, and an
    expression its register set, across checks.  Checking each parsed
    program's expectations under all four pairs of mode (speculative,
    traditional) and bits (3, 4), each expectation's four in turn and the
    expectations in file order, then the whole sequence in reverse, gives
    on every check what a freshly parsed program gives.  The programs are
    the corpus (every layout needs 3 bits; none of its verdicts depends on
    the width) and `WIDTH_DEPENDENT`."""
    texts = [path.read_text() for path in sorted(corpus_dir().glob("*.litmus"))]
    checks = []
    for text in [*texts, WIDTH_DEPENDENT]:
        program = parse_program(text)
        checks += [(text, program, exp, mode, bits) for exp in program.expectations
                   for mode, bits in itertools.product(("speculative", "traditional"), (3, 4))]
    for text, program, exp, mode, bits in checks + checks[::-1]:
        model, cfg, k, _ = corpus_settings(exp)
        cfg = dataclasses.replace(cfg, mode=mode)
        got = verdict(program, model, cfg, k, bits)
        assert got == verdict(parse_program(text), model, cfg, k, bits), (exp, cfg, bits)


def test_the_width_dependent_program_depends_on_the_width():
    exp = parse_program(WIDTH_DEPENDENT).expectations[0]
    model, cfg, k, _ = corpus_settings(exp)
    for mode in ("speculative", "traditional"):
        cfg = dataclasses.replace(cfg, mode=mode)
        program = parse_program(WIDTH_DEPENDENT)
        assert verdict(program, model, cfg, k, 3) != verdict(program, model, cfg, k, 4), mode


def branch_family(b, fence=True):
    """b copies of a bounds-check gadget in one thread, each branch jumping
    to the next copy, with a fence after the branch unless `fence` is off."""
    body = ("load r1, idx", "r2 <- r1 < 4", "beqz r2, {next}",
            *(("fence",) if fence else ()), "load r3, A + r1", "load r4, B + r3")
    n = len(body)
    copies = "".join(f"{n * i + j + 1}: {line.format(next=n * i + n + 1)}\n"
                     for i in range(b) for j, line in enumerate(body))
    return (f"layout A[4]@0 secret@4 input idx@5 B[1]@6\nthread 0:\n{copies}"
            f"{n * b + 1}: skip\n")


@pytest.mark.parametrize("fence", (True, False), ids=("fenced", "unfenced"))
@pytest.mark.parametrize("b", (1, 2, 3))
def test_branch_family_matches_the_blind_enumeration(b, fence):
    """A misprediction of one copy's branch runs into the next copy, whose
    branch the transient run meets: the verdict, its witness choices and
    counts are the blind enumeration's at every window, and where the
    reference finishes in time (one copy) its verdict too."""
    program, model = parse_program(branch_family(b, fence)), _MODELS["inorder"]
    for w in (2, 4, 8):
        cfg = SpecConfig(mode="speculative", window=w)
        got = verdict(program, model, cfg, 2, 3)
        assert got == blind_verdict(program, model, cfg, 2, 3), w
        if b == 1:
            assert got[0] == brute_force_isolation(unroll(program, 2), model, cfg.mode, w,
                                                   cfg.buffer, 3), w


def kept(obj) -> int:
    """The entries of the tables `obj` holds, counted through every
    container, record and kept program."""
    if isinstance(obj, Program):
        return kept(obj._derived)
    if isinstance(obj, (dict, MappingProxyType)):
        return len(obj) + sum(kept(key) + kept(value) for key, value in obj.items())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return len(obj) + sum(map(kept, obj))
    if dataclasses.is_dataclass(obj):
        return sum(kept(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def test_kept_tables_stay_bounded():
    """What a program keeps depends on it alone: after a check of the
    fenced branch family at b=6, checks under the other mode, at w=2 and
    with 4 bits neither add a table nor grow one, and a freshly parsed
    copy keeps as much after its first check under any of them."""
    source, model = branch_family(6), _MODELS["inorder"]

    def tables(program):
        return {key: kept(table) for key, table in program._derived.items()}

    program = parse_program(source)
    check_isolation(program, model, SpecConfig(mode="speculative", window=8), 2, 3)
    first = tables(program)
    assert set(first) == {("unroll", 2)} and first["unroll", 2] > 100
    for cfg, bits in ((SpecConfig(mode="traditional", window=8), 3),
                      (SpecConfig(mode="speculative", window=2), 3),
                      (SpecConfig(mode="speculative", window=8), 4)):
        assert check_isolation(program, model, cfg, 2, bits).outcome == "safe"
        assert tables(program) == first
        fresh = parse_program(source)
        check_isolation(fresh, model, cfg, 2, bits)
        assert tables(fresh) == first


# a bounds check of each of two indices, and a load of A at their sum:
# i = j = 1 passes the check and reads the secret
TWO_INDEX = """layout A[2]@0 secret@2 input i@3 input j@4 B[2]@5
thread 0:
1: load r1, i
2: load r2, j
3: r3 <- (r1 < A.size) & (r2 < A.size)
4: beqz r3, 7
5: load r4, A + (r1 + r2)
6: load r5, B + r4
7: skip
"""


def test_goal_tests_start_from_the_skeleton_template(monkeypatch):
    """Every reads-from vector that reaches the goal test brings the memo of
    its last prefix, grown from the skeleton's template one depth at a
    time, and the goal test continues from it.  Every cell of it holds, in
    every lane, what a fresh one-lane `Evaluator` over the lane's input
    vector gives; and its lanes that are live and read the secret are
    exactly those in which the fresh evaluation has a leaky load read init
    at the secret's address, every branch agree with its outcome and every
    load that reads a store pass `rf_rejection` at their addresses.  The
    corpus, and generator seeds 0-199 in both modes, alone and with the
    secret probe of `with_probe`, and the generator seeds among 200-399
    that have a guard that splits the lanes.  On the corpus, whose programs
    have at most one input and no conditional assignment, every goal test
    holds every value of the input as its lanes.  On three programs with
    two inputs, one of them with a guard that splits the lanes, every goal
    test holds the 64 input vectors of 3 bits as its lanes, the first input
    major."""
    reached = []  # per goal test: skeleton, vector, memo, live, seen
    rf_vectors = engine._rf_vectors

    def recording(skeleton, dataflow, may_read, full):
        for item in rf_vectors(skeleton, dataflow, may_read, full):
            reached.append((skeleton, *item))
            yield item

    def compare(program, cfg, k, bits):
        inputs = sorted(program.input_locations)
        unrolled = unroll(program, k)
        query = _query(unrolled, bits)
        secret, init = program.secret_addr, query.init_vals
        tested = 0
        inputs_cells = []  # per goal test, its input cells
        reached.clear()
        for skeleton in _skeletons(unrolled, cfg):
            for _ in _pairs(skeleton, query):
                pass
        for skeleton, vector, memo, live, seen in reached:
            x = copy.copy(skeleton)
            x.rf_choice = dict(zip(skeleton.structure.loads, vector))
            cells = [memo[2 * skeleton.structure.init_by_addr[a] + 1] for a in inputs]
            width = max((len(c) for c in cells if type(c) is tuple), default=1)
            inputs_cells += cells
            for lane in range(width):
                vector_in = [c[lane] if type(c) is tuple else c for c in cells]
                fresh = Evaluator(x, {**init, **dict(zip(inputs, vector_in))}, bits)
                for node, cell in enumerate(memo):
                    if cell is not _UNSET:
                        got = cell[lane] if type(cell) is tuple else cell
                        want = (fresh.value if node & 1 else fresh.address)(node >> 1)
                        assert got == want, (program, vector, lane, node)
                events = skeleton.events
                reads = any(
                    x.rf_choice[load] == "init" and fresh.address(load) == secret
                    and events[load].label in query.leaky[events[load].thread]
                    for load in skeleton.structure.loads)
                agree = all((fresh.value(e) == 0) == taken
                            for e, taken in skeleton.structure.branches)
                allowed = all(
                    source == "init" or rf_rejection(
                        x, source, load, fresh.address(source), fresh.address(load)) is None
                    for load, source in x.rf_choice.items())
                assert bool((live & seen) >> lane & 1) == (reads and agree and allowed)
                tested += 1
        return tested, inputs_cells

    monkeypatch.setattr(engine, "_rf_vectors", recording)
    corpus_lanes = 0
    for param in corpus_expectations():
        program, exp = param.values
        _, cfg, k, bits = corpus_settings(exp)
        tested, cells = compare(program, cfg, k, bits)
        assert len(program.input_locations) <= 1
        assert all(c == tuple(range(1 << bits)) for c in cells)
        corpus_lanes += tested
    assert corpus_lanes > 100
    tested = 0
    for seed in range(200):
        source = random_program_source(random.Random(seed))
        for program in (parse_program(source), parse_program(with_probe(source))):
            for mode in ("traditional", "speculative"):
                cfg = SpecConfig(mode=mode, psf=seed % 2 == 1)
                tested += compare(program, cfg, 1 + seed // 2 % 2, 2)[0]
    assert tested > 3000, tested
    from test_lanes import SPLIT, TWO_INPUTS, recording  # test_lanes imports this module
    alone = recording(monkeypatch)
    for seed in (226, 249, 257, 324):  # the first seeds whose probed program splits a guard
        program = parse_program(with_probe(random_program_source(random.Random(seed))))
        alone.clear()
        for mode in ("traditional", "speculative"):
            compare(program, SpecConfig(mode=mode, psf=seed % 2 == 1), 1, 2)
        assert alone, seed
    vectors = list(itertools.product(range(8), repeat=2))
    product = [tuple(x for x, _ in vectors), tuple(y for _, y in vectors)]
    for source in (TWO_INPUTS, SPLIT["non-last"][0], TWO_INDEX):
        for mode in ("traditional", "speculative"):
            lanes, cells = compare(parse_program(source), SpecConfig(mode=mode), 1, 3)
            assert lanes >= 64, (source, mode)
            assert cells and cells == product * (len(cells) // 2), (source, mode)

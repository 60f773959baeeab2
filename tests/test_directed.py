"""The directed reads-from search against the blind enumeration."""

import copy
import itertools
import math
import random

import pytest

from axcat import (
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
from axcat.engine import _pairs, _skeletons, candidate_consistent, violating_load
from axcat.events import Evaluator, _walk_thread, secret_sentinel
from axcat.speculation import check_speculative_cf, check_traditional_cf, check_window
from generator import random_program_source

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
    return [
        with_order(x, order)
        for skeleton in _skeletons(unroll(program, k), cfg)
        for passing in _pairs(skeleton, bits)
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
        fixed = {
            e.id: engine._fixed_address(e.stmt, program.secret_addr, 7)
            for e in (*skeleton.loads(), *skeleton.stores())
        }
        (load,) = skeleton.structure.loads
        earlier = skeleton.structure.stores[0]
        offered = engine._sources(skeleton, load, fixed)
        assert offered == (["init", earlier] if psf else ["init"])

        skeleton = next(_skeletons(fenced, SpecConfig(mode="traditional", psf=psf)))
        fixed = {
            e.id: engine._fixed_address(e.stmt, fenced.secret_addr, 7)
            for e in (*skeleton.loads(), *skeleton.stores())
        }
        (load,) = skeleton.structure.loads
        assert engine._sources(skeleton, load, fixed) == ["init"]

        # taken but mispredicted: thread 0 runs labels 2-5 transiently
        skeleton = build_events(transient, {(0, 1): True}, {(0, 1): False}, psf=psf)
        fixed = {
            e.id: engine._fixed_address(e.stmt, transient.secret_addr, 7)
            for e in (*skeleton.loads(), *skeleton.stores())
        }
        (store,) = skeleton.structure.stores
        before, after, other = skeleton.structure.loads
        assert store in skeleton.transient and other in skeleton.committed
        assert {before, after} <= skeleton.transient
        assert engine._sources(skeleton, before, fixed) == ["init"]
        assert engine._sources(skeleton, after, fixed) == ["init", store]
        assert engine._sources(skeleton, other, fixed) == ["init"]


def rf_vectors(src):
    """The skeleton structure of a branch-free program plus a thread that
    reads `p`, and the (vector, hit) pairs that `_rf_vectors` yields on it
    when every load may read the secret.  The probe reads init in every vector, so no
    vector is dropped for want of a load that reads it."""
    program = parse_program(src + f"thread {src.count('thread ')}:\n1: load r9, p\n")
    skeleton = build_events(program, {}, {})
    fixed = {
        e.id: engine._fixed_address(e.stmt, program.secret_addr, 7)
        for e in (*skeleton.loads(), *skeleton.stores())
    }
    may_read = sum(1 << load for load in skeleton.structure.loads)
    return skeleton.structure, list(engine._rf_vectors(skeleton, fixed, may_read))


def test_must_dependency_cycles_are_pruned():
    """A source whose wait set, closed over the loads chosen before, holds
    the load is never offered; every other source is, and `hit` holds the
    loads that read init."""
    # load buffering: each load would read the store of the other's value
    structure, got = rf_vectors(
        "layout x@0 y@1 p@2 secret@3\nthread 0:\n1: load r1, x\n2: store y, r1\n"
        "thread 1:\n1: load r2, y\n2: store x, r2\n"
    )
    lx, ly, probe = structure.loads
    sy, sx = structure.stores
    assert got == [
        (("init", "init", "init"), 1 << lx | 1 << ly | 1 << probe),
        (("init", sy, "init"), 1 << lx | 1 << probe),  # ly waits for lx, which reads init
        ((sx, "init", "init"), 1 << ly | 1 << probe),
    ]
    # a store of the load's own value, later in its thread
    structure, got = rf_vectors(
        "layout A@0 p@1 secret@2\nthread 0:\n1: load r1, A\n2: store A, r1\n"
    )
    load, probe = structure.loads
    assert got == [(("init", "init"), 1 << load | 1 << probe)]
    # the store's value waits for the conditional assignment's guard only
    structure, got = rf_vectors(
        "layout A@0 p@1 secret@2\nthread 0:\n1: load r0, A\n2: r1 <-(0?) r0\n"
        "3: store A, r1\n"
    )
    load, probe = structure.loads
    (store,) = structure.stores
    assert got == [
        (("init", "init"), 1 << load | 1 << probe),
        ((store, "init"), 1 << probe),
    ]


def test_thread_vectors_need_no_recursion_per_branch():
    # each branch jumps to its own fall-through, so the first vector decides
    # all 1,200 of them
    n = 1200
    body = "".join(f"{label}: beqz r0, {label + 1}\n" for label in range(1, n + 1))
    program = unroll(parse_program(
        f"layout A[1]@0 secret@1\nthread 0:\n{body}{n + 1}: load r1, A\n"
    ), 1)
    vectors = engine._thread_vectors(program, 0, SpecConfig(mode="traditional"))
    outcomes, _, committed, transient = next(vectors)
    assert outcomes == {(0, label): False for label in range(1, n + 1)}
    assert (committed, transient) == (list(range(1, n + 2)), [])


def test_thread_vectors_run_depth_first_in_the_blind_order():
    program = unroll(parse_program(
        "layout A[1]@0 secret@1\nthread 0:\n1: beqz r0, 3\n2: skip\n3: load r1, A\n"
    ), 1)
    order = [
        (outcomes[(0, 1)], cps[(0, 1)])
        for outcomes, cps, _, _ in engine._thread_vectors(program, 0, SpecConfig())
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
        for skeleton in _skeletons(unroll(program, 1 + seed % 2), cfg):
            for x in (x for passing in _pairs(skeleton, 2) for x in passing):
                assert x.structure is skeleton.structure
                assert x.events is skeleton.events
                shared += 1
    assert shared > 1000


def test_only_pairs_with_agreeing_branches_are_propagated(monkeypatch):
    """The goal test drops a pair whose branch values disagree with their
    outcomes before value propagation: on the corpus in speculative mode,
    every candidate that `_pairs` propagates has agreeing branches."""
    agreement = []  # per branch of each propagated candidate: does it agree

    def record(x, init_vals, bits, **kwargs):
        values = Evaluator(x, init_vals, bits)
        agreement.extend((values.value(eid) == 0) == taken for eid, taken in x.structure.branches)
        return propagate_values(x, init_vals, bits, **kwargs)

    monkeypatch.setattr(engine, "propagate_values", record)
    for param in corpus_expectations():
        program, exp = param.values
        model, cfg, k, bits = corpus_settings(exp)
        if cfg.mode == "speculative":
            check_isolation(program, model, cfg, k, bits)
    assert agreement and all(agreement)


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
        for skeleton in _skeletons(program, cfg):
            bound = compiled.bind(skeleton.structure)
            for x in (x for passing in _pairs(skeleton, 2) for x in passing):
                if bound.check(x)[0]:
                    continue
                failing += len(projection(x, ())) < len(committed_stores(x))
                for order in itertools.permutations(committed_stores(x)):
                    y = with_order(x, order)
                    assert not candidate_consistent(y, model, cfg, bound)[0], y.choices
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
        for outcomes, cps in engine._control_vectors(unrolled, SpecConfig(mode=mode)):
            x = build_events(unrolled, outcomes, cps, speculative=speculative)
            runs = [
                len(_walk_thread(unrolled, tid, outcomes, cps, speculative)[1])
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


def test_kept_tables_do_not_depend_on_earlier_checks():
    """A program keeps its unroll and init events, and an expression its
    register set, across checks.  Checking each parsed corpus program's
    expectations in file order, then in reverse, with 3 and 4 bits
    interleaved (so each runs under both; every corpus layout needs 3),
    gives on every check what a freshly parsed program gives."""
    checks = []
    for path in sorted(corpus_dir().glob("*.litmus")):
        text = path.read_text()
        program = parse_program(text)
        checks += [(text, program, exp) for exp in program.expectations]
    for i, (text, program, exp) in enumerate(checks + checks[::-1]):
        model, cfg, k, _ = corpus_settings(exp)
        bits = 3 + i % 2
        got = verdict(program, model, cfg, k, bits)
        assert got == verdict(parse_program(text), model, cfg, k, bits), (exp, bits)


def test_goal_tests_start_from_the_skeleton_template(monkeypatch):
    """Every goal test's `Evaluator`, started from a copy of its skeleton's
    memo template, gives the address and the value of every event that a
    fresh one over the pair's init values gives: the corpus, and generator
    seeds 0-199 in both modes."""
    started = []  # (rf choice, evaluator) per goal test, in `_pairs`' order

    class Recording(Evaluator):
        def __init__(self, x, init_vals, bits, memo=None):
            super().__init__(x, init_vals, bits, memo)
            if memo is not None:
                started.append((x.rf_choice, self))

    def compare(program, cfg, k, bits):
        inputs = sorted(program.input_locations)
        vectors = list(itertools.product(range(1 << bits), repeat=len(inputs)))
        init = {a: 0 for a in program.declared_addresses()}
        init[program.secret_addr] = secret_sentinel(bits)
        tested = 0
        for skeleton in _skeletons(unroll(program, k), cfg):
            started.clear()
            for _ in _pairs(skeleton, bits):
                pass
            assert len(started) % len(vectors) == 0  # every input, per rf vector
            for i, (rf_choice, dataflow) in enumerate(started):
                assert rf_choice is started[i - i % len(vectors)][0]
                x = copy.copy(skeleton)
                x.rf_choice = rf_choice
                inputs_at = dict(zip(inputs, vectors[i % len(vectors)]))
                fresh = Evaluator(x, {**init, **inputs_at}, bits)
                ids = range(len(x.events))
                assert ([(dataflow.address(e), dataflow.value(e)) for e in ids]
                        == [(fresh.address(e), fresh.value(e)) for e in ids])
            tested += len(started)
        return tested

    monkeypatch.setattr(engine, "Evaluator", Recording)
    tested = 0
    for param in corpus_expectations():
        program, exp = param.values
        _, cfg, k, bits = corpus_settings(exp)
        tested += compare(program, cfg, k, bits)
    for seed in range(200):
        program = parse_program(random_program_source(random.Random(seed)))
        for mode in ("traditional", "speculative"):
            cfg = SpecConfig(mode=mode, psf=seed % 2 == 1)
            tested += compare(program, cfg, 1 + seed // 2 % 2, 2)
    assert tested > 1000

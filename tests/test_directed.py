"""The directed reads-from search against the blind enumeration."""

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
from axcat.catlang import CompiledModel
from axcat.engine import _search, _skeletons, candidate_consistent, violating_load
from axcat.events import _walk_thread, secret_sentinel
from axcat.speculation import check_window
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


def directed(program, cfg, k, bits):
    return [
        x for skeleton in _skeletons(unroll(program, k), cfg) for x in _search(skeleton, bits)
    ]


def reads_secret(x):
    return x.valuation is not None and violating_load(x) is not None


def blind(program, cfg, k, bits):
    """The value-consistent blind candidates that read the secret."""
    return [x for x in enumerate_candidates(program, cfg, k, bits) if reads_secret(x)]


def predicted_correctly(x):
    return all(x.choices["cp"].values())


def signature(x):
    return (x.choices, x.valuation, x.rf, x.srf, x.co)


def blind_verdict(program, model, cfg, k, bits):
    """What the blind enumeration decides, counted as the directed engine
    counts: value-consistent candidates that read the secret, of skeletons
    within the window."""
    generated = filtered = 0
    for x in enumerate_candidates(program, cfg, k, bits):
        if not reads_secret(x) or not check_window(x, cfg.window):
            continue
        generated += 1
        ok, _ = candidate_consistent(x, model, cfg)
        if not ok:
            filtered += 1
        else:
            return "unsafe", x.choices, generated, filtered
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
    the load: earlier in the load's thread.  A transient store is offered
    only to a transient load that it is `po`-before, at any psf setting: not
    to a committed load of another thread, nor to a transient load earlier
    in its thread."""
    program = unroll(parse_program(
        _EDGE_LAYOUT + "1: store B, 1\n2: load r0, A\n3: store B, 2\n"
        "thread 1:\n1: store B, 3\n"
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
    # few random programs read the secret: 3000 seeds give about 1200
    # candidates
    shared = 0
    for seed in range(3000):
        rng = random.Random(seed)
        program = parse_program(random_program_source(rng))
        cfg = SpecConfig(mode=rng.choice(("traditional", "speculative")))
        for skeleton in _skeletons(unroll(program, 1 + seed % 2), cfg):
            for x in _search(skeleton, 2):
                assert x.structure is skeleton.structure
                assert x.events is skeleton.events
                shared += 1
    assert shared > 1000


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


def test_generated_counts_the_secret_readers_before_the_witness():
    program = parse_program((corpus_dir() / "stl-01.litmus").read_text())
    model = _MODELS["stl"]
    cfg = SpecConfig(mode="traditional", buffer=2)
    v = check_isolation(program, model, cfg, 2, 3)
    assert v.outcome == "unsafe"
    before = 0
    for x in enumerate_candidates(program, cfg, 2, 3):
        if x.choices == v.witness.choices:
            break
        before += reads_secret(x) and check_window(x, cfg.window)
    assert v.generated == before + 1


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

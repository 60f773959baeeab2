"""Every skeleton the builder makes, against the definitions of its tables.

The definitions are restated here from the events and the program text
alone: `po` orders each thread's events, `fence` joins two events with a
fence event between them, `addr` is the textual scan (a load feeds the
address of every later executed load or store that reads its register, up
to and including the first instruction that rewrites it), `writers` gives
each event the last earlier writer of every register in its thread, and
an event is transient when an earlier branch of its thread was
mispredicted.  The static value sets must hold the addresses and values of
every value-consistent blind candidate.
"""

import random

import pytest

from axcat import (
    SpecConfig,
    build_events,
    corpus_dir,
    enumerate_candidates,
    parse_program,
    unroll,
)
from axcat.engine import _skeletons
from axcat.events import (
    MEMORY_KINDS,
    WRITE_KINDS,
    _walks,
    relation_of,
    static_skeleton,
    value_sets,
)
from axcat.masm import expr_registers, stmt_target_reg
from generator import random_program_source
from test_directed import corpus_settings


def address_dependencies(program, events, threads):
    pairs = set()
    for tid, ids in enumerate(threads):
        at = {events[i].label: i for i in ids}
        text = program.threads[tid]
        for pos, ins in enumerate(text):
            load = at.get(ins.label)
            if load is None or events[load].kind != "load":
                continue
            for nxt in text[pos + 1:]:
                b = at.get(nxt.label)
                if (b is not None and events[b].kind in ("load", "store")
                        and ins.stmt.reg in expr_registers(nxt.stmt.addr)):
                    pairs.add((load, b))
                if stmt_target_reg(nxt.stmt) == ins.stmt.reg:
                    break
    return pairs


def mismatches(program, events, s, committed=None):
    """The names of the skeleton tables of `events` that differ from their
    definitions; `committed`, when given, is the candidate's."""
    n = len(events)
    threads = tuple(
        tuple(e.id for e in events if not e.is_init() and e.thread == tid)
        for tid in range(len(program.threads))
    )
    po = {(a, b) for ids in threads for i, a in enumerate(ids) for b in ids[i + 1:]}
    fences = {e.id for e in events if e.kind == "fence"}
    writers = []
    for e in events:
        earlier = () if e.is_init() else threads[e.thread][:threads[e.thread].index(e.id)]
        writers.append({stmt_target_reg(events[w].stmt): w for w in earlier
                        if stmt_target_reg(events[w].stmt) is not None})
    sets = {
        "E": set(range(n)),
        "M": {e.id for e in events if e.kind in MEMORY_KINDS},
        "W": {e.id for e in events if e.kind in WRITE_KINDS},
        "R": {e.id for e in events if e.kind == "load"},
    }
    want = {
        "threads": threads,
        "po": po,
        "fence": {(a, b) for a, f in po if f in fences for b in range(n) if (f, b) in po},
        "addr": address_dependencies(program, events, threads),
        "writers": tuple(writers),
        "sets": sets,
        "loads": tuple(e.id for e in events if e.kind == "load"),
        "stores": tuple(e.id for e in events if e.kind == "store"),
        "instructions": tuple(e.id for e in events if not e.is_init()),
        "init_by_addr": {e.addr: e.id for e in events if e.is_init()},
        "branches": tuple(
            (e.id, s.outcomes[(e.thread, e.label)])
            for ids in threads for e in (events[i] for i in ids[:-1])
            if e.kind == "cond-jump" and e.stmt.target != e.label + 1
        ) if s.outcomes else (),
    }
    got = {
        "threads": s.threads,
        "po": relation_of(s.po, range(n)).pairs,
        "fence": relation_of(s.fence, range(n)).pairs,
        "addr": relation_of(s.addr, range(n)).pairs,
        "writers": s.writers,
        "sets": {name: set(members) for name, members in s.sets.items()},
        "loads": s.loads,
        "stores": s.stores,
        "instructions": s.instructions,
        "init_by_addr": dict(s.init_by_addr),
        "branches": s.branches,
    }
    if committed is not None:
        mispredicted = {e.id for e in events if e.kind == "cond-jump"
                        and s.predictions.get((e.thread, e.label)) is False}
        want["committed"] = set(range(n)) - {b for a, b in po if a in mispredicted}
        got["committed"] = set(committed)
    return sorted(name for name in want if got[name] != want[name])


def check_vectors(program, mode):
    """Every control vector's skeleton, built from the engine's walks,
    against the definitions, and against the public builder that walks
    itself; returns the number checked."""
    cfg = SpecConfig(mode=mode)
    speculative = mode == "speculative"
    built = 0
    for x in _skeletons(program, cfg):
        s = x.structure
        assert not mismatches(program, x.events, s, x.committed), (
            mismatches(program, x.events, s, x.committed), s.outcomes, s.predictions)
        assert x.transient == frozenset(range(len(x.events))) - x.committed
        for tid, ids in enumerate(s.threads):
            *_, committed, transient = next(_walks(program, tid, s.outcomes, s.predictions,
                                                   speculative))
            assert [x.events[i].label for i in ids] == committed + transient
        y = build_events(program, dict(s.outcomes), dict(s.predictions), speculative)
        assert (y.events, y.structure, y.committed) == (x.events, s, x.committed)
        built += 1
    return built


def corpus_programs():
    for path in sorted(corpus_dir().glob("*.litmus")):
        yield path.stem, unroll(parse_program(path.read_text()), 2)


def test_corpus_skeletons_match_the_definitions():
    built = 0
    for _, program in corpus_programs():
        for mode in ("traditional", "speculative"):
            built += check_vectors(program, mode)
    assert built > 60


def test_generator_skeletons_match_the_definitions():
    built = 0
    for seed in range(300):
        program = parse_program(random_program_source(random.Random(seed)))
        for k in (1, 2):
            for mode in ("traditional", "speculative"):
                built += check_vectors(unroll(program, k), mode)
    assert built > 2000


def test_static_skeletons_match_the_definitions():
    for name, program in corpus_programs():
        events, s = static_skeleton(program)
        assert [e.label for e in events if not e.is_init()] == [
            ins.label for instrs in program.threads for ins in instrs
        ], name
        assert not mismatches(program, events, s), (name, mismatches(program, events, s))
        assert s.branches == () and not s.outcomes and not s.predictions


def check_value_sets(program, cfg, k, bits):
    """Every value-consistent blind candidate's load and store addresses,
    and its load, store and assignment values, against the static value
    sets of the k-unrolled program; returns the number checked."""
    unrolled = unroll(program, k)
    events, s = static_skeleton(unrolled)
    addrs, vals = value_sets(unrolled, events, s, bits)
    static = {(e.thread, e.label): e.id for e in events if not e.is_init()}
    checked = 0
    for x in enumerate_candidates(program, cfg, k, bits):
        if x.valuation is None:
            continue
        for e in x.instruction_events():
            i, (addr, val) = static[e.thread, e.label], x.valuation[e.id]
            if e.kind in ("load", "store"):
                assert addrs[i] >> addr & 1, (e, addr, bin(addrs[i]), x.choices)
            if e.kind in ("load", "store", "local", "cond-local"):
                assert vals[i] >> val & 1, (e, val, bin(vals[i]), x.choices)
        checked += 1
    return checked


def test_corpus_value_sets_hold_every_candidate():
    checked = 0
    for path in sorted(corpus_dir().glob("*.litmus")):
        program = parse_program(path.read_text())
        for exp in program.expectations:
            _, cfg, k, bits = corpus_settings(exp)
            checked += check_value_sets(program, cfg, k, bits)
    assert checked > 700, checked


@pytest.mark.parametrize("psf", [False, True], ids=["rf", "psf"])
def test_generator_value_sets_hold_every_candidate(psf):
    checked = 0
    for seed in range(300):
        program = parse_program(random_program_source(random.Random(seed)))
        for mode in ("traditional", "speculative"):
            checked += check_value_sets(program, SpecConfig(mode=mode, psf=psf), 1, 2)
    assert checked > 6000, checked

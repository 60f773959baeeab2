import random

import pytest

from axcat.engine import _skeletons, enumerate_candidates
from axcat.events import build_events, propagate_values, secret_sentinel
from axcat.masm import parse_program, unroll
from axcat.speculation import (
    SpecConfig,
    check_fences,
    check_speculative_cf,
    check_traditional_cf,
    check_window,
)
from generator import random_program_source
from reference import _cf_ok

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

FIG2_FENCE = """\
layout A[4]@0 secret@4 input idx@5 B[2]@6
thread 0:
1: load r1, idx
2: r2 <- r1 < A.size
3: beqz r2, 8
4: fence
5: load r3, A + r1
6: load r4, B + r3
7: r6 <- r6 & r4
8: skip
"""


def candidate(src, outcomes, cps, idx, speculative=True):
    p = unroll(parse_program(src), 2)
    x = build_events(p, outcomes, cps, speculative=speculative)
    x.rf_choice = {e.id: "init" for e in x.loads()}
    x.co_order = tuple(s.id for s in x.stores() if s.id in x.committed)
    vals = {a: 0 for a in p.declared_addresses()}
    vals[p.secret_addr] = secret_sentinel(3)
    vals[5] = idx
    propagate_values(x, vals, 3)
    return x


def predicted_correctly(x):
    return all(x.choices["cp"].values())


def force_partition(x, committed_labels, transient_labels):
    """Rewrite the partition, bypassing the builder (checker-level tests)."""
    com, tr = set(), set()
    for e in x.events:
        if e.is_init():
            com.add(e.id)
        elif e.label in transient_labels:
            tr.add(e.id)
        elif e.label in committed_labels:
            com.add(e.id)
    x.committed, x.transient = frozenset(com), frozenset(tr)
    return x


def test_traditional_accepts_fallthrough_path():
    x = candidate(FIG2, {(0, 3): False}, {}, idx=1, speculative=False)
    assert check_traditional_cf(x)


def test_traditional_accepts_taken_path():
    x = candidate(FIG2, {(0, 3): True}, {}, idx=5, speculative=False)
    assert [e.label for e in x.instruction_events()] == [1, 2, 3, 7]
    assert check_traditional_cf(x)


def test_traditional_rejects_contradicted_branch():
    # full path but the branch value says "taken"
    x = candidate(FIG2, {(0, 3): False}, {}, idx=5, speculative=False)
    assert [e.label for e in x.instruction_events()] == [1, 2, 3, 4, 5, 6, 7]
    assert not check_traditional_cf(x)


def test_traditional_rejects_any_transient():
    x = candidate(FIG2, {(0, 3): True}, {(0, 3): False}, idx=5)
    assert x.transient
    assert not check_traditional_cf(x)


def test_speculative_accepts_eq5_partition():
    x = candidate(FIG2, {(0, 3): True}, {(0, 3): False}, idx=5)
    assert check_speculative_cf(x, SpecConfig())


def test_speculative_accepts_wrongly_taken_jump():
    x = candidate(FIG2, {(0, 3): False}, {(0, 3): False}, idx=1)
    assert sorted(e.label for e in x.instruction_events() if e.id in x.transient) == [7]
    assert check_speculative_cf(x, SpecConfig())


def test_speculative_rejects_transients_without_misprediction():
    # transient events need a misprediction, and the builder opens a
    # transient run only at one: with every branch predicted correctly
    # no candidate has transient events to justify
    x = candidate(FIG2, {(0, 3): True}, {(0, 3): False}, idx=5)
    y = candidate(FIG2, {(0, 3): True}, {(0, 3): True}, idx=5)
    assert x.transient and not y.transient
    built = 0
    for seed in range(300):
        program = unroll(parse_program(random_program_source(random.Random(seed))), 2)
        for skeleton in _skeletons(program, SpecConfig()):
            outcomes, cps = dict(skeleton.structure.outcomes), dict(skeleton.structure.predictions)
            if all(cps.values()):
                assert not build_events(program, outcomes, cps).transient
                built += 1
    assert built > 300


def test_speculative_rejects_value_contradicting_misprediction():
    # transient fall-through needs the branch value to say "taken" (== 0)
    x = candidate(FIG2, {(0, 3): True}, {(0, 3): False}, idx=1)
    assert not check_speculative_cf(x, SpecConfig())


def test_speculative_matches_traditional_when_all_predictions_correct():
    for idx in range(8):
        for taken in (False, True):
            xs = candidate(FIG2, {(0, 3): taken}, {(0, 3): True}, idx=idx)
            xt = candidate(FIG2, {(0, 3): taken}, {}, idx=idx, speculative=False)
            assert not xs.transient
            assert check_speculative_cf(xs, SpecConfig()) == check_traditional_cf(xt)
    # every candidate of seeded random programs with all predictions correct
    spec = SpecConfig()
    verdicts = set()
    for seed in range(300):
        program = parse_program(random_program_source(random.Random(seed)))
        k = 1 + seed % 2
        pairs = zip(
            filter(predicted_correctly, enumerate_candidates(program, spec, k, 2)),
            enumerate_candidates(program, SpecConfig(mode="traditional"), k, 2),
            strict=True,
        )
        for xs, xt in pairs:
            assert xs.choices == xt.choices and not xs.transient
            if xs.valuation is not None:
                verdict = check_speculative_cf(xs, spec)
                assert verdict == check_traditional_cf(xt), (seed, xs.choices)
                verdicts.add(verdict)
    assert verdicts == {False, True}


def reference_events(x):
    """The candidate's instruction events in the oracle's dict form."""
    return [
        {
            "id": e.id,
            "kind": "instr",
            "tid": e.thread,
            "label": e.label,
            "transient": e.id in x.transient,
            "val": x.valuation[e.id][1],
            "cp": x.structure.predictions.get((e.thread, e.label)),
        }
        for e in x.instruction_events()
    ]


# (mode, only candidates with every prediction correct, psf)
CF_ROTATION = (
    ("traditional", False, False),
    ("speculative", False, False),
    ("speculative", True, False),
    ("speculative", False, True),
)


def test_control_flow_checks_match_the_oracle():
    """The per-branch check equals the oracle's path re-derivation on every
    value-consistent candidate of seeded random programs."""
    verdicts = {mode: set() for mode, _, _ in CF_ROTATION}
    for seed in range(1000):
        program = parse_program(random_program_source(random.Random(seed)))
        mode, correct_only, psf = CF_ROTATION[seed % len(CF_ROTATION)]
        cfg = SpecConfig(mode=mode, psf=psf)
        speculative = mode == "speculative"
        for x in enumerate_candidates(program, cfg, 1 + seed // 4 % 2, 2):
            if x.valuation is None or (correct_only and not predicted_correctly(x)):
                continue
            got = check_speculative_cf(x, cfg) if speculative else check_traditional_cf(x)
            expected = _cf_ok(x.program, reference_events(x), speculative)
            assert got == expected, (seed, x.choices)
            verdicts[mode].add(got)
    assert all(v == {False, True} for v in verdicts.values())


def test_window_vacuous_without_transients():
    x = candidate(FIG2, {(0, 3): False}, {(0, 3): True}, idx=1)
    assert check_window(x, 1)


def test_window_counts_the_fig2_run():
    x = candidate(FIG2, {(0, 3): True}, {(0, 3): False}, idx=5)
    assert len(x.transient) == 4
    assert check_window(x, 5)
    assert not check_window(x, 4)


def test_window_monotone_in_w():
    x = candidate(FIG2, {(0, 3): True}, {(0, 3): False}, idx=5)
    accepted = [w for w in range(1, 10) if check_window(x, w)]
    assert accepted == list(range(5, 10))


def test_window_separated_runs_do_not_merge():
    # two transient runs of length 3 with a committed event in between
    src = """\
layout A[2]@0 secret@2 input idx@3
thread 0:
1: skip
2: skip
3: skip
4: skip
5: skip
6: skip
7: skip
8: skip
"""
    x = candidate(src, {}, {}, idx=0)
    force_partition(x, {1, 5}, {2, 3, 4, 6, 7, 8})
    assert check_window(x, 4)  # two runs of 3, never 4 consecutive
    assert not check_window(x, 3)
    assert len(x.transient) == 6  # more transients than w overall is fine
    force_partition(x, {1}, {2, 3, 4, 5, 6, 7, 8})
    assert not check_window(x, 4)  # one run of 7


def test_fences_hold_for_committed_fence():
    x = candidate(FIG2_FENCE, {(0, 3): False}, {(0, 3): True}, idx=1)
    assert any(e.kind == "fence" for e in x.instruction_events())
    assert check_fences(x)


def test_fence_in_transient_rejected():
    x = candidate(FIG2_FENCE, {(0, 3): True}, {(0, 3): False}, idx=5)
    # the builder stops speculation at the fence: no transient events at all
    assert check_fences(x)
    assert sorted(e.label for e in x.instruction_events() if e.id in x.transient) == []
    # a hand-made partition that drags the fence into the transient run
    # (built from the full path) is rejected, killing the leaking execution
    y = candidate(FIG2_FENCE, {(0, 3): False}, {(0, 3): True}, idx=5)
    assert [e.label for e in y.instruction_events()] == [1, 2, 3, 4, 5, 6, 7, 8]
    force_partition(y, {1, 2, 3}, {4, 5, 6, 7, 8})
    assert not check_fences(y)


def test_fences_vacuous_without_fence():
    x = candidate(FIG2, {(0, 3): True}, {(0, 3): False}, idx=5)
    assert check_fences(x)


def test_config_validation():
    with pytest.raises(ValueError):
        SpecConfig(mode="sideways")
    with pytest.raises(ValueError):
        SpecConfig(buffer=0)
    with pytest.raises(ValueError):
        SpecConfig(window=0)

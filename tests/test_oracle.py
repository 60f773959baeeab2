"""Engine vs. unpruned brute-force reference on randomized programs."""

import random
import re

import pytest

import reference
from axcat import (
    SpecConfig,
    check_isolation,
    corpus_dir,
    emit_smt,
    load_model,
    parse_program,
    unroll,
)
from axcat.events import _walks
from generator import random_program_source
from reference import brute_force_isolation
from test_directed import branch_family
from smt_eval import Script
from test_smt import witness_assignment

UNARY_SEEDS = 300

ROTATION = (
    ("inorder", "traditional"),
    ("inorder", "speculative"),
    ("stl", "traditional"),
    ("stl", "speculative"),
    ("tso", "traditional"),
    ("tso-mcu", "traditional"),
    ("psf", "traditional"),
    ("psf", "speculative"),
    ("tso-mcu", "speculative"),
    ("tso", "speculative"),
)

_MODELS = {name: load_model(name) for name in ("inorder", "stl", "psf", "tso", "tso-mcu")}


def agree_on(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    src = random_program_source(rng)
    program = parse_program(src)
    model_name, mode = ROTATION[seed % len(ROTATION)]
    model = _MODELS[model_name]
    w = rng.choice((2, 3, 8))
    buffer = rng.choice((1, 2))
    psf = "srf" in model.base_names()
    cfg = SpecConfig(mode=mode, window=w, buffer=buffer, psf=psf)

    got = check_isolation(program, model, cfg, k=1, domain_bits=2).outcome
    want = brute_force_isolation(
        unroll(program, 1), model, mode, w, buffer, bits=2, psf=psf
    )
    return got, want


def run_agreement(seeds, base=0):
    mismatches = []
    for i in range(seeds):
        got, want = agree_on(base + i)
        if got != want:
            rng = random.Random(base + i)
            mismatches.append((base + i, got, want, random_program_source(rng)))
    assert not mismatches, "\n".join(
        f"seed {s}: engine={g} reference={w}\n{src}" for s, g, w, src in mismatches
    )


def test_engine_matches_reference_smoke():
    run_agreement(40, base=1000)


def test_reference_detects_direct_secret_read():
    src = "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n1: load r0, secret\n"
    program = parse_program(src)
    model = _MODELS["inorder"]
    assert brute_force_isolation(unroll(program, 1), model, "traditional", 8, 2, 2) == "unsafe"
    cfg = SpecConfig(mode="traditional")
    assert check_isolation(program, model, cfg, 1, 2).outcome == "unsafe"


@pytest.mark.parametrize(
    "src,model_name,mode,psf,expected",
    [
        # future read attempt: the only store is after the load
        (
            "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
            "1: load r0, A\n2: store A, 1\n",
            "inorder", "traditional", False, "safe",
        ),
        # cross-thread message passing without ordering constraints
        (
            "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
            "1: load r0, B\n2: load r1, A + r0\nthread 1:\n1: store B, 1\n",
            "tso", "traditional", False, "unsafe",
        ),
        # conditional assignment guards the index
        (
            "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
            "1: load r0, in0\n2: r0 <-(r0 < 1?) 0\n3: load r1, A + (r0 & 1)\n",
            "inorder", "traditional", False, "unsafe",
        ),
        # transient store feeding a transient load
        (
            "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
            "1: load r0, in0\n2: beqz r0, 5\n3: store B, 3\n4: load r1, B\n5: skip\n",
            "inorder", "speculative", False, "safe",
        ),
        # alias forwarding reaches the secret only without the fence
        (
            "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
            "1: store B, 1\n2: load r0, in0\n3: load r1, A + r0\n",
            "psf", "traditional", True, "unsafe",
        ),
    ],
)
def test_reference_edge_cases_agree(src, model_name, mode, psf, expected):
    program = parse_program(src)
    model = _MODELS[model_name]
    cfg = SpecConfig(mode=mode, window=8, buffer=2, psf=psf)
    got = check_isolation(program, model, cfg, 1, 2).outcome
    want = brute_force_isolation(unroll(program, 1), model, mode, 8, 2, 2, psf=psf)
    assert got == want == expected


def test_walks_match_the_reference_walk():
    """Every unfolding that `events._walks` yields for a thread, in either
    mode, is the reference's walk under the choices it yields with it, and
    no thread yields a choice vector twice: over the corpus at k=2,
    generator seeds 0-599 and the branch family of four copies, fenced and
    not, whose mispredictions run into later branches."""
    programs = [unroll(parse_program(path.read_text()), 2)
                for path in sorted(corpus_dir().glob("*.litmus"))]
    programs += [unroll(parse_program(random_program_source(random.Random(seed))), 1 + seed % 2)
                 for seed in range(600)]
    programs += [unroll(parse_program(branch_family(4, fence)), 2) for fence in (True, False)]
    walks = 0
    for program in programs:
        for speculative in (False, True):
            for tid in range(len(program.threads)):
                seen = set()
                for outcomes, cps, committed, transient in _walks(program, tid, {}, {},
                                                                   speculative):
                    choices = (tuple(sorted(outcomes.items())), tuple(sorted(cps.items())))
                    assert choices not in seen, (program, tid, choices)
                    seen.add(choices)
                    want = reference._walk(program, tid, outcomes, cps, speculative)
                    assert (committed, transient) == want, (program, tid, choices)
                    walks += 1
    assert walks > 2500


_UNARY_OPS = ("-", "~", "!")
# the expression parts of a generator statement: after `<-` (or its guard),
# after `load rN,`, and both operands of `store`
_EXPRESSION_PARTS = re.compile(r"^(\d+: (?:r\d <-(?:\()?|load r\d,|store))(.*)$")


def unary_program_source(rng: random.Random) -> str:
    """A generator program whose expressions apply unary operators to some
    of their registers and literals."""
    lines = []
    for line in random_program_source(rng).splitlines():
        m = _EXPRESSION_PARTS.match(line)
        if m:
            body = re.sub(
                r"\b(r\d|\d)\b",
                lambda t: (rng.choice(_UNARY_OPS) if rng.random() < 0.5 else "") + t[1],
                m[2],
            )
            line = m[1] + body
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_unary_operators_agree_with_reference_and_export():
    # no corpus, demo or generator program uses `-e`, `~e` or `!e`: the
    # engine's verdicts must match the reference's own evaluator, and each
    # witness must satisfy the solver export's translation of them
    seen_ops, witnesses = set(), 0
    for seed in range(UNARY_SEEDS):
        rng = random.Random(seed)
        src = unary_program_source(rng)
        program = parse_program(src)
        seen_ops.update(re.findall(r"([-~!])(?=r\d|\d)", src))  # binary ops are spaced
        for model_name in ("inorder", "stl"):
            model = _MODELS[model_name]
            for mode in ("traditional", "speculative"):
                cfg = SpecConfig(mode=mode, window=rng.choice((2, 3, 8)),
                                 buffer=rng.choice((1, 2)))
                verdict = check_isolation(program, model, cfg, k=1, domain_bits=2)
                want = brute_force_isolation(
                    unroll(program, 1), model, mode, cfg.window, cfg.buffer, bits=2
                )
                assert verdict.outcome == want, f"seed {seed} {model_name} {mode}\n{src}"
                if verdict.outcome != "unsafe":
                    continue
                script = Script(emit_smt(program, model, cfg, 1, 2, f"u{seed}"))
                ok, failures = script.check(
                    witness_assignment(verdict.witness, model, cfg, 2, script)
                )
                assert ok, (seed, model_name, mode, failures, src)
                witnesses += 1
    assert seen_ops == set(_UNARY_OPS)
    assert witnesses >= UNARY_SEEDS // 2, witnesses

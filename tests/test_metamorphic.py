"""Metamorphic properties of the verdict on seeded random programs.

Each seed's generator program is checked under one bundled model (by
rotation) in both modes, at k = 1 or 2 and bits = 2, and at every
speculation window w in 1..4, both as generated and with its registers
renamed by a seeded permutation; so is every corpus expectation, at its
own settings:

  * renaming registers leaves the verdict unchanged, and the directed
    search's candidate counts too: registers start at 0 and are local to
    their thread, so their names carry no meaning;
  * raising w never turns UNSAFE into SAFE, and between two verdicts
    without a witness never lowers the candidate count: the window only
    drops control vectors, so every candidate allowed at w is allowed at
    w + 1.

Every two-thread program among those seeds, and `mcu-01`, is also checked
with its thread sections in reverse order: the outcome stays the same.
Event ids follow thread order, and so do the candidate counts and the
witness, so only the outcome is compared.

A sample of the renamed and of the reversed programs is also decided by the
brute-force reference, so the properties are not checked on a wrong engine
alone.

Raising the unroll bound k never turns UNSAFE into anything else: checked at
k = 1..3 on generator programs with one backward `beqz` appended, in both
modes, at a window of 2, 4 or 8, and on the corpus loops `pht-05` and
`pht-05-fence`.  A pinned loop whose second iteration reads the secret is
UNSAFE only from k = 2, on the engine and on the reference alike.

Inserting a `fence` is not such a property: a pinned pair shows a fence
that turns SAFE into UNSAFE, because the window drops a transient run that
reaches w whole rather than cutting it at w.
"""

import itertools
import random
import re
from dataclasses import replace

from axcat import (
    BUNDLED_MODELS,
    SpecConfig,
    check_isolation,
    corpus_dir,
    load_model,
    parse_program,
    unroll,
)
from generator import random_program_source
from reference import brute_force_isolation
from test_directed import corpus_settings

SEEDS = 300
LOOP_SEEDS = 100
REFERENCE_SEEDS = 60
REVERSED_REFERENCE_PROGRAMS = 15
WINDOWS = (1, 2, 3, 4)
BITS = 2

_MODELS = {name: load_model(name) for name in BUNDLED_MODELS}
REGISTERS = tuple(f"r{i}" for i in range(10))


def rename_registers(src: str, rng: random.Random) -> str:
    """The program with every register renamed by a permutation of r0..r9."""
    renamed = dict(zip(REGISTERS, rng.sample(REGISTERS, len(REGISTERS))))
    return re.sub(r"\br\d\b", lambda m: renamed[m.group(0)], src)


def query(seed: int):
    """(source, renamed source, model name, k) of one seed."""
    rng = random.Random(seed)
    src = random_program_source(rng)
    model_name = BUNDLED_MODELS[seed % len(BUNDLED_MODELS)]
    k = 1 + seed // len(BUNDLED_MODELS) % 2
    return src, rename_registers(src, rng), model_name, k


def reverse_threads(src: str) -> str:
    """The program with its thread sections in reverse order, renumbered;
    every line outside an instruction (layout, comments, expectations) goes
    before them."""
    head, sections = [], []
    for line in src.splitlines():
        if line.startswith("thread "):
            sections.append([])
        elif sections and re.match(r"\d+\s*:", line):
            sections[-1].append(line)
        else:
            head.append(line)
    for tid, body in enumerate(reversed(sections)):
        head += [f"thread {tid}:", *body]
    return "\n".join(head) + "\n"


def two_thread_queries():
    """(seed, source, model name, k) of every seed whose program has two
    threads."""
    for seed in range(SEEDS):
        src, _, model_name, k = query(seed)
        if "thread 1:" in src:
            yield seed, src, model_name, k


def window_sweep(src: str, model, cfg: SpecConfig, k: int, bits: int) -> list:
    """(outcome, generated, filtered) at each window of WINDOWS."""
    program = parse_program(src)
    out = []
    for w in WINDOWS:
        v = check_isolation(program, model, replace(cfg, window=w), k, bits)
        out.append((v.outcome, v.generated, v.filtered))
    return out


def check_properties(src: str, renamed: str, model, cfg: SpecConfig, k: int, bits: int):
    """Assert both properties on one query; returns its outcome per window."""
    got = window_sweep(src, model, cfg, k, bits)
    assert window_sweep(renamed, model, cfg, k, bits) == got, (model.name, cfg, src, renamed)
    outcomes = [o for o, _, _ in got]
    first = outcomes.index("unsafe") if "unsafe" in outcomes else len(outcomes)
    assert outcomes[first:] == ["unsafe"] * (len(outcomes) - first), (model.name, cfg, got)
    # a search that found no witness counted every directed candidate
    exhausted = [generated for o, generated, _ in got if o != "unsafe"]
    assert exhausted == sorted(exhausted), (model.name, cfg, got)
    return outcomes


def with_backward_branch(src: str, rng: random.Random) -> str:
    """The program with a `beqz` back to an earlier label of its last thread
    appended to that thread: a loop."""
    last = int(re.findall(r"^(\d+):", src, re.M)[-1])
    return src + f"{last + 1}: beqz {rng.choice(('r0', 'r1', 'r2'))}, {rng.randint(1, last)}\n"


def k_sweep(program, model, cfg: SpecConfig, bits: int) -> list:
    """The outcome at each unroll bound k = 1..3; asserts that none after the
    first UNSAFE is another."""
    outcomes = [check_isolation(program, model, cfg, k, bits).outcome for k in (1, 2, 3)]
    first = outcomes.index("unsafe") if "unsafe" in outcomes else len(outcomes)
    assert outcomes[first:] == ["unsafe"] * (len(outcomes) - first), (model.name, cfg, outcomes)
    return outcomes


def flips(outcomes: list) -> bool:
    """Whether some window short of the largest misses the violation."""
    return outcomes[-1] == "unsafe" and outcomes[0] != "unsafe"


def test_renaming_registers_and_raising_the_window():
    unsafe = renamed_programs = window_flips = 0
    for seed in range(SEEDS):
        src, renamed, model_name, k = query(seed)
        renamed_programs += renamed != src
        model = _MODELS[model_name]
        for mode in ("traditional", "speculative"):
            cfg = SpecConfig(mode=mode, psf="srf" in model.base_names())
            outcomes = check_properties(src, renamed, model, cfg, k, BITS)
            assert "unknown" not in outcomes  # generator programs are loop-free
            unsafe += outcomes.count("unsafe")
            window_flips += flips(outcomes)
    assert renamed_programs >= SEEDS - 10, renamed_programs
    assert unsafe >= 100, unsafe
    assert window_flips >= 1, window_flips


def test_corpus_under_renaming_and_raising_the_window():
    # the corpus gadgets need transient runs of several events, so their
    # verdicts do depend on the window
    window_flips = 0
    for i, path in enumerate(sorted(corpus_dir().glob("*.litmus"))):
        src = path.read_text()
        renamed = rename_registers(src, random.Random(i))
        assert renamed != src
        for exp in parse_program(src).expectations:
            model, cfg, k, bits = corpus_settings(exp)
            window_flips += flips(check_properties(src, renamed, model, cfg, k, bits))
    assert window_flips >= 2, window_flips


def test_reversing_the_threads():
    programs = unsafe = 0
    for _, src, model_name, k in two_thread_queries():
        model = _MODELS[model_name]
        program, reversed_program = parse_program(src), parse_program(reverse_threads(src))
        assert reversed_program.threads[0][0].stmt == program.threads[1][0].stmt
        for mode in ("traditional", "speculative"):
            cfg = SpecConfig(mode=mode, psf="srf" in model.base_names())
            got = check_isolation(program, model, cfg, k, BITS).outcome
            assert check_isolation(reversed_program, model, cfg, k, BITS).outcome == got, (
                model.name, mode, src)
            unsafe += got == "unsafe"
        programs += 1
    assert programs >= 60, programs
    assert unsafe >= 5, unsafe
    src = (corpus_dir() / "mcu-01.litmus").read_text()
    for exp in parse_program(src).expectations:
        model, cfg, k, bits = corpus_settings(exp)
        for text in (src, reverse_threads(src)):
            assert check_isolation(parse_program(text), model, cfg, k, bits).outcome == exp.outcome


def test_reversed_threads_agree_with_the_reference():
    unsafe = 0
    for seed, src, model_name, _ in itertools.islice(two_thread_queries(),
                                                     REVERSED_REFERENCE_PROGRAMS):
        model = _MODELS[model_name]
        psf = "srf" in model.base_names()
        mode = ("traditional", "speculative")[seed % 2]
        cfg = SpecConfig(mode=mode, psf=psf)
        wants = []
        for text in (src, reverse_threads(src)):
            program = parse_program(text)
            want = brute_force_isolation(unroll(program, 1), model, mode, cfg.window,
                                         cfg.buffer, BITS, psf=psf)
            assert check_isolation(program, model, cfg, 1, BITS).outcome == want, (seed, text)
            wants.append(want)
        assert wants[0] == wants[1], (seed, src)
        unsafe += wants[0] == "unsafe"
    assert unsafe >= 1, unsafe


def test_inserting_a_fence_can_turn_safe_into_unsafe():
    # not a metamorphic property: the window drops a control vector whose
    # transient run reaches w whole instead of cutting the run at w, so a
    # fence that ends a nine-event run after one event admits the vector.
    # The engine and the reference agree on both verdicts.
    model, cfg = _MODELS["inorder"], SpecConfig(mode="speculative", window=4)
    for fenced, want in ((False, "safe"), (True, "unsafe")):
        body = ["fence"] * fenced + ["skip"] * 8
        src = (
            "layout A[4]@0 secret@4 input idx@5\nthread 0:\n1: load r1, idx\n"
            f"2: r2 <- r1 < 4\n3: beqz r2, {4 + len(body)}\n4: load r3, A + r1\n"
            + "".join(f"{label}: {stmt}\n" for label, stmt in enumerate(body, 5))
        )
        program = parse_program(src)
        assert check_isolation(program, model, cfg, 1, 3).outcome == want
        assert brute_force_isolation(unroll(program, 1), model, "speculative", 4, 2, 3) == want


def test_renamed_programs_agree_with_the_reference():
    unsafe = 0
    for seed in range(REFERENCE_SEEDS):
        _, renamed, model_name, _ = query(seed)
        model = _MODELS[model_name]
        psf = "srf" in model.base_names()
        program = parse_program(renamed)
        mode = ("traditional", "speculative")[seed // 2 % 2]
        for w in (1, 3):
            got = check_isolation(program, model, SpecConfig(mode=mode, window=w, psf=psf), 1, BITS)
            want = brute_force_isolation(unroll(program, 1), model, mode, w, 2, BITS, psf=psf)
            assert got.outcome == want, (seed, mode, w, renamed)
            unsafe += want == "unsafe"
    assert unsafe >= 3, unsafe


def test_raising_k_never_loses_an_unsafe():
    unsafe = gained = 0
    for seed in range(LOOP_SEEDS):
        rng = random.Random(seed)
        program = parse_program(with_backward_branch(random_program_source(rng), rng))
        model = _MODELS[BUNDLED_MODELS[seed % len(BUNDLED_MODELS)]]
        for mode in ("traditional", "speculative"):
            cfg = SpecConfig(mode=mode, window=(2, 4, 8)[seed % 3],
                             psf="srf" in model.base_names())
            outcomes = k_sweep(program, model, cfg, BITS)
            unsafe += outcomes[0] == "unsafe"
            gained += outcomes[0] != "unsafe" and outcomes[-1] == "unsafe"
    assert unsafe >= 5 and gained >= 3, (unsafe, gained)
    for name in ("pht-05", "pht-05-fence"):
        program = parse_program((corpus_dir() / f"{name}.litmus").read_text())
        for exp in program.expectations:
            model, cfg, _, bits = corpus_settings(exp)
            for mode, w in itertools.product(("traditional", "speculative"), (2, 4, 8)):
                k_sweep(program, model, replace(cfg, mode=mode, window=w), bits)


def test_a_second_loop_iteration_can_turn_unknown_into_unsafe():
    # the load reads A, then the secret at A + 1 in the second iteration
    program = parse_program(
        "layout A[1]@0 secret@1 input in0@2 B[1]@3\nthread 0:\n"
        "1: load r1, A + r0\n2: r0 <- r0 + 1\n3: beqz r2, 1\n"
    )
    model = _MODELS["inorder"]
    for mode in ("traditional", "speculative"):
        cfg = SpecConfig(mode=mode, window=2)
        assert k_sweep(program, model, cfg, BITS) == ["unknown", "unsafe", "unsafe"]
        assert [brute_force_isolation(unroll(program, k), model, mode, 2, 2, BITS)
                for k in (1, 2)] == ["safe", "unsafe"]

"""Seeded mutation fuzzing of the two parsers and what runs after them.

Token insertions, deletions and span cuts of the bundled corpus `.litmus`
files and `.cat` models go through `parse_program`/`parse_cat` and then
`check_isolation` or `emit_smt` at k=1.  Every rejection must be one of the
declared errors (`ParseError`, `CatError` and `EngineError` all derive from
`ValueError`), and every case must finish within two seconds.
"""

import random
import re
import signal

import pytest

from axcat import (
    BUNDLED_MODELS,
    SpecConfig,
    check_isolation,
    corpus_dir,
    emit_smt,
    load_model,
    models_dir,
    parse_cat,
    parse_program,
)

CASES = 1000
_TOKEN = re.compile(r"\s+|\w+|[^\w\s]")


def _mutate(rng, text, pool):
    """One or two token insertions, token deletions or cuts of a span of up
    to three lines.  Comment lines are dropped first, as mutations there
    cannot reach past the parser."""
    lines = [ln for ln in text.splitlines(True) if not ln.startswith("#")]
    for _ in range(rng.randint(1, 2)):
        if not lines:
            break
        k = rng.randrange(len(lines))
        op = rng.random()
        if op < 0.3:
            del lines[k:k + rng.randint(1, 3)]
            continue
        tokens = _TOKEN.findall(lines[k])
        words = [i for i, t in enumerate(tokens) if not t.isspace()]
        if not words:
            continue
        i = rng.choice(words)
        if op < 0.65:
            tokens[i:i] = [rng.choice(pool), " "]
        else:
            del tokens[i]
        lines[k] = "".join(tokens)
    return "".join(lines)


def _run_case(run, text) -> bool:
    """`run()` under a 2 s alarm: False on a declared error, True when it
    ran through."""
    def expire(signum, frame):
        pytest.fail(f"ran over 2 s on:\n{text}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        run()
    except ValueError:
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return True


def _pool(texts):
    return sorted({t for text in texts for t in _TOKEN.findall(text)
                   if not t.isspace()} | {"\n", "0", "9", "(", ")", "^", "-1"})


def test_mutated_litmus_files_fail_cleanly():
    sources = [p.read_text() for p in sorted(corpus_dir().glob("*.litmus"))]
    pool = _pool(sources)
    models = [load_model(name) for name in ("inorder", "stl", "psf")]
    rng = random.Random(8)
    ran = 0
    for case in range(CASES):
        text = _mutate(rng, rng.choice(sources), pool)
        model = models[case % len(models)]
        cfg = SpecConfig(mode=rng.choice(("traditional", "speculative")),
                         psf="srf" in model.base_names())
        run = check_isolation if case % 2 else emit_smt
        ran += _run_case(lambda: run(parse_program(text), model, cfg, 1, 3), text)
    assert ran >= CASES // 20  # enough mutants get past the parser


def test_mutated_cat_models_fail_cleanly():
    sources = [(models_dir() / f"{name}.cat").read_text() for name in BUNDLED_MODELS]
    pool = _pool(sources)
    program = parse_program((corpus_dir() / "stl-01.litmus").read_text())
    rng = random.Random(8)
    ran = 0
    for case in range(CASES):
        text = _mutate(rng, rng.choice(sources), pool)
        mode = rng.choice(("traditional", "speculative"))
        run = check_isolation if case % 2 else emit_smt

        def one():
            model = parse_cat(text, f"fuzz{case}")
            cfg = SpecConfig(mode=mode, psf="srf" in model.base_names())
            run(program, model, cfg, 1, 3)

        ran += _run_case(one, text)
    assert ran >= CASES // 20  # enough mutants get past the parser

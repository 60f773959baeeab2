"""One digest over the checker's outputs on a fixed set of checks.

The digest is a sha256 over, per check in a fixed order, the verdict, the
`generated` and `filtered` counts, the witness choice vector and the
witness DOT bytes.  The checks are every corpus expectation at store-buffer
sizes 1-3, and generator seeds 0-399 at 2 bits under `test_directed`'s
model rotation, each in both modes: 866 checks.

A change that only makes the search faster leaves the digest as it is.
Regenerate `DIGEST` only for a deliberate change of output, and say in
CHANGES.md which output changed and why.
"""

import hashlib
import random

from axcat import (
    SpecConfig,
    check_isolation,
    corpus_dir,
    emit_witness_dot,
    load_model,
    parse_program,
)
from generator import random_program_source
from test_directed import ROTATION, corpus_settings

DIGEST = "2ddf6582e01c5cd9cbc222c248b03425f50016b59611a1970121f09a6d1d8b8e"


def checks():
    """(program, model, cfg, k, bits) of every check, in the digest's order."""
    for path in sorted(corpus_dir().glob("*.litmus")):
        program = parse_program(path.read_text())
        for exp in program.expectations:
            model, cfg, k, bits = corpus_settings(exp)
            for buffer in (1, 2, 3):
                yield program, model, SpecConfig(cfg.mode, cfg.window, buffer, cfg.psf), k, bits
    models = {name: load_model(name) for name, _, _ in ROTATION}
    for seed in range(400):
        rng = random.Random(seed)
        program = parse_program(random_program_source(rng))
        model = models[ROTATION[seed % len(ROTATION)][0]]
        window = rng.choice((2, 3, 8))
        for mode in ("traditional", "speculative"):
            cfg = SpecConfig(mode=mode, window=window, psf="srf" in model.base_names())
            yield program, model, cfg, 1 + seed % 2, 2


def record(v) -> bytes:
    """A check's outputs as bytes: its dict-valued choices as sorted items."""
    choices = dot = None
    if v.witness is not None:
        choices = {name: sorted(c.items()) if isinstance(c, dict) else c
                   for name, c in v.witness.choices.items()}
        dot = emit_witness_dot(v.witness)
    return repr((v.outcome, v.generated, v.filtered, choices, dot)).encode()


def test_outputs_match_the_digest():
    digest = hashlib.sha256()
    count = 0
    for program, model, cfg, k, bits in checks():
        digest.update(record(check_isolation(program, model, cfg, k, bits)))
        count += 1
    assert count == 866
    assert digest.hexdigest() == DIGEST

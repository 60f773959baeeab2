"""Control-flow constraint checks for candidate executions.

Committed events must follow the architecturally correct path, with every
conditional jump on the way predicted correctly; transient events must be
reachable from a mispredicted conditional jump along the direction the
branch did *not* take.  The speculation window bounds how many consecutive
transient events a single misprediction may cover, and fences may never
execute transiently.  All checks are pure predicates over a candidate built
by `build_events`, with a completed valuation.  The builder walks each
thread along the chosen outcomes and predictions, so the path constraints
hold by construction except for the data: the control-flow checks only
test that each branch the walk passed through has a value that agrees with
the outcome chosen for it (`Skeleton.branches`).  That test, `agrees`,
is stated once: the engine's reads-from search applies it lane by lane to
values computed on demand, and these checks only replay a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import CandidateExecution


@dataclass(frozen=True)
class SpecConfig:
    mode: str = "speculative"  # "traditional" | "speculative"
    window: int = 8  # w: branch speculation window
    buffer: int = 2  # w': store-buffer size, >= 1
    psf: bool = False  # enable predictive store forwarding (srf)

    def __post_init__(self):
        if self.mode not in ("traditional", "speculative"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.buffer < 1:
            raise ValueError("store buffer size must be >= 1")
        if self.window < 1:
            raise ValueError("speculation window must be >= 1")


def agrees(value, taken: bool) -> bool:
    """Whether a branch value sends the branch the chosen way: zero when
    taken."""
    return (value == 0) == taken


def _branches_agree(branches, value) -> bool:
    """Whether each of `branches`, (event id, taken) pairs, has a value
    (`value(eid)`) that agrees with its outcome."""
    return all(agrees(value(eid), taken) for eid, taken in branches)


def check_traditional_cf(x: CandidateExecution) -> bool:
    """No transient events, and every branch on the walked path takes the
    direction its value dictates."""
    return not x.transient and _branches_agree(x.structure.branches, lambda e: x.valuation[e][1])


def check_speculative_cf(x: CandidateExecution, cfg: SpecConfig) -> bool:
    """Every branch value agrees with the outcome the walk chose for it: a
    correctly predicted branch goes that way, and a mispredicted one sends
    its transient run the other way."""
    if cfg.mode != "speculative":
        raise ValueError("speculative control flow check needs speculative mode")
    return _branches_agree(x.structure.branches, lambda e: x.valuation[e][1])


def check_window(x: CandidateExecution, w: int) -> bool:
    """No w consecutive executed events of a thread are all transient."""
    if w < 1:
        raise ValueError("speculation window must be >= 1")
    for ids in x.structure.threads:
        run = 0
        for eid in ids:
            run = run + 1 if eid in x.transient else 0
            if run >= w:
                return False
    return True


def check_fences(x: CandidateExecution) -> bool:
    """Fences never execute transiently."""
    return all(
        e.id not in x.transient for e in x.instruction_events() if e.kind == "fence"
    )

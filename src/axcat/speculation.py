"""Control-flow constraint checks for candidate executions.

Committed events must follow the architecturally correct path, with every
conditional jump on the way predicted correctly; transient events must be
reachable from a mispredicted conditional jump along the direction the
branch did *not* take.  The speculation window bounds how many consecutive
transient events a single misprediction may cover, and fences may never
execute transiently.  All checks are pure predicates over a candidate with
a completed valuation; they are used both as the engine's filters and to
re-validate externally supplied witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import CandidateExecution, Event
from .masm import Beqz, pred


@dataclass(frozen=True)
class SpecConfig:
    mode: str = "speculative"  # "traditional" | "speculative"
    window: int = 8  # w: branch speculation window
    buffer: int = 2  # w': store-buffer size, >= 1
    always_mispredict: bool = True  # explore both prediction outcomes
    psf: bool = False  # enable predictive store forwarding (srf)

    def __post_init__(self):
        if self.mode not in ("traditional", "speculative"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.buffer < 1:
            raise ValueError("store buffer size must be >= 1")
        if self.window < 1:
            raise ValueError("speculation window must be >= 1")


def _events_by_site(x: CandidateExecution) -> dict:
    return {(e.thread, e.label): e for e in x.instruction_events()}


def _rval(e: Event) -> int:
    if e.val is None:
        raise ValueError(f"branch event e{e.id} has no resolved value")
    return e.val


def _is_entry(x: CandidateExecution, e: Event) -> bool:
    return e.label == x.program.threads[e.thread][0].label


def _leads_to(x: CandidateExecution, pe: Event, e: Event) -> bool:
    """Whether executed predecessor `pe` can pass control to `e`.

    A committed event needs a committed predecessor, through a correctly
    predicted branch whose value takes this direction; a transient event
    needs a transient predecessor or a mispredicted branch whose value
    contradicts this direction.
    """
    transient = e.id in x.transient
    s = pe.stmt
    if not isinstance(s, Beqz):
        return (pe.id in x.transient) == transient
    if transient:
        if pe.cp:
            return False
    elif not pe.cp or pe.id in x.transient:
        return False
    taken = (_rval(pe) == 0) != transient
    # a branch to its own fall-through reaches it whatever its value
    return e.label == (s.target if taken else pe.label + 1) or (
        s.target == pe.label + 1 == e.label
    )


def _follows_branches(x: CandidateExecution) -> bool:
    by_site = _events_by_site(x)
    for e in x.instruction_events():
        if _is_entry(x, e):
            if e.id in x.transient:
                return False  # nothing upstream could have mispredicted
            continue
        if not any(
            _leads_to(x, by_site[(e.thread, lp)], e)
            for lp in pred(x.program, e.label, e.thread)
            if (e.thread, lp) in by_site
        ):
            return False
    return True


def check_traditional_cf(x: CandidateExecution) -> bool:
    """Every executed event sits on the one path the branch values dictate,
    through branches predicted correctly (as `build_events` records them
    outside speculative mode)."""
    return not x.transient and _follows_branches(x)


def check_speculative_cf(x: CandidateExecution, cfg: SpecConfig) -> bool:
    """Committed events need correctly predicted branches on their path;
    transient events need a misprediction contradicted by the branch value."""
    if cfg.mode != "speculative":
        raise ValueError("speculative control flow check needs speculative mode")
    return _follows_branches(x)


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

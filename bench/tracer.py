"""Per-layer spans recorded from outside the engine.

`Tracer` replaces layer functions in the module namespaces where their
callers look them up (for instance `axcat.engine.build_events`, which the
enumerator calls by its global name) with wrappers that time each call,
charge the time to the calling span, and count rejections. `restore`
puts every original back. Spans are aggregated by name as they close:
calls, total seconds, self seconds (total minus the time of the spans
nested inside), rejections and, for the SMT emitter, bytes.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass

# candidate_consistent reasons, ids stripped, to short rejection kinds
VALUE_KINDS = {
    "no initial value for address": "no-init-value",
    "value propagation did not stabilize": "unstable",
    "unresolved address at": "unresolved-addr",
    "unresolved value at": "cyclic-value",
    "store hits undeclared address": "store-undeclared",
    "load reads undeclared address": "load-undeclared",
    "load has no reads-from source": "no-source",
    "value mismatch on reads-from": "rf-value",
    "reads-from joins different addresses": "rf-addr",
    "alias forwarding is not a store-buffer pair": "alias-pair",
    "transient store can only feed a later transient load of its thread":
        "transient-rf",
    "transient store in the coherence order": "transient-co",
}
FILTER_KINDS = {
    "control flow": "control-flow",
    "speculative control flow": "speculative-control-flow",
    "speculation window": "speculation-window",
    "transient fence": "transient-fence",
    "srf across fence": "srf-across-fence",
}
# assertions of the bundled models, "<kind> <source>" as the engine names them
ASSERTIONS = {
    "acyclic com | po": "acyclic-com-po",
    "acyclic com | ppo": "acyclic-com-ppo",
    "acyclic scom | po": "acyclic-scom-po",
    "acyclic com | (po & loc)": "acyclic-com-po-loc",
    "acyclic com-tso | po-tso": "acyclic-com-tso-po-tso",
}


def rejection_key(reason: str) -> str:
    """Map a `candidate_consistent` reason to its `engine.rejected` key.

    Event ids, addresses and the parts in parentheses are dropped, so that
    `values: reads-from (e10, e12) joins different addresses` becomes
    `values:rf-addr`. Reasons the tables do not know map to `...:other`.
    """
    if reason.startswith("values: "):
        text = re.sub(r"\([^)]*\)|\be\d+\b|\b\d+\b", " ", reason[len("values: "):])
        text = " ".join(text.split())
        return "values:" + VALUE_KINDS.get(text, "other")
    if reason.startswith("assertion "):
        return "assertion:" + ASSERTIONS.get(reason[len("assertion "):], "other")
    return FILTER_KINDS.get(reason, "other")


def rejection_metric(key: str) -> str:
    return "engine.rejected." + key.replace(":", ".")


REJECTION_METRICS = tuple(
    [rejection_metric("values:" + k) for k in VALUE_KINDS.values()]
    + [rejection_metric("values:other")]
    + [rejection_metric(k) for k in FILTER_KINDS.values()]
    + [rejection_metric("assertion:" + k) for k in ASSERTIONS.values()]
    + [rejection_metric("assertion:other"), rejection_metric("other")]
)


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    rejected: int = 0
    bytes: int = 0


def _rejected_if_false(span, result, args):
    if not result:
        span.rejected += 1


def _rejected_if_inconsistent(span, result, args):
    if args[0].valuation is None:
        span.rejected += 1


def _rejected_if_violated(span, result, args):
    if not result[0]:
        span.rejected += 1


def _count_bytes(span, result, args):
    span.bytes += len(result.encode())


class Tracer:
    """Wraps the layer functions of one imported `axcat` package while
    installed (`with tracer:`); the aggregates survive `restore`."""

    def __init__(self, ax):
        self.spans: dict[str, Span] = {}
        self.rejections: Counter = Counter()
        self.survivors = 0
        self.paused = False
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []
        engine, catlang = ax.engine, ax.catlang
        self._layers = [
            (ax, "parse_program", "masm.parse_program", None),
            (ax, "unroll", "masm.unroll", None),
            (engine, "unroll", "masm.unroll", None),
            (ax.smt, "unroll", "masm.unroll", None),
            (ax.resources, "parse_cat", "catlang.parse_cat", None),
            (ax, "check_isolation", "engine.check_isolation", None),
            (engine, "build_events", "events.build_events", None),
            (engine, "propagate_values", "events.propagate_values",
             _rejected_if_inconsistent),
            (engine, "candidate_consistent", "engine.candidate_consistent",
             self._classify),
            (engine, "check_traditional_cf", "speculation.check_traditional_cf",
             _rejected_if_false),
            (engine, "check_speculative_cf", "speculation.check_speculative_cf",
             _rejected_if_false),
            (engine, "check_window", "speculation.check_window", _rejected_if_false),
            (engine, "check_fences", "speculation.check_fences", _rejected_if_false),
            (catlang, "check_srf_fence", "catlang.check_srf_fence",
             _rejected_if_false),
            (engine, "base_relations", "events.base_relations", None),
            (catlang, "evaluate", "catlang.evaluate", None),
            (catlang, "check_assertions", "catlang.check_assertions",
             _rejected_if_violated),
            (ax, "emit_smt", "smt.emit_smt", _count_bytes),
        ]

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _classify(self, span, result, args):
        ok, reason = result
        if ok:
            self.survivors += 1
        else:
            self.rejections[rejection_key(reason)] += 1

    def _wrap(self, module, attr, name, after):
        original = getattr(module, attr)
        span = self.span(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.s += elapsed
                span.self_s += elapsed - nested
            if after is not None:
                after(span, result, args)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def install(self):
        for module, attr, name, after in self._layers:
            self._wrap(module, attr, name, after)

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

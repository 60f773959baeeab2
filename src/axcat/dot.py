"""Witness rendering as DOT graphs.

Nodes are events labeled with their statement text; transient events are
drawn dashed.  Edges show immediate program order, the reads-from choice
(the rf, rfe and srf rows of `events.data_rows`: rfe for cross-thread
pairs, srf under alias prediction), immediate coherence (per address, the
init event and then its stores in `co_order`), and one dashed fence edge
around each executed fence.  Init events appear only when an edge touches
them.  Output is byte-stable for identical witnesses.
"""

from __future__ import annotations

from .events import SECRET_INIT, CandidateExecution, Event, data_rows
from .masm import stmt_to_text


def _node_name(e: Event) -> str:
    return f"n{e.id}"


def _node_label(x: CandidateExecution, e: Event) -> str:
    if e.kind == SECRET_INIT:
        return f"e_s: secret @{e.addr}"
    if e.is_init():
        return f"e_0: init @{e.addr}={x.valuation[e.id][1]}"
    tag = f"e{e.id}"
    if len(x.program.threads) > 1:
        tag += f" (t{e.thread})"
    return f"{tag}: {stmt_to_text(e.stmt)}"


def emit_witness_dot(x: CandidateExecution) -> str:
    events = {e.id: e for e in x.events}
    edges: list[tuple[int, int, str, str]] = []  # (src, dst, label, style)

    for evs in x.threads():
        for a, b in zip(evs, evs[1:]):
            edges.append((a.id, b.id, "po", "solid"))
        for i, f in enumerate(evs):
            if f.kind == "fence" and 0 < i < len(evs) - 1:
                edges.append((evs[i - 1].id, evs[i + 1].id, "fence", "dashed"))

    if x.valuation is not None:
        rows = data_rows(x, frozenset({"rf", "srf", "rfe"}))
        kind = "srf" if x.psf else "rf"
        for w, row in enumerate(rows[kind]):
            for r in x.structure.loads:
                if row >> r & 1:
                    rfe = not x.psf and rows["rfe"][w] >> r & 1
                    edges.append((w, r, "rfe" if rfe else kind, "solid"))

        # immediate coherence edges only: per address, init and then its
        # stores in coherence order
        chains: dict[int, list[int]] = {}
        for sid in x.co_order:
            addr = x.valuation[sid][0]
            chains.setdefault(addr, [x.structure.init_by_addr[addr]]).append(sid)
        for chain in chains.values():
            edges.extend((a, b, "co", "solid") for a, b in zip(chain, chain[1:]))

    used = {e.id for e in x.instruction_events()}
    for a, b, _, _ in edges:
        used.add(a)
        used.add(b)

    lines = ["digraph witness {", "  rankdir=TB;", '  node [shape=box, fontname="monospace"];']
    for eid in sorted(used):
        e = events[eid]
        attrs = [f'label="{_node_label(x, e)}"']
        if e.id in x.transient:
            attrs.append('style="dashed"')
        if e.kind == SECRET_INIT:
            attrs.append('color="red"')
        lines.append(f"  {_node_name(e)} [{', '.join(attrs)}];")
    for a, b, label, style in sorted(edges):
        lines.append(
            f'  n{a} -> n{b} [label="{label}", style="{style}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"

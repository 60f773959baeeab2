"""
Candidate executions and their relations
========================================

Build one candidate execution by hand: pick branch outcomes, predictions,
reads-from sources and input values, then look at the relations a model
file would consume.
"""

from axcat import base_relations, build_events, parse_program, propagate_values, unroll
from axcat.events import secret_sentinel
from axcat.masm import stmt_to_text

SOURCE = """\
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

program = unroll(parse_program(SOURCE), 2)

# A misprediction: the branch is architecturally taken (idx out of bounds)
# but predicted not-taken, so 4..7 run transiently and are rolled back.
x = build_events(
    program,
    branch_outcomes={(0, 3): True},
    cp_assign={(0, 3): False},
)
print("committed:", sorted(e.label for e in x.instruction_events() if e.id in x.committed))
print("transient:", sorted(e.label for e in x.instruction_events() if e.id in x.transient))

# Every load reads from the initial memory; the attacker picks idx = 4,
# which makes the transient access A + 4 hit the secret address.
x.rf_choice = {e.id: "init" for e in x.loads()}
x.co_order = ()
init_vals = {a: 0 for a in program.declared_addresses()}
init_vals[program.secret_addr] = secret_sentinel(3)
init_vals[5] = 4
valuation = propagate_values(x, init_vals, bits=3)
print("consistent valuation over", len(valuation), "events")
print("\nresolved events:")
for e in x.instruction_events():
    addr, val = valuation[e.id]
    print(f"  e{e.id} {stmt_to_text(e.stmt):24s} addr={addr} val={val}")

rels = base_relations(x)
print("\nreads-from:", sorted(x.rf))
print("address dependencies:", sorted(rels["addr"]))
print("secret read?",
      any(x.event(w).kind == "secret-init" for w, _ in x.rf))

"""Candidate executions: events, base relations, and value propagation.

A candidate execution is the event set of one control-flow unfolding of a
loop-free program (committed prefix per thread plus at most one transient
continuation opened by a mispredicted branch), together with a reads-from
choice per load, a coherence order over committed stores, and the initial
values of attacker-controlled locations.  The control-flow choice alone
fixes the events and a `Skeleton`: each thread's events in program order,
the ids of the loads, stores, instruction events and init events, the
`po`, `fence` and `addr` relations, the event classes, the branch
outcomes the candidate's values must confirm, and the register-writer
table (for each event, the last writer of each register).  An event holds
its id, kind, label, thread and statement, an init event its address;
whether a branch was predicted correctly is only in the skeleton's
`predictions`.

What depends on the program alone is built once per (unrolled) program and
kept on it (`_tables`): the init events, shared by every skeleton, and per
thread its label table and static address dependencies.  What depends on
the control vector is built once per vector: `build_events` makes the
events (frozen, in a tuple) and the skeleton in one pass over each
thread's walk, which the engine hands it from its own search, and every
candidate of the vector shares both by reference.  A candidate is the
skeleton plus its choices (`rf_choice`, `co_order`, `inputs`) plus the
valuation from `propagate_values` or the engine search's leaf, the one
place that holds an instruction event's address and value.  The valuation is the
least fixpoint of the candidate's dataflow, which `Evaluator` computes on
demand over the writer table; evaluating only some addresses with it is
how the search decides cheaply whether a candidate can read the secret at
all.  `static_skeleton` runs the same builder on every instruction of a
program at once, as if all executed; the solver export reads its events,
`po`, `fence`, `addr` and classes from it, and from `value_sets` over it
the addresses each event may take in any candidate.  Whether a candidate
represents a behavior the hardware model allows is decided elsewhere; this
module only builds candidates and computes the relations and the valuation
they induce.

Relations are bitset rows: a relation over the events 0..n-1 is n ints,
and bit j of row i is the pair (i, j).  The skeleton holds `po`, `fence`
and `addr` as rows.  A candidate stores only its choices; `data_rows` is
the one place that derives the data relations `rf`, `srf`, `rfe`, `co`
and `loc` from them and from the valuation's addresses.  `Relation`, a set
of pairs, is the public view: `base_relations` and the read-only `rf`,
`co` and `srf` properties of a candidate convert rows with `relation_of`.

Conventions baked in here:

  * one init event per declared address; the one at the secret address is
    the secret init and carries an out-of-band sentinel value (2^bits),
    distinct from every expressible store value;
  * registers start at 0 and follow program order within a thread;
  * transient stores never enter the coherence order;
  * which store a load may read is stated once, in `rf_rejection` (its
    address clause, the psf fence included, in `alias_rejection`), for
    value propagation and the engine's source search alike; under
    predictive store forwarding the per-load source choice is the
    speculative reads-from (srf), and a load that reads "init" reads the
    init event of its own address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .masm import (
    Assign,
    Beqz,
    CondAssign,
    Fence,
    Jmp,
    Load,
    Program,
    Skip,
    Store,
    Stmt,
    eval_expr,
    eval_set,
    expr_registers,
    fall_label,
    stmt_target_reg,
)

INIT = "init"
SECRET_INIT = "secret-init"
KIND_BY_STMT = {
    Load: "load",
    Store: "store",
    Assign: "local",
    CondAssign: "cond-local",
    Jmp: "jump",
    Beqz: "cond-jump",
    Fence: "fence",
    Skip: "skip",
}

WRITE_KINDS = frozenset({"store", INIT, SECRET_INIT})
MEMORY_KINDS = frozenset({"load", "store", INIT, SECRET_INIT})


# ---------------------------------------------------------------------------
# Relations


@dataclass(frozen=True)
class Relation:
    """A finite set of ordered event-id pairs with the usual set algebra."""

    pairs: frozenset

    @classmethod
    def of(cls, pairs) -> "Relation":
        return cls(frozenset((a, b) for a, b in pairs))

    @classmethod
    def identity(cls, ids) -> "Relation":
        return cls(frozenset((e, e) for e in ids))

    @classmethod
    def cartesian(cls, left, right) -> "Relation":
        return cls(frozenset((a, b) for a in left for b in right))

    def __or__(self, other: "Relation") -> "Relation":
        return Relation(self.pairs | other.pairs)

    def __and__(self, other: "Relation") -> "Relation":
        return Relation(self.pairs & other.pairs)

    def __sub__(self, other: "Relation") -> "Relation":
        return Relation(self.pairs - other.pairs)

    def inverse(self) -> "Relation":
        return Relation(frozenset((b, a) for a, b in self.pairs))

    def compose(self, other: "Relation") -> "Relation":
        by_src: dict[int, set] = {}
        for a, b in other.pairs:
            by_src.setdefault(a, set()).add(b)
        out = set()
        for a, b in self.pairs:
            for c in by_src.get(b, ()):
                out.add((a, c))
        return Relation(frozenset(out))

    def closure(self) -> "Relation":
        """Transitive closure: s | s;r iterated from s = r to its fixpoint."""
        s = self
        while (t := s | s.compose(self)) != s:
            s = t
        return s

    def rstar(self, universe) -> "Relation":
        """Reflexive-transitive closure over the given event universe."""
        return self.closure() | Relation.identity(universe)

    def is_irreflexive(self) -> bool:
        return all(a != b for a, b in self.pairs)

    def is_empty(self) -> bool:
        return not self.pairs

    def is_acyclic(self) -> bool:
        """No cycle: the transitive closure is irreflexive."""
        return self.closure().is_irreflexive()

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __bool__(self) -> bool:
        return bool(self.pairs)


def relation_of(rows, ids) -> Relation:
    """The Relation of bitset `rows`, whose row i is the event `ids[i]`:
    bit j of row i is the pair (ids[i], ids[j])."""
    pairs = []
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            pairs.append((ids[i], ids[low.bit_length() - 1]))
            row ^= low
    return Relation(frozenset(pairs))


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class Event:
    """What the control vector fixes about one event.  The address and value
    an instruction event resolves to live in its candidate's `valuation`."""

    id: int
    kind: str
    label: int | None = None  # an instruction event's label and thread
    thread: int | None = None
    stmt: Stmt | None = None
    addr: int | None = None  # an init event's layout address; None otherwise

    def is_init(self) -> bool:
        return self.kind in (INIT, SECRET_INIT)


@dataclass(frozen=True)
class Skeleton:
    """What one control vector fixes before any data is chosen.

    `branches` lists the conditional jumps whose chosen outcome decides an
    executed successor, as (event id, taken).  The walk already followed
    each prediction, so a candidate on these events obeys the control-flow
    constraints exactly when every such branch value agrees with its
    outcome: zero when taken, nonzero when not.
    """

    threads: tuple  # per thread id: its instruction event ids in label order
    branches: tuple
    instructions: tuple  # instruction event ids, in id order
    loads: tuple  # load event ids, in id order
    stores: tuple  # store event ids (committed and transient), in id order
    init_by_addr: MappingProxyType  # declared address -> its init event id
    po: tuple  # bitset rows over the event ids, as `data_rows` builds them
    fence: tuple
    addr: tuple
    sets: MappingProxyType  # the event classes E, M, W, R of model files
    outcomes: MappingProxyType  # (thread, label) -> branch taken, sorted
    predictions: MappingProxyType  # (thread, label) -> predicted correctly
    # per event id: register -> the id of its last writer among the earlier
    # events of the thread (registers without one read 0); shared between
    # events with no write in between, and never mutated
    writers: tuple


@dataclass
class CandidateExecution:
    program: Program
    events: tuple[Event, ...]  # shared by every candidate of the control vector
    committed: frozenset
    transient: frozenset
    structure: Skeleton  # shared by every candidate of the control vector
    psf: bool = False
    # per-load source choice: "init" or the id of a program store event
    rf_choice: dict = field(default_factory=dict)
    co_order: tuple = ()  # committed store ids, coherence positions
    inputs: dict = field(default_factory=dict)  # input address -> chosen value
    # (addr, val) per event id, from `propagate_values` or the search's leaf, else None
    valuation: tuple | None = None
    inconsistency: str | None = None

    def __copy__(self):  # without `__init__`: the search makes one per candidate
        x = object.__new__(CandidateExecution)
        x.__dict__.update(self.__dict__)
        return x

    @property
    def choices(self) -> dict:
        """The choice vector, for reproducibility and witness reports."""
        return {
            "outcomes": dict(self.structure.outcomes),
            "cp": dict(self.structure.predictions),
            "rf": dict(self.rf_choice),
            "co": self.co_order,
            "inputs": dict(self.inputs),
        }

    # The data relations, derived by `data_rows`; None until propagation
    # succeeds.
    @property
    def rf(self) -> Relation | None:
        return self._relation("rf")

    @property
    def co(self) -> Relation | None:
        return self._relation("co")

    @property
    def srf(self) -> Relation | None:
        return self._relation("srf")

    def _relation(self, name: str) -> Relation | None:
        if self.valuation is None:
            return None
        rows = data_rows(self, frozenset({name}))[name]
        return relation_of(rows, range(len(self.events)))

    def event(self, eid: int) -> Event:
        return self.events[eid]

    def instruction_events(self) -> list[Event]:
        return [self.events[i] for i in self.structure.instructions]

    def init_events(self) -> list[Event]:
        return [self.events[i] for i in self.structure.init_by_addr.values()]

    def loads(self) -> list[Event]:
        return [self.events[i] for i in self.structure.loads]

    def stores(self) -> list[Event]:
        return [self.events[i] for i in self.structure.stores]

    def threads(self) -> list[list[Event]]:
        """Each thread's instruction events in program order."""
        return [[self.events[i] for i in ids] for ids in self.structure.threads]


# ---------------------------------------------------------------------------
# Building the event skeleton


def _tables(program: Program) -> tuple:
    """What every skeleton of the loop-free `program` takes from the program
    alone, built once and kept in `program._derived`: (init events, their
    `init_by_addr`, their ids, steps).  The init events are one per declared
    address, in address order, from id 0; their ids are the init members of
    the classes E, M and W.  `steps` holds per thread, label ->
    (instruction, event kind, register written, feeds), where
    `feeds` are the labels of the earlier loads whose register the address
    of this load or store reads with no textual rewrite of it in between:
    the static address dependencies, kept by their later label so that one
    forward pass sets each executed pair of `addr` at its second event."""
    derived = program._derived
    if "skeleton tables" not in derived:
        init = tuple(Event(i, SECRET_INIT if a == program.secret_addr else INIT, addr=a)
                     for i, a in enumerate(program.declared_addresses()))
        steps = []
        for instrs in program.threads:
            steps.append({})
            loaded: dict[str, int] = {}  # register -> the load that wrote it, if nothing since
            for ins in instrs:
                s, reg = ins.stmt, stmt_target_reg(ins.stmt)
                reads = expr_registers(s.addr) if isinstance(s, (Load, Store)) else ()
                feeds = tuple(loaded[r] for r in reads if r in loaded)
                if isinstance(s, Load):
                    loaded[reg] = ins.label
                elif reg is not None:
                    loaded.pop(reg, None)
                steps[-1][ins.label] = (ins, KIND_BY_STMT[type(s)], reg, feeds)
        derived["skeleton tables"] = (init, MappingProxyType({e.addr: e.id for e in init}),
                                      frozenset(range(len(init))), tuple(steps))
    return derived["skeleton tables"]


def _walks(program: Program, tid: int, outcomes, cps, speculative: bool):
    """Every control-flow unfolding of a thread under choices that extend
    `outcomes` and `cps`: (outcomes, cps, committed labels, transient labels).

    `outcomes` and `cps` map (thread, label) of a conditional jump to its
    chosen direction and to whether it was predicted correctly (every
    prediction is correct in traditional mode).  A walk fills the committed
    list until a mispredicted branch, then the transient list, which follows
    the direction the branch did not take until a fence, a correctly
    predicted branch, a cut jump edge, or the end of the path.  A
    mispredicted branch inside the transient run keeps it going the wrong
    way.  At a branch without an outcome the walk goes on with the first
    choice and keeps one state per other (taken, prediction), resumed later
    from copies of its labels, so the unfoldings come depth first in the
    blind order, not taken before taken and correct before mispredicted,
    and no prefix is walked twice.  A jump back, which only a program with a
    loop takes, raises `ValueError`: the walk would not end.
    """
    *_, thread_steps = _tables(program)
    steps = thread_steps[tid]
    # the blind order reversed: a walk goes on with the last, the stack pops the others
    *later, first = [(taken, cp) for taken in (True, False)
                     for cp in ((False, True) if speculative else (True,))]
    stack = [(next(iter(steps), None), [], [], False, outcomes, cps)]
    while stack:
        label, committed, transient, running, outcomes, cps = stack.pop()
        walk = transient if running else committed
        while label is not None:
            ins = steps[label][0]
            s = ins.stmt
            if isinstance(s, Fence) and walk is transient:
                break  # fences stall speculation and never execute transiently
            key = (tid, label)
            if isinstance(s, Beqz) and key not in outcomes:
                stack.extend((label, committed.copy(), transient.copy(), walk is transient,
                              {**outcomes, key: taken}, {**cps, key: cp})
                             for taken, cp in later)
                outcomes, cps = {**outcomes, key: first[0]}, {**cps, key: first[1]}
            walk.append(label)
            if isinstance(s, Beqz):
                predicted = not speculative or cps.get(key, True)
                if predicted and walk is transient:
                    break  # no transient continuation after a correct prediction
                if not predicted:
                    walk = transient
                # a misprediction runs the direction opposite to the outcome
                taken = outcomes[key] == predicted
                label = s.target if taken else fall_label(ins, steps)
            elif isinstance(s, Jmp):
                label = s.target
            else:
                label = fall_label(ins, steps)
            if label is not None and label <= ins.label:
                raise ValueError(f"thread {tid} jumps back from label {ins.label} "
                                 f"to {label}: unroll it first")
        yield outcomes, cps, committed, transient


def build_events(
    program: Program,
    branch_outcomes: dict,
    cp_assign: dict,
    speculative: bool = True,
    psf: bool = False,
    walks: tuple | None = None,
) -> CandidateExecution:
    """Materialize the event skeleton for one choice of branch outcomes and
    prediction correctness.

    `branch_outcomes` maps (thread, label) of a reached conditional jump to
    True when the jump is taken; `cp_assign` maps the same keys to True when
    the direction was predicted correctly (ignored in traditional mode).
    The committed/transient partition and the `Skeleton` are fully
    determined by these choices.  Every candidate built from the result
    shares its `events` tuple and its `structure`.  A reached branch without
    an outcome raises `KeyError`.  `walks`, when given, is each thread's
    committed and transient labels under these choices, as `_walks` gives
    them; the threads are then not walked again.
    """
    if walks is None:
        walks = []
        for tid in range(len(program.threads)):
            outcomes, _, committed, transient = next(
                _walks(program, tid, branch_outcomes, cp_assign, speculative))
            if len(outcomes) > len(branch_outcomes):
                raise KeyError(list(outcomes)[len(branch_outcomes)])  # the first one added
            walks.append((committed, transient))
    return _build(program, walks, branch_outcomes, cp_assign, psf)


def static_skeleton(program: Program) -> tuple[tuple[Event, ...], Skeleton]:
    """The events of every instruction of the loop-free `program` as if all
    executed, after the init events (ids in thread, then label order), and
    their skeleton: its relations and classes hold every pair and member
    that some execution can have.  No branch has an outcome: none is in
    `branches`, and no event has a prediction."""
    walks = [([ins.label for ins in instrs], ()) for instrs in program.threads]
    x = _build(program, walks, {}, {}, False)
    return x.events, x.structure


def value_sets(program: Program, events, skeleton: Skeleton, bits: int) -> tuple[tuple, tuple]:
    """(addresses, values): per event of a static skeleton, the bitmask over
    0..2^bits (the top bit: the secret's sentinel) of the addresses and of
    the values it may take in any value-consistent candidate: the least
    fixpoint of the dataflow where a register holds 0 or the value of any
    earlier writer of its thread, and a load the initial value at any of
    its addresses or any store's value (not only a store's whose address
    set meets its own: the value read may make the store's address)."""
    mask, secret, init_by_addr = (1 << bits) - 1, program.secret_addr, skeleton.init_by_addr
    addrs, vals, stored = [0] * len(events), [0] * len(events), 0
    for a, i in init_by_addr.items():
        addrs[i] = 1 << a
        vals[i] = (1 << secret_sentinel(bits) if a == secret
                   else (2 << mask) - 1 if a in program.input_locations else 1)
    while True:
        for ids in skeleton.threads:
            regs: dict[str, int] = {}
            for i in ids:
                s = events[i].stmt
                if isinstance(s, (Load, Store)):
                    addrs[i] = eval_set(s.addr, regs, secret, mask)
                if isinstance(s, Load):
                    vals[i] = stored
                    for a, w in init_by_addr.items():
                        if addrs[i] >> a & 1:
                            vals[i] |= vals[w]
                elif isinstance(s, CondAssign):
                    guard = eval_set(s.guard, regs, secret, mask)
                    vals[i] = ((regs.get(s.reg, 1) if guard & 1 else 0)
                               | (eval_set(s.expr, regs, secret, mask) if guard > 1 else 0))
                elif isinstance(s, (Assign, Store)):
                    vals[i] = eval_set(s.expr if isinstance(s, Assign) else s.value,
                                       regs, secret, mask)
                if (reg := stmt_target_reg(s)) is not None:
                    regs[reg] = regs.get(reg, 1) | vals[i]
        grown = stored
        for w in skeleton.stores:
            grown |= vals[w]
        if grown == stored:
            return tuple(addrs), tuple(vals)
        stored = grown


def _build(program: Program, walks, outcomes: dict, predictions: dict,
           psf: bool) -> CandidateExecution:
    """The candidate with no data chosen whose threads run `walks`, per
    thread its committed labels, then its transient labels: one pass per
    thread over its walk, the labels increasing, fills the events and every
    table of their skeleton.  A branch without an outcome decides nothing."""
    init, init_by_addr, init_ids, thread_steps = _tables(program)
    events = list(init)
    n = len(events) + sum(len(c) + len(t) for c, t in walks)
    po, fence, addr = [0] * n, [0] * n, [0] * n
    writers: list = [{}] * n
    loads, stores, threads, branches = [], [], [], []
    committed, transient = [init_ids], []
    for tid, (com, tr) in enumerate(walks):
        steps = thread_steps[tid]
        first = len(events)
        split, end = first + len(com), first + len(com) + len(tr)
        tail = 1 << end  # po[i], the events after i, is tail - (2 << i)
        # the register-writer table as each event sees it; a write copies
        # it, so the events between two writes share one
        last: dict[str, int] = {}
        at: dict[int, int] = {}  # label -> id of the thread's loads so far
        unfenced = first  # the events from here on have no fence after them yet
        for eid, label in enumerate((*com, *tr), first):
            ins, kind, reg, feeds = steps[label]
            if kind == "cond-jump" and (key := (tid, label)) in outcomes:
                # its outcome decides the next event, unless the walk ends
                # here or both directions reach the fall-through
                if eid + 1 < end and ins.stmt.target != label + 1:
                    branches.append((eid, outcomes[key]))
            events.append(Event(eid, kind, label, tid, ins.stmt))
            writers[eid] = last
            if reg is not None:
                last = {**last, reg: eid}
            po[eid] = tail - (2 << eid)
            if kind == "fence":
                fence[unfenced:eid] = [po[eid]] * (eid - unfenced)
                unfenced = eid
            elif kind == "load":
                loads.append(eid)
                at[label] = eid
            elif kind == "store":
                stores.append(eid)
            for load in feeds:
                if load in at:
                    addr[at[load]] |= 1 << eid
        committed.append(range(first, split))
        transient.append(range(split, end))
        threads.append(tuple(range(first, end)))

    structure = Skeleton(
        threads=tuple(threads), branches=tuple(branches),
        instructions=tuple(range(len(init), n)), loads=tuple(loads), stores=tuple(stores),
        init_by_addr=init_by_addr, po=tuple(po), fence=tuple(fence), addr=tuple(addr),
        sets=MappingProxyType({"E": frozenset(range(n)), "M": init_ids.union(loads, stores),
                               "W": init_ids.union(stores), "R": frozenset(loads)}),
        outcomes=MappingProxyType(dict(sorted(outcomes.items()))),
        predictions=MappingProxyType(dict(sorted(predictions.items()))),
        writers=tuple(writers),
    )
    return CandidateExecution(program, tuple(events), frozenset().union(*committed),
                              frozenset().union(*transient), structure, psf)


# ---------------------------------------------------------------------------
# Value propagation


def secret_sentinel(bits: int) -> int:
    return 1 << bits


_UNSET = object()  # not evaluated yet
# Evaluations nest at most this deep: each level takes a few interpreter
# frames, and one more per level of the expression that reads the input
# (at most `masm._MAX_EXPR_DEPTH`).
_NESTED = 16


class _Lane(dict):
    """The memo of one lane of a memo whose cells may be tuples (see
    `Evaluator._alone`): a node not set here reads, on first use, the
    lane's value of its cell there, a plain None as not evaluated."""

    def __init__(self, memo: list, lane: int):
        self.memo, self.lane = memo, lane

    def __missing__(self, node: int):
        cell = self.memo[node]
        return _UNSET if cell is None else cell[self.lane] if type(cell) is tuple else cell


class Evaluator:
    """Demand-driven evaluation of a candidate's dataflow: `value(eid)` and
    `address(eid)` are the value and the address of event `eid` at the
    least fixpoint of the dataflow equations, None where unresolved.

    A node is the value or the address of an event.  A node evaluates only
    the inputs it needs, memoized: an expression reads the values of its
    registers' last writers (the skeleton's `writers`), a conditional
    assignment evaluates its expression only when its guard is nonzero and
    keeps the register's old value otherwise, and a load's value is its
    source's, the init event of its own address when it reads "init".
    Every such need is strict: an unresolved input leaves the node
    unresolved.  The nodes under evaluation therefore form a chain, each
    needed by the one before it, and a node needed again while it is in the
    chain lies on its own dependency cycle: it reads None, as at the least
    fixpoint.  An input not yet evaluated is evaluated at once, nested, up
    to `_NESTED` deep; deeper, it is pushed on an explicit stack and the
    node that needs it is evaluated again once it is, so a long dependency
    chain does not exhaust the interpreter's recursion limit.  `init_vals`
    must cover every declared address.  An init value may be a tuple of
    one value per lane, each lane an input vector: a memo cell holds a
    plain value where it reads no tuple, else a tuple, which `value(eid)`
    and `address(eid)` give as it is.  For one rf choice the lanes read the
    same nodes but at a conditional assignment whose guard is zero in some
    lanes and not in others: that node alone is evaluated lane by lane, each lane by a
    one-lane evaluator (`_alone`), so a node reads None on its own cycle
    in all lanes exactly when it would in each alone.  The memo may be
    swapped for a copy to carry the evaluation on under another rf choice,
    as long as no node it holds reads a source that changed.
    """

    __slots__ = ("events", "rf_choice", "init_by_addr", "writers", "secret_addr",
                 "mask", "memo", "at", "missing", "depth")

    def __init__(self, x: CandidateExecution, init_vals: dict, bits: int):
        self.events, self.rf_choice = x.events, x.rf_choice
        self.init_by_addr, self.writers = x.structure.init_by_addr, x.structure.writers
        self.secret_addr, self.mask = x.program.secret_addr, (1 << bits) - 1
        # node 2 * eid is the address of event eid, node 2 * eid + 1 its value
        self.memo = [_UNSET] * (2 * len(x.events))
        for addr, eid in self.init_by_addr.items():
            self.memo[2 * eid], self.memo[2 * eid + 1] = addr, init_vals[addr]
        self.at: dict = {}  # the writers of the registers of the node at hand
        self.missing = None  # an input of that node left for the stack
        self.depth = 0  # the nested evaluations under way

    def value(self, eid: int):
        return self._demand(2 * eid + 1)

    def address(self, eid: int):
        return self._demand(2 * eid)

    def nodes(self, lane: int | None = None) -> list:
        """Every node's value, demanded in node order (each event's address,
        then its value, in id order): the lane's, or with no lane the cells."""
        memo = self.memo
        for node in range(len(memo)):  # `_demand` fills later nodes too
            if memo[node] is _UNSET:
                self._demand(node)
        return memo if lane is None else [c[lane] if type(c) is tuple else c for c in memo]

    def _demand(self, node: int):
        """The node's value: the node, and every input pushed for it, are
        evaluated until none is missing."""
        memo = self.memo
        result = memo[node]
        if result is not _UNSET:
            return result
        memo[node] = None  # on its own dependency cycle until resolved
        stack = [node]
        while stack:
            result = self._evaluate(stack[-1])
            need = self.missing
            if need is None:
                memo[stack.pop()] = result
            else:
                self.missing = None
                memo[need] = None
                stack.append(need)
        return result

    def _alone(self, lane: int) -> Evaluator:
        """An evaluator of the lane alone, sharing the events, the rf choice
        and the writers, its memo the lane's projection of this one's, read
        on demand (`_Lane`).  A plain None is evaluated again: here it may be
        a node under evaluation, which the lane need not be.  Its nesting
        goes on from this one's depth."""
        one = object.__new__(Evaluator)
        one.events, one.rf_choice, one.writers = self.events, self.rf_choice, self.writers
        one.init_by_addr, one.secret_addr, one.mask = self.init_by_addr, self.secret_addr, self.mask
        one.memo, one.at, one.missing, one.depth = _Lane(self.memo, lane), {}, None, self.depth
        return one

    def _input(self, node: int):
        """The value of an input of the node at hand; void once an input is
        missing."""
        val = self.memo[node]
        if val is not _UNSET:
            return val
        if self.missing is not None:
            return None
        if self.depth >= _NESTED:
            self.missing = node
            return None
        at = self.at
        self.depth += 1
        try:
            val = self._demand(node)
        finally:
            self.depth -= 1
        self.at = at
        return val

    def get(self, reg: str, default: int):
        """The value of a register of the node at hand, for `eval_expr`."""
        writer = self.at.get(reg)
        return default if writer is None else self._input(2 * writer + 1)

    def _evaluate(self, node: int):
        """The node's value from its inputs; when one is not evaluated yet,
        `missing` names it and the result is void."""
        eid = node >> 1
        s = self.events[eid].stmt
        kind = type(s)
        self.at = self.writers[eid]
        if not node & 1:
            if kind is Load or kind is Store:
                return eval_expr(s.addr, self, self.secret_addr, self.mask)
            return None
        if kind is Load:
            choice = self.rf_choice.get(eid)
            if choice == "init":
                if type(addr := self._input(node - 1)) is tuple:  # each lane its own init cell
                    cells = [None if c is None else self.memo[2 * c + 1]
                             for c in map(self.init_by_addr.get, addr)]
                    return tuple([c[i] if type(c) is tuple else c for i, c in enumerate(cells)])
                choice = self.init_by_addr.get(addr)
            return None if choice is None else self._input(2 * choice + 1)
        if kind is Assign:
            return eval_expr(s.expr, self, self.secret_addr, self.mask)
        if kind is Store:
            return eval_expr(s.value, self, self.secret_addr, self.mask)
        if kind is CondAssign:
            guard = eval_expr(s.guard, self, self.secret_addr, self.mask)
            if guard is None or self.missing is not None:
                return None
            if type(guard) is tuple:
                if not all(guard) and guard.count(0) < len(guard):  # split: lane by lane
                    return tuple([self._alone(lane).value(eid) for lane in range(len(guard))])
                guard = guard[0]
            if guard != 0:
                return eval_expr(s.expr, self, self.secret_addr, self.mask)
            return self.get(s.reg, 0)  # the register keeps its old value
        if kind is Beqz:
            return self.get(s.reg, 0)
        return None  # jumps, fences and skips have no value


def alias_rejection(x: CandidateExecution, store: int, load: int):
    """Why `load` may not read `store` in `x` at another address than its
    own, or None if it may: only a store-buffer pair may, under predictive
    store forwarding, the store `po`-before the load with no fence in
    between.  No address enters it, so it holds in every lane."""
    if not x.psf:
        return f"reads-from (e{store}, e{load}) joins different addresses"
    if not x.structure.po[store] >> load & 1:
        return f"alias forwarding (e{store}, e{load}) is not a store-buffer pair"
    if x.structure.fence[store] >> load & 1:
        return f"alias forwarding (e{store}, e{load}) crosses a fence"
    return None


def rf_rejection(x: CandidateExecution, store: int, load: int, store_addr, load_addr):
    """Why `load` may not read `store` in `x` at these addresses (None: not
    known yet), or None if it may.  A load reads a store at its own address,
    or at another one as `alias_rejection` allows; a transient store feeds
    only later transient loads of its thread."""
    if None not in (store_addr, load_addr) and store_addr != load_addr and (
            reason := alias_rejection(x, store, load)):
        return reason
    if store in x.transient and (load not in x.transient or not x.structure.po[store] >> load & 1):
        return f"transient store e{store} can only feed a later transient load of its thread"
    return None


def value_rejection(x: CandidateExecution, addrs, vals):
    """Why `addrs` and `vals`, by event id, are no valuation of `x`, whose
    every load has a source, or None: a load that reads init at an
    undeclared address, an unresolved value (then only a dependency cycle
    leaves one; an address resolves once its registers do) or a store at an
    undeclared address, the rules the reads-from search does not decide."""
    init_by_addr = x.structure.init_by_addr
    for lid in x.structure.loads:
        if x.rf_choice[lid] == "init" and addrs[lid] is not None and addrs[lid] not in init_by_addr:
            return f"load e{lid} reads undeclared address {addrs[lid]}"
    for e in x.instruction_events():
        if e.kind in ("load", "store", "cond-jump", "local", "cond-local") and vals[e.id] is None:
            return f"unresolved value at e{e.id} (cyclic dataflow)"
    for sid in x.structure.stores:
        if addrs[sid] not in init_by_addr:
            return f"store e{sid} hits undeclared address {addrs[sid]}"


def propagate_values(x: CandidateExecution, init_vals: dict, bits: int):
    """Resolve addresses and values, or report an inconsistency.

    `init_vals` gives the initial value of every declared address (the
    engine fixes non-input locations at 0, the secret at its sentinel, and
    the inputs at the candidate's `inputs`).  Every address and value is
    that of the least fixpoint of the dataflow equations, computed on demand
    by `Evaluator`: registers start at 0 and follow program order within a
    thread, a load takes its source's value, and a value on its own
    dependency cycle stays unresolved.  Returns the valuation, a tuple of
    (addr, val) indexed by event id, and stores it in `x.valuation`; on
    failure both are None and `x.inconsistency` holds the first reason
    found.  The events are not touched: the data relations the
    valuation induces come from `data_rows`.
    """
    init_by_addr, rf_choice = x.structure.init_by_addr, x.rf_choice
    for addr in init_by_addr:
        if addr not in init_vals:
            return _fail(x, f"no initial value for address {addr}")
    nodes = Evaluator(x, init_vals, bits).nodes()  # in id order: a thread's earlier events first
    addrs, vals = nodes[0::2], nodes[1::2]

    for lid in x.structure.loads:
        if rf_choice.get(lid) is None:
            return _fail(x, f"load e{lid} has no reads-from source")
    if reason := value_rejection(x, addrs, vals):
        return _fail(x, reason)

    for lid in x.structure.loads:
        sid = rf_choice[lid]
        if sid != "init" and (reason := rf_rejection(x, sid, lid, addrs[sid], addrs[lid])):
            return _fail(x, reason)

    # Transient stores never hit memory.
    for sid in x.co_order:
        if sid in x.transient:
            return _fail(x, f"transient store e{sid} in the coherence order")

    x.valuation = tuple(zip(addrs, vals))
    x.inconsistency = None
    return x.valuation


def _fail(x: CandidateExecution, reason: str):
    x.inconsistency = reason
    x.valuation = None


# ---------------------------------------------------------------------------
# Data relations

# The base relations that depend on a candidate's data; the rest (po, fence,
# addr and the event classes) are fixed by the control vector's skeleton.
DATA_RELATIONS = frozenset({"rf", "co", "loc", "srf", "rfe"})


def data_rows(x: CandidateExecution, needed: frozenset = DATA_RELATIONS) -> dict:
    """The bitset rows of the data relations in `needed`, over the event
    ids, from the reads-from choice, the coherence order and the valuation's
    addresses of a propagated candidate.

    Each load reads its chosen source ("init" is the init event of the
    load's address).  That pair is in `srf` under predictive store
    forwarding, and in `rf` when the addresses agree (always, without
    it); `rfe` is the part of `rf` from a store of another thread.  `co`
    puts, per address, the init event before every committed store, and
    orders those stores as `co_order` does.  With the empty `co_order`
    this is the candidate's floor: the `co` every coherence order extends.
    `loc` joins memory events at one address.
    """
    s, events, valuation = x.structure, x.events, x.valuation
    n = len(events)
    rows = {}
    if not needed.isdisjoint(("rf", "srf", "rfe")):
        rf, srf, rfe = [0] * n, [0] * n, [0] * n
        for load in s.loads:
            addr = valuation[load][0]
            choice = x.rf_choice[load]
            src = s.init_by_addr[addr] if choice == "init" else choice
            bit = 1 << load
            if x.psf:
                srf[src] |= bit
                if valuation[src][0] != addr:
                    continue
            rf[src] |= bit
            if choice != "init" and events[src].thread != events[load].thread:
                rfe[src] |= bit
        rows.update(rf=rf, srf=srf, rfe=rfe)
    if "co" in needed:
        co = [0] * n
        later: dict = {}  # address -> the stores after the one at hand
        for sid in reversed(x.co_order):
            addr = valuation[sid][0]
            co[sid] = later.get(addr, 0)
            later[addr] = co[sid] | 1 << sid
        for sid in s.stores:
            if sid in x.committed:
                co[s.init_by_addr[valuation[sid][0]]] |= 1 << sid
        rows["co"] = co
    if "loc" in needed:
        memory = (*s.init_by_addr.values(), *s.loads, *s.stores)
        same: dict = {}
        for eid in memory:
            addr = valuation[eid][0]
            same[addr] = same.get(addr, 0) | 1 << eid
        loc = [0] * n
        for eid in memory:
            loc[eid] = same[valuation[eid][0]]
        rows["loc"] = loc
    return rows


def base_relations(x: CandidateExecution) -> dict:
    """The named relations a model file may reference, plus the event sets:
    the rows of the skeleton and of `data_rows` as Relations."""
    if x.valuation is None:
        raise ValueError("base relations need a completed valuation")
    s = x.structure
    rows = {"po": s.po, "fence": s.fence, "addr": s.addr, **data_rows(x)}
    ids = range(len(x.events))
    out = {name: relation_of(r, ids) for name, r in rows.items()}
    out.update(s.sets)
    return out

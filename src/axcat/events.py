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
table (for each event, the last writer of each register).  `build_events`
computes the events (frozen, in a tuple) and the skeleton once per control
vector, and every candidate of the vector shares both by reference: a
candidate is the skeleton plus its choices (`rf_choice`, `co_order`,
`inputs`) plus the valuation that `propagate_values` derives from them,
the one place that holds an instruction event's address and value.  The
valuation is the least fixpoint of the candidate's dataflow, which
`Evaluator` computes on demand over the writer table; evaluating only some
addresses with it is how the search decides cheaply whether a candidate
can read the secret at all.  `static_skeleton` builds the same events and
skeleton for every instruction instance of a program at once, as if all
executed; the solver export reads its events, `po`, `fence`, `addr` and
classes from it.  Whether a candidate represents a behavior the hardware
model allows is decided elsewhere; this module only builds candidates and
computes the relations and the valuation they induce.

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
  * which store a load may read, the psf fence clause included, is stated
    once, in `rf_rejection`, for value propagation and the engine's source
    search alike; under predictive store forwarding the per-load source
    choice is the speculative reads-from (srf), and a load that reads
    "init" reads the init event of its own address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .masm import (
    Assign,
    Beqz,
    CondAssign,
    Fence,
    Instruction,
    Jmp,
    Load,
    Program,
    Skip,
    Store,
    Stmt,
    eval_expr,
    expr_registers,
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
    origin: tuple[int, int, int] | None = None  # (label, iteration, thread)
    stmt: Stmt | None = None
    addr: int | None = None  # an init event's layout address; None otherwise
    cp: bool | None = None

    @property
    def label(self) -> int:
        return self.origin[0]

    @property
    def thread(self) -> int:
        return self.origin[2]

    def is_init(self) -> bool:
        return self.kind in (INIT, SECRET_INIT)


class Inconsistent:
    """Marker result of value propagation: the candidate contradicts itself."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Inconsistent({self.reason!r})"


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
    # (addr, val) per event id, from `propagate_values`; None until it succeeds
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


def _fall_label(ins: Instruction, labels: frozenset) -> int | None:
    if isinstance(ins.stmt, Jmp) or not ins.falls_through:
        return None
    return ins.label + 1 if ins.label + 1 in labels else None


def _walk_thread(program: Program, tid: int, outcomes, cps, speculative: bool):
    """One control-flow unfolding of a thread: (committed labels, transient
    labels, missing).

    `outcomes` and `cps` map (thread, label) of a conditional jump to its
    chosen direction and to whether it was predicted correctly (`cps` is
    ignored in traditional mode, where every prediction is correct).  The
    walk stops at the first branch without an outcome, which it returns as
    `missing`, a (thread, label) key; `missing` is None when none is reached.
    One walk fills the committed list until a mispredicted branch, then the
    transient list, which follows the direction the branch did not take
    until a fence, a correctly predicted branch, a cut jump edge, or the end
    of the path.  A mispredicted branch inside the transient run keeps it
    going the wrong way.  A jump back, which only a program with a loop
    takes, raises `ValueError`: the walk would not end.
    """
    committed: list[int] = []
    transient: list[int] = []
    if not program.threads[tid]:
        return committed, transient, None
    instrs = {i.label: i for i in program.threads[tid]}
    labels = frozenset(instrs)
    walk = committed
    label: int | None = program.threads[tid][0].label
    while label is not None:
        ins = instrs[label]
        s = ins.stmt
        if isinstance(s, Fence) and walk is transient:
            break  # fences stall speculation and never execute transiently
        walk.append(label)
        if isinstance(s, Beqz):
            key = (tid, label)
            if key not in outcomes:
                return committed, transient, key
            predicted = not speculative or cps.get(key, True)
            if predicted and walk is transient:
                break  # no transient continuation after a correct prediction
            if not predicted:
                walk = transient
            # a misprediction runs the direction opposite to the outcome
            taken = outcomes[key] == predicted
            label = s.target if taken else _fall_label(ins, labels)
        elif isinstance(s, Jmp):
            label = s.target
        else:
            label = _fall_label(ins, labels)
        if label is not None and label <= ins.label:
            raise ValueError(f"thread {tid} jumps back from label {ins.label} "
                             f"to {label}: unroll it first")
    return committed, transient, None


def _init_events(program: Program) -> tuple[Event, ...]:
    """One init event per declared address, in address order, from id 0;
    built once per program, and shared by every skeleton of it."""
    derived = program._derived
    if "init events" not in derived:
        derived["init events"] = tuple(
            Event(i, SECRET_INIT if a == program.secret_addr else INIT, addr=a)
            for i, a in enumerate(program.declared_addresses())
        )
    return derived["init events"]


def _instruction_event(eid: int, tid: int, ins: Instruction, cp: bool | None = None) -> Event:
    it = ins.provenance[1] if ins.provenance else 1
    return Event(eid, KIND_BY_STMT[type(ins.stmt)], (ins.label, it, tid), ins.stmt, cp=cp)


def build_events(
    program: Program,
    branch_outcomes: dict,
    cp_assign: dict,
    speculative: bool = True,
    psf: bool = False,
) -> CandidateExecution:
    """Materialize the event skeleton for one choice of branch outcomes and
    prediction correctness.

    `branch_outcomes` maps (thread, label) of a reached conditional jump to
    True when the jump is taken; `cp_assign` maps the same keys to True when
    the direction was predicted correctly (ignored in traditional mode).
    The committed/transient partition and the `Skeleton` are fully
    determined by these choices.  Every candidate built from the result
    shares its `events` tuple and its `structure`.  A reached branch without
    an outcome raises `KeyError`.
    """
    events = list(_init_events(program))
    committed_ids = set(range(len(events)))  # init events count as committed
    transient_ids: set[int] = set()
    threads = []
    branches = []

    for tid in range(len(program.threads)):
        com_labels, tr_labels, missing = _walk_thread(
            program, tid, branch_outcomes, cp_assign, speculative
        )
        if missing is not None:
            raise KeyError(missing)
        instrs = {i.label: i for i in program.threads[tid]}
        first = len(events)
        walk = com_labels + tr_labels
        for pos, label in enumerate(walk):
            ins = instrs[label]
            cp = None
            if isinstance(ins.stmt, Beqz):
                cp = not speculative or cp_assign.get((tid, label), True)
                # its outcome decides the next event, unless the walk ends
                # here or both directions reach the fall-through
                if pos + 1 < len(walk) and ins.stmt.target != label + 1:
                    branches.append((len(events), branch_outcomes[(tid, label)]))
            events.append(_instruction_event(len(events), tid, ins, cp))
        # the walk's labels increase (`_walk_thread`), so ids are in label order
        split = first + len(com_labels)
        committed_ids.update(range(first, split))
        transient_ids.update(range(split, len(events)))
        threads.append(tuple(range(first, len(events))))

    return CandidateExecution(
        program=program,
        events=tuple(events),
        committed=frozenset(committed_ids),
        transient=frozenset(transient_ids),
        structure=_skeleton(
            program, events, tuple(threads), tuple(branches), branch_outcomes, cp_assign
        ),
        psf=psf,
    )


def static_skeleton(program: Program) -> tuple[tuple[Event, ...], Skeleton]:
    """The events of every instruction of the loop-free `program` as if all
    executed, after the init events (ids in thread, then label order), and
    their skeleton: its relations and classes hold every pair and member
    that some execution can have."""
    events = list(_init_events(program))
    threads = []
    for tid, instrs in enumerate(program.threads):
        first = len(events)
        events.extend(_instruction_event(first + i, tid, ins) for i, ins in enumerate(instrs))
        threads.append(tuple(range(first, len(events))))
    return tuple(events), _skeleton(program, events, tuple(threads), (), {}, {})


def _skeleton(
    program: Program, events: list[Event], threads: tuple, branches: tuple,
    outcomes: dict, predictions: dict,
) -> Skeleton:
    n = len(events)
    po, fence, addr = [0] * n, [0] * n, [0] * n
    writers: list = [{}] * n
    for tid, ids in enumerate(threads):
        # the register-writer table as each event sees it; a write copies
        # it, so the events between two writes share one
        last: dict[str, int] = {}
        for i in ids:
            writers[i] = last
            reg = stmt_target_reg(events[i].stmt)
            if reg is not None:
                last = {**last, reg: i}

        # po and fence in one backward pass: `later` holds the events after
        # the one at hand, `fenced` those after a fence that follows it
        later = fenced = 0
        for i in reversed(ids):
            po[i], fence[i] = later, fenced
            if events[i].kind == "fence":
                fenced = later
            later |= 1 << i

        # Address dependency: a load feeds the address of a later memory
        # access through a register that no instruction in between
        # (textually) rewrites; each load scans up to the first rewrite.
        text = program.threads[tid]
        at = {events[i].label: i for i in ids}
        for pos, ins in enumerate(text):
            load = at.get(ins.label)
            if load is None or events[load].kind != "load":
                continue
            reg = ins.stmt.reg
            for nxt in text[pos + 1:]:
                b = at.get(nxt.label)
                if (b is not None and events[b].kind in ("load", "store")
                        and reg in expr_registers(nxt.stmt.addr)):
                    addr[load] |= 1 << b
                if stmt_target_reg(nxt.stmt) == reg:
                    break

    return Skeleton(
        threads=threads,
        branches=branches,
        instructions=tuple(e.id for e in events if not e.is_init()),
        loads=tuple(e.id for e in events if e.kind == "load"),
        stores=tuple(e.id for e in events if e.kind == "store"),
        init_by_addr=MappingProxyType({e.addr: e.id for e in events if e.is_init()}),
        po=tuple(po),
        fence=tuple(fence),
        addr=tuple(addr),
        sets=MappingProxyType({
            "E": frozenset(e.id for e in events),
            "M": frozenset(e.id for e in events if e.kind in MEMORY_KINDS),
            "W": frozenset(e.id for e in events if e.kind in WRITE_KINDS),
            "R": frozenset(e.id for e in events if e.kind == "load"),
        }),
        outcomes=MappingProxyType(dict(sorted(outcomes.items()))),
        predictions=MappingProxyType(dict(sorted(predictions.items()))),
        writers=tuple(writers),
    )


# ---------------------------------------------------------------------------
# Value propagation


def secret_sentinel(bits: int) -> int:
    return 1 << bits


_UNSET = object()  # not evaluated yet
# Evaluations nest at most this deep: each level takes a few interpreter
# frames, and one more per level of the expression that reads the input
# (at most `masm._MAX_EXPR_DEPTH`).
_NESTED = 16


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
    must cover every declared address, unless `memo` is given: the memo to
    start from, instead of the one `init_vals` fills.  The engine fills the
    init cells once per skeleton, in a template, and starts each goal test
    from a copy with only the input cells rewritten; the init events
    themselves are built once per program (`_init_events`).
    """

    __slots__ = ("events", "rf_choice", "init_by_addr", "writers", "secret_addr",
                 "mask", "memo", "at", "missing", "depth")

    def __init__(self, x: CandidateExecution, init_vals: dict | None, bits: int,
                 memo: list | None = None):
        self.events, self.rf_choice = x.events, x.rf_choice
        self.init_by_addr, self.writers = x.structure.init_by_addr, x.structure.writers
        self.secret_addr, self.mask = x.program.secret_addr, (1 << bits) - 1
        # node 2 * eid is the address of event eid, node 2 * eid + 1 its value
        if memo is None:
            memo = [_UNSET] * (2 * len(x.events))
            for addr, eid in self.init_by_addr.items():
                memo[2 * eid], memo[2 * eid + 1] = addr, init_vals[addr]
        self.memo = memo
        self.at: dict = {}  # the writers of the registers of the node at hand
        self.missing = None  # an input of that node left for the stack
        self.depth = 0  # the nested evaluations under way

    def value(self, eid: int):
        return self._demand(2 * eid + 1)

    def address(self, eid: int):
        return self._demand(2 * eid)

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
        val = self._demand(node)
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
                choice = self.init_by_addr.get(self._input(node - 1))
            return None if choice is None else self._input(2 * choice + 1)
        if kind is Assign:
            return eval_expr(s.expr, self, self.secret_addr, self.mask)
        if kind is Store:
            return eval_expr(s.value, self, self.secret_addr, self.mask)
        if kind is CondAssign:
            guard = eval_expr(s.guard, self, self.secret_addr, self.mask)
            if guard is None or self.missing is not None:
                return None
            if guard != 0:
                return eval_expr(s.expr, self, self.secret_addr, self.mask)
            return self.get(s.reg, 0)  # the register keeps its old value
        if kind is Beqz:
            return self.get(s.reg, 0)
        return None  # jumps, fences and skips have no value


def rf_rejection(x: CandidateExecution, store: int, load: int, store_addr, load_addr):
    """Why `load` may not read `store` in `x` at these addresses (None: not
    known yet), or None if it may.  A load reads a store at its own address,
    under predictive store forwarding also one `po`-before it with no fence
    in between (a store-buffer alias); a transient store feeds only later
    transient loads of its thread."""
    buffered = x.structure.po[store] >> load & 1
    if None not in (store_addr, load_addr) and store_addr != load_addr:
        if not x.psf:
            return f"reads-from (e{store}, e{load}) joins different addresses"
        if not buffered:
            return f"alias forwarding (e{store}, e{load}) is not a store-buffer pair"
        if x.structure.fence[store] >> load & 1:
            return f"alias forwarding (e{store}, e{load}) crosses a fence"
    if store in x.transient and (load not in x.transient or not buffered):
        return f"transient store e{store} can only feed a later transient load of its thread"
    return None


def propagate_values(x: CandidateExecution, init_vals: dict, bits: int, *,
                     dataflow: Evaluator | None = None):
    """Resolve addresses and values, or report an inconsistency.

    `init_vals` gives the initial value of every declared address (the
    engine fixes non-input locations at 0, the secret at its sentinel, and
    the inputs at the candidate's `inputs`).  Every address and value is
    that of the least fixpoint of the dataflow equations, computed on demand
    by `Evaluator`: registers start at 0 and follow program order within a
    thread, a load takes its source's value, and a value on its own
    dependency cycle stays unresolved.  Returns the valuation, a tuple of
    (addr, val) indexed by event id, and stores it in `x.valuation`; on
    failure `x.valuation` is None and the result an `Inconsistent` with the
    first reason found.  The events are not touched: the data relations the
    valuation induces come from `data_rows`.  A given `dataflow` is an
    `Evaluator` of `x`'s events and rf choice over these `init_vals`.
    """
    events, init_by_addr, rf_choice = x.events, x.structure.init_by_addr, x.rf_choice
    for addr in init_by_addr:
        if addr not in init_vals:
            return _fail(x, f"no initial value for address {addr}")
    if dataflow is None:
        dataflow = Evaluator(x, init_vals, bits)
    addrs, vals = [], []
    for e in events:  # in id order, so a thread's earlier events come first
        addrs.append(dataflow.address(e.id))
        vals.append(dataflow.value(e.id))

    # A load without a source of its own leaves its value unresolved, and
    # otherwise only a dependency cycle does.  An address reads only register
    # values, so it resolves once they do.
    for lid in x.structure.loads:
        choice = rf_choice.get(lid)
        if choice is None:
            return _fail(x, f"load e{lid} has no reads-from source")
        if choice == "init" and addrs[lid] is not None and addrs[lid] not in init_by_addr:
            return _fail(x, f"load e{lid} reads undeclared address {addrs[lid]}")
    for e in x.instruction_events():
        if e.kind in ("load", "store", "cond-jump", "local", "cond-local") and vals[e.id] is None:
            return _fail(x, f"unresolved value at e{e.id} (cyclic dataflow)")

    for sid in x.structure.stores:
        if addrs[sid] not in init_by_addr:
            return _fail(x, f"store e{sid} hits undeclared address {addrs[sid]}")

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
    return Inconsistent(reason)


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

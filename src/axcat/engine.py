"""Isolation checking by exhaustive candidate enumeration.

A program is *unsafe* when some consistent candidate execution contains a
load whose (speculative) reads-from source is the secret init event; the
attacker observes load addresses, so such a load is exactly a read of the
secret.  The candidates of the bounded program are ordered
lexicographically by their choice vector

    control-flow choices (branch outcome and prediction per reached branch)
    x reads-from source per load  x  coherence order  x  input values

`enumerate_candidates` walks this blind product and is kept as the
reference.  `check_isolation` searches it directed instead: each
constraint is decided once, at the stage that first fixes its inputs.
The window and the loads that may leak are decided on the thread walks,
before any skeleton is built; the reads-from rule, must-dependency
cycles, branch agreement and the secret read in `_rf_vectors`, at the
shortest prefix of source choices that fixes them, per input lane; the
rest of the values at its leaf; then the pair's floor, its coherence
classes and the model, with no other filter in between.

Only a load that reads "init" and whose address reads a register or is
the secret's can read the secret: `_query` picks these leaky loads
once, and the control vectors and the reads-from search both read them.
A thread's labels increase along its walk, so its transient events
follow its committed ones.  A vector with a transient walk as long as
the window, or whose walks run no such load, gets no skeleton.  For
every other vector the search builds, from the walks it already made,
the frozen events and their `Skeleton` (thread order, `po`, `fence`,
`addr`, event classes, the register-writer table) once, shared by
reference by every candidate of the vector.

Values do not depend on the coherence order, so the reads-from search
carries one `events.Evaluator` whose lanes are the input vectors, in the
blind order, and a bitset of the lanes still live.  It chooses sources
depth first over the loads in id order, offering each load its sources
in the blind order ("init", then the stores), each prefix with its own
memo, copied from its parent's when a choice goes deeper.  `_waits`
tables, once per skeleton and as bitsets, the loads that each address,
store value and branch value must wait for
(`eval_expr` is strict in None, so an expression waits for the last
writers of its registers, a conditional assignment's value for its guard
only, and a load's value for its source: its own address when it reads
init, else the store's value) and may read (a conditional assignment's
expression and old value too).  What a prefix drops:

  * a store that the reads-from rule, `events.rf_rejection`, rejects at
    the addresses that read no load, once per skeleton: at another
    address than the load's, unless predictive store forwarding is on
    and it is `po`-before the load with no fence in between (a
    store-buffer pair); or transient, unless the load is a later
    transient load of its thread;
  * a source that closes a cycle of must-dependencies, which stays None
    at the least fixpoint of the dataflow;
  * the lanes in which a lane check fails, once every load whose value
    it may read has its source, and whose values, closed over their
    sources, read only such loads: a store at another address than the
    load's, by the same rule, or a branch value that disagrees with its
    outcome.  The walk already followed the chosen outcomes and
    predictions, and ends every transient run before a fence, so the
    control-flow constraints reduce to that agreement
    (`speculation.agrees`);
  * a prefix with no live lane that has, or may still get, a leaky load
    that reads "init" at the secret's address.

The vectors left are the goal tests: each live lane that reads the
secret is valued from the vector's memo, and `_pairs` yields those that
`events.value_rejection` keeps.  Choices are only dropped, never reordered,
so crossed with the coherence orders the pairs are exactly the blind
product's consistent, secret-reading candidates whose skeleton fits the
window and whose branches agree, in the blind order: a subsequence of it.

The model reads the order only through `co`, per address
(`events.data_rows`), so the orders with one per-address projection, a
class, share one verdict, and only the first order of each class in the
blind order is offered.  Where a pair has more than one class and the
model is monotone (`CompiledModel.monotone`), its floor is checked first:
the candidate with the empty order, whose `co` only puts init before each
committed store and so lies within every order's.  If it fails, so does
every order.  The first offered candidate that the model accepts is the
witness the blind product would give; without one the verdict is Safe, or
Unknown if loops could not be fully unrolled.  `candidate_consistent`
runs the whole filter pipeline on one candidate, `check_window` included,
to replay a witness; the search itself calls none of the filters, and
`check_fences` and `catlang.check_srf_fence` run on no candidate here.

Each table is derived at the widest scope it depends on.  Per (model,
cfg), cached: the compiled model (`catlang.compile_model`).  Per program,
kept on it: the unroll per bound (`masm.unroll`), the init events and the
thread tables (`events._tables`).  Per check, as the domain width decides
them (`_query`): the leaky loads and the initial values; no input vector
is kept.  Per control vector: the skeleton, its wait tables, the
addresses that read no load, each load's sources, the search's
evaluator, and the model bound at its first pair
(`CompiledModel.bind`), so every definition that reads no data relation
is evaluated once per vector and a vector without pairs is never bound;
each candidate then only builds the data rows the model reads
(`events.data_rows`) and runs the rest.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass

from . import catlang
from .catlang import CatModel
from .events import (
    CandidateExecution,
    Evaluator,
    _walks,
    base_relations,  # not called here; bench/tracer.py wraps engine.base_relations
    build_events,
    propagate_values,
    rf_rejection,
    secret_sentinel,
    value_rejection,
)
from .masm import (
    Assign,
    Beqz,
    CondAssign,
    Load,
    Program,
    Store,
    eval_expr,
    expr_registers,
    unroll,
)
from .speculation import (
    SpecConfig,
    agrees,
    check_fences,  # not called here; bench/tracer.py wraps engine.check_fences
    check_speculative_cf,
    check_traditional_cf,
    check_window,
)


class EngineError(ValueError):
    pass


@dataclass
class Verdict:
    """The outcome of `check_isolation`.

    `generated` counts the candidates the directed search offered to the
    model before the verdict was reached, not the blind product: the first
    order of each coherence class of each pair that `_pairs` yields, unless
    its floor failed (see the module docstring).
    """

    outcome: str  # "safe" | "unsafe" | "unknown"
    witness: CandidateExecution | None
    generated: int

    @property
    def filtered(self) -> int:
        """The offered candidates that the model rejected: all but the
        witness, the first one it accepts."""
        return self.generated - (self.witness is not None)


def _check_domain(program: Program, domain_bits: int):
    if domain_bits < 0:
        raise EngineError(f"domain width must be >= 0 bits, got {domain_bits}")
    limit = 1 << domain_bits
    worst = program.max_address()
    if worst >= limit:
        raise EngineError(
            f"domain of {domain_bits} bits cannot address {worst} "
            f"(layout and secret need {worst + 1} addresses)"
        )
    if program.input_locations and limit > sys.maxsize:
        raise EngineError(f"domain of {domain_bits} bits has too many input values to enumerate")


def _check_query(program: Program, model: CatModel, cfg: SpecConfig, k: int,
                 domain_bits: int):
    """The preconditions of `check_isolation` and of the solver export: an
    unroll bound of at least 1, predictive store forwarding when the model
    reads srf, and a domain wide enough for the layout."""
    if k < 1:
        raise EngineError("unroll bound must be >= 1")
    if "srf" in model.base_names() and not cfg.psf:
        raise EngineError(
            f"model {model.name!r} references srf but predictive store "
            f"forwarding is disabled"
        )
    _check_domain(program, domain_bits)


def _skeletons(unrolled: Program, cfg: SpecConfig, leaky=None):
    """The event skeleton of every control vector of the program, in the
    blind order, built from the thread walks that chose it.  With `leaky`, a
    set of labels per thread, only the vectors under which every thread's
    transient walk, its one transient run, is shorter than the window and
    some thread runs one of its labels."""
    speculative = cfg.mode == "speculative"
    per_thread = [
        [(o, c, (committed, transient),
          leaky is None or not leaky[tid].isdisjoint(committed + transient))
         for o, c, committed, transient in _walks(unrolled, tid, {}, {}, speculative)
         if leaky is None or len(transient) < cfg.window]
        for tid in range(len(unrolled.threads))
    ]
    for combo in itertools.product(*per_thread):
        if not any(hit for _, _, _, hit in combo):
            continue
        outcomes: dict = {}
        cps: dict = {}
        for o, c, _, _ in combo:
            outcomes.update(o)
            cps.update(c)
        yield build_events(unrolled, outcomes, cps, speculative=speculative, psf=cfg.psf,
                           walks=tuple(walk for _, _, walk, _ in combo))


def enumerate_candidates(program: Program, cfg: SpecConfig, k: int, domain_bits: int):
    """Yield every candidate execution of the k-unrolled program, value
    propagation already attempted, in deterministic lexicographic order."""
    _check_domain(program, domain_bits)
    unrolled = unroll(program, k)
    query, domain = _query(unrolled, domain_bits), range(1 << domain_bits)
    for skeleton in _skeletons(unrolled, cfg):
        load_ids = skeleton.structure.loads
        store_ids = skeleton.structure.stores
        committed_stores = [s for s in store_ids if s in skeleton.committed]
        source_options = ["init", *store_ids]

        for rf_vector in itertools.product(source_options, repeat=len(load_ids)):
            for co_order in itertools.permutations(committed_stores):
                for input_vector in itertools.product(domain, repeat=len(query.inputs)):
                    x = copy.copy(skeleton)
                    x.rf_choice, x.co_order = dict(zip(load_ids, rf_vector)), co_order
                    x.inputs = dict(zip(query.inputs, input_vector))
                    propagate_values(x, {**query.init_vals, **x.inputs}, domain_bits)
                    yield x


@dataclass(frozen=True)
class _Query:
    """What one check derives once and every skeleton of it reads.  It
    depends on the domain width, so it lives only as long as the check."""

    bits: int
    inputs: list  # the input addresses, ascending
    init_vals: dict  # non-input locations start at 0, the secret at its sentinel
    leaky: list  # per thread: the labels of its loads that may read the secret


def _query(unrolled: Program, bits: int) -> _Query:
    secret, mask = unrolled.secret_addr, (1 << bits) - 1
    init_vals = {**dict.fromkeys(unrolled.declared_addresses(), 0), secret: secret_sentinel(bits)}
    # a load may read the secret when it reads init and its address reads a
    # register or is the secret's
    leaky = [{ins.label for ins in instrs if isinstance(ins.stmt, Load)
              and (expr_registers(a := ins.stmt.addr) or eval_expr(a, {}, secret, mask) == secret)}
             for instrs in unrolled.threads]
    return _Query(bits, sorted(unrolled.input_locations), init_vals, leaky)


# ---------------------------------------------------------------------------
# Directed search

# per statement type, the expression that a load's address or the others'
# value must wait for: a conditional assignment's guard, not its expression
_WAITING = {Load: "addr", Assign: "expr", CondAssign: "guard", Store: "value"}


def _over(regs, last: dict, value: dict) -> tuple[int, int]:
    """(must, may) of an expression over `regs`: the union of those of the
    registers' last writers in `last` (a register without one reads 0)."""
    wait = reach = 0
    for r in regs:
        if r in last:
            w, m = value[last[r]]
            wait |= w
            reach |= m
    return wait, reach


def _waits(skeleton: CandidateExecution) -> tuple[dict, dict]:
    """(must, may), bitsets of loads over event ids.  `must`: load or store
    id -> the loads that its address (a load's) or its value (a store's)
    must wait for.  An expression waits for what the last writers (the
    skeleton's `writers`) of its registers wait for, and a load's value for
    the load itself.  `may`: node (as in `Evaluator`) -> the loads whose
    values its evaluation may read, for the address of every load and
    store and the value of every store and branch; as `must`, but a
    conditional assignment may read its expression and the register's old
    value too."""
    events, writers = skeleton.events, skeleton.structure.writers
    value: dict[int, tuple] = {}  # register writer -> (must, may) of its value
    must: dict[int, int] = {}
    may: dict[int, int] = {}
    for eid in skeleton.structure.instructions:
        s = events[eid].stmt
        kind, last = type(s), writers[eid]
        if kind is Beqz:
            may[2 * eid + 1] = _over((s.reg,), last, value)[1]
        if kind not in _WAITING:
            continue
        wait, reach = _over(expr_registers(getattr(s, _WAITING[kind])), last, value)
        if kind is Load:
            must[eid], may[2 * eid] = wait, reach
            value[eid] = (1 << eid, 1 << eid)
        elif kind is Store:
            must[eid], may[2 * eid + 1] = wait, reach
            may[2 * eid] = _over(expr_registers(s.addr), last, value)[1]
        elif kind is Assign:
            value[eid] = wait, reach
        else:
            value[eid] = wait, reach | _over(expr_registers(s.expr) | {s.reg}, last, value)[1]
    return must, may


def _sources(skeleton: CandidateExecution, load: int, fixed: dict) -> list:
    """The load's rf sources in the blind order: "init", then the stores
    that `rf_rejection` allows at the addresses in `fixed` (None: not known
    before the search)."""
    return ["init", *(
        store for store in skeleton.structure.stores
        if rf_rejection(skeleton, store, load, fixed[store], fixed[load]) is None
    )]


# the kinds of a lane check: (requirement, kind, a, b)
_RF, _SECRET, _BRANCH = range(3)


def _decide(x: CandidateExecution, dataflow: Evaluator, checks, live: int, seen: int,
            full: int):
    """Decide `checks` on the cells of `dataflow`, whose lanes `full` holds
    as a bitset: (live, seen).  An rf check (load a reads store b) keeps
    in `live` the lanes where `rf_rejection` allows it at their addresses,
    a branch check (event a, taken b) the lanes where its value sends it
    that way; a secret check (load a reads init) adds to `seen` the lanes
    where its address is the secret's."""
    secret = x.program.secret_addr
    for _, kind, a, b in checks:
        if kind == _SECRET:
            cell = dataflow.address(a)
            if type(cell) is not tuple:
                seen |= full if cell == secret else 0
            else:
                for lane, at in enumerate(cell):
                    if at == secret:
                        seen |= 1 << lane
            continue
        if kind == _BRANCH:
            cell = dataflow.value(a)
            if type(cell) is not tuple:
                live &= full if agrees(cell, b) else 0
            else:
                for lane, value in enumerate(cell):
                    if not agrees(value, b):
                        live &= ~(1 << lane)
            continue
        to, at = dataflow.address(b), dataflow.address(a)
        if type(to) is not tuple and type(at) is not tuple:
            live &= full if to == at or rf_rejection(x, b, a, to, at) is None else 0
        else:  # where the addresses differ, the rule says the same in every lane
            width, alias = full.bit_length(), None
            tos = to if type(to) is tuple else (to,) * width
            ats = at if type(at) is tuple else (at,) * width
            for lane, (t, l) in enumerate(zip(tos, ats)):
                if t != l and t is not None and l is not None:
                    if alias is None:
                        alias = rf_rejection(x, b, a, t, l) is None
                    if not alias:
                        live &= ~(1 << lane)
    return live, seen


def _rf_vectors(skeleton: CandidateExecution, dataflow: Evaluator, may_read: int, full: int):
    """(reads-from vector, memo, live, seen) per vector over the skeleton's
    loads (in id order) in which some live lane reads the secret, in the
    blind lexicographic order (see the module docstring).  `dataflow`
    evaluates the skeleton, its lanes make up `full`, a bitset, and the
    search sets its `rf_choice` to the prefix at hand; `may_read` is the
    bitset of the leaky loads.

    Before the first choice: the address of a load or store that reads no
    load is the same in every lane, so a leaky load with one reads the
    secret in every lane or in none, and `_sources` prunes with these
    addresses; a branch whose value reads no load agrees in every lane or
    in none.  Where no vector can read the secret nothing is yielded.

    A choice whose source's must-wait set (`_waits`), closed over the
    needs of the loads chosen before, holds the load closes a cycle and is
    dropped.  A chosen load is settled once every load that its value may
    read is settled; a lane check is decided once every load that its
    nodes may read is, for its nodes then hold what they hold in every
    vector with this prefix.  Each prefix has its own memo.  A check ready
    before a load's choice is decided in it, shared by the load's choices;
    a choice that goes deeper copies it before deciding the checks it makes
    ready.  At the last load every check left is decided, in the memo
    yielded, which the goal test continues."""
    structure = skeleton.structure
    loads = structure.loads
    prefix = dataflow.rf_choice = {}
    waits, may = _waits(skeleton)
    fixed = {eid: None if may[2 * eid] else dataflow.address(eid)
             for eid in (*loads, *structure.stores)}
    may_read &= ~sum(1 << load for load in loads
                     if fixed[load] not in (None, skeleton.program.secret_addr))
    checks = []
    for eid, taken in structure.branches:
        if may[2 * eid + 1]:
            checks.append((may[2 * eid + 1], _BRANCH, eid, taken))
        elif not agrees(dataflow.value(eid), taken):
            return  # a branch disagrees in every lane
    if not may_read:
        return
    # per load and source: (source, its must-wait set, the loads the load's
    # value then may read, its lane check or None)
    options = [
        [(source, waits[load], may[2 * load],
          (may[2 * load], _SECRET, load, None) if may_read >> load & 1 else None)
         if source == "init" else
         (source, waits[source], may[2 * source + 1],
          (may[2 * load] | may[2 * source], _RF, load, source)
          if may[2 * load] | may[2 * source] else None)
         for source in _sources(skeleton, load, fixed)]
        for load in loads
    ]
    n = len(loads)
    # per depth, what its prefix decided: (memo, live, seen, settled,
    # pending checks, the loads whose secret check is pending)
    frames = [(dataflow.memo, full, 0, 0, tuple(checks), 0)] + [None] * n
    every = sum(1 << load for load in loads)
    needs: dict[int, int] = {}  # load chosen before the one at hand -> its needs
    reads: dict[int, int] = {}  # chosen load -> the loads its value may read
    cursor = [0] * n
    depth = 0
    while depth >= 0:
        row, at = options[depth], cursor[depth]
        if at == len(row):
            cursor[depth] = 0
            depth -= 1
            continue
        cursor[depth] = at + 1
        source, need, read, check = row[at]
        memo, live, seen, settled, checks, open_ = frames[depth]
        load = loads[depth]
        init = source == "init"
        if not (live & seen or open_ or may_read >> load + 1 or init and check):
            # no lane can read the secret any more, nor through a later store
            cursor[depth] = len(row)
            continue
        reached = todo = need  # closed over the needs of the loads chosen so far
        while todo and not reached >> load & 1:
            m = todo.bit_length() - 1
            todo ^= 1 << m
            if m < load:  # chosen, as every earlier load is
                todo |= needs[m] & ~reached
                reached |= needs[m]
        if reached >> load & 1:
            continue
        needs[load] = need
        reads[load] = read
        prefix[load] = source
        if check is None:
            pass
        elif check[0] & ~settled:
            checks += (check,)
            if init:
                open_ |= 1 << load
        else:  # ready before the choice: shared by every choice of this load
            dataflow.memo = memo
            live, seen = _decide(skeleton, dataflow, (check,), live, seen, full)
        if not live:
            continue
        if depth + 1 == n:  # every load has its source: decide what is left
            if checks or live & seen:
                memo = dataflow.memo = memo[:]  # the goal test writes to it too
                live, seen = _decide(skeleton, dataflow, checks, live, seen, full)
                if live & seen:
                    yield tuple(prefix.values()), memo, live, seen
            continue
        memo = dataflow.memo = memo[:]  # the next depth's own
        if not read & ~settled:
            settled |= 1 << load
            waiting = every & (1 << load) - 1 & ~settled  # chosen, not settled
            while waiting:  # the loads chosen before that this one settles
                now = sum(1 << m for m in reads if waiting >> m & 1 and not reads[m] & ~settled)
                if not now:
                    break
                settled |= now
                waiting ^= now
            ready = checks and tuple(c for c in checks if not c[0] & ~settled)
            if ready:
                live, seen = _decide(skeleton, dataflow, ready, live, seen, full)
                checks = tuple(c for c in checks if c[0] & ~settled)
                open_ = sum(1 << c[2] for c in checks if c[1] == _SECRET)
        if live and (live & seen or open_ or may_read >> load + 1):
            depth += 1
            frames[depth] = memo, live, seen, settled, checks, open_


def _pairs(skeleton: CandidateExecution, query: _Query):
    """Per reads-from vector, in the blind order, the value-consistent
    (rf, inputs) pairs that read the secret and whose branches agree with
    their outcomes, inputs in the blind order, each as its floor: the
    candidate with the empty coherence order.  Lane i is the blind
    product's input vector i, so one search of `_rf_vectors` covers every
    input.  Each live lane of a yielded vector that reads the secret is
    valued from its memo and kept unless `value_rejection` says why not."""
    bits, inputs = query.bits, query.inputs
    events, loads = skeleton.events, skeleton.structure.loads
    # the leaky loads, as a bitset
    may_read = sum(1 << load for load in loads
                   if events[load].label in query.leaky[events[load].thread])
    vectors = list(itertools.product(range(1 << bits), repeat=len(inputs)))
    width = len(vectors)
    full = (1 << width) - 1
    # each input's cell: its value in every lane
    dataflow = Evaluator(skeleton, {**query.init_vals, **dict(zip(inputs, zip(*vectors)))}, bits)
    for vector, dataflow.memo, live, seen in _rf_vectors(skeleton, dataflow, may_read, full):
        rf, lanes, passing = dict(zip(loads, vector)), live & seen, []
        for lane in range(width):
            if not lanes >> lane & 1:
                continue
            x = copy.copy(skeleton)
            x.rf_choice, x.inputs = rf, dict(zip(inputs, vectors[lane]))
            nodes = dataflow.nodes(lane)  # in id order, each event's address then value
            addrs, vals = nodes[0::2], nodes[1::2]
            if value_rejection(x, addrs, vals) is None:
                x.valuation = tuple(zip(addrs, vals))
                passing.append(x)
        if passing:
            yield passing


def candidate_consistent(x: CandidateExecution, model: CatModel, cfg: SpecConfig):
    """Run the full filter pipeline on a propagated candidate.

    Returns (consistent, reason): reason names the first failed filter.
    """
    if x.valuation is None:
        return False, f"values: {x.inconsistency}"
    if cfg.mode == "traditional" and not check_traditional_cf(x):
        return False, "control flow"
    if cfg.mode == "speculative" and not check_speculative_cf(x, cfg):
        return False, "speculative control flow"
    if not check_window(x, cfg.window):
        return False, "speculation window"
    ok, violated = catlang.compile_model(model, cfg).bind(x.structure).check(x)
    if not ok:
        return False, f"assertion {violated[0]} {violated[1]}"
    return True, None


def violating_load(x: CandidateExecution) -> int | None:
    """Id of the first load reading the secret init event, if any: a load
    that reads init at the secret's address."""
    if x.valuation is None:
        return None
    secret = x.program.secret_addr
    for load in x.structure.loads:
        if x.rf_choice[load] == "init" and x.valuation[load][0] == secret:
            return load
    return None


def check_isolation(
    program: Program,
    model: CatModel,
    cfg: SpecConfig,
    k: int = 2,
    domain_bits: int = 3,
) -> Verdict:
    """Decide software isolation for the k-unrolled program under `model`."""
    _check_query(program, model, cfg, k, domain_bits)
    compiled = catlang.compile_model(model, cfg)
    unrolled = unroll(program, k)
    query = _query(unrolled, domain_bits)
    generated = 0
    # a control vector that runs no leaky load, or whose skeleton would not
    # fit the window, has no candidate, and `_skeletons` does not build it
    for skeleton in _skeletons(unrolled, cfg, query.leaky):
        bound = None  # bound at the vector's first pair
        stores = tuple(s for s in skeleton.structure.stores if s in skeleton.committed)
        for passing in _pairs(skeleton, query):
            if bound is None:
                bound = compiled.bind(skeleton.structure)
            offered = []  # (floor, its stores' addresses, the classes seen, their count)
            for x in passing:
                at = {s: x.valuation[s][0] for s in stores}
                classes = math.prod(map(math.factorial, Counter(at.values()).values()))
                if compiled.monotone and classes > 1 and not bound.check(x)[0]:
                    continue  # the floor fails, and so does every order
                offered.append((x, at, set(), classes))
            for order in itertools.permutations(stores):
                for x, at, seen, classes in offered:
                    # a stable sort by address: the per-address projection
                    projection = tuple(sorted(order, key=at.__getitem__))
                    if projection in seen:
                        continue  # its class's first order was checked
                    seen.add(projection)
                    generated += 1
                    y = copy.copy(x)
                    y.co_order = order
                    if bound.check(y)[0]:
                        # every candidate reads the secret: the first
                        # consistent one is the witness
                        return Verdict("unsafe", y, generated)
                # a pair whose classes have all been checked needs no later order
                offered = [o for o in offered if len(o[2]) < o[3]]
                if not offered:
                    break
    outcome = "unknown" if unrolled.unroll_incomplete else "safe"
    return Verdict(outcome, None, generated)

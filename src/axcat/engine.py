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
before any skeleton is built; the reads-from rule and must-dependency
cycles in `_rf_vectors`, per source choice; the secret read and branch
agreement in the goal test, per (reads-from, inputs) pair; the values in
propagation; then the pair's floor, its coherence classes and the model,
with no other filter in between.

Only a load that reads "init" and whose address reads a register or is
the secret's can read the secret.  A thread's labels increase along its
walk, so its transient events follow its committed ones.  A vector with a
transient walk as long as the window, or whose walks run no such load,
gets no skeleton.  For every other vector the search builds the frozen
events and their `Skeleton` (thread order, `po`, `fence`, `addr`, event
classes, the register-writer table) once, shared by reference by every
candidate of the vector, and a table of its register-free load and store
addresses.  It then chooses reads-from sources depth first over the loads
in id order, offering each load its sources in the blind order ("init",
then the stores) minus those that fail value propagation for every
coherence order and every input.  A reads-from vector must have some such
load read "init"; a prefix is dropped as soon as no later load can.  The
sources dropped per load:

  * a store that the reads-from rule, `events.rf_rejection`, rejects at
    the register-free addresses: at another address than the load's,
    unless predictive store forwarding is on and it is `po`-before the
    load with no fence in between (a store-buffer pair); or transient,
    unless the load is a later transient load of its thread;
  * a source that closes a cycle of must-dependencies.  Since `eval_expr`
    is strict in None, an expression waits for the last writers of the
    registers it reads (a conditional assignment's value for its guard
    only), and a load's value for its source: its own address when it
    reads init, else the store's value.  `_waits` tables, once per
    skeleton, the loads each address and store value waits for as a
    bitset; a cycle through them stays None at the least fixpoint that
    value propagation computes.

Values do not depend on the coherence order, so the goal test runs once
per (reads-from vector, input vector) pair: `events.Evaluator` evaluates
on demand the addresses of the loads that read "init" and may read the
secret, and only if one is the secret's, the values of the skeleton's
branches.  The walk already followed the chosen outcomes and predictions,
and ends every transient run before a fence, so the control-flow
constraints reduce to these values agreeing with the outcomes
(`speculation._branches_agree`).  Only a pair that passes both is
propagated, and `_pairs` yields those left value-consistent.  Crossed with
the coherence orders, they are exactly the blind product's consistent,
secret-reading candidates whose skeleton fits the window and whose
branches agree, in the blind order: a subsequence of it.

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
runs the whole filter pipeline on one candidate, to replay a witness;
`check_window`, `check_fences` and `catlang.check_srf_fence` run on no
candidate here.

The model is compiled once per (model, cfg) and cached, and bound at the
first pair of each control vector (`catlang.compile_model`,
`CompiledModel.bind`), so every definition in it that reads no data
relation is evaluated once per vector, and a vector without pairs is
never bound; each check then only builds the data rows the model reads
(`events.data_rows`) and runs the rest.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from . import catlang
from .catlang import CatModel
from .events import (
    CandidateExecution,
    Evaluator,
    _walk_thread,
    base_relations,  # not called here; bench/tracer.py wraps engine.base_relations
    build_events,
    propagate_values,
    rf_rejection,
    secret_sentinel,
)
from .masm import (
    Assign,
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
    _branches_agree,
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
    its floor failed (see the module docstring).  `filtered` counts those
    that the model rejected.
    """

    outcome: str  # "safe" | "unsafe" | "unknown"
    witness: CandidateExecution | None
    generated: int
    filtered: int


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


def _thread_vectors(program: Program, tid: int, cfg: SpecConfig):
    """All (outcomes, cp, committed, transient) assignments for the branches
    this thread reaches, with the labels it runs committed and transient,
    depth first over the first branch each walk reaches without an outcome:
    not taken before taken, correct before mispredicted."""
    speculative = cfg.mode == "speculative"
    cp_values = (False, True) if speculative else (True,)  # pushed in reverse
    stack = [({}, {})]
    while stack:
        outcomes, cps = stack.pop()
        committed, transient, missing = _walk_thread(program, tid, outcomes, cps, speculative)
        if missing is None:
            yield outcomes, cps, committed, transient
        else:
            stack.extend(({**outcomes, missing: taken}, {**cps, missing: cp})
                         for taken in (True, False) for cp in cp_values)


def _control_vectors(program: Program, cfg: SpecConfig, leaky=None):
    """Every (outcomes, cps) choice of the program, in the blind order.
    With `leaky`, a set of labels per thread, only the choices under which
    every thread's transient walk, its one transient run, is shorter than
    the window and some thread runs one of its labels."""
    per_thread = [
        [(o, c, leaky is None or not leaky[tid].isdisjoint(committed + transient))
         for o, c, committed, transient in _thread_vectors(program, tid, cfg)
         if leaky is None or len(transient) < cfg.window]
        for tid in range(len(program.threads))
    ]
    for combo in itertools.product(*per_thread):
        if not any(hit for _, _, hit in combo):
            continue
        outcomes: dict = {}
        cps: dict = {}
        for o, c, _ in combo:
            outcomes.update(o)
            cps.update(c)
        yield outcomes, cps


def _skeletons(unrolled: Program, cfg: SpecConfig, leaky=None):
    """The event skeleton of every control vector that `_control_vectors`
    yields, in the blind order."""
    speculative = cfg.mode == "speculative"
    for outcomes, cps in _control_vectors(unrolled, cfg, leaky):
        yield build_events(
            unrolled, outcomes, cps, speculative=speculative, psf=cfg.psf
        )


def _initial_values(program: Program, domain_bits: int) -> dict:
    """Non-input locations start at 0, the secret at its sentinel."""
    init_vals = {a: 0 for a in program.declared_addresses()}
    init_vals[program.secret_addr] = secret_sentinel(domain_bits)
    return init_vals


def enumerate_candidates(program: Program, cfg: SpecConfig, k: int, domain_bits: int):
    """Yield every candidate execution of the k-unrolled program, value
    propagation already attempted, in deterministic lexicographic order."""
    _check_domain(program, domain_bits)
    unrolled = unroll(program, k)
    domain = range(1 << domain_bits)
    inputs = sorted(program.input_locations)
    init_vals = _initial_values(program, domain_bits)

    for skeleton in _skeletons(unrolled, cfg):
        load_ids = skeleton.structure.loads
        store_ids = skeleton.structure.stores
        committed_stores = [s for s in store_ids if s in skeleton.committed]
        source_options = ["init", *store_ids]

        for rf_vector in itertools.product(source_options, repeat=len(load_ids)):
            for co_order in itertools.permutations(committed_stores):
                for input_vector in itertools.product(domain, repeat=len(inputs)):
                    x = copy.copy(skeleton)
                    x.rf_choice, x.co_order = dict(zip(load_ids, rf_vector)), co_order
                    x.inputs = dict(zip(inputs, input_vector))
                    propagate_values(x, {**init_vals, **x.inputs}, domain_bits)
                    yield x


# ---------------------------------------------------------------------------
# Directed search

def _fixed_address(s: Load | Store, secret_addr: int, mask: int) -> int | None:
    """The address of a load or store whose address reads no register."""
    if expr_registers(s.addr):
        return None
    return eval_expr(s.addr, {}, secret_addr, mask)


def _sources(skeleton: CandidateExecution, load: int, fixed: dict) -> list:
    """The load's rf sources in the blind order: "init", then the stores
    that `rf_rejection` allows at the register-free addresses in `fixed`."""
    return ["init", *(
        store for store in skeleton.structure.stores
        if rf_rejection(skeleton, store, load, fixed[store], fixed[load]) is None
    )]


# per statement type, the expression that a load's address or the others'
# value must wait for: a conditional assignment's guard, not its expression
_WAITING = {Load: "addr", Assign: "expr", CondAssign: "guard", Store: "value"}


def _waits(skeleton: CandidateExecution) -> dict:
    """Load or store id -> the loads, a bitset over event ids, that its
    address (a load's) or its value (a store's) must wait for.  An
    expression waits for what the last writers (the skeleton's `writers`)
    of its registers wait for, and a load's value for the load itself."""
    events, writers = skeleton.events, skeleton.structure.writers
    value: dict[int, int] = {}  # register writer -> the loads its value waits for
    waits: dict[int, int] = {}
    for eid in skeleton.structure.instructions:
        s = events[eid].stmt
        if type(s) not in _WAITING:
            continue
        last, wait = writers[eid], 0
        for r in expr_registers(getattr(s, _WAITING[type(s)])):
            if r in last:
                wait |= value[last[r]]
        waits[eid] = wait
        value[eid] = 1 << eid if isinstance(s, Load) else wait
    return waits


def _rf_vectors(skeleton: CandidateExecution, fixed: dict, may_read: int):
    """(reads-from vector, hit) for the vectors over the skeleton's loads
    (in id order) in which some load of `may_read`, a bitset over event
    ids, reads init, in the blind lexicographic order: `hit` is the bitset
    of those loads.  Minus every vector that the reads-from rule of
    `_sources` or a must-dependency cycle dooms: a choice needs what its
    source waits for (`_waits`: the load's address for init, else the
    store's value), and closes a cycle when that set, closed over the needs
    of the loads chosen before, holds the load.  Iterative depth-first
    search; a prefix is dropped once no later load can read the secret."""
    loads = skeleton.structure.loads
    if not may_read:
        return
    options = [_sources(skeleton, load, fixed) for load in loads]
    waits = _waits(skeleton)
    needs: dict[int, int] = {}  # load chosen before the one at hand -> its needs
    chosen: list = [None] * len(loads)
    cursor = [0] * len(loads)
    hit = [0] * (len(loads) + 1)  # hit[i]: the loads that read it in the first i
    depth = 0
    while depth >= 0:
        load = loads[depth]
        if cursor[depth] == len(options[depth]):
            cursor[depth] = 0
            depth -= 1
            continue
        source = options[depth][cursor[depth]]
        cursor[depth] += 1
        hit[depth + 1] = hit[depth] | (may_read & 1 << load if source == "init" else 0)
        if not (hit[depth + 1] or may_read >> load + 1):
            continue
        need = waits[load if source == "init" else source]
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
        chosen[depth] = source
        if depth + 1 == len(loads):
            yield tuple(chosen), hit[depth + 1]
        else:
            depth += 1


def _pairs(skeleton: CandidateExecution, domain_bits: int):
    """Per reads-from vector, in the blind order, the value-consistent
    (rf, inputs) pairs that read the secret and whose branches agree with
    their outcomes, inputs in the blind order, each as its floor: the
    candidate with the empty coherence order.  The goal test evaluates the
    addresses of the vector's `hit` loads, and only a pair where one is the
    secret's and the branch values agree is propagated, on from the goal
    test's `Evaluator`: a pair it leaves consistent reads the secret."""
    program = skeleton.program
    secret, mask = program.secret_addr, (1 << domain_bits) - 1
    inputs = sorted(program.input_locations)
    init_vals = _initial_values(program, domain_bits)
    load_ids, branches = skeleton.structure.loads, skeleton.structure.branches
    input_vectors = list(itertools.product(range(1 << domain_bits), repeat=len(inputs)))
    # the address of every load and store whose address reads no register
    memory = (*skeleton.loads(), *skeleton.stores())
    fixed = {e.id: _fixed_address(e.stmt, secret, mask) for e in memory}
    # the loads that may read the secret when they read init, as a bitset
    may_read = sum(1 << load for load in load_ids if fixed[load] in (None, secret))
    probe = copy.copy(skeleton)  # the goal test's candidate, one rf vector at a time
    # the memo with every init cell filled, and the value cells of the inputs
    template = Evaluator(probe, init_vals, domain_bits).memo
    cells = [2 * skeleton.structure.init_by_addr[a] + 1 for a in inputs]
    for rf_vector, hit in _rf_vectors(skeleton, fixed, may_read):
        probe.rf_choice = dict(zip(load_ids, rf_vector))
        readers = [load for load in load_ids if hit >> load & 1]
        passing = []
        for values in input_vectors:
            memo = template[:]
            for cell, value in zip(cells, values):
                memo[cell] = value
            dataflow = Evaluator(probe, None, domain_bits, memo)
            if (all(dataflow.address(load) != secret for load in readers)
                    or not _branches_agree(branches, dataflow.value)):
                continue
            x = copy.copy(probe)
            x.inputs = dict(zip(inputs, values))
            propagate_values(x, {**init_vals, **x.inputs}, domain_bits, dataflow=dataflow)
            if x.valuation is not None:  # a reader reads init at the secret
                passing.append(x)
        if passing:
            yield passing


def candidate_consistent(
    x: CandidateExecution, model: CatModel, cfg: SpecConfig, bound=None
):
    """Run the full filter pipeline on a propagated candidate.

    Returns (consistent, reason): reason names the first failed filter.
    `bound` is `catlang.compile_model(model, cfg).bind(x.structure)`; it is
    computed here when omitted.
    """
    if x.valuation is None:
        return False, f"values: {x.inconsistency}"
    if cfg.mode == "traditional" and not check_traditional_cf(x):
        return False, "control flow"
    if cfg.mode == "speculative" and not check_speculative_cf(x, cfg):
        return False, "speculative control flow"
    if not check_window(x, cfg.window):
        return False, "speculation window"
    if bound is None:
        bound = catlang.compile_model(model, cfg).bind(x.structure)
    ok, violated = bound.check(x)
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
    secret, mask = program.secret_addr, (1 << domain_bits) - 1
    # per thread, the labels of its loads that may read the secret: a
    # control vector that runs none of them, or whose skeleton would not fit
    # the window, has no candidate, and `_skeletons` does not build it
    leaky = [
        {ins.label for ins in instrs
         if isinstance(ins.stmt, Load)
         and _fixed_address(ins.stmt, secret, mask) in (None, secret)}
        for instrs in unrolled.threads
    ]
    generated = filtered = 0
    for skeleton in _skeletons(unrolled, cfg, leaky):
        bound = None  # bound at the vector's first pair
        stores = tuple(s for s in skeleton.structure.stores if s in skeleton.committed)
        for passing in _pairs(skeleton, domain_bits):
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
                        return Verdict("unsafe", y, generated, filtered)
                    filtered += 1
                # a pair whose classes have all been checked needs no later order
                offered = [o for o in offered if len(o[2]) < o[3]]
                if not offered:
                    break
    outcome = "unknown" if unrolled.unroll_incomplete else "safe"
    return Verdict(outcome, None, generated, filtered)

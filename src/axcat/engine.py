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
agreement in the goal test, per reads-from vector and input lane; the
values in propagation; then the pair's floor, its coherence classes and
the model, with no other filter in between.

Only a load that reads "init" and whose address reads a register or is
the secret's can read the secret: `_query` picks these leaky loads
once, and the control vectors and the reads-from search both read them.
A thread's labels increase along its walk, so its transient events
follow its committed ones.  A vector with a transient walk as long as
the window, or whose walks run no such load, gets no skeleton.  For
every other vector the search builds, from the walks it already made,
the frozen events and their `Skeleton` (thread order, `po`, `fence`,
`addr`, event classes, the register-writer table) once, shared by
reference by every candidate of the vector.  It then chooses reads-from
sources depth first over the loads in id order, offering each load its
sources in the blind order ("init", then the stores) minus those that
fail value propagation for every coherence order and every input.  A
reads-from vector must have some such load read "init"; a prefix is
dropped as soon as no later load can.  The sources dropped per load:

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

Values do not depend on the coherence order, so one goal test, an
`events.Evaluator` whose lanes are the last input's values (the other
inputs iterated outside it), runs per reads-from vector.  It evaluates
on demand the addresses of the loads that read "init" and may read the
secret, and in a lane where one is the secret's, the skeleton's
branches.  The walk already followed the chosen outcomes and
predictions, and ends every transient run before a fence, so the
control-flow constraints reduce to these values agreeing with the
outcomes (`speculation._branches_agree`).  Only a pair that passes both
is propagated, and `_pairs` yields those left value-consistent.  Crossed
with the coherence orders, they are exactly the blind product's
consistent, secret-reading candidates whose skeleton fits the window and
whose branches agree, in the blind order: a subsequence of it.

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

Each table is derived at the widest scope it depends on.  Per (model,
cfg), cached: the compiled model (`catlang.compile_model`).  Per program,
kept on it: the unroll per bound (`masm.unroll`), the init events and the
thread tables (`events._tables`).  Per check, as the domain width decides
them (`_query`): the register-free load and store addresses, which pick
the leaky loads and each skeleton's sources, and the initial values; no
input vector is kept.  Per control vector: the skeleton, its wait table,
its goal-test memo template, and the model bound at its first pair
(`CompiledModel.bind`), so every definition that reads no data relation
is evaluated once per vector and a vector without pairs is never bound;
each candidate then only builds the data rows the model reads
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
    MixedGuard,
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
    """Every (outcomes, cps, walks) choice of the program, in the blind
    order, with `walks` each thread's (committed, transient) labels under
    it.  With `leaky`, a set of labels per thread, only the choices under
    which every thread's transient walk, its one transient run, is shorter
    than the window and some thread runs one of its labels."""
    per_thread = [
        [(o, c, (committed, transient),
          leaky is None or not leaky[tid].isdisjoint(committed + transient))
         for o, c, committed, transient in _thread_vectors(program, tid, cfg)
         if leaky is None or len(transient) < cfg.window]
        for tid in range(len(program.threads))
    ]
    for combo in itertools.product(*per_thread):
        if not any(hit for _, _, _, hit in combo):
            continue
        outcomes: dict = {}
        cps: dict = {}
        for o, c, _, _ in combo:
            outcomes.update(o)
            cps.update(c)
        yield outcomes, cps, tuple(walk for _, _, walk, _ in combo)


def _skeletons(unrolled: Program, cfg: SpecConfig, leaky=None):
    """The event skeleton of every control vector that `_control_vectors`
    yields, in the blind order, built from the walks it made."""
    speculative = cfg.mode == "speculative"
    for outcomes, cps, walks in _control_vectors(unrolled, cfg, leaky):
        yield build_events(unrolled, outcomes, cps, speculative=speculative, psf=cfg.psf,
                           walks=walks)


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
    fixed: list  # per thread: load or store label -> its register-free address, or None
    leaky: list  # per thread: the labels of its loads that may read the secret


def _query(unrolled: Program, bits: int) -> _Query:
    secret, mask = unrolled.secret_addr, (1 << bits) - 1
    init_vals = {**dict.fromkeys(unrolled.declared_addresses(), 0), secret: secret_sentinel(bits)}
    fixed = [
        {ins.label: None if expr_registers(a) else eval_expr(a, {}, secret, mask)
         for ins in instrs if isinstance(ins.stmt, (Load, Store)) for a in [ins.stmt.addr]}
        for instrs in unrolled.threads
    ]
    # a load may read the secret when it reads init and its register-free
    # address is unknown or the secret's
    leaky = [{ins.label for ins in instrs if isinstance(ins.stmt, Load)
              and addrs[ins.label] in (None, secret)}
             for instrs, addrs in zip(unrolled.threads, fixed)]
    return _Query(bits, sorted(unrolled.input_locations), init_vals, fixed, leaky)


# ---------------------------------------------------------------------------
# Directed search

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


def _pairs(skeleton: CandidateExecution, query: _Query):
    """Per reads-from vector, in the blind order, the value-consistent
    (rf, inputs) pairs that read the secret and whose branches agree with
    their outcomes, inputs in the blind order, each as its floor: the
    candidate with the empty coherence order.  The goal test evaluates the
    addresses of the vector's `hit` loads, and only a pair where one is the
    secret's and the branch values agree is propagated, on from the goal
    test's `Evaluator`: a pair it leaves consistent reads the secret.  Its
    lanes are the last input's values, the other inputs iterated outside;
    after a `MixedGuard` each remaining lane runs alone."""
    secret, bits, inputs = skeleton.program.secret_addr, query.bits, query.inputs
    events, load_ids = skeleton.events, skeleton.structure.loads
    branches = skeleton.structure.branches
    # the address of every load and store whose address reads no register
    fixed = {eid: query.fixed[events[eid].thread][events[eid].label]
             for eid in (*load_ids, *skeleton.structure.stores)}
    # the leaky loads, as a bitset
    may_read = sum(1 << load for load in load_ids
                   if events[load].label in query.leaky[events[load].thread])
    probe = copy.copy(skeleton)  # the goal test's candidate, one rf vector at a time
    domain = range(1 << bits)
    lanes = tuple(domain) if inputs else (None,)  # the last input's value per lane
    last = (lanes if len(lanes) > 1 else lanes[0],)  # their cell: plain for one lane
    # the memo with every init cell filled, and the value cells of the inputs
    template = Evaluator(probe, query.init_vals, bits).memo
    cells = [2 * skeleton.structure.init_by_addr[a] + 1 for a in inputs]
    for rf_vector, hit in _rf_vectors(skeleton, fixed, may_read):
        probe.rf_choice = dict(zip(load_ids, rf_vector))
        readers = [load for load in load_ids if hit >> load & 1]
        passing = []
        for head in itertools.product(domain, repeat=max(len(inputs) - 1, 0)):
            evaluations = [lanes]  # and one per lane left after a `MixedGuard`
            for block in evaluations:
                memo = template[:]
                for cell, value in zip(cells, head + (last if block is lanes else block)):
                    memo[cell] = value
                dataflow = Evaluator(probe, None, bits, memo)
                try:
                    for lane in range(len(block)):
                        if (all(dataflow.address(load, lane) != secret for load in readers)
                                or not _branches_agree(branches,
                                                       lambda e: dataflow.value(e, lane))):
                            continue
                        x = copy.copy(probe)
                        x.inputs = dict(zip(inputs, (*head, block[lane])))
                        propagate_values(x, {**query.init_vals, **x.inputs}, bits,
                                         dataflow=dataflow, lane=lane if len(block) > 1 else None)
                        if x.valuation is not None:  # a reader reads init at the secret
                            passing.append(x)
                except MixedGuard:
                    evaluations += [(value,) for value in block[lane:]]
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

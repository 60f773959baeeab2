"""Solver-format export of the isolation query.

Emits a self-contained SMT-LIB2 (QF_BV) file that is satisfiable exactly
when some consistent candidate execution of the k-unrolled program reads
the secret init event.  The encoding mirrors the enumeration semantics:

  * per-instance booleans for committed/transient execution, with
    two-sided control-flow clauses so executions extend maximally and
    transient runs stop at fences and correctly predicted branches;
  * values as bitvectors one bit wider than the domain, masked after
    every operation, so the secret sentinel (2^bits) stays out of band;
  * reads-from selector booleans per (write, load) pair of the reads-from
    support, carrying value flow, address agreement (or the store-buffer
    alias rule under predictive forwarding), and transient-store visibility;
  * coherence as per-store ranks over committed stores per address, kept
    apart for the store pairs whose address sets meet;
  * derived relations as pair booleans, with derivation ranks on
    recursive groups so the solution is the least fixpoint, and
    order-variable encodings for acyclicity assertions.

The events and their skeleton come from `events.static_skeleton`: every
instruction instance of the unrolled program, as if all executed.  Every
term has a static support: bitset rows of the pairs at which its formula
may be other than FALSE.  A base relation's support is the skeleton's `po`,
`fence` or `addr` rows, or the pairs of its event classes (W x R for `rf`
and `srf`, stores x other threads' loads for `rfe`, W x stores for `co`,
M x M for `loc`) whose address sets meet, by `events.value_sets` computed
once per export; `srf` also keeps the store-buffer pairs of a store and a
later load of its thread.  A derived term's support is computed from
those with `catlang`'s row operations, reading each name's rows in one
table, `rows`, as its formulas are in `values`; `catlang._run` iterates a
recursive group's supports over `rows` to their least fixpoint.  Only
support pairs are declared, asserted and composed over, and a derived pair
that comes out TRUE or FALSE is folded to the constant.

No solver ships with the package: the file is an exchange artifact whose
structure and determinism are tested in-tree and whose satisfiability can
be cross-checked externally against the enumeration verdict.
"""

from __future__ import annotations

import sys

from . import catlang
from .catlang import (
    CatError,
    CatModel,
    TBase,
    TBounded,
    TCompose,
    TCross,
    TDiff,
    TInter,
    TInverse,
    TPlus,
    TRef,
    TSetId,
    TStar,
    TUnion,
)
from .engine import EngineError, _check_query
from .events import SECRET_INIT, Event, secret_sentinel, static_skeleton, value_sets
from .masm import (
    Assign,
    Beqz,
    Binary,
    CondAssign,
    Const,
    Fence,
    Load,
    Program,
    Reg,
    Secret,
    Store,
    Unary,
    predecessors,
    stmt_target_reg,
    unroll,
)
from .speculation import SpecConfig

TRUE = "true"
FALSE = "false"


def _ors(args):
    if TRUE in args:
        return TRUE
    args = [a for a in args if a != FALSE]
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return f"(or {' '.join(args)})"


def _ands(args):
    if FALSE in args:
        return FALSE
    args = [a for a in args if a != TRUE]
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return f"(and {' '.join(args)})"


def _not(a):
    if a == TRUE:
        return FALSE
    if a == FALSE:
        return TRUE
    return f"(not {a})"


def _binary(kind, a, b):
    """The pointwise formula of a `|`, `&` or `\\` of formulas `a` and `b`."""
    if kind is TUnion:
        return _ors([a, b])
    return _ands([a, b if kind is TInter else _not(b)])


class _Emitter:
    def __init__(self, program: Program, model: CatModel, cfg: SpecConfig,
                 k: int, bits: int, program_name: str):
        self.program = unroll(program, k)
        self.model = model
        self.cfg = cfg
        self.k = k
        self.bits = bits
        self.name = program_name
        self.vw = bits + 1  # value width: the domain plus the sentinel bit
        self.mask = (1 << bits) - 1
        self.decls: list[str] = []
        self.lines: list[str] = []
        self.fresh = 0
        # by name: a base relation's or a definition's formula per support pair
        self.values: dict = {}
        self.supports: dict = {}  # id(term) -> rows, see `support`
        self.speculative = cfg.mode == "speculative"

        # every instruction instance as an event; an event's id is its bit
        # in a support row
        self.events, self.skeleton = static_skeleton(self.program)
        sk, events = self.skeleton, self.events
        self.names = tuple(f"init_{e.addr}" if e.is_init() else f"t{e.thread}_l{e.label}"
                           for e in events)
        # each event's guard and address terms, constants for an init event
        self.execs = tuple(TRUE if e.is_init() else f"exec_{name}"
                           for e, name in zip(events, self.names))
        self.addrs = tuple(self.bv(e.addr) if e.is_init() else f"addr_{name}"
                           for e, name in zip(events, self.names))
        self.inits = [events[i] for i in sk.init_by_addr.values()]
        self.instances = [events[i] for i in sk.instructions]
        self.by_site = {(e.thread, e.label): e for e in self.instances}
        self.loads = [events[i] for i in sk.loads]
        self.stores = [events[i] for i in sk.stores]
        self.writes = self.inits + self.stores
        self.n = len(events)
        # per event, the memory events whose address sets meet its own
        addrs, memory = value_sets(self.program, events, sk, bits)[0], sorted(sk.sets["M"])
        self.meet = [sum(1 << j for j in memory if addrs[i] & addrs[j]) for i in range(self.n)]
        # the (write, load) pairs with a reads-from selector
        self.sources = self.base_rows("srf" if cfg.psf else "rf")
        # by name: the support rows of each event class X (those of [X]), of
        # each base relation the model reads and of each emitted definition
        self.rows = {name: [(i in sk.sets[name]) << i for i in range(self.n)]
                     for name in catlang.SET_NAMES}
        for name in sorted(model.base_names()):
            self.base(name)

    # -- small term helpers --------------------------------------------------

    def bv(self, value: int, width: int | None = None) -> str:
        width = width or self.vw
        return f"(_ bv{value & ((1 << width) - 1)} {width})"

    def declare(self, name: str, sort: str) -> str:
        self.decls.append(f"(declare-const {name} {sort})")
        return name

    def say(self, text: str):
        self.lines.append(f"; {text}")

    def assert_(self, term: str):
        if term != TRUE:
            self.lines.append(f"(assert {term})")

    def exec_(self, e: Event) -> str:
        return self.execs[e.id]

    def com(self, e: Event) -> str:
        if self.speculative and not e.is_init():
            return f"com_{self.names[e.id]}"
        return self.exec_(e)

    def trans(self, e: Event) -> str:
        if e.is_init() or not self.speculative:
            return FALSE
        return f"trans_{self.names[e.id]}"

    def val(self, e: Event) -> str:
        return f"val_{self.names[e.id]}"

    def addr(self, e: Event) -> str:
        return self.addrs[e.id]

    def pair_name(self, x: Event, y: Event) -> str:
        return f"{self.names[x.id]}_{self.names[y.id]}"

    def masked(self, term: str) -> str:
        return f"(bvand {term} {self.bv(self.mask)})"

    def bool_to_bv(self, b: str) -> str:
        return f"(ite {b} {self.bv(1)} {self.bv(0)})"

    def tr_expr(self, expr, regstate: dict) -> str:
        if isinstance(expr, Const):
            return self.bv(expr.value & self.mask)
        if isinstance(expr, Secret):
            return self.bv(self.program.secret_addr & self.mask)
        if isinstance(expr, Reg):
            return regstate.get(expr.name, self.bv(0))
        if isinstance(expr, Unary):
            v = self.tr_expr(expr.operand, regstate)
            if expr.op == "-":
                return self.masked(f"(bvneg {v})")
            if expr.op == "~":
                return self.masked(f"(bvnot {v})")
            return self.bool_to_bv(f"(= {v} {self.bv(0)})")
        if isinstance(expr, Binary):
            a = self.tr_expr(expr.left, regstate)
            b = self.tr_expr(expr.right, regstate)
            fn = {"+": "bvadd", "-": "bvsub", "*": "bvmul", "&": "bvand",
                  "|": "bvor", "^": "bvxor", "<<": "bvshl", ">>": "bvlshr"}
            if expr.op in fn:
                return self.masked(f"({fn[expr.op]} {a} {b})")
            cmp = {"<": f"(bvult {a} {b})", "<=": f"(bvule {a} {b})",
                   ">": f"(bvugt {a} {b})", ">=": f"(bvuge {a} {b})",
                   "==": f"(= {a} {b})", "!=": f"(distinct {a} {b})"}
            return self.bool_to_bv(cmp[expr.op])
        raise TypeError(f"not an expression: {expr!r}")

    # -- values, guards, register flow ----------------------------------------

    def emit_values(self):
        self.say("initial memory: inputs range over the domain, the secret")
        self.say("holds the out-of-band sentinel, everything else is zero")
        for e in self.inits:
            self.declare(self.val(e), f"(_ BitVec {self.vw})")
            if e.kind == SECRET_INIT:
                self.assert_(f"(= {self.val(e)} {self.bv(secret_sentinel(self.bits))})")
            elif e.addr in self.program.input_locations:
                self.assert_(f"(bvule {self.val(e)} {self.bv(self.mask)})")
            else:
                self.assert_(f"(= {self.val(e)} {self.bv(0)})")

        self.say("per-instance guards, addresses, values, register flow")
        for e in self.instances:
            name = self.names[e.id]
            self.declare(f"exec_{name}", "Bool")
            if self.speculative:
                self.declare(f"com_{name}", "Bool")
                self.declare(f"trans_{name}", "Bool")
                self.assert_(f"(= exec_{name} (or com_{name} trans_{name}))")
                self.assert_(f"(not (and com_{name} trans_{name}))")
                if isinstance(e.stmt, Beqz):
                    self.declare(f"cp_{name}", "Bool")
            if isinstance(e.stmt, (Load, Store)):
                self.declare(self.addr(e), f"(_ BitVec {self.vw})")
            if isinstance(e.stmt, (Load, Store, Assign, CondAssign, Beqz)):
                self.declare(self.val(e), f"(_ BitVec {self.vw})")

        for ids in self.skeleton.threads:
            state: dict[str, str] = {}
            for e in map(self.events.__getitem__, ids):
                s = e.stmt
                if isinstance(s, Assign):
                    self.assert_(f"(= {self.val(e)} {self.tr_expr(s.expr, state)})")
                elif isinstance(s, CondAssign):
                    guard = f"(distinct {self.tr_expr(s.guard, state)} {self.bv(0)})"
                    taken = self.tr_expr(s.expr, state)
                    prev = state.get(s.reg, self.bv(0))
                    self.assert_(f"(= {self.val(e)} (ite {guard} {taken} {prev}))")
                elif isinstance(s, Load):
                    self.assert_(f"(= {self.addr(e)} {self.tr_expr(s.addr, state)})")
                elif isinstance(s, Store):
                    self.assert_(f"(= {self.addr(e)} {self.tr_expr(s.addr, state)})")
                    self.assert_(f"(= {self.val(e)} {self.tr_expr(s.value, state)})")
                elif isinstance(s, Beqz):
                    self.assert_(f"(= {self.val(e)} {state.get(s.reg, self.bv(0))})")
                reg = stmt_target_reg(s)
                if reg:
                    nxt = self.declare(f"reg_{self.names[e.id]}_{reg}", f"(_ BitVec {self.vw})")
                    prev = state.get(reg, self.bv(0))
                    self.assert_(f"(= {nxt} (ite {self.exec_(e)} {self.val(e)} {prev}))")
                    state = dict(state)
                    state[reg] = nxt

    # -- control flow ----------------------------------------------------------

    def emit_control_flow(self):
        self.say("control flow: committed events follow the correct path,")
        self.say("transient events follow a mispredicted branch's wrong path")
        preds = predecessors(self.program)
        for e in self.instances:
            if e.id == self.skeleton.threads[e.thread][0]:
                self.assert_(self.com(e))
                if self.speculative:
                    self.assert_(_not(self.trans(e)))
                continue
            com_cases = []
            trans_cases = []
            for lp in sorted(preds[e.thread][e.label]):
                p = self.by_site[(e.thread, lp)]
                ps = p.stmt
                if isinstance(ps, Beqz):
                    zero = f"(= {self.val(p)} {self.bv(0)})"
                    nonzero = f"(distinct {self.val(p)} {self.bv(0)})"
                    cp = f"cp_{self.names[p.id]}" if self.speculative else TRUE
                    fall = lp + 1 == e.label
                    target = ps.target == e.label
                    if fall and not target:
                        com_cases.append(_ands([self.com(p), nonzero, cp]))
                        trans_cases.append(_ands([self.exec_(p), zero, _not(cp)]))
                    elif target and not fall:
                        com_cases.append(_ands([self.com(p), zero, cp]))
                        trans_cases.append(_ands([self.exec_(p), nonzero, _not(cp)]))
                    else:  # branch to its own fall-through: either value
                        com_cases.append(_ands([self.com(p), cp]))
                        trans_cases.append(_ands([self.exec_(p), _not(cp)]))
                else:
                    com_cases.append(self.com(p))
                    trans_cases.append(self.trans(p))
            self.assert_(f"(= {self.com(e)} {_ors(com_cases)})")
            if self.speculative:
                rhs = _ands([_not(self.com(e)), _ors(trans_cases)])
                self.assert_(f"(= {self.trans(e)} {rhs})")

        if not self.speculative:
            return
        self.say("fences never execute transiently")
        for e in self.instances:
            if isinstance(e.stmt, Fence):
                self.assert_(_not(self.trans(e)))

        self.say("speculation window: transient run lengths stay below w")
        w = self.cfg.window
        ww = max(self.n, w).bit_length() + 1
        for ids in self.skeleton.threads:
            prevrun = self.bv(0, ww)
            for e in map(self.events.__getitem__, ids):
                name = self.names[e.id]
                trl = self.declare(f"trl_{name}", f"(_ BitVec {ww})")
                self.assert_(
                    f"(= {trl} (ite {self.trans(e)} "
                    f"(bvadd {prevrun} {self.bv(1, ww)}) {self.bv(0, ww)}))"
                )
                self.assert_(f"(bvult {trl} {self.bv(w, ww)})")
                run = self.declare(f"run_{name}", f"(_ BitVec {ww})")
                self.assert_(f"(= {run} (ite {self.exec_(e)} {trl} {prevrun}))")
                prevrun = run

    # -- reads-from and coherence ------------------------------------------------

    def emit_reads_from(self):
        label = "speculative reads-from" if self.cfg.psf else "reads-from"
        self.say(f"{label}: every executed load picks exactly one source")
        po = self.skeleton.po
        for r in self.loads:
            selectors = []
            for w in self.writes:
                if not self.sources[w.id] >> r.id & 1:
                    continue
                v = self.rf_sel(w, r)
                self.declare(v, "Bool")
                selectors.append(v)
                conds = [self.exec_(r), self.exec_(w),
                         f"(= {self.val(w)} {self.val(r)})"]
                same_addr = f"(= {self.addr(w)} {self.addr(r)})"
                earlier = po[w.id] >> r.id & 1  # a store of r's thread before r
                alias_ok = self.cfg.psf and earlier
                if not alias_ok:
                    conds.append(same_addr)
                self.assert_(f"(=> {v} {_ands(conds)})")
                if earlier:
                    self.assert_(f"(=> (and {v} {self.trans(w)}) {self.trans(r)})")
                elif self.trans(w) != FALSE:
                    self.assert_(f"(=> {v} {_not(self.trans(w))})")
                if alias_ok:
                    for f in self.fences_between(w, r):
                        self.assert_(f"(=> (and {v} {self.exec_(f)}) {same_addr})")
            self.assert_(f"(= {self.exec_(r)} {_ors(selectors)})")
            for i, a in enumerate(selectors):
                for b in selectors[i + 1:]:
                    self.assert_(f"(not (and {a} {b}))")

    def emit_coherence(self):
        if not self.stores:
            return
        self.say("coherence ranks over committed stores")
        rw = (len(self.stores) + 1).bit_length() + 1
        for s in self.stores:
            self.declare(self.corank(s), f"(_ BitVec {rw})")
        for i, a in enumerate(self.stores):
            for b in self.stores[i + 1:]:
                if self.meet[a.id] >> b.id & 1:
                    self.assert_(f"(=> (and {self.com(a)} {self.com(b)} "
                                 f"(= {self.addr(a)} {self.addr(b)})) "
                                 f"(distinct {self.corank(a)} {self.corank(b)}))")

    def corank(self, store: Event) -> str:
        return f"corank_{self.names[store.id]}"

    # -- base relations ----------------------------------------------------------
    # Each term gives the formula of a pair of the relation's static support,
    # `base_rows`, from the skeleton of every instruction instance.

    def po_term(self, x: Event, y: Event) -> str:
        return _ands([self.exec_(x), self.exec_(y)])

    addr_term = po_term  # both hold where their two events execute

    def fence_term(self, x: Event, y: Event) -> str:
        return _ands([self.exec_(x), self.exec_(y),
                      _ors([self.exec_(f) for f in self.fences_between(x, y)])])

    def fences_between(self, x: Event, y: Event) -> list:
        """The fence events po-after `x` and po-before `y`."""
        po = self.skeleton.po
        return [f for _, f in self.pairs([po[x.id]])
                if f.kind == "fence" and po[f.id] >> y.id & 1]

    def loc_term(self, x: Event, y: Event) -> str:
        return _ands([self.exec_(x), self.exec_(y),
                      f"(= {self.addr(x)} {self.addr(y)})"])

    def rf_sel(self, w: Event, r: Event) -> str:
        return f"rf_{self.names[w.id]}_{self.names[r.id]}"

    def rf_term(self, x: Event, y: Event) -> str:
        v = self.rf_sel(x, y)
        if self.cfg.psf:
            return _ands([v, f"(= {self.addr(x)} {self.addr(y)})"])
        return v

    srf_term = rf_sel  # its pairs are the selectors themselves
    rfe_term = rf_term

    def co_term(self, x: Event, y: Event) -> str:
        same = f"(= {self.addr(x)} {self.addr(y)})"
        if x.is_init():
            return _ands([self.com(y), same])
        return _ands([self.com(x), self.com(y), same,
                      f"(bvult {self.corank(x)} {self.corank(y)})"])

    def set_term(self, name: str, e: Event) -> str:
        return self.exec_(e) if e.id in self.skeleton.sets[name] else FALSE

    # -- static supports -------------------------------------------------------

    def pairs(self, rows: list):
        """The (x, y) event pairs of bitset rows over `self.events`."""
        events = self.events
        for x, row in zip(events, rows):
            while row:
                low = row & -row
                yield x, events[low.bit_length() - 1]
                row ^= low

    def base_rows(self, name: str) -> list:
        """The static support of base relation `name`: the skeleton's rows
        for po, fence and addr; for the data relations, the pairs of the
        event classes they join whose address sets meet, and for srf also
        the store-buffer pairs of a store and a later load of its thread."""
        sk = self.skeleton
        if name in ("po", "fence", "addr"):
            return list(getattr(sk, name))
        if name == "srf" and not self.cfg.psf:
            return [0] * self.n
        if name == "loc":
            return self.meeting(sk.sets["M"], sk.sets["M"])
        if name == "co":  # writes to stores
            return self.meeting(sk.sets["W"], sk.stores)
        if name == "rfe":  # stores to loads of other threads
            rows = self.meeting(sk.stores, sk.loads)
            for ids in sk.threads:
                own = sum(1 << i for i in ids)
                for i in ids:
                    rows[i] &= ~own
            return rows
        rows = self.meeting(sk.sets["W"], sk.loads)  # writes to loads
        if name == "srf":  # the store buffer forwards across addresses
            loads = sum(1 << i for i in sk.loads)
            for i in sk.stores:
                rows[i] |= sk.po[i] & loads
        return rows

    def meeting(self, left, right) -> list:
        """The rows of the pairs of `left` x `right`, two sets of event ids,
        whose address sets meet."""
        right, rows = sum(1 << i for i in right), [0] * self.n
        for i in left:
            rows[i] = self.meet[i] & right
        return rows

    def base(self, name: str):
        """(table, rows) of base relation `name`: its formula at each pair
        of its static support, keyed by event ids, and the support rows,
        entered into `values` and `rows` on first use."""
        if name not in self.values:
            term, rows = getattr(self, f"{name}_term"), self.base_rows(name)
            self.values[name] = {(x.id, y.id): term(x, y) for x, y in self.pairs(rows)}
            self.rows[name] = rows
        return self.values[name], self.rows[name]

    def support(self, term, memo=None) -> list:
        """Rows of the pairs at which the formula of `term` may be other than
        FALSE.  A name reads its rows in `rows`, so a recursive group's
        members pass a fresh `memo` on each fixpoint round."""
        memo = self.supports if memo is None else memo
        key = id(term)
        if key in memo:
            return memo[key]
        if memo is not self.supports and isinstance(term, (TPlus, TStar, TBounded)):
            raise CatError("closure operators inside a recursive definition are "
                           "not supported by the solver export")
        if isinstance(term, (TBase, TRef)):
            rows = self.rows[term.name]
        elif isinstance(term, TSetId):
            rows = self.rows[term.set_name]
        elif isinstance(term, TCross):
            rows = catlang.cross_rows(self.rows[term.left], self.rows[term.right])
        elif isinstance(term, TDiff):  # the right side may hold or not
            if memo is not self.supports:
                self.support(term.right, memo)  # to reject a closure there too
            rows = self.support(term.left, memo)
        elif type(term) in catlang._BINARY:
            left, right = self.support(term.left, memo), self.support(term.right, memo)
            rows = catlang._BINARY[type(term)](left, right)
        elif type(term) in catlang._UNARY:
            rows = catlang._UNARY[type(term)](self.support(term.term, memo))
        elif isinstance(term, TStar):
            rows = catlang.star_rows(self.support(term.term, memo), self.rows["E"])
        elif isinstance(term, TBounded):
            k = catlang.resolve_bound(term.k_base, term.k_offset, self.cfg)
            rows = catlang.power_rows(self.support(term.term, memo), k)
        else:
            raise TypeError(f"not a term: {term!r}")
        memo[key] = rows
        return rows

    # -- derived relations ------------------------------------------------------

    def _defer(self, family, tag: str):
        """Materialize a family, a pointwise formula and its support rows,
        into Bool variables so composition chains reference variables, not
        duplicated subterms."""
        formula, rows = family
        self.fresh += 1
        fam = f"{tag}{self.fresh}"
        cache: dict = {}

        def var(x: Event, y: Event) -> str:
            key = (x.id, y.id)
            if key not in cache:
                expr = formula(x, y)
                if expr in (TRUE, FALSE):
                    cache[key] = expr
                else:
                    name = f"{fam}_{self.pair_name(x, y)}"
                    self.declare(name, "Bool")
                    self.assert_(f"(= {name} {expr})")
                    cache[key] = name
            return cache[key]

        return var, rows

    def _sparse_compose(self, left, right, first=None):
        """The family first(x, y) | OR_m lf(x, m) & rg(m, y) of families
        `left` = (lf, lrows) and `right` = (rg, rrows), over the events m in
        row x of `lrows` and in column y of `rrows`.  At every other m one
        side is FALSE, so the term is that of the dense product, and neither
        side is called."""
        (lf, lrows), (rg, rrows) = left, right
        events, rcols = self.events, catlang.inverse_rows(rrows)
        rows = catlang.compose_rows(lrows, rrows)

        def out(x: Event, y: Event) -> str:
            terms = [] if first is None else [first[0](x, y)]
            both = lrows[x.id] & rcols[y.id]
            while both:
                low = both & -both
                m = events[low.bit_length() - 1]
                terms.append(_ands([lf(x, m), rg(m, y)]))
                both ^= low
            return _ors(terms)

        return out, rows if first is None else catlang.union_rows(first[1], rows)

    def family(self, term):
        return self.materialize(term), self.support(term)

    def materialize(self, term):
        """formula(x, y) for a term with no recursive references."""
        if isinstance(term, (TBase, TRef)):
            table = self.values[term.name]
            out = lambda x, y: table.get((x.id, y.id), FALSE)
        elif isinstance(term, TSetId):
            out = lambda x, y, s=term.set_name: (
                self.set_term(s, x) if x is y else FALSE
            )
        elif isinstance(term, TCross):
            out = lambda x, y, t=term: _ands(
                [self.set_term(t.left, x), self.set_term(t.right, y)]
            )
        elif isinstance(term, (TUnion, TInter, TDiff)):
            lf, rg = self.materialize(term.left), self.materialize(term.right)
            out = lambda x, y, kind=type(term): _binary(kind, lf(x, y), rg(x, y))
        elif isinstance(term, TCompose):
            out = self._sparse_compose(self._defer(self.family(term.left), "c"),
                                       self._defer(self.family(term.right), "c"))[0]
        elif isinstance(term, TInverse):
            tf = self.materialize(term.term)
            out = lambda x, y: tf(y, x)
        elif isinstance(term, (TPlus, TStar)):
            cur = self._defer(self.family(term.term), "p")
            for _ in range(max(1, (self.n - 1).bit_length())):
                cur = self._defer(self._sparse_compose(cur, cur, first=cur), "p")
            if isinstance(term, TStar):
                plus = cur[0]
                out = lambda x, y: (
                    _ors([plus(x, y), self.exec_(x)]) if x is y else plus(x, y)
                )
            else:
                out = cur[0]
        elif isinstance(term, TBounded):
            k = catlang.resolve_bound(term.k_base, term.k_offset, self.cfg)
            out = catlang.power_rows(
                self._defer(self.family(term.term), "b"), k,
                lambda left, right: self._defer(self._sparse_compose(left, right), "b"))[0]
        else:
            raise TypeError(f"not a term: {term!r}")
        return out

    def _inline_recursive(self, term, x: Event, y: Event, group: tuple, rank: str) -> str:
        """Pointwise translation for a recursive definition: references to
        names of the same group carry a strictly-smaller derivation rank.
        Nothing is cached here; a composition ORs over the events m at which
        neither side's support rules the pair out."""
        if isinstance(term, (TBase, TRef, TSetId, TCross)):
            v = self.materialize(term)(x, y)
            if isinstance(term, TRef) and term.name in group and v != FALSE:
                return _ands([v, f"(bvult drk_{term.name}_{self.pair_name(x, y)} {rank})"])
            return v
        if isinstance(term, (TUnion, TInter, TDiff)):
            return _binary(type(term), self._inline_recursive(term.left, x, y, group, rank),
                           self._inline_recursive(term.right, x, y, group, rank))
        if isinstance(term, TCompose):
            inline, rrows = self._inline_recursive, self.support(term.right)
            return _ors([_ands([inline(term.left, x, m, group, rank),
                                inline(term.right, m, y, group, rank)])
                         for _, m in self.pairs([self.support(term.left)[x.id]])
                         if rrows[m.id] >> y.id & 1])
        if isinstance(term, TInverse):
            return self._inline_recursive(term.term, y, x, group, rank)
        raise TypeError(f"not a term: {term!r}")

    def emit_recursive(self, group: tuple, terms: dict, rankw: int):
        """A recursive group: `catlang._run` iterates its members' support
        rows in `rows` from empty to their least fixpoint, and each support
        pair gets a Bool and a derivation rank."""
        members = tuple((nm, lambda _, term=terms[nm]: self.support(term, {})) for nm in group)
        catlang._run(((True, members),), self.rows, self.model.name)
        for nm in group:
            self.values[nm] = {(x.id, y.id): f"d_{nm}_{self.pair_name(x, y)}"
                               for x, y in self.pairs(self.rows[nm])}
        for nm in group:
            for x, y in self.pairs(self.rows[nm]):
                d = self.declare(self.values[nm][x.id, y.id], "Bool")
                rank = self.declare(f"drk_{nm}_{self.pair_name(x, y)}", f"(_ BitVec {rankw})")
                self.assert_(f"(= {d} {self._inline_recursive(terms[nm], x, y, group, rank)})")

    def emit_derived(self):
        """Definitions in `catlang._groups` order, as one may name a later
        one.  A pair that comes out TRUE, FALSE or one bare symbol is not
        declared: references substitute it."""
        defs = self.model.definitions
        if not defs:
            return
        self.say("derived relations (least fixpoints)")
        terms = dict(defs)
        rankw = max(2, (self.n * self.n + 1).bit_length() + 1)
        for group in catlang._groups(defs):
            if catlang._recursive(group, terms):
                self.emit_recursive(group, terms, rankw)
                continue
            (nm,) = group
            formula, values, rows = self.materialize(terms[nm]), {}, [0] * self.n
            for x, y in self.pairs(self.support(terms[nm])):
                t = formula(x, y)
                if t == FALSE:
                    continue
                if t.startswith("("):
                    d = self.declare(f"d_{nm}_{self.pair_name(x, y)}", "Bool")
                    self.assert_(f"(= {d} {t})")
                    t = d
                values[x.id, y.id] = t
                rows[x.id] |= 1 << y.id
            self.values[nm], self.rows[nm] = values, rows

    def emit_assertions(self):
        self.say("model assertions")
        for ai, (kind, term, src) in enumerate(self.model.assertions):
            self.say(f"{kind} {src}")
            formula, rows = self.materialize(term), self.support(term)
            if kind in ("empty", "irreflexive"):
                for x, y in self.pairs(rows):
                    if kind == "empty" or x is y:
                        self.assert_(_not(formula(x, y)))
            else:  # acyclic: order-variable encoding
                ew = max(2, self.n.bit_length() + 1)
                for e in self.events:
                    self.declare(f"ord{ai}_{self.names[e.id]}", f"(_ BitVec {ew})")
                for x, y in self.pairs(rows):
                    t = formula(x, y)
                    if t == FALSE:
                        continue
                    self.assert_(
                        f"(=> {t} (bvult ord{ai}_{self.names[x.id]} ord{ai}_{self.names[y.id]}))"
                    )

    def emit_goal(self):
        self.say("isolation goal: some load reads the secret init event")
        secret = self.events[self.skeleton.init_by_addr[self.program.secret_addr]]
        reads = [self.rf_sel(secret, r) for r in self.loads
                 if self.sources[secret.id] >> r.id & 1]
        self.lines.append(f"(assert {_ors(reads)})")

    def render(self) -> str:
        head = [
            "; software-isolation query",
            f"; program: {self.name}",
            f"; model: {self.model.name}",
            f"; mode: {self.cfg.mode}  k: {self.k}  w: {self.cfg.window}"
            f"  w': {self.cfg.buffer}  bits: {self.bits}",
            "; satisfiable iff some consistent execution reads the secret",
            "(set-logic QF_BV)",
        ]
        self.emit_values()
        self.emit_control_flow()
        self.emit_reads_from()
        self.emit_coherence()
        self.emit_derived()
        self.emit_assertions()
        self.emit_goal()
        return "\n".join(head + self.decls + self.lines + ["(check-sat)", "(exit)"]) + "\n"


def emit_smt(
    program: Program,
    model: CatModel,
    cfg: SpecConfig,
    k: int = 2,
    domain_bits: int = 3,
    program_name: str = "program",
) -> str:
    """Emit the SMT-LIB2 isolation query for the k-unrolled program."""
    _check_query(program, model, cfg, k, domain_bits)
    if secret_sentinel(domain_bits) > sys.maxsize:  # `value_sets` sets the bit at the sentinel
        raise EngineError(f"domain of {domain_bits} bits is too wide to export")
    return _Emitter(program, model, cfg, k, domain_bits, program_name).render()

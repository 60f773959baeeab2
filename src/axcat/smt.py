"""Solver-format export of the isolation query.

Emits a self-contained SMT-LIB2 (QF_BV) file that is satisfiable exactly
when some consistent candidate execution of the k-unrolled program reads
the secret init event.  The encoding mirrors the enumeration semantics:

  * per-instance booleans for committed/transient execution, with
    two-sided control-flow clauses so executions extend maximally and
    transient runs stop at fences and correctly predicted branches;
  * values as bitvectors one bit wider than the domain, masked after
    every operation, so the secret sentinel (2^bits) stays out of band;
  * reads-from selector booleans per (write, load) pair carrying value
    flow, address agreement (or the store-buffer alias rule under
    predictive forwarding), and transient-store visibility;
  * coherence as per-store ranks over committed stores per address;
  * derived relations as pair booleans, with derivation ranks on
    recursive groups so the solution is the least fixpoint, and
    order-variable encodings for acyclicity assertions.

Compositions outside recursive groups skip the intermediate events at
which either side is statically FALSE, found through bitset support rows;
the emitted bytes are the same as those of the dense product.

No solver ships with the package: the file is an exchange artifact whose
structure and determinism are tested in-tree and whose satisfiability can
be cross-checked externally against the enumeration verdict.
"""

from __future__ import annotations

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
from .engine import _check_query
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
    expr_registers,
    pred as static_pred,
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


class _Ev:
    """Static event universe entry: one init or one instruction instance."""

    __slots__ = ("name", "kind", "addr_const", "tid", "label", "stmt")

    def __init__(self, name, kind, addr_const=None, tid=None, label=None,
                 stmt=None):
        self.name = name
        self.kind = kind  # init | secret-init | instr
        self.addr_const = addr_const
        self.tid = tid
        self.label = label
        self.stmt = stmt


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
        self.family_memo: dict = {}
        self.speculative = cfg.mode == "speculative"

        self.inits: list[_Ev] = []
        for a in self.program.declared_addresses():
            kind = "secret-init" if a == self.program.secret_addr else "init"
            self.inits.append(_Ev(f"init_{a}", kind, addr_const=a))
        self.instances: list[_Ev] = []
        self.by_site: dict = {}
        for tid, thread in enumerate(self.program.threads):
            for ins in thread:
                e = _Ev(f"t{tid}_l{ins.label}", "instr", tid=tid,
                        label=ins.label, stmt=ins.stmt)
                self.instances.append(e)
                self.by_site[(tid, ins.label)] = e
        self.events: list[_Ev] = self.inits + self.instances
        self.loads = [e for e in self.instances if isinstance(e.stmt, Load)]
        self.stores = [e for e in self.instances if isinstance(e.stmt, Store)]
        self.writes = self.inits + self.stores
        self.write_names = {e.name for e in self.writes}
        self.load_names = {e.name for e in self.loads}
        self.n = len(self.events)

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

    def exec_(self, e: _Ev) -> str:
        return TRUE if e.kind != "instr" else f"exec_{e.name}"

    def com(self, e: _Ev) -> str:
        if e.kind != "instr":
            return TRUE
        return f"com_{e.name}" if self.speculative else f"exec_{e.name}"

    def trans(self, e: _Ev) -> str:
        if e.kind != "instr" or not self.speculative:
            return FALSE
        return f"trans_{e.name}"

    def val(self, e: _Ev) -> str:
        return f"val_{e.name}"

    def addr(self, e: _Ev) -> str:
        return self.bv(e.addr_const) if e.kind != "instr" else f"addr_{e.name}"

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
            if e.kind == "secret-init":
                self.assert_(f"(= {self.val(e)} {self.bv(1 << self.bits)})")
            elif e.addr_const in self.program.input_locations:
                self.assert_(f"(bvule {self.val(e)} {self.bv(self.mask)})")
            else:
                self.assert_(f"(= {self.val(e)} {self.bv(0)})")

        self.say("per-instance guards, addresses, values, register flow")
        for e in self.instances:
            self.declare(f"exec_{e.name}", "Bool")
            if self.speculative:
                self.declare(f"com_{e.name}", "Bool")
                self.declare(f"trans_{e.name}", "Bool")
                self.assert_(f"(= exec_{e.name} (or com_{e.name} trans_{e.name}))")
                self.assert_(f"(not (and com_{e.name} trans_{e.name}))")
                if isinstance(e.stmt, Beqz):
                    self.declare(f"cp_{e.name}", "Bool")
            if isinstance(e.stmt, (Load, Store)):
                self.declare(self.addr(e), f"(_ BitVec {self.vw})")
            if isinstance(e.stmt, (Load, Store, Assign, CondAssign, Beqz)):
                self.declare(self.val(e), f"(_ BitVec {self.vw})")

        for tid, thread in enumerate(self.program.threads):
            state: dict[str, str] = {}
            for ins in thread:
                e = self.by_site[(tid, ins.label)]
                s = ins.stmt
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
                    nxt = self.declare(f"reg_{e.name}_{reg}", f"(_ BitVec {self.vw})")
                    prev = state.get(reg, self.bv(0))
                    self.assert_(f"(= {nxt} (ite {self.exec_(e)} {self.val(e)} {prev}))")
                    state = dict(state)
                    state[reg] = nxt

    # -- control flow ----------------------------------------------------------

    def emit_control_flow(self):
        self.say("control flow: committed events follow the correct path,")
        self.say("transient events follow a mispredicted branch's wrong path")
        for e in self.instances:
            thread = self.program.threads[e.tid]
            if e.label == thread[0].label:
                self.assert_(self.com(e))
                if self.speculative:
                    self.assert_(_not(self.trans(e)))
                continue
            com_cases = []
            trans_cases = []
            for lp in sorted(static_pred(self.program, e.label, e.tid)):
                p = self.by_site[(e.tid, lp)]
                ps = p.stmt
                if isinstance(ps, Beqz):
                    zero = f"(= {self.val(p)} {self.bv(0)})"
                    nonzero = f"(distinct {self.val(p)} {self.bv(0)})"
                    cp = f"cp_{p.name}" if self.speculative else TRUE
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
        for tid, thread in enumerate(self.program.threads):
            prevrun = self.bv(0, ww)
            for ins in thread:
                e = self.by_site[(tid, ins.label)]
                trl = self.declare(f"trl_{e.name}", f"(_ BitVec {ww})")
                self.assert_(
                    f"(= {trl} (ite {self.trans(e)} "
                    f"(bvadd {prevrun} {self.bv(1, ww)}) {self.bv(0, ww)}))"
                )
                self.assert_(f"(bvult {trl} {self.bv(w, ww)})")
                run = self.declare(f"run_{e.name}", f"(_ BitVec {ww})")
                self.assert_(f"(= {run} (ite {self.exec_(e)} {trl} {prevrun}))")
                prevrun = run

    # -- reads-from and coherence ------------------------------------------------

    def emit_reads_from(self):
        label = "speculative reads-from" if self.cfg.psf else "reads-from"
        self.say(f"{label}: every executed load picks exactly one source")
        for r in self.loads:
            selectors = []
            for w in self.writes:
                v = self.declare(f"rf_{w.name}_{r.name}", "Bool")
                selectors.append(v)
                conds = [self.exec_(r), self.exec_(w),
                         f"(= {self.val(w)} {self.val(r)})"]
                same_addr = f"(= {self.addr(w)} {self.addr(r)})"
                alias_ok = (
                    self.cfg.psf and w.kind == "instr"
                    and w.tid == r.tid and w.label < r.label
                )
                if not alias_ok:
                    conds.append(same_addr)
                self.assert_(f"(=> {v} {_ands(conds)})")
                if w.kind == "instr":
                    if w.tid == r.tid and w.label < r.label:
                        self.assert_(f"(=> (and {v} {self.trans(w)}) {self.trans(r)})")
                    elif self.trans(w) != FALSE:
                        self.assert_(f"(=> {v} {_not(self.trans(w))})")
                if alias_ok:
                    for l in range(w.label + 1, r.label):
                        f = self.by_site[(r.tid, l)]
                        if isinstance(f.stmt, Fence):
                            self.assert_(
                                f"(=> (and {v} {self.exec_(f)}) {same_addr})"
                            )
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
            self.declare(f"corank_{s.name}", f"(_ BitVec {rw})")
        for i, a in enumerate(self.stores):
            for b in self.stores[i + 1:]:
                self.assert_(
                    f"(=> (and {self.com(a)} {self.com(b)} "
                    f"(= {self.addr(a)} {self.addr(b)})) "
                    f"(distinct corank_{a.name} corank_{b.name}))"
                )

    # -- base relation terms -------------------------------------------------------

    def po_term(self, x: _Ev, y: _Ev) -> str:
        if (x.kind != "instr" or y.kind != "instr"
                or x.tid != y.tid or x.label >= y.label):
            return FALSE
        return _ands([self.exec_(x), self.exec_(y)])

    def fence_term(self, x: _Ev, y: _Ev) -> str:
        if self.po_term(x, y) == FALSE:
            return FALSE
        fences = [
            self.by_site[(x.tid, l)]
            for l in range(x.label + 1, y.label)
            if isinstance(self.by_site[(x.tid, l)].stmt, Fence)
        ]
        if not fences:
            return FALSE
        return _ands([self.exec_(x), self.exec_(y),
                      _ors([self.exec_(f) for f in fences])])

    def addr_term(self, x: _Ev, y: _Ev) -> str:
        if (x.kind != "instr" or y.kind != "instr"
                or not isinstance(x.stmt, Load)
                or not isinstance(y.stmt, (Load, Store))
                or x.tid != y.tid or x.label >= y.label):
            return FALSE
        reg = x.stmt.reg
        if reg not in expr_registers(y.stmt.addr):
            return FALSE
        for l in range(x.label + 1, y.label):
            if stmt_target_reg(self.by_site[(x.tid, l)].stmt) == reg:
                return FALSE
        return _ands([self.exec_(x), self.exec_(y)])

    def _is_mem(self, e: _Ev) -> bool:
        return e.kind != "instr" or isinstance(e.stmt, (Load, Store))

    def loc_term(self, x: _Ev, y: _Ev) -> str:
        if not self._is_mem(x) or not self._is_mem(y):
            return FALSE
        return _ands([self.exec_(x), self.exec_(y),
                      f"(= {self.addr(x)} {self.addr(y)})"])

    def rf_sel(self, w: _Ev, r: _Ev) -> str:
        if w.name not in self.write_names or r.name not in self.load_names:
            return FALSE
        return f"rf_{w.name}_{r.name}"

    def rf_term(self, x: _Ev, y: _Ev) -> str:
        v = self.rf_sel(x, y)
        if v == FALSE:
            return FALSE
        if self.cfg.psf:
            return _ands([v, f"(= {self.addr(x)} {self.addr(y)})"])
        return v

    def srf_term(self, x: _Ev, y: _Ev) -> str:
        return self.rf_sel(x, y) if self.cfg.psf else FALSE

    def rfe_term(self, x: _Ev, y: _Ev) -> str:
        if x.kind != "instr" or y.kind != "instr" or x.tid == y.tid:
            return FALSE
        return self.rf_term(x, y)

    def co_term(self, x: _Ev, y: _Ev) -> str:
        if y.kind != "instr" or not isinstance(y.stmt, Store):
            return FALSE
        same = f"(= {self.addr(x)} {self.addr(y)})"
        if x.kind != "instr":
            return _ands([self.com(y), same])
        if not isinstance(x.stmt, Store):
            return FALSE
        return _ands([self.com(x), self.com(y), same,
                      f"(bvult corank_{x.name} corank_{y.name})"])

    def base_term(self, name: str):
        """The pointwise formula of base relation `name`."""
        return getattr(self, f"{name}_term")

    def set_term(self, name: str, e: _Ev) -> str:
        if name == "E":
            return self.exec_(e)
        if name == "M":
            return self.exec_(e) if self._is_mem(e) else FALSE
        if name == "W":
            is_w = e.kind != "instr" or isinstance(e.stmt, Store)
            return self.exec_(e) if is_w else FALSE
        if name == "R":
            is_r = e.kind == "instr" and isinstance(e.stmt, Load)
            return self.exec_(e) if is_r else FALSE
        raise ValueError(name)

    # -- derived relations ------------------------------------------------------

    def _defer(self, formula, tag: str):
        """Materialize a pointwise formula into a Bool variable family so
        composition chains reference variables, not duplicated subterms."""
        self.fresh += 1
        fam = f"{tag}{self.fresh}"
        cache: dict = {}

        def var(x: _Ev, y: _Ev) -> str:
            key = (x.name, y.name)
            if key not in cache:
                expr = formula(x, y)
                if expr in (TRUE, FALSE):
                    cache[key] = expr
                else:
                    name = f"{fam}_{x.name}_{y.name}"
                    self.declare(name, "Bool")
                    self.assert_(f"(= {name} {expr})")
                    cache[key] = name
            return cache[key]

        return var

    def _sparse_compose(self, lf, rg, first=None):
        """formula(x, y) = first(x, y) | OR_m lf(x, m) & rg(m, y), over the
        cached families `lf` and `rg`.  The first visit of row x of `lf` or
        column y of `rg` calls both sides for every m in event order, exactly
        as the dense product does, and records the non-FALSE m as bitset
        support rows.  Later visits call only the m in both supports: every
        skipped call is a cache hit yielding FALSE, so the term is the same."""
        events = self.events
        lrows: dict = {}
        rcols: dict = {}

        def out(x: _Ev, y: _Ev) -> str:
            terms = [] if first is None else [first(x, y)]
            lrow, rcol = lrows.get(x), rcols.get(y)
            if lrow is None or rcol is None:
                lrow = rcol = 0
                for j, m in enumerate(events):
                    a, b = lf(x, m), rg(m, y)
                    if a != FALSE:
                        lrow |= 1 << j
                    if b != FALSE:
                        rcol |= 1 << j
                    if a != FALSE and b != FALSE:
                        terms.append(_ands([a, b]))
                lrows[x], rcols[y] = lrow, rcol
                return _ors(terms)
            both = lrow & rcol
            while both:
                m = events[(both & -both).bit_length() - 1]
                terms.append(_ands([lf(x, m), rg(m, y)]))
                both &= both - 1
            return _ors(terms)

        return out

    def materialize(self, term):
        """formula(x, y) for a term with no recursive references."""
        key = id(term)
        if key in self.family_memo:
            return self.family_memo[key]

        if isinstance(term, TBase):
            out = self.base_term(term.name)
        elif isinstance(term, TRef):
            out = lambda x, y, n=term.name: f"d_{n}_{x.name}_{y.name}"
        elif isinstance(term, TSetId):
            out = lambda x, y, s=term.set_name: (
                self.set_term(s, x) if x is y else FALSE
            )
        elif isinstance(term, TCross):
            out = lambda x, y, t=term: _ands(
                [self.set_term(t.left, x), self.set_term(t.right, y)]
            )
        elif isinstance(term, (TUnion, TInter, TDiff)):
            lf = self.materialize(term.left)
            rg = self.materialize(term.right)
            if isinstance(term, TUnion):
                out = lambda x, y: _ors([lf(x, y), rg(x, y)])
            elif isinstance(term, TInter):
                out = lambda x, y: _ands([lf(x, y), rg(x, y)])
            else:
                out = lambda x, y: _ands([lf(x, y), _not(rg(x, y))])
        elif isinstance(term, TCompose):
            out = self._sparse_compose(
                self._defer(self.materialize(term.left), "c"),
                self._defer(self.materialize(term.right), "c"),
            )
        elif isinstance(term, TInverse):
            tf = self.materialize(term.term)
            out = lambda x, y: tf(y, x)
        elif isinstance(term, (TPlus, TStar)):
            cur = self._defer(self.materialize(term.term), "p")
            for _ in range(max(1, (self.n - 1).bit_length())):
                cur = self._defer(self._sparse_compose(cur, cur, first=cur), "p")
            if isinstance(term, TStar):
                plus = cur
                out = lambda x, y: (
                    _ors([plus(x, y), self.exec_(x)]) if x is y else plus(x, y)
                )
            else:
                out = cur
        elif isinstance(term, TBounded):
            # the (k+1)-th power by repeated squaring, as catlang.power_rows
            def compose(lf, rg):
                return self._defer(self._sparse_compose(lf, rg), "b")

            k = catlang.resolve_bound(term.k_base, term.k_offset, self.cfg)
            out, square, e = None, self._defer(self.materialize(term.term), "b"), k + 1
            while True:
                if e & 1:
                    out = square if out is None else compose(out, square)
                e >>= 1
                if not e:
                    break
                square = compose(square, square)
        else:
            raise TypeError(f"not a term: {term!r}")

        self.family_memo[key] = out
        return out

    def _inline_recursive(self, term, x: _Ev, y: _Ev, scc: frozenset, rank: str) -> str:
        """Pointwise translation for a recursive definition: references to
        names of the same group carry a strictly-smaller derivation rank.
        Nothing is cached here, so compositions stay dense products."""
        if isinstance(term, TBase):
            return self.base_term(term.name)(x, y)
        if isinstance(term, TRef):
            v = f"d_{term.name}_{x.name}_{y.name}"
            if term.name in scc:
                return _ands([v, f"(bvult drk_{term.name}_{x.name}_{y.name} {rank})"])
            return v
        if isinstance(term, TSetId):
            return self.set_term(term.set_name, x) if x is y else FALSE
        if isinstance(term, TCross):
            return _ands([self.set_term(term.left, x), self.set_term(term.right, y)])
        if isinstance(term, TUnion):
            return _ors([self._inline_recursive(term.left, x, y, scc, rank),
                         self._inline_recursive(term.right, x, y, scc, rank)])
        if isinstance(term, TInter):
            return _ands([self._inline_recursive(term.left, x, y, scc, rank),
                          self._inline_recursive(term.right, x, y, scc, rank)])
        if isinstance(term, TDiff):
            return _ands([
                self._inline_recursive(term.left, x, y, scc, rank),
                _not(self._inline_recursive(term.right, x, y, scc, rank)),
            ])
        if isinstance(term, TCompose):
            return _ors([
                _ands([self._inline_recursive(term.left, x, m, scc, rank),
                       self._inline_recursive(term.right, m, y, scc, rank)])
                for m in self.events
            ])
        if isinstance(term, TInverse):
            return self._inline_recursive(term.term, y, x, scc, rank)
        if isinstance(term, (TPlus, TStar, TBounded)):
            raise CatError(
                "closure operators inside a recursive definition are not "
                "supported by the solver export"
            )
        raise TypeError(f"not a term: {term!r}")

    def emit_derived(self):
        defs = self.model.definitions
        if not defs:
            return
        self.say("derived relations (least fixpoints)")
        terms = dict(defs)
        scc_of = {}  # name of a recursive definition -> its group
        for group in catlang._groups(defs):
            if catlang._recursive(group, terms):
                scc_of.update((n, frozenset(group)) for n in group)
        rankw = max(2, (self.n * self.n + 1).bit_length() + 1)

        for nm, _ in defs:
            for x in self.events:
                for y in self.events:
                    self.declare(f"d_{nm}_{x.name}_{y.name}", "Bool")
                    if nm in scc_of:
                        self.declare(
                            f"drk_{nm}_{x.name}_{y.name}", f"(_ BitVec {rankw})"
                        )

        for nm, term in defs:
            if nm in scc_of:
                for x in self.events:
                    for y in self.events:
                        rank = f"drk_{nm}_{x.name}_{y.name}"
                        expr = self._inline_recursive(term, x, y, scc_of[nm], rank)
                        self.assert_(f"(= d_{nm}_{x.name}_{y.name} {expr})")
            else:
                formula = self.materialize(term)
                for x in self.events:
                    for y in self.events:
                        self.assert_(f"(= d_{nm}_{x.name}_{y.name} {formula(x, y)})")

    def emit_assertions(self):
        self.say("model assertions")
        for ai, (kind, term, src) in enumerate(self.model.assertions):
            self.say(f"{kind} {src}")
            formula = self.materialize(term)
            if kind == "empty":
                for x in self.events:
                    for y in self.events:
                        self.assert_(_not(formula(x, y)))
            elif kind == "irreflexive":
                for x in self.events:
                    self.assert_(_not(formula(x, x)))
            else:  # acyclic: order-variable encoding
                ew = max(2, self.n.bit_length() + 1)
                for e in self.events:
                    self.declare(f"ord{ai}_{e.name}", f"(_ BitVec {ew})")
                for x in self.events:
                    for y in self.events:
                        t = formula(x, y)
                        if t == FALSE:
                            continue
                        self.assert_(
                            f"(=> {t} (bvult ord{ai}_{x.name} ord{ai}_{y.name}))"
                        )

    def emit_goal(self):
        self.say("isolation goal: some load reads the secret init event")
        secret = next(e for e in self.inits if e.kind == "secret-init")
        self.lines.append(
            f"(assert {_ors([self.rf_sel(secret, r) for r in self.loads])})"
        )

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
    return _Emitter(program, model, cfg, k, domain_bits, program_name).render()

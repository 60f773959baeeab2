"""Litmus-style assembly: parsing, validation, and bounded unrolling.

A litmus file declares a memory layout and one or more threads of numbered
instructions:

    layout A[4]@0 secret@4 input idx@5 B[2]@6
    thread 0:
    1: load r1, idx
    2: r2 <- r1 < A.size
    3: beqz r2, 7
    4: load r3, A + r1
    5: load r4, B + r3
    6: r6 <- r6 & r4
    7: skip
    expect safe model=inorder mode=traditional

Layout entries are `NAME[extent]@base` (extent defaults to 1), optionally
prefixed with `input` to mark the cells attacker-controlled.  The reserved
entry `secret@N` fixes the secret address; referencing `secret` inside an
expression yields that address.  Location names evaluate to their base
address and `NAME.size` to the declared extent, so bounds checks can be
written the way the C originals read.  Registers are `r0`, `r1`, ...;
anything else is rejected.  Statements: `rN <- e`, `rN <-(g?) e` (assign
only when g is nonzero), `load rN, e`, `store e_addr, e_val`, `jmp L`,
`beqz rN, L`, `fence`, `skip`.  Labels within a thread must be consecutive.

`unroll` rewrites every thread into a loop-free program by cloning each
instruction per iteration: instance (l, i) means iteration i of source
label l.  Back edges that would exceed the bound are dropped and the
program is flagged as a potentially incomplete unrolling, which downgrades
"no violation found" verdicts to Unknown.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property


class ParseError(ValueError):
    """Malformed litmus source."""


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    @cached_property
    def _registers(self) -> frozenset[str]:  # once per node: see `expr_registers`
        if isinstance(self, Reg):
            return frozenset({self.name})
        if isinstance(self, Unary):
            return self.operand._registers
        if isinstance(self, Binary):
            return self.left._registers | self.right._registers
        return frozenset()

    @cached_property
    def _compiled(self):  # once per node: the closure `eval_expr` calls
        if isinstance(self, Const):
            return lambda regs, secret, mask, value=self.value: value & mask
        if isinstance(self, Secret):
            return lambda regs, secret, mask: secret & mask
        if isinstance(self, Reg):
            return lambda regs, secret, mask, name=self.name: regs.get(name, 0)
        if isinstance(self, Unary):
            operand, op = self.operand._compiled, _UN_OPS[self.op]

            def unary(regs, secret, mask):
                v = operand(regs, secret, mask)
                return None if v is None else op(v) & mask
            return unary
        if not isinstance(self, Binary):
            raise TypeError(f"not an expression: {self!r}")
        left, right = self.left._compiled, self.right._compiled
        op, shift = _BIN_OPS[self.op], self.op == "<<"

        def binary(regs, secret, mask):
            a, b = left(regs, secret, mask), right(regs, secret, mask)
            if a is None or b is None:
                return None
            if shift:  # a count of the width or more shifts every bit out
                b = min(b, mask.bit_length())
            return op(a, b) & mask
        return binary


@dataclass(frozen=True)
class Reg(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    value: int
    sym: str | None = None  # display name for layout-derived constants


@dataclass(frozen=True)
class Secret(Expr):
    """The secret-address token; evaluates to the program's secret address."""


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


_BIN_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
}

_UN_OPS = {
    "-": lambda a: -a,
    "~": lambda a: ~a,
    "!": lambda a: int(a == 0),
}


def eval_expr(e: Expr, regs, secret_addr: int, mask: int):
    """Evaluate `e` modulo `mask` + 1, the size of the value domain.

    Register values are looked up with `regs.get(name, 0)`, so missing
    registers read 0; `regs` is a dict, or the demand-driven evaluator of
    value propagation (`events.Evaluator`), which evaluates a register's
    writer when the register is read.  A value of None means "unresolved"
    and poisons the result.  Each node is compiled once into a closure
    (`Expr._compiled`), which this calls.
    """
    return e._compiled(regs, secret_addr, mask)


def expr_registers(e: Expr) -> frozenset[str]:
    """The registers `e` reads, computed once per node and kept on it."""
    return e._registers


def expr_to_text(e: Expr) -> str:
    if isinstance(e, Const):
        return e.sym if e.sym else str(e.value)
    if isinstance(e, Secret):
        return "secret"
    if isinstance(e, Reg):
        return e.name
    if isinstance(e, Unary):
        return f"{e.op}{expr_to_text(e.operand)}"
    if isinstance(e, Binary):
        return f"({expr_to_text(e.left)} {e.op} {expr_to_text(e.right)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Statements and programs


class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    reg: str
    expr: Expr


@dataclass(frozen=True)
class CondAssign(Stmt):
    reg: str
    guard: Expr
    expr: Expr


@dataclass(frozen=True)
class Load(Stmt):
    reg: str
    addr: Expr


@dataclass(frozen=True)
class Store(Stmt):
    addr: Expr
    value: Expr


@dataclass(frozen=True)
class Jmp(Stmt):
    target: int | None  # None: edge removed by the unrolling bound


@dataclass(frozen=True)
class Beqz(Stmt):
    reg: str
    target: int | None


@dataclass(frozen=True)
class Skip(Stmt):
    pass


@dataclass(frozen=True)
class Fence(Stmt):
    pass


def stmt_to_text(s: Stmt) -> str:
    if isinstance(s, Assign):
        return f"{s.reg} <- {expr_to_text(s.expr)}"
    if isinstance(s, CondAssign):
        return f"{s.reg} <-({expr_to_text(s.guard)}?) {expr_to_text(s.expr)}"
    if isinstance(s, Load):
        return f"load {s.reg}, {expr_to_text(s.addr)}"
    if isinstance(s, Store):
        return f"store {expr_to_text(s.addr)}, {expr_to_text(s.value)}"
    if isinstance(s, Jmp):
        return f"jmp {s.target if s.target is not None else '<cut>'}"
    if isinstance(s, Beqz):
        return f"beqz {s.reg}, {s.target if s.target is not None else '<cut>'}"
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Fence):
        return "fence"
    raise TypeError(f"not a statement: {s!r}")


def stmt_target_reg(s: Stmt) -> str | None:
    """Register written by the statement, if any."""
    if isinstance(s, (Assign, CondAssign, Load)):
        return s.reg
    return None


@dataclass(frozen=True)
class Instruction:
    label: int
    stmt: Stmt
    thread: int
    provenance: tuple[int, int] | None = None  # (source label, iteration)
    # False when the dynamic fall-through of this instance is "program done"
    # even though a textual successor exists in the unrolled listing.
    falls_through: bool = True


@dataclass(frozen=True)
class Expectation:
    outcome: str  # safe | unsafe | unknown
    model: str
    mode: str | None = None
    overrides: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Program:
    threads: tuple[tuple[Instruction, ...], ...]
    layout: tuple[tuple[str, int, int], ...]  # (name, base, extent)
    secret_addr: int
    input_locations: frozenset[int]
    expectations: tuple[Expectation, ...] = ()
    unroll_incomplete: bool = False

    def instruction(self, thread: int, label: int) -> Instruction:
        for ins in self.threads[thread]:
            if ins.label == label:
                return ins
        raise KeyError(f"thread {thread} has no label {label}")

    def declared_addresses(self) -> tuple[int, ...]:
        """All layout cells plus the secret address, ascending."""
        cells = {self.secret_addr}
        for _, base, extent in self.layout:
            cells.update(range(base, base + extent))
        return tuple(sorted(cells))

    def max_address(self) -> int:
        return max(self.declared_addresses())

    @cached_property
    def _derived(self) -> dict:
        """Tables derived from this program alone, filled on first use (the
        unroll per bound, the init events).  Not a field: `==`, `hash` and
        `repr` ignore it, and `dataclasses.replace` starts it empty."""
        return {}


# ---------------------------------------------------------------------------
# Expression parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.size)?)"
    r"|(?P<op><<|>>|<=|>=|==|!=|[-+*&|^~!<>()]))"
)

_LEVELS = (
    ("<", "<=", ">", ">=", "==", "!="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*",),
)

_REG_RE = re.compile(r"^r\d+$")
# evaluating recurses once per level, in up to `events._NESTED` nested
# evaluations: this bound keeps them within the recursion limit
_MAX_EXPR_DEPTH = 32


class _ExprParser:
    def __init__(self, text: str, layout: dict[str, tuple[int, int]], where: str):
        self.where = where
        self.layout = layout
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"{where}: cannot tokenize {text[pos:]!r}")
                break
            pos = m.end()
            self.tokens.append(m.group(m.lastgroup))
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"{self.where}: unexpected end of expression")
        self.i += 1
        return tok

    def parse(self) -> Expr:
        e = self._binary(0)
        if self.peek() is not None:
            raise ParseError(f"{self.where}: trailing tokens after expression")
        return e

    def _binary(self, level: int) -> Expr:
        if level == len(_LEVELS):
            return self._unary()
        left = self._binary(level + 1)
        while self.peek() in _LEVELS[level]:
            op = self.next()
            right = self._binary(level + 1)
            left = Binary(op, left, right)
        return left

    def _unary(self) -> Expr:
        if self.peek() in ("-", "~", "!"):
            return Unary(self.next(), self._unary())
        return self._atom()

    def _atom(self) -> Expr:
        tok = self.next()
        if tok == "(":
            e = self._binary(0)
            if self.next() != ")":
                raise ParseError(f"{self.where}: expected ')'")
            return e
        if tok.isdigit():
            return Const(int(tok))
        if tok == "secret":
            return Secret()
        if tok.endswith(".size"):
            name = tok[: -len(".size")]
            if name not in self.layout:
                raise ParseError(f"{self.where}: unknown location {name!r}")
            return Const(self.layout[name][1], sym=tok)
        if tok in self.layout:
            return Const(self.layout[tok][0], sym=tok)
        if _REG_RE.match(tok):
            return Reg(tok)
        raise ParseError(f"{self.where}: unknown register or location {tok!r}")


def parse_expr(text: str, layout: dict[str, tuple[int, int]], where: str = "expr") -> Expr:
    try:
        e = _ExprParser(text, layout, where).parse()
    except RecursionError:
        e = None
    # an infix chain nests without recursion here, but evaluation recurses
    if e is None or _depth(e) > _MAX_EXPR_DEPTH:
        raise ParseError(f"{where}: nested too deeply")
    return e


def _depth(e: Expr) -> int:
    """The number of nested expressions on the longest path down `e`."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        e, d = stack.pop()
        deepest = max(deepest, d)
        stack += [(sub, d + 1) for sub in vars(e).values() if isinstance(sub, Expr)]
    return deepest


# ---------------------------------------------------------------------------
# Program parsing

_LAYOUT_ENTRY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?@(\d+)$")
_THREAD_RE = re.compile(r"^thread\s+(\d+)\s*:$")
_INSTR_RE = re.compile(r"^(\d+)\s*:\s*(.+)$")
_COND_ASSIGN_RE = re.compile(r"^(r\d+)\s*<-\s*\((.*)\?\)\s*(.+)$")
_ASSIGN_RE = re.compile(r"^(r\d+)\s*<-\s*(.+)$")


def _parse_layout(parts: list[str], where: str, layout: dict, inputs: set, secret_addr):
    """Add the entries of one layout line to `layout` (name -> (base,
    extent)) and `inputs`; returns the secret address, `secret_addr` unless
    the line declares it."""
    is_input = False
    for part in parts:
        if part == "input":
            is_input = True
            continue
        m = _LAYOUT_ENTRY_RE.match(part)
        if not m:
            raise ParseError(f"{where}: bad layout entry {part!r}")
        name, extent, base = m.group(1), int(m.group(2) or 1), int(m.group(3))
        if name == "secret":
            if m.group(2) is not None or is_input:
                raise ParseError(f"{where}: secret takes neither extent nor input")
            if secret_addr is not None:
                raise ParseError(f"{where}: duplicate secret address")
            secret_addr = base
        else:
            if name in layout:
                raise ParseError(f"{where}: duplicate location {name!r}")
            layout[name] = (base, extent)
            if is_input:
                inputs.update(range(base, base + extent))
        is_input = False
    if is_input:
        raise ParseError(f"{where}: 'input' must precede a layout entry")
    return secret_addr


# The statements with two comma-separated operands, and how to write them.
_OPERAND_USAGE = {"load": "load rN, addr", "store": "store addr, value", "beqz": "beqz rN, label"}


def _parse_stmt(text: str, layout: dict[str, tuple[int, int]], where: str) -> Stmt:
    text = text.strip()
    if text == "skip":
        return Skip()
    if text == "fence":
        return Fence()
    head = text.split(None, 1)[0]
    rest = text[len(head):].strip()
    if head in _OPERAND_USAGE:
        if "," not in rest:
            raise ParseError(f"{where}: {head} needs '{_OPERAND_USAGE[head]}'")
        first, second = rest.split(",", 1)
        if head == "store":
            return Store(parse_expr(first, layout, where), parse_expr(second, layout, where))
        reg = first.strip()
        if not _REG_RE.match(reg):
            raise ParseError(f"{where}: unknown register or location {reg!r}")
        if head == "load":
            return Load(reg, parse_expr(second, layout, where))
        if not second.strip().isdigit():
            raise ParseError(f"{where}: beqz target must be a numeric label")
        return Beqz(reg, int(second))
    if head == "jmp":
        if not rest.isdigit():
            raise ParseError(f"{where}: jmp needs a numeric label")
        return Jmp(int(rest))
    m = _COND_ASSIGN_RE.match(text)
    if m:
        return CondAssign(
            m.group(1),
            parse_expr(m.group(2), layout, where),
            parse_expr(m.group(3), layout, where),
        )
    m = _ASSIGN_RE.match(text)
    if m:
        return Assign(m.group(1), parse_expr(m.group(2), layout, where))
    raise ParseError(f"{where}: cannot parse statement {text!r}")


def _parse_expect(parts: list[str], where: str) -> Expectation:
    if not parts or parts[0] not in ("safe", "unsafe", "unknown"):
        raise ParseError(f"{where}: expect needs safe|unsafe|unknown")
    outcome = parts[0]
    model = None
    mode = None
    overrides: list[tuple[str, int]] = []
    for part in parts[1:]:
        if "=" not in part:
            raise ParseError(f"{where}: bad expect option {part!r}")
        key, value = part.split("=", 1)
        if key == "model":
            model = value
        elif key == "mode":
            if value not in ("traditional", "speculative"):
                raise ParseError(f"{where}: bad mode {value!r}")
            mode = value
        elif key in ("k", "w", "buffer", "bits"):
            if not value.isdigit():
                raise ParseError(f"{where}: {key} needs a number")
            overrides.append((key, int(value)))
        else:
            raise ParseError(f"{where}: unknown expect option {key!r}")
    if model is None:
        raise ParseError(f"{where}: expect needs model=<name>")
    return Expectation(outcome, model, mode, tuple(overrides))


def parse_program(text: str) -> Program:
    """Parse litmus source into a validated Program."""
    layout: dict[str, tuple[int, int]] = {}
    secret_addr = None
    inputs: set[int] = set()
    threads: list[list[Instruction]] = []
    expectations: list[Expectation] = []
    current: list[Instruction] | None = None
    saw_layout = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        parts = line.split()
        if parts[0] == "layout":
            secret_addr = _parse_layout(parts[1:], where, layout, inputs, secret_addr)
            saw_layout = True
            continue
        if parts[0] == "thread":
            m = _THREAD_RE.match(line)
            if not m:
                raise ParseError(f"{where}: bad thread header")
            tid = int(m.group(1))
            if tid != len(threads):
                raise ParseError(f"{where}: thread ids must be contiguous from 0")
            current = []
            threads.append(current)
            continue
        if parts[0] == "expect":
            expectations.append(_parse_expect(parts[1:], where))
            continue
        m = _INSTR_RE.match(line)
        if m:
            if not saw_layout:
                raise ParseError(f"{where}: layout must precede instructions")
            if current is None:
                if threads:
                    raise ParseError(f"{where}: instruction outside a thread section")
                current = []
                threads.append(current)  # bare single-thread file
            label = int(m.group(1))
            stmt = _parse_stmt(m.group(2), layout, where)
            current.append(Instruction(label, stmt, thread=len(threads) - 1))
            continue
        raise ParseError(f"{where}: cannot parse line {line!r}")

    if secret_addr is None:
        raise ParseError("layout must declare secret@ADDR")
    if not threads or not any(threads):
        raise ParseError("program has no instructions")

    # Regions pairwise disjoint, secret outside all of them.
    used: dict[int, str] = {}
    for name, (base, extent) in layout.items():
        for a in range(base, base + extent):
            if a in used:
                raise ParseError(f"layout regions {used[a]!r} and {name!r} overlap at {a}")
            if a == secret_addr:
                raise ParseError(f"secret address {a} lies inside region {name!r}")
            used[a] = name

    for tid, instrs in enumerate(threads):
        labels = [i.label for i in instrs]
        for a, b in zip(labels, labels[1:]):
            if b == a:
                raise ParseError(f"thread {tid}: duplicate label {a}")
            if b != a + 1:
                raise ParseError(f"thread {tid}: labels must be consecutive ({a} then {b})")
        label_set = set(labels)
        for ins in instrs:
            target = getattr(ins.stmt, "target", None)
            if target is not None and target not in label_set:
                raise ParseError(
                    f"thread {tid}: label {ins.label} jumps to undefined label {target}"
                )

    return Program(
        threads=tuple(tuple(t) for t in threads),
        layout=tuple((name, base, extent) for name, (base, extent) in layout.items()),
        secret_addr=secret_addr,
        input_locations=frozenset(inputs),
        expectations=tuple(expectations),
    )


# ---------------------------------------------------------------------------
# Static predecessors and unrolling


def pred(program: Program, label: int, thread: int = 0) -> frozenset[int]:
    """Static predecessors of `label`: the textual predecessor unless it is a
    direct jump (or its fall-through was cut by unrolling), plus every jump
    targeting `label`."""
    instrs = program.threads[thread]
    if label not in {i.label for i in instrs}:
        raise KeyError(f"thread {thread} has no label {label}")
    out = set()
    for ins in instrs:
        s = ins.stmt
        if ins.label + 1 == label and not isinstance(s, Jmp) and ins.falls_through:
            out.add(ins.label)
        if isinstance(s, (Jmp, Beqz)) and s.target == label:
            out.add(ins.label)
    return frozenset(out)


def _unroll_thread(instrs, k: int):
    if not instrs:
        return (), False
    by_label = {i.label: i for i in instrs}
    first = instrs[0].label
    incomplete = False

    # Reachable instances (label, iteration), found by forward exploration.
    start = (first, 1)
    seen = {start}
    queue = [start]
    jump_target: dict[tuple[int, int], tuple[int, int] | None] = {}
    while queue:
        l, i = queue.pop()
        ins = by_label[l]
        s = ins.stmt
        if not isinstance(s, Jmp) and ins.falls_through and (l + 1) in by_label:
            nxt = (l + 1, i)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        target = getattr(s, "target", None)
        if target is not None:
            i2 = i if target > l else i + 1
            if i2 > k:
                incomplete = True
                jump_target[(l, i)] = None
            else:
                nxt = (target, i2)
                jump_target[(l, i)] = nxt
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        elif isinstance(s, (Jmp, Beqz)):
            jump_target[(l, i)] = None  # already cut in the input

    order = sorted(seen, key=lambda inst: (inst[1], inst[0]))
    new_label = {inst: n for n, inst in enumerate(order, start=1)}

    out = []
    for inst in order:
        l, i = inst
        ins = by_label[l]
        s = ins.stmt
        if isinstance(s, (Jmp, Beqz)):
            tgt = jump_target.get(inst)
            tgt_label = new_label[tgt] if tgt is not None else None
            s = replace(s, target=tgt_label)
        falls = (
            not isinstance(s, Jmp)
            and ins.falls_through
            and (l + 1) in by_label
        )
        out.append(
            Instruction(
                label=new_label[inst],
                stmt=s,
                thread=ins.thread,
                provenance=ins.provenance if ins.provenance is not None else (l, i),
                falls_through=falls,
            )
        )
    return tuple(out), incomplete


def unroll(program: Program, k: int) -> Program:
    """Clone loop bodies up to `k` iterations, yielding a loop-free program.

    Every jump whose (iteration-aware) target would exceed the bound is cut;
    executions reaching a cut edge simply end there, and the result is
    flagged as a potentially incomplete unrolling.  It is computed once per
    (program, k) and kept on the program, so every query shares it.
    """
    if k < 1:
        raise ValueError("unroll bound must be >= 1")
    derived = program._derived
    if ("unroll", k) not in derived:
        threads = [_unroll_thread(instrs, k) for instrs in program.threads]
        derived["unroll", k] = replace(
            program, threads=tuple(t for t, _ in threads),
            unroll_incomplete=program.unroll_incomplete or any(inc for _, inc in threads),
        )
    return derived["unroll", k]

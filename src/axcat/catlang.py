"""Model files: derived-relation equations and consistency assertions.

A model file has one definition or assertion per line:

    com = co | rf | (rf^-1;co)
    win = [W];po;([W];po)^{<=w'-1};[R]
    ppo = (po \\ (W * R)) | win | fence
    acyclic com | ppo

Operators, loosest to tightest: `|` union, `\\` difference, `&`
intersection, `;` composition; postfix `^-1` inverse, `^+` transitive
closure, `^*` reflexive-transitive closure, and `^{<=k}` bounded
self-composition (k may be a literal, `w`, or `w'`, optionally minus a
literal; `r^{<=0}` is `r` itself and `r^{<=k}` is `r;r^{<=k-1}`).
`[X]` is the identity on an event class and `X * Y` the cross product of
two classes, where X, Y are E (all events), M (memory events), W or S
(stores, init events included), R or L (loads).  Base relations: po,
fence, rf, co, loc, addr, srf, rfe; `add` is accepted as a spelling of
`loc`.  Named definitions may be recursive as long as every name of a
recursive group occurs positively (never on the right of a difference);
such systems are evaluated to their least fixpoint.  Assertions are
`acyclic t`, `irreflexive t`, `empty t`, checked in file order.

Evaluation is compiled.  `compile_model(model, cfg)` resolves every bound
once and orders the definitions by dependency into strongly connected
groups: a recursive group is iterated from empty to its least fixpoint,
every other definition is evaluated once.  Each term becomes a closure over
bitset rows: a relation over the events 0..n-1 is a list of n ints, and bit
j of row i is the pair (i, j).  Union, intersection and difference work row
by row, composition ORs the rows of successors, `r^{<=k}` takes O(log k)
compositions by repeated squaring, and closure and acyclicity run on rows.
`CompiledModel.bind(skeleton)` takes the skeleton's `po`, `fence` and
`addr` rows and its event classes as they are and evaluates, once per
control vector, every definition that names no data relation (rf, co, loc,
srf, rfe): `win` and `ppo` in stl, `po-tso` in tso and tso-mcu.
`BoundModel.check(x)` then takes from `events.data_rows` only the data rows
the model reads and runs the remaining definitions and the assertions.
`CompiledModel.monotone` holds when no data relation, and no definition
that reads one, occurs under the right of a `\\`: then more `co` edges
never let a candidate pass an assertion that it failed.
The public `evaluate` and `check_assertions` convert Relations to rows and
back at the boundary and run the same closures.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import namedtuple
from dataclasses import dataclass, replace
from types import MappingProxyType

from .events import (
    DATA_RELATIONS,
    CandidateExecution,
    Skeleton,
    data_rows,
    relation_of,
)

BASE_RELATIONS = ("po", "fence", "rf", "co", "loc", "addr", "srf", "rfe")
_BASE_ALIASES = {"add": "loc"}
_SET_ALIASES = {"E": "E", "M": "M", "W": "W", "S": "W", "R": "R", "L": "R"}
ASSERTION_KINDS = ("acyclic", "irreflexive", "empty")


class CatError(ValueError):
    """Malformed model file or ill-founded recursion."""


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class TBase:
    name: str


@dataclass(frozen=True)
class TRef:
    name: str


@dataclass(frozen=True)
class TSetId:
    set_name: str


@dataclass(frozen=True)
class TCross:
    left: str
    right: str


@dataclass(frozen=True)
class TUnion:
    left: object
    right: object


@dataclass(frozen=True)
class TInter:
    left: object
    right: object


@dataclass(frozen=True)
class TDiff:
    left: object
    right: object


@dataclass(frozen=True)
class TCompose:
    left: object
    right: object


@dataclass(frozen=True)
class TInverse:
    term: object


@dataclass(frozen=True)
class TPlus:
    term: object


@dataclass(frozen=True)
class TStar:
    term: object


@dataclass(frozen=True)
class TBounded:
    term: object
    k_base: object  # int, "w" or "w'"
    k_offset: int = 0


@dataclass(frozen=True)
class CatModel:
    name: str
    definitions: tuple  # of (name, term), file order
    assertions: tuple  # of (kind, term, source text), file order

    def base_names(self) -> frozenset:
        return self._base_names

    def __hash__(self) -> int:  # `compile_model`'s cache hashes it per check
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:  # once per model: it walks every term
        return hash((self.name, self.definitions, self.assertions))

    @functools.cached_property
    def _base_names(self) -> frozenset:  # once per model: it walks every term
        terms = [t for _, t in self.definitions] + [t for _, t, _ in self.assertions]
        return frozenset(set().union(*map(_names, terms)) & set(BASE_RELATIONS))


# ---------------------------------------------------------------------------
# Parsing

_CAT_TOKEN_RE = re.compile(
    r"\s*(?:(?P<bounded>\^\{<=[^}]*\})"
    r"|(?P<inv>\^-1)"
    r"|(?P<plus>\^\+)"
    r"|(?P<star>\^\*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_'-]*)"
    r"|(?P<op>[][()|&\\;*=]))"
)

_K_RE = re.compile(r"^(\d+|w'|w)\s*(?:-\s*(\d+))?$")


class _Tokens:
    def __init__(self, text: str, where: str):
        self.where = where
        self.toks: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            if text[pos:].strip() == "":
                break
            m = _CAT_TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                raise CatError(f"{where}, column {pos + 1}: cannot tokenize {text[pos:]!r}")
            pos = m.end()
            self.toks.append((m.lastgroup, m.group(m.lastgroup)))
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        kind, text = self.peek()
        if kind is None:
            raise CatError(f"{self.where}: unexpected end of line")
        self.i += 1
        return kind, text

    def done(self) -> bool:
        return self.i >= len(self.toks)


def _parse_k(text: str, where: str):
    inner = text[len("^{<="):-1].strip()
    m = _K_RE.match(inner)
    if not m:
        raise CatError(f"{where}: bad bound {inner!r} (use a literal, w, or w')")
    base = m.group(1)
    offset = -int(m.group(2)) if m.group(2) else 0
    if base.isdigit():
        return int(base), offset
    return base, offset


# Infix operators, loosest first; each level is left-associative.
_INFIX = (("|", TUnion), ("\\", TDiff), ("&", TInter), (";", TCompose))
_POSTFIX = {"inv": TInverse, "plus": TPlus, "star": TStar}
_BINARY_TERMS = (TUnion, TInter, TDiff, TCompose)
_UNARY_TERMS = (TInverse, TPlus, TStar, TBounded)
_MAX_TERM_DEPTH = 100  # far beyond any model, far within the recursion limit


def _parse_term(toks: _Tokens):
    where = toks.where

    def infix(level):
        if level == len(_INFIX):
            return cross()
        op, cls = _INFIX[level]
        t = infix(level + 1)
        while toks.peek() == ("op", op):
            toks.next()
            t = cls(t, infix(level + 1))
        return t

    def cross():
        t = postfix()
        while toks.peek() == ("op", "*"):
            toks.next()
            right = postfix()
            if not isinstance(t, TRef) or not isinstance(right, TRef):
                raise CatError(f"{where}: '*' joins two event-class names")
            for n in (t.name, right.name):
                if n not in _SET_ALIASES:
                    raise CatError(f"{where}: unknown event class {n!r}")
            t = TCross(_SET_ALIASES[t.name], _SET_ALIASES[right.name])
        return t

    def postfix():
        t = atom()
        while toks.peek()[0] in (*_POSTFIX, "bounded"):
            kind, text = toks.next()
            if kind == "bounded":
                t = TBounded(t, *_parse_k(text, where))
            else:
                t = _POSTFIX[kind](t)
        return t

    def atom():
        kind, text = toks.next()
        if (kind, text) == ("op", "("):
            t = infix(0)
            if toks.next() != ("op", ")"):
                raise CatError(f"{where}: expected ')'")
            return t
        if (kind, text) == ("op", "["):
            k2, name = toks.next()
            if k2 != "name" or name not in _SET_ALIASES:
                raise CatError(f"{where}: unknown event class {name!r}")
            if toks.next() != ("op", "]"):
                raise CatError(f"{where}: expected ']'")
            return TSetId(_SET_ALIASES[name])
        if kind == "name":
            return TRef(text)  # classified later
        raise CatError(f"{where}: unexpected token {text!r}")

    try:
        t = infix(0)
    except RecursionError:
        raise CatError(f"{where}: nested too deeply") from None
    if not toks.done():
        raise CatError(f"{where}: trailing tokens")
    # postfix and infix chains nest without recursing here, but every later
    # pass over the term (classifying, hashing, lowering) recurses
    if _depth(t) > _MAX_TERM_DEPTH:
        raise CatError(f"{where}: nested too deeply")
    return t


def _depth(term) -> int:
    """The number of nested terms on the longest path down `term`."""
    deepest, stack = 0, [(term, 1)]
    while stack:
        t, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(t, _BINARY_TERMS):
            stack += ((t.left, d + 1), (t.right, d + 1))
        elif isinstance(t, _UNARY_TERMS):
            stack.append((t.term, d + 1))
    return deepest


def _classify(term, defined: set, where: str):
    """Turn raw name references into base relations or definition refs."""
    if isinstance(term, TRef):
        if term.name in defined:
            return term
        base = _BASE_ALIASES.get(term.name, term.name)
        if base in BASE_RELATIONS:
            return TBase(base)
        raise CatError(f"{where}: undefined relation name {term.name!r}")
    if isinstance(term, _BINARY_TERMS):
        left, right = (_classify(t, defined, where) for t in (term.left, term.right))
        return type(term)(left, right)
    if isinstance(term, _UNARY_TERMS):
        return replace(term, term=_classify(term.term, defined, where))
    return term


def _names(term) -> set:
    """The base relations and definitions a term names."""
    if isinstance(term, (TBase, TRef)):
        return {term.name}
    if isinstance(term, _BINARY_TERMS):
        return _names(term.left) | _names(term.right)
    if isinstance(term, _UNARY_TERMS):
        return _names(term.term)
    return set()


def _negative_refs(term, positive=True) -> set:
    """The base relations and definitions a term names in antitone
    positions (under the right of a `\\`)."""
    if isinstance(term, (TBase, TRef)):
        return set() if positive else {term.name}
    if isinstance(term, TDiff):
        return _negative_refs(term.left, positive) | _negative_refs(term.right, not positive)
    if isinstance(term, _BINARY_TERMS):
        return _negative_refs(term.left, positive) | _negative_refs(term.right, positive)
    if isinstance(term, _UNARY_TERMS):
        return _negative_refs(term.term, positive)
    return set()


def parse_cat(text: str, name: str = "<model>") -> CatModel:
    raw_defs: list[tuple[str, object, str]] = []
    raw_asserts: list[tuple[str, object, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{name}, line {lineno}"
        first = line.split(None, 1)[0]
        if first in ASSERTION_KINDS:
            body = line[len(first):].strip()
            toks = _Tokens(body, where)
            raw_asserts.append((first, _parse_term(toks), body))
        else:
            if "=" not in line:
                raise CatError(f"{where}: expected 'name = term' or an assertion")
            lhs, rhs = line.split("=", 1)
            lhs = lhs.strip()
            if not re.match(r"^[A-Za-z_][A-Za-z0-9_'-]*$", lhs):
                raise CatError(f"{where}: bad relation name {lhs!r}")
            if lhs in BASE_RELATIONS or lhs in _BASE_ALIASES or lhs in _SET_ALIASES:
                raise CatError(f"{where}: cannot redefine builtin name {lhs!r}")
            if any(d[0] == lhs for d in raw_defs):
                raise CatError(f"{where}: duplicate definition of {lhs!r}")
            toks = _Tokens(rhs, where)
            raw_defs.append((lhs, _parse_term(toks), where))

    defined = {d[0] for d in raw_defs}
    definitions = tuple(
        (n, _classify(t, defined, where)) for n, t, where in raw_defs
    )
    assertions = tuple(
        (kind, _classify(t, defined, f"{name} assertion"), src)
        for kind, t, src in raw_asserts
    )

    # Least fixpoints exist only if recursion stays monotone: no name of a
    # recursive group may occur on the right of a difference in the group.
    terms = dict(definitions)
    for group in _groups(definitions):
        if not _recursive(group, terms):
            continue
        for m in group:
            bad = _negative_refs(terms[m]) & set(group)
            if bad:
                raise CatError(
                    f"{name}: non-monotone recursion: {sorted(bad)} under the "
                    f"right of a difference in {m!r}"
                )

    return CatModel(name=name, definitions=definitions, assertions=assertions)


# ---------------------------------------------------------------------------
# Bitset rows
#
# A relation over the events 0..n-1 is a list of n ints, one row per event:
# bit j of row i is the pair (i, j).  An event class X is held as the rows
# of [X].  No operation mutates its operands.


def union_rows(a: list, b: list) -> list:
    return list(map(operator.or_, a, b))


def inter_rows(a: list, b: list) -> list:
    return list(map(operator.and_, a, b))


def diff_rows(a: list, b: list) -> list:
    return [x & ~y for x, y in zip(a, b)]


def compose_rows(a: list, b: list) -> list:
    """a;b: each row of `a` ORs the rows of its successors in `b`."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc |= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def inverse_rows(a: list) -> list:
    out = [0] * len(a)
    for i, row in enumerate(a):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def plus_rows(a: list) -> list:
    """Transitive closure (Warshall, one row OR per reaching pair)."""
    out = list(a)
    for k, _ in enumerate(out):
        bit, through = 1 << k, out[k]
        if through:
            for i, row in enumerate(out):
                if row & bit:
                    out[i] = row | through
    return out


def star_rows(a: list, universe: list) -> list:
    """Reflexive-transitive closure; `universe` is the rows of [E]."""
    return union_rows(plus_rows(a), universe)


def cross_rows(left: list, right: list) -> list:
    """X * Y from the rows of [X] and [Y]."""
    mask = 0
    for row in right:
        mask |= row
    return [mask if row else 0 for row in left]


def power_rows(a, k: int, compose=compose_rows):
    """a^{<=k}, the (k+1)-th power of `a`, by repeated squaring: O(log k)
    calls of `compose`, which composes two powers (the solver export passes
    its own, over formulas)."""
    result, square, e = None, a, k + 1
    while True:
        if e & 1:
            result = square if result is None else compose(result, square)
        e >>= 1
        if not e:
            return result
        square = compose(square, square)


def is_acyclic_rows(a: list) -> bool:
    """Peel off sinks until none is left (acyclic) or a sweep finds none
    (every remaining event has a remaining successor: a cycle).  Sweeping
    from the last event peels a chain in increasing order at once."""
    live = [i for i in range(len(a) - 1, -1, -1) if a[i]]
    mask = 0
    for i in live:
        mask |= 1 << i
    while live:
        still = []
        for i in live:
            if a[i] & mask:
                still.append(i)
            else:
                mask ^= 1 << i
        if len(still) == len(live):
            return False
        live = still
    return True


def is_irreflexive_rows(a: list) -> bool:
    return not any(row >> i & 1 for i, row in enumerate(a))


def is_empty_rows(a: list) -> bool:
    return not any(a)


def rows_of(pairs, index: dict) -> list:
    """The rows of a set of event-id pairs; `index` maps ids to rows."""
    rows = [0] * len(index)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def identity_rows(members, index: dict) -> list:
    rows = [0] * len(index)
    for e in members:
        rows[index[e]] = 1 << index[e]
    return rows


# ---------------------------------------------------------------------------
# Compiled models

SET_NAMES = ("E", "M", "W", "R")

_BINARY = {TUnion: union_rows, TInter: inter_rows, TDiff: diff_rows, TCompose: compose_rows}
_UNARY = {TInverse: inverse_rows, TPlus: plus_rows}
_TESTS = {"acyclic": is_acyclic_rows, "irreflexive": is_irreflexive_rows, "empty": is_empty_rows}


def resolve_bound(k_base, k_offset: int, cfg) -> int:
    if isinstance(k_base, int):
        k = k_base
    elif k_base == "w":
        if cfg is None:
            raise CatError("bound uses w but no configuration was given")
        k = cfg.window
    elif k_base == "w'":
        if cfg is None:
            raise CatError("bound uses w' but no configuration was given")
        k = cfg.buffer
    else:
        raise CatError(f"bad bound base {k_base!r}")
    k += k_offset
    if k < 0:
        raise CatError(f"bound resolves to {k}, must be >= 0")
    return k


def _lookup(key):
    return lambda env: env[key]


def _test(test, fn):
    return lambda env: test(fn(env))


def _lower(term, cfg):
    """The closure env -> rows of `term`."""
    if isinstance(term, (TBase, TRef)):
        return _lookup(term.name)
    if isinstance(term, TSetId):
        return _lookup(term.set_name)
    if isinstance(term, TCross):
        left, right = term.left, term.right
        return lambda env: cross_rows(env[left], env[right])
    kind = type(term)
    if kind in _BINARY:
        op = _BINARY[kind]
        left = _lower(term.left, cfg)
        right = _lower(term.right, cfg)
        return lambda env: op(left(env), right(env))
    inner = _lower(term.term, cfg)
    if kind in _UNARY:
        op = _UNARY[kind]
        return lambda env: op(inner(env))
    if kind is TStar:
        return lambda env: star_rows(inner(env), env["E"])
    if kind is TBounded:
        k = resolve_bound(term.k_base, term.k_offset, cfg)
        return lambda env: power_rows(inner(env), k)
    raise TypeError(f"not a term: {term!r}")


def _groups(definitions) -> list:
    """The strongly connected groups of the definitions' dependency graph,
    as tuples of names.  Names keep file order within a group; each group
    comes after every group it depends on, and among the groups that are
    ready the one whose first name comes first in the file goes next."""
    deps = {n: _names(t) & {m for m, _ in definitions} for n, t in definitions}
    reach = {n: set(d) for n, d in deps.items()}  # n -> every name it depends on
    for k in reach:  # Warshall: paths through k
        for n in reach:
            if k in reach[n]:
                reach[n] |= reach[k]
    pending = [n for n, _ in definitions]
    groups: list = []
    while pending:
        for n in pending:
            group = [m for m in pending if m == n or (m in reach[n] and n in reach[m])]
            if all(d in group or d not in pending for m in group for d in deps[m]):
                break
        groups.append(tuple(group))
        pending = [m for m in pending if m not in group]
    return groups


def _recursive(group: tuple, terms: dict) -> bool:
    """Whether a group from `_groups` is recursive: it has more than one
    name, or its one definition (`terms` maps names to terms) names itself.
    A recursive group is evaluated as a least fixpoint."""
    return len(group) > 1 or group[0] in _names(terms[group[0]])


def _run(groups, env: dict, model_name: str):
    """Bind each group's names in `env`: a recursive group by iteration from
    empty to its least fixpoint, any other definition once."""
    for recursive, members in groups:
        if not recursive:
            ((name, fn),) = members
            env[name] = fn(env)
            continue
        size = len(env["E"])
        empty = [0] * size
        for name, _ in members:
            env[name] = empty
        for _ in range(len(members) * (size * size + 1) + 1):
            changed = False
            for name, fn in members:
                new = fn(env)
                if new != env[name]:
                    env[name] = new
                    changed = True
            if not changed:
                break
        else:
            raise CatError(f"{model_name}: fixpoint iteration did not converge")


class CompiledModel(namedtuple(
        "CompiledModel", "name data static dynamic assertions monotone")):
    """A `CatModel` compiled for one configuration (see `compile_model`):
    its name, the data relations it reads, the definition groups that read
    no data (static) and the others (dynamic), its assertions as (kind,
    source, closure env -> holds) in file order, and whether it is monotone
    (see the module docstring)."""

    __slots__ = ()

    def bind(self, skeleton: Skeleton) -> "BoundModel":
        """Evaluate everything the skeleton fixes, once per control vector."""
        index = range(len(skeleton.sets["E"]))  # event ids are 0..n-1
        env = {"po": skeleton.po, "fence": skeleton.fence, "addr": skeleton.addr}
        for n in SET_NAMES:
            env[n] = identity_rows(skeleton.sets[n], index)
        _run(self.static, env, self.name)
        return BoundModel(self, MappingProxyType(env))

    def violation(self, env: dict):
        """(kind, source) of the first assertion that fails, or None."""
        for kind, src, holds in self.assertions:
            if not holds(env):
                return kind, src
        return None


class BoundModel(namedtuple("BoundModel", "model env")):
    """A compiled model (`model`) with the static part of one skeleton
    evaluated (`env`, a read-only mapping)."""

    __slots__ = ()

    def check(self, x: CandidateExecution):
        """Run the assertions on a propagated candidate of the skeleton.

        Returns (consistent, violated) as `check_assertions` does."""
        env = self.env.copy()
        env.update(data_rows(x, self.model.data))
        _run(self.model.dynamic, env, self.model.name)
        violated = self.model.violation(env)
        return violated is None, violated


@functools.lru_cache(maxsize=64)
def compile_model(model: CatModel, cfg=None) -> CompiledModel:
    """Compile `model` for `cfg` (which gives `w` and `w'`; may be None when
    no bound uses them).  Pure, so the results are cached."""
    terms = dict(model.definitions)
    dynamic = set(DATA_RELATIONS)
    groups = _groups(model.definitions)
    for group in groups:  # a group follows the groups it reads
        if any(_names(terms[n]) & dynamic for n in group):
            dynamic.update(group)

    def lower(group):
        return _recursive(group, terms), tuple((n, _lower(terms[n], cfg)) for n in group)

    everything = (*terms.values(), *(term for _, term, _ in model.assertions))
    negative = set().union(*map(_negative_refs, everything))  # under a `\`
    return CompiledModel(
        name=model.name,
        data=frozenset(model.base_names() & DATA_RELATIONS),
        static=tuple(lower(g) for g in groups if g[0] not in dynamic),
        dynamic=tuple(lower(g) for g in groups if g[0] in dynamic),
        assertions=tuple(
            (kind, src, _test(_TESTS[kind], _lower(term, cfg)))
            for kind, term, src in model.assertions
        ),
        monotone=dynamic.isdisjoint(negative),
    )


def _rows_env(relations: dict, sets: dict):
    """(ids, env): the rows of named Relations and event classes over the
    events they mention, in id order."""
    ids: set = set()
    for members in sets.values():
        ids.update(members)
    for rel in relations.values():
        for pair in rel.pairs:
            ids.update(pair)
    ids = sorted(ids)
    index = {e: i for i, e in enumerate(ids)}
    env = {n: rows_of(rel.pairs, index) for n, rel in relations.items()}
    env.update((n, identity_rows(members, index)) for n, members in sets.items())
    return ids, env


def evaluate(model: CatModel, base: dict, cfg=None) -> dict:
    """Bind every defined name to its least-fixpoint relation.

    `base` maps the base relation names to Relations and E/M/W/R to event-id
    sets (as produced by `events.base_relations`).  Returns base relations,
    event sets, and derived bindings merged into one dict.
    """
    rels = {n: base[n] for n in BASE_RELATIONS}
    sets = {n: base[n] for n in SET_NAMES}
    compiled = compile_model(model, cfg)
    ids, env = _rows_env(rels, sets)
    _run(compiled.static, env, model.name)
    _run(compiled.dynamic, env, model.name)
    out = dict(rels)
    out.update(sets)
    out.update((n, relation_of(env[n], ids)) for n, _ in model.definitions)
    return out


def check_assertions(model: CatModel, bindings: dict, cfg=None):
    """Evaluate the model's assertions in file order.

    Returns (consistent, violated) where `violated` is the (kind, source)
    pair of the first failing assertion, or None.
    """
    sets = {n: bindings[n] for n in SET_NAMES}
    rels = {n: v for n, v in bindings.items() if n not in sets}
    compiled = compile_model(model, cfg)
    _, env = _rows_env(rels, sets)
    violated = compiled.violation(env)
    return violated is None, violated


def check_srf_fence(x: CandidateExecution) -> bool:
    """Alias-predicted forwarding across a fence must agree on the address:
    no load reads a store before a fence at another address.  The reads-from
    rule, `events.rf_rejection`, states the same clause, so every candidate
    that value propagation accepts passes; no engine path calls this."""
    if x.valuation is None:
        raise ValueError("srf fence check needs a completed valuation")
    fence, valuation = x.structure.fence, x.valuation
    for load in x.structure.loads:
        src = x.rf_choice[load]
        if src == "init" or not fence[src] >> load & 1:
            continue
        if valuation[src][0] != valuation[load][0]:
            return False
    return True

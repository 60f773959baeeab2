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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .events import CandidateExecution, Relation

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
        out: set[str] = set()

        def walk(t):
            if isinstance(t, TBase):
                out.add(t.name)
            elif isinstance(t, (TUnion, TInter, TDiff, TCompose)):
                walk(t.left)
                walk(t.right)
            elif isinstance(t, (TInverse, TPlus, TStar, TBounded)):
                walk(t.term)

        for _, term in self.definitions:
            walk(term)
        for _, term, _ in self.assertions:
            walk(term)
        return frozenset(out)


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


def _parse_term(toks: _Tokens, names_seen: set):
    where = toks.where

    def union():
        t = diff()
        while toks.peek() == ("op", "|"):
            toks.next()
            t = TUnion(t, diff())
        return t

    def diff():
        t = inter()
        while toks.peek() == ("op", "\\"):
            toks.next()
            t = TDiff(t, inter())
        return t

    def inter():
        t = compose()
        while toks.peek() == ("op", "&"):
            toks.next()
            t = TInter(t, compose())
        return t

    def compose():
        t = cross()
        while toks.peek() == ("op", ";"):
            toks.next()
            t = TCompose(t, cross())
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
        while True:
            kind, text = toks.peek()
            if kind == "inv":
                toks.next()
                t = TInverse(t)
            elif kind == "plus":
                toks.next()
                t = TPlus(t)
            elif kind == "star":
                toks.next()
                t = TStar(t)
            elif kind == "bounded":
                toks.next()
                k_base, k_off = _parse_k(text, where)
                t = TBounded(t, k_base, k_off)
            else:
                return t

    def atom():
        kind, text = toks.next()
        if (kind, text) == ("op", "("):
            t = union()
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
            names_seen.add(text)
            return TRef(text)  # classified later
        raise CatError(f"{where}: unexpected token {text!r}")

    t = union()
    if not toks.done():
        raise CatError(f"{where}: trailing tokens")
    return t


def _classify(term, defined: set, where: str):
    """Turn raw name references into base relations or definition refs."""
    if isinstance(term, TRef):
        if term.name in defined:
            return term
        base = _BASE_ALIASES.get(term.name, term.name)
        if base in BASE_RELATIONS:
            return TBase(base)
        raise CatError(f"{where}: undefined relation name {term.name!r}")
    if isinstance(term, TUnion):
        return TUnion(_classify(term.left, defined, where), _classify(term.right, defined, where))
    if isinstance(term, TInter):
        return TInter(_classify(term.left, defined, where), _classify(term.right, defined, where))
    if isinstance(term, TDiff):
        return TDiff(_classify(term.left, defined, where), _classify(term.right, defined, where))
    if isinstance(term, TCompose):
        return TCompose(_classify(term.left, defined, where), _classify(term.right, defined, where))
    if isinstance(term, TInverse):
        return TInverse(_classify(term.term, defined, where))
    if isinstance(term, TPlus):
        return TPlus(_classify(term.term, defined, where))
    if isinstance(term, TStar):
        return TStar(_classify(term.term, defined, where))
    if isinstance(term, TBounded):
        return TBounded(_classify(term.term, defined, where), term.k_base, term.k_offset)
    return term


def _refs(term) -> set:
    if isinstance(term, TRef):
        return {term.name}
    if isinstance(term, (TUnion, TInter, TDiff, TCompose)):
        return _refs(term.left) | _refs(term.right)
    if isinstance(term, (TInverse, TPlus, TStar, TBounded)):
        return _refs(term.term)
    return set()


def _negative_refs(term, positive=True) -> set:
    """Names occurring in antitone positions (under the right of a `\\`)."""
    if isinstance(term, TRef):
        return set() if positive else {term.name}
    if isinstance(term, TDiff):
        return _negative_refs(term.left, positive) | _negative_refs(term.right, not positive)
    if isinstance(term, (TUnion, TInter, TCompose)):
        return _negative_refs(term.left, positive) | _negative_refs(term.right, positive)
    if isinstance(term, (TInverse, TPlus, TStar, TBounded)):
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
            raw_asserts.append((first, _parse_term(toks, set()), body))
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
            raw_defs.append((lhs, _parse_term(toks, set()), where))

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
    deps = {n: _refs(t) & defined for n, t in definitions}
    reachable: dict[str, set] = {}
    for n in deps:
        seen: set = set()
        stack = list(deps[n])
        while stack:
            m = stack.pop()
            if m in seen:
                continue
            seen.add(m)
            stack.extend(deps.get(m, ()))
        reachable[n] = seen
    recursive = {n for n in deps if n in reachable[n]}
    by_name = dict(definitions)
    for n in recursive:
        group = {m for m in recursive if n in reachable[m] and m in reachable[n]} | {n}
        for m in group:
            bad = _negative_refs(by_name[m]) & group
            if bad:
                raise CatError(
                    f"{name}: non-monotone recursion: {sorted(bad)} under the "
                    f"right of a difference in {m!r}"
                )

    return CatModel(name=name, definitions=definitions, assertions=assertions)


# ---------------------------------------------------------------------------
# Evaluation


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


def _eval_term(term, rels, sets, env, cfg):
    if isinstance(term, TBase):
        return rels[term.name]
    if isinstance(term, TRef):
        return env[term.name]
    if isinstance(term, TSetId):
        return Relation.identity(sets[term.set_name])
    if isinstance(term, TCross):
        return Relation.cartesian(sets[term.left], sets[term.right])
    if isinstance(term, TUnion):
        return _eval_term(term.left, rels, sets, env, cfg) | _eval_term(
            term.right, rels, sets, env, cfg
        )
    if isinstance(term, TInter):
        return _eval_term(term.left, rels, sets, env, cfg) & _eval_term(
            term.right, rels, sets, env, cfg
        )
    if isinstance(term, TDiff):
        return _eval_term(term.left, rels, sets, env, cfg) - _eval_term(
            term.right, rels, sets, env, cfg
        )
    if isinstance(term, TCompose):
        return _eval_term(term.left, rels, sets, env, cfg).compose(
            _eval_term(term.right, rels, sets, env, cfg)
        )
    if isinstance(term, TInverse):
        return _eval_term(term.term, rels, sets, env, cfg).inverse()
    if isinstance(term, TPlus):
        return _eval_term(term.term, rels, sets, env, cfg).closure()
    if isinstance(term, TStar):
        return _eval_term(term.term, rels, sets, env, cfg).rstar(sets["E"])
    if isinstance(term, TBounded):
        r = _eval_term(term.term, rels, sets, env, cfg)
        k = resolve_bound(term.k_base, term.k_offset, cfg)
        acc = r
        for _ in range(k):
            acc = r.compose(acc)
        return acc
    raise TypeError(f"not a term: {term!r}")


def evaluate(model: CatModel, base: dict, cfg=None) -> dict:
    """Bind every defined name to its least-fixpoint relation.

    `base` maps the base relation names to Relations and E/M/W/R to event-id
    sets (as produced by `events.base_relations`).  Returns base relations,
    event sets, and derived bindings merged into one dict.
    """
    rels = {n: base[n] for n in BASE_RELATIONS}
    sets = {n: base[n] for n in ("E", "M", "W", "R")}
    env = {n: Relation.empty() for n, _ in model.definitions}
    limit = max(1, len(model.definitions)) * (len(sets["E"]) ** 2 + 1) + 1
    for _ in range(limit):
        changed = False
        for n, term in model.definitions:
            new = _eval_term(term, rels, sets, env, cfg)
            if new.pairs != env[n].pairs:
                env[n] = new
                changed = True
        if not changed:
            break
    else:
        raise CatError(f"{model.name}: fixpoint iteration did not converge")
    out = dict(rels)
    out.update(sets)
    out.update(env)
    return out


def check_assertions(model: CatModel, bindings: dict, cfg=None):
    """Evaluate the model's assertions in file order.

    Returns (consistent, violated) where `violated` is the (kind, source)
    pair of the first failing assertion, or None.
    """
    rels = {n: bindings[n] for n in BASE_RELATIONS}
    sets = {n: bindings[n] for n in ("E", "M", "W", "R")}
    env = {n: v for n, v in bindings.items() if n not in rels and n not in sets}
    for kind, term, src in model.assertions:
        rel = _eval_term(term, rels, sets, env, cfg)
        ok = (
            rel.is_acyclic()
            if kind == "acyclic"
            else rel.is_irreflexive() if kind == "irreflexive" else rel.is_empty()
        )
        if not ok:
            return False, (kind, src)
    return True, None


def check_srf_fence(x: CandidateExecution) -> bool:
    """Alias-predicted forwarding across a fence must agree on the address."""
    if x.srf is None:
        raise ValueError("candidate has no srf relation")
    for w, r in x.srf:
        if (w, r) in x.structure.fence and x.event(w).addr != x.event(r).addr:
            return False
    return True

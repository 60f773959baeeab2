"""A tiny SMT-LIB evaluator for assignment checking (not a solver).

Parses the emitted QF_BV script and evaluates every assertion under a
given partial assignment.  Assertions of the shape (= NAME expr), (assert
NAME) or (assert (not NAME)) with NAME unbound act as definitions and bind
NAME.  An `and` with a false argument is false and an `or` with a true
one is true even if other arguments are unbound, so variables that only
occur under false guards may stay unbound.  The script is "satisfied" when
every assertion evaluates to true after the binding passes converge.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


class Unbound(Exception):
    pass


def parse_script(text: str):
    tokens = []
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        tokens.extend(_TOKEN.findall(line))
    pos = 0

    def read():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        out = []
        while tokens[pos] != ")":
            out.append(read())
        pos += 1
        return out

    forms = []
    while pos < len(tokens):
        forms.append(read())
    return forms


class Script:
    def __init__(self, text: str):
        self.widths: dict[str, int] = {}
        self.asserts = []
        for form in parse_script(text):
            if not isinstance(form, list):
                continue
            if form[0] == "declare-const":
                name, sort = form[1], form[2]
                if sort == "Bool":
                    self.widths[name] = 0
                else:  # (_ BitVec N)
                    self.widths[name] = int(sort[2])
            elif form[0] == "assert":
                self.asserts.append(form[1])

    def _eval(self, node, env):
        if isinstance(node, str):
            if node == "true":
                return True
            if node == "false":
                return False
            if node in env:
                return env[node]
            raise Unbound(node)
        head = node[0]
        if head == "_":  # (_ bvN W)
            return (int(node[1][2:]), int(node[2]))
        if head == "not":
            return not self._eval(node[1], env)
        if head in ("and", "or"):
            return self._junction(head == "or", node[1:], env)
        if head == "=>":
            if not self._eval(node[1], env):
                return True
            return self._eval(node[2], env)
        if head == "ite":
            return self._eval(node[2] if self._eval(node[1], env) else node[3], env)
        if head in ("=", "distinct"):
            vals = [self._eval(a, env) for a in node[1:]]
            same = all(v == vals[0] for v in vals[1:])
            return same if head == "=" else not same
        args = [self._eval(a, env) for a in node[1:]]
        if head in ("bvult", "bvule", "bvugt", "bvuge"):
            (a, _), (b, _) = args
            return {"bvult": a < b, "bvule": a <= b,
                    "bvugt": a > b, "bvuge": a >= b}[head]
        (a, w) = args[0]
        mask = (1 << w) - 1
        if head == "bvneg":
            return ((-a) & mask, w)
        if head == "bvnot":
            return ((~a) & mask, w)
        b = args[1][0]
        ops = {"bvadd": a + b, "bvsub": a - b, "bvmul": a * b,
               "bvand": a & b, "bvor": a | b, "bvxor": a ^ b,
               "bvshl": a << b, "bvlshr": a >> b}
        return (ops[head] & mask, w)

    def _junction(self, decisive: bool, args, env):
        """`and` (decisive False) or `or` (decisive True): any argument with
        the decisive value decides, even when another one is unbound."""
        unbound = None
        for arg in args:
            try:
                if self._eval(arg, env) == decisive:
                    return decisive
            except Unbound as u:
                unbound = unbound or u
        if unbound:
            raise unbound
        return not decisive

    def check(self, assignment: dict):
        """Multi-pass: bind definitional asserts, then verify everything.

        `assignment` maps names to bool or (int, width).  Returns (ok,
        failures) where failures lists the first few refuted assertions.
        """
        env = dict(assignment)
        pending = list(self.asserts)
        for _ in range(len(pending) + 2):
            again = []
            progressed = False
            for form in pending:
                # definitional shapes
                if isinstance(form, list) and form[0] == "=" and len(form) == 3 \
                        and isinstance(form[1], str) and form[1] not in env \
                        and form[1] in self.widths:
                    try:
                        env[form[1]] = self._eval(form[2], env)
                        progressed = True
                        continue
                    except Unbound:
                        again.append(form)
                        continue
                if isinstance(form, str) and form not in env and form in self.widths:
                    env[form] = True
                    progressed = True
                    continue
                if (
                    isinstance(form, list) and form[0] == "not"
                    and isinstance(form[1], str) and form[1] not in env
                    and form[1] in self.widths
                ):
                    env[form[1]] = False
                    progressed = True
                    continue
                again.append(form)
            pending = again
            if not progressed:
                break

        failures = []
        for form in pending:
            try:
                if self._eval(form, env) is not True:
                    failures.append(form)
            except Unbound as u:
                failures.append(("unbound", str(u), form))
            if len(failures) >= 5:
                break
        return not failures, failures

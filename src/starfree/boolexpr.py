"""Boolean expression trees over position variables.

These trees appear in three places: bodies of program operations, score and
value predicates of attention operations, and the generated formulas of the
decompiler. An atom is tagged with the position variable it reads: "i" is
the position being defined, "j" is the attended position. Position-wise
bodies and defaults may only use "i" atoms.

`compile_rows` is the one evaluator of these trees: a closure over bitmask
rows, ints with one bit per case, so every connective is one bitwise
operation. Programs and formulas (`brasp`, `ltl`) run it on rows of
positions; the compiler runs it, through `truth_table`, on the rows of all
2^k assignments of k atoms. `eval_bool` stays apart, as a reference.

This module also holds the one parser for the Boolean syntax that programs
(`brasp.parse_program`) and temporal formulas (`ltl.parse_formula`) share.
`to_text` writes that syntax and `Reader` reads it: tokens are the
`SEPARATORS` and the runs of other non-space characters between them (a
`PRED:` prefix does not end at its colon); `!` binds tightest, then `&`,
then `|`, and a language's binary operators bind loosest and associate to
the right. Each language passes a `Syntax`: its atom reader and its node
constructors. Errors are `ExprError`s that carry a character offset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Var:
    """Reference to a named Boolean vector at position `pos` ("i" or "j")."""

    name: str
    pos: str = "i"


@dataclass(frozen=True)
class Pred:
    """Reference to a predicate family at position `pos`."""

    family: str
    pos: str = "i"


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


Expr = Var | Pred | Const | Not | And | Or

TRUE = Const(True)
FALSE = Const(False)


def conj(args: Iterable[Expr]) -> Expr:
    """n-ary conjunction with constant folding and flattening."""
    flat = []
    for a in args:
        if isinstance(a, Const):
            if not a.value:
                return FALSE
            continue
        if isinstance(a, And):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(args: Iterable[Expr]) -> Expr:
    flat = []
    for a in args:
        if isinstance(a, Const):
            if a.value:
                return TRUE
            continue
        if isinstance(a, Or):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(not a.value)
    if isinstance(a, Not):
        return a.arg
    return Not(a)


def iff(a: Expr, b: Expr) -> Expr:
    return disj([conj([a, b]), conj([neg(a), neg(b)])])


def atoms(expr: Expr) -> Iterator[Var | Pred]:
    if isinstance(expr, (Var, Pred)):
        yield expr
    elif isinstance(expr, Not):
        yield from atoms(expr.arg)
    elif isinstance(expr, (And, Or)):
        for a in expr.args:
            yield from atoms(a)


def atoms_at(expr: Expr, pos: str) -> list:
    """Distinct atoms reading position `pos`, in first-occurrence order."""
    seen = []
    for a in atoms(expr):
        if a.pos == pos and a not in seen:
            seen.append(a)
    return seen


def has_pos(expr: Expr, pos: str) -> bool:
    return any(a.pos == pos for a in atoms(expr))


def retag(expr: Expr, old: str, new: str) -> Expr:
    """Rewrite every atom reading `old` to read `new` instead."""
    return substitute(expr, {
        a: Var(a.name, new) if isinstance(a, Var) else Pred(a.family, new) for a in atoms(expr) if a.pos == old
    })


def substitute(expr: Expr, mapping: dict) -> Expr:
    """Replace atoms by expressions; keys are Var/Pred atoms."""
    if isinstance(expr, (Var, Pred)):
        return mapping.get(expr, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return neg(substitute(expr.arg, mapping))
    if isinstance(expr, And):
        return conj(substitute(a, mapping) for a in expr.args)
    return disj(substitute(a, mapping) for a in expr.args)


def compile_rows(expr: Expr, row_of):
    """`expr` as a closure (rows, full, m) -> row; an atom reads rows[row_of(atom)]."""
    if isinstance(expr, Const):
        return (lambda r, full, m: full) if expr.value else (lambda r, full, m: 0)
    if isinstance(expr, (Var, Pred)):
        s = row_of(expr)
        return lambda r, full, m: r[s]
    if isinstance(expr, Not):
        if isinstance(expr.arg, (Var, Pred)):
            s = row_of(expr.arg)
            return lambda r, full, m: full ^ r[s]
        arg = compile_rows(expr.arg, row_of)
        return lambda r, full, m: full ^ arg(r, full, m)
    # Atom arguments are read in place; only compound ones cost a call.
    slots = tuple(row_of(a) for a in expr.args if isinstance(a, (Var, Pred)))
    rest = tuple(compile_rows(a, row_of) for a in expr.args if not isinstance(a, (Var, Pred)))
    if isinstance(expr, And):
        def conj(r, full, m):
            out = full
            for s in slots:
                out &= r[s]
            for a in rest:
                out &= a(r, full, m)
            return out
        return conj

    def disj(r, full, m):
        out = 0
        for s in slots:
            out |= r[s]
        for a in rest:
            out |= a(r, full, m)
        return out
    return disj


def truth_table(expr: Expr, k: int, slot_of) -> int:
    """`expr` under all 2^k assignments as one int: bit b is its value where the
    atom in slot `slot_of(atom)` (0..k-1) holds exactly when that bit of b is set."""
    full = (1 << (1 << k)) - 1
    # Slot s's row repeats 2^s zeros then 2^s ones, from bit 0 up.
    rows = [full // ((1 << (2 << s)) - 1) * (((1 << (1 << s)) - 1) << (1 << s)) for s in range(k)]
    return compile_rows(expr, slot_of)(rows, full, 1)


def eval_bool(expr: Expr, lookup) -> bool:
    """Evaluate with a callable lookup(atom) -> bool, for oracle-style checks."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Var, Pred)):
        return bool(lookup(expr))
    if isinstance(expr, Not):
        return not eval_bool(expr.arg, lookup)
    if isinstance(expr, And):
        return all(eval_bool(a, lookup) for a in expr.args)
    return any(eval_bool(a, lookup) for a in expr.args)


def _atom_text(a: Var | Pred) -> str:
    if isinstance(a, Var):
        return f"{a.name}({a.pos})"
    return f"PRED:{a.family}({a.pos})"


def to_text(expr: Expr, _level: int = 0) -> str:
    """Render in the concrete program syntax; parseable back."""
    if isinstance(expr, Const):
        return "1" if expr.value else "0"
    if isinstance(expr, (Var, Pred)):
        return _atom_text(expr)
    if isinstance(expr, Not):
        inner = to_text(expr.arg, 3)
        return f"!{inner}"
    if isinstance(expr, And):
        body = " & ".join(to_text(a, 2) for a in expr.args)
        return f"({body})" if _level > 1 else body
    body = " | ".join(to_text(a, 1) for a in expr.args)
    return f"({body})" if _level > 0 else body


# ---------------------------------------------------------------------------
# Parsing

# The characters that delimit tokens. No alphabet symbol, vector name or
# predicate family name may contain one, or whitespace: `NAME` matches
# exactly the names that can be written.
SEPARATORS = "()!&|?:"
_NAME_CHAR = rf"[^\s{re.escape(SEPARATORS)}]"
NAME = re.compile(_NAME_CHAR + "+")
_TOKEN = re.compile(rf"PRED:{_NAME_CHAR}*|[{re.escape(SEPARATORS)}]|{NAME.pattern}")


def spellable(name) -> bool:
    """Whether text can write `name` as an alphabet symbol, a vector or
    family name, or a formula atom."""
    return isinstance(name, str) and NAME.fullmatch(name) is not None


class ExprError(Exception):
    """A syntax error at character `offset` of the text being read."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.message = message
        self.offset = offset


@dataclass(frozen=True)
class Syntax:
    """How one language reads atoms and builds its trees: `atom(reader, token)`
    reads the atom that starts with the name `token`; `consts` are the nodes
    for 0 and 1; `conj` and `disj` get lists of two or more; `binary` maps
    operator tokens to constructors of `lhs op rhs`."""

    atom: Callable
    consts: tuple
    neg: Callable
    conj: Callable
    disj: Callable
    binary: dict = field(default_factory=dict)


class Reader:
    """The tokens of `text` from offset `start`, read with a `Syntax`."""

    def __init__(self, text: str, syntax: Syntax, start: int = 0):
        self.syntax, self.k = syntax, 0
        self.tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text, start)]
        self.tokens.append(("", len(text.rstrip())))  # the end, one past the last character

    def peek(self) -> str:
        return self.tokens[self.k][0]

    def take(self) -> str:
        token = self.peek()
        self.k += 1
        return token

    def error(self, expected: str, back: int = 0) -> ExprError:
        """An "expected ..., found ..." error at the token `back` places before the next."""
        token, offset = self.tokens[self.k - back]
        return ExprError(f"expected {expected}, found {repr(token) if token else 'the end'}", offset)

    def expect(self, token: str):
        if self.peek() != token:
            raise self.error(repr(token))
        self.k += 1

    def end(self):
        if self.peek():
            raise self.error("an operator or the end")

    def expr(self):
        """One expression: disjunctions joined by the binary operators, to the right."""
        lhs = self._joined("|", self._conjunction, self.syntax.disj)
        build = self.syntax.binary.get(self.peek())
        if build is None:
            return lhs
        self.k += 1
        return build(lhs, self.expr())

    def _conjunction(self):
        return self._joined("&", self._unary, self.syntax.conj)

    def _joined(self, op: str, operand, build):
        args = [operand()]
        while self.peek() == op:
            self.k += 1
            args.append(operand())
        return args[0] if len(args) == 1 else build(args)

    def _unary(self):
        token = self.take()
        if token == "!":
            return self.syntax.neg(self._unary())
        if token == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if token in ("0", "1"):
            return self.syntax.consts[token == "1"]
        if not token or token in SEPARATORS:
            raise self.error("an operand", back=1)
        return self.syntax.atom(self, token)


def parse(text: str, syntax: Syntax, start: int = 0):
    """The one expression that fills `text` from offset `start`."""
    reader = Reader(text, syntax, start)
    expr = reader.expr()
    reader.end()
    return expr

"""Boolean expression trees over position variables.

These trees appear in three places: bodies of program operations, score and
value predicates of attention operations, and the generated formulas of the
decompiler. An atom is tagged with the position variable it reads: "i" is
the position being defined, "j" is the attended position. Position-wise
bodies and defaults may only use "i" atoms.

The program interpreter (`brasp.eval`) evaluates these trees on bitmask
rows: a vector over positions 1..n is an int whose bit p-1 holds the value
at position p, so every connective is a plain bitwise operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


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
    if isinstance(expr, Var):
        return Var(expr.name, new) if expr.pos == old else expr
    if isinstance(expr, Pred):
        return Pred(expr.family, new) if expr.pos == old else expr
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return neg(retag(expr.arg, old, new))
    if isinstance(expr, And):
        return conj(retag(a, old, new) for a in expr.args)
    return disj(retag(a, old, new) for a in expr.args)


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

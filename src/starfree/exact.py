"""Exact scalar arithmetic shared by the transformer runtime and predicates.

Two kinds of scalars circulate in this package: `fractions.Fraction` for
everything produced by the compilers (weights, activations, scores), and
sympy expressions for algebraic values such as sin/cos of rational angles.
Comparisons must be decided exactly, never by float rounding, because hard
attention breaks ties by comparing scores for equality.

sympy is imported only when a value needs it. A value can be a sympy
expression only once sympy is loaded, so the type test looks the module up
in `sys.modules` instead of importing it; only the sign of an algebraic
value and a comparison of mixed types import sympy.
"""

from __future__ import annotations

import sys
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# `type(x) in _RATIONAL` is tested before `isinstance`: Fraction's metaclass
# is ABCMeta, whose instance check is slow, and these functions are hot.
_RATIONAL = (int, Fraction)


def _is_sympy(x) -> bool:
    """Whether `x` is a sympy expression, without importing sympy."""
    sympy = sys.modules.get("sympy")
    return sympy is not None and isinstance(x, sympy.Expr)


def as_exact(x):
    """Coerce ints, "p/q" strings, Fractions or sympy numbers to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if _is_sympy(x):
        if x.is_Rational:
            return Fraction(int(x.p), int(x.q))
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; use Fraction or a sympy expression")
    raise TypeError(f"unsupported scalar type: {type(x)!r}")


def to_token(x) -> str:
    """Render a rational scalar as the canonical "p/q" (or "p") wire token."""
    if type(x) is int:
        return str(x)
    x = as_exact(x)
    if not isinstance(x, Fraction):
        raise ValueError(f"non-rational scalar {x} cannot be serialized")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def from_token(tok: str) -> Fraction:
    """Read a wire token; anything but a string, or a zero denominator, is a ValueError."""
    if type(tok) is not str:
        raise ValueError(f"scalar token {tok!r} is not a string")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"scalar token {tok!r} has a zero denominator") from None


def from_tokens(tokens, piece: str) -> tuple:
    """A JSON list of wire tokens, read by `from_token`; a ValueError naming `piece` for anything else."""
    if type(tokens) is not list:
        raise ValueError(f"{piece} is not a list")
    return tuple(from_token(t) for t in tokens)


def _sympy_sign(expr) -> int:
    """Sign of an exact sympy expression, decided by refinement.

    Numeric evaluation is refined until the interval around the value
    excludes zero; exact simplification settles the remaining zero cases.
    """
    import sympy

    if expr.is_zero:
        return 0
    for prec in (30, 60, 120, 240):
        approx = expr.evalf(prec)
        if approx.is_Number and abs(approx) > sympy.Float(10) ** (-(prec - 6)):
            return 1 if approx > 0 else -1
    simplified = sympy.simplify(expr)
    if simplified.is_zero or simplified == 0:
        return 0
    if simplified.is_positive:
        return 1
    if simplified.is_negative:
        return -1
    raise ValueError(f"cannot decide sign of {expr}")


def sign(x) -> int:
    if type(x) in _RATIONAL or isinstance(x, _RATIONAL):
        return (x > 0) - (x < 0)
    if _is_sympy(x):
        return _sympy_sign(x)
    raise TypeError(f"unsupported scalar type: {type(x)!r}")


def compare(a, b) -> int:
    """Three-way exact comparison, -1 / 0 / +1.

    Operands are ints, Fractions or sympy expressions; any other type,
    floats and strings included, raises TypeError, as in `sign`.
    """
    if (type(a) in _RATIONAL or isinstance(a, _RATIONAL)) and (
        type(b) in _RATIONAL or isinstance(b, _RATIONAL)
    ):
        return (a > b) - (a < b)
    for x in (a, b):
        if not (isinstance(x, _RATIONAL) or _is_sympy(x)):
            raise TypeError(f"unsupported scalar type: {type(x)!r}")
    import sympy

    return sign(sympy.sympify(a) - sympy.sympify(b))


def eq(a, b) -> bool:
    return compare(a, b) == 0


def relu(x):
    """max(x, 0); non-positive inputs give the int 0."""
    if type(x) in _RATIONAL or isinstance(x, _RATIONAL):
        return x if x > 0 else 0
    return x if sign(x) > 0 else 0


def is_rational(x) -> bool:
    if isinstance(x, (Fraction, int)):
        return True
    return _is_sympy(x) and bool(x.is_Rational)

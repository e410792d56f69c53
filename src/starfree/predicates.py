"""Predicate families and position embeddings.

A predicate family assigns a Boolean to every (string length n, position i)
pair; programs and formulas reference families by name. Position embeddings
assign an exact vector to every (n, i); when the set of values over all
lengths is finite (certified by a period or an explicit list), the embedding
can be traded for a finite collection of bit predicate families and back.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

import sympy

from . import exact


@dataclass(frozen=True)
class PredicateFamily:
    """Named total evaluator pi(n, i) -> bool for 1 <= i <= n."""

    name: str
    evaluator: Callable

    def __call__(self, n: int, i: int) -> bool:
        if not 1 <= i <= n:
            raise ValueError(f"position {i} out of range 1..{n}")
        return bool(self.evaluator(n, i))

    def truth_table(self, n: int) -> list:
        return [self(n, i) for i in range(1, n + 1)]


def mod_predicate(r: int, m: int) -> PredicateFamily:
    """Family that holds exactly at positions congruent to r mod m."""
    if m < 1:
        raise ValueError("modulus must be at least 1")
    if not 0 <= r < m:
        raise ValueError(f"residue {r} must satisfy 0 <= r < {m}")
    return PredicateFamily(f"MOD[{r},{m}]", lambda n, i: i % m == r)


def mid_predicate() -> PredicateFamily:
    """Holds at the middle position of odd-length strings, nowhere else."""
    return PredicateFamily("Mid", lambda n, i: n % 2 == 1 and i == (n + 1) // 2)


_MOD_NAME = re.compile(r"MOD\[(\d+),(\d+)\]")


def lookup(name: str) -> Optional[PredicateFamily]:
    """Resolve a built-in family by its registry name, or None."""
    if name == "Mid":
        return mid_predicate()
    m = _MOD_NAME.fullmatch(name)
    if m:
        r, mod = int(m.group(1)), int(m.group(2))
        if 0 <= r < mod:
            return mod_predicate(r, mod)
    return None


def load_family_table(path, name: Optional[str] = None) -> PredicateFamily:
    """Load a family from a table file of `n i bit` lines (bounded n).

    Each line gives one position 1 <= i <= n a bit of 0 or 1, at most once;
    a malformed line raises ValueError naming `path:line`. Querying an
    (n, i) not covered by the table raises.
    """
    table = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'n i bit'")
            try:
                n, i, bit = (int(p) for p in parts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: fields must be integers, got {line!r}") from None
            if not 1 <= i <= n:
                raise ValueError(f"{path}:{lineno}: position {i} outside 1..{n}")
            if bit not in (0, 1):
                raise ValueError(f"{path}:{lineno}: bit must be 0 or 1, got {bit}")
            if (n, i) in table:
                raise ValueError(f"{path}:{lineno}: repeated entry for n={n}, i={i}")
            table[(n, i)] = bool(bit)

    def evaluator(n: int, i: int) -> bool:
        try:
            return table[(n, i)]
        except KeyError:
            raise ValueError(f"table family has no entry for n={n}, i={i}") from None

    return PredicateFamily(name or str(path), evaluator)


# ---------------------------------------------------------------------------
# Position embeddings


@dataclass(frozen=True)
class PositionEmbedding:
    """Family of exact vectors theta_n(i), with a finite-image certificate.

    `period`: values depend only on i mod period (and not on n), or
    `values`: explicit finite list of possible vectors. One of the two must
    be present for the finite-image flag to be trusted.
    """

    name: str
    dim: int
    func: Callable  # (n, i) -> tuple of exact scalars
    finite_image: bool = False
    period: Optional[int] = None
    values: Optional[tuple] = None
    spec: Optional[dict] = None  # serializable description, when available

    def __call__(self, n: int, i: int) -> tuple:
        v = tuple(self.func(n, i))
        if len(v) != self.dim:
            raise ValueError(f"embedding returned {len(v)} coords, expected {self.dim}")
        return v

    def image(self) -> list:
        """All possible vectors, from the certificate."""
        if not self.finite_image:
            raise ValueError(f"position embedding {self.name!r} has no finite-image certificate")
        if self.values is not None:
            return list(self.values)
        assert self.period is not None
        out = []
        n = max(self.period, 1)
        for i in range(1, n + 1):
            v = self(n, i)
            if v not in out:
                out.append(v)
        return out


_SIN_CACHE: dict = {}


def _sin_cos(freq: Fraction, i: int):
    """Exact sin/cos of 2*pi*freq*i, interned by (freq, i mod denominator)."""
    key = (freq, i % freq.denominator)
    hit = _SIN_CACHE.get(key)
    if hit is None:
        angle = 2 * sympy.pi * sympy.Rational(freq.numerator, freq.denominator) * key[1]
        hit = (exact.as_exact(sympy.sin(angle)), exact.as_exact(sympy.cos(angle)))
        _SIN_CACHE[key] = hit
    return hit


def sinusoidal_pe(frequencies) -> PositionEmbedding:
    """Sin/cos embedding at rational frequencies; dimension 2 per frequency.

    Values are exact algebraic tokens (rationals where possible); the image
    is finite with period lcm of the frequency denominators.
    """
    freqs = []
    for f in frequencies:
        f = exact.as_exact(f)
        if not isinstance(f, Fraction):
            raise ValueError(f"frequency {f} is not rational")
        freqs.append(f)
    if not freqs:
        raise ValueError("need at least one frequency")
    period = 1
    for f in freqs:
        period = sympy.lcm(period, f.denominator)
    period = int(period)

    def func(n, i):
        out = []
        for f in freqs:
            s, c = _sin_cos(f, i)
            out.extend([s, c])
        return tuple(out)

    name = "sin[" + ",".join(exact.to_token(f) for f in freqs) + "]"
    spec = {"kind": "sinusoidal", "frequencies": [exact.to_token(f) for f in freqs]}
    return PositionEmbedding(name, 2 * len(freqs), func, True, period=period, spec=spec)


def family_tuple_pe(families) -> PositionEmbedding:
    """Bundle predicate families into a 0/1-valued embedding, one coord each."""
    fams = list(families)

    def func(n, i):
        return tuple(Fraction(1) if fam(n, i) else Fraction(0) for fam in fams)

    all_bits = tuple(tuple(Fraction(b) for b in bits) for bits in product((0, 1), repeat=len(fams)))
    name = "bits[" + ",".join(f.name for f in fams) + "]"
    spec = {"kind": "families", "names": [f.name for f in fams]}
    return PositionEmbedding(name, len(fams), func, True, values=all_bits, spec=spec)


def pe_from_spec(spec: dict) -> PositionEmbedding:
    """Rebuild an embedding from its serialized description."""
    kind = spec.get("kind")
    if kind == "sinusoidal":
        return sinusoidal_pe([Fraction(t) for t in spec["frequencies"]])
    if kind == "families":
        fams = []
        for name in spec["names"]:
            fam = lookup(name)
            if fam is None:
                raise ValueError(f"family {name!r} is not in the built-in registry")
            fams.append(fam)
        return family_tuple_pe(fams)
    raise ValueError(f"unknown position embedding kind {kind!r}")


@functools.total_ordering
class ScalarKey:
    """Sort key ordering mixed Fraction / sympy scalars exactly."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return exact.compare(self.v, other.v) == 0

    def __lt__(self, other):
        return exact.compare(self.v, other.v) < 0


def lookup_code(codes: dict, v) -> int:
    hit = codes.get(v)
    if hit is not None:
        return hit
    for u, code in codes.items():
        if exact.eq(u, v):
            return code
    raise KeyError(f"value {v} not in code table")


@dataclass(frozen=True)
class PeBitCoding:
    """Per-coordinate order-preserving dense codes for an embedding's values."""

    pe: PositionEmbedding
    codes: tuple  # per coordinate: dict value -> code
    bits: tuple  # per coordinate: bit width

    def bit_value(self, n: int, i: int, coord: int, bit: int) -> bool:
        v = self.pe(n, i)[coord]
        return (lookup_code(self.codes[coord], v) >> bit) & 1 == 1

    def family_name(self, coord: int, bit: int) -> str:
        return f"{self.pe.name}.bit[{coord},{bit}]"

    def code_of(self, coord: int, value) -> int:
        return lookup_code(self.codes[coord], value)


def pe_bit_coding(pe: PositionEmbedding) -> PeBitCoding:
    image = pe.image()
    codes = []
    bits = []
    for c in range(pe.dim):
        vals = sorted({v[c] for v in image}, key=ScalarKey)
        codes.append({v: k for k, v in enumerate(vals)})
        bits.append(max(1, (len(vals) - 1).bit_length()))
    return PeBitCoding(pe, tuple(codes), tuple(bits))


def bind_pe_as_predicates(pe: PositionEmbedding) -> list:
    """One bit family per (coordinate, bit) of the encoded embedding values.

    Values of each coordinate are densely coded in increasing order, so the
    families jointly determine the embedding exactly.
    """
    coding = pe_bit_coding(pe)
    families = []
    for c in range(pe.dim):
        for b in range(coding.bits[c]):
            families.append(
                PredicateFamily(
                    coding.family_name(c, b),
                    lambda n, i, _c=c, _b=b: coding.bit_value(n, i, _c, _b),
                )
            )
    return families


# ---------------------------------------------------------------------------
# Modular predicates from sin/cos coordinates


@dataclass(frozen=True)
class FfnFragment:
    """A 2-layer ReLU network over a fixed pair of sin/cos input coordinates."""

    w1: tuple  # rows over the 2 inputs
    b1: tuple
    w2: tuple  # single output row over hidden units
    b2: object
    modulus: int
    residue: int

    def apply(self, inputs) -> object:
        hidden = []
        for row, b in zip(self.w1, self.b1):
            acc = b
            for w, x in zip(row, inputs):
                acc = acc + w * x
            hidden.append(exact.relu(acc))
        out = self.b2
        for w, h in zip(self.w2, hidden):
            out = out + w * h
        return out

    def evaluate_at(self, i: int) -> int:
        """Value at integer position i, using the exact sin/cos tokens."""
        s, c = _sin_cos(Fraction(1, self.modulus), i)
        out = self.apply((s, c))
        if exact.eq(out, 1):
            return 1
        if exact.eq(out, 0):
            return 0
        raise AssertionError(f"gadget output {out} is not Boolean at i={i}")


def mod_relu_gadget(r: int, m: int) -> FfnFragment:
    """ReLU network computing [i == r mod m] from (sin 2*pi*i/m, cos 2*pi*i/m).

    The single hidden unit is relu(cos(2*pi*(i-r)/m) - cos(2*pi/m)), which is
    positive exactly at matching residues; dividing by its on-value
    (1 - cos(2*pi/m)) makes the output exactly 0 or 1. For m = 1 the cosine
    gap vanishes, so the gadget degenerates to the constant 1.
    """
    if m < 1:
        raise ValueError("modulus must be at least 1")
    if not 0 <= r < m:
        raise ValueError(f"residue {r} must satisfy 0 <= r < {m}")
    if m == 1:
        return FfnFragment(((Fraction(0), Fraction(0)),), (Fraction(1),), (Fraction(1),), Fraction(0), 1, 0)
    sr, cr = _sin_cos(Fraction(1, m), r)
    cos_step = _sin_cos(Fraction(1, m), 1)[1]  # cos(2*pi/m), < 1 for m >= 2
    gap = 1 - cos_step
    if isinstance(gap, Fraction):
        scale = Fraction(1) / gap
    else:
        scale = exact.as_exact(sympy.simplify(1 / sympy.sympify(gap)))
    return FfnFragment(((sr, cr),), (-cos_step,), (scale,), Fraction(0), m, r)

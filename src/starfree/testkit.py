"""Differential-testing machinery: oracles, exhaustive equivalence checks,
stutter-invariance, staircase languages, and a seeded program generator.

Recognizers are plain callables from a string (or token list) to bool, so
programs, formulas, transformers, and hand-written oracles all plug into the
same harness. Enumeration is length-lexicographic, which makes the shortest
counterexamples surface first.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from . import boolexpr as bx
from . import brasp
from . import ltl
from .brasp import Alphabet, Attention, BraspOp, BraspProgram, MaskKind, Positionwise

ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class LanguageOracle:
    """Ground-truth membership function, independent of every translation."""

    name: str
    membership: Callable

    def __call__(self, w) -> bool:
        return bool(self.membership(w))


@dataclass
class DiffReport:
    left: str
    right: str
    alphabet: tuple
    bound: int
    checked: int
    mismatches: list  # (string, left answer, right answer)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = (
            f"{self.left} vs {self.right}: {self.checked} strings "
            f"(length 1..{self.bound} over {{{', '.join(self.alphabet)}}}), "
            f"{len(self.mismatches)} mismatches"
        )
        if self.mismatches:
            w, l, r = self.mismatches[0]
            head += f"; first: {w!r} -> {l} vs {r}"
        return head


def strings_over(alphabet, max_len: int, min_len: int = 1):
    """Every string of length min_len..max_len, length-lexicographically: a
    str over single-character symbols, a token list otherwise."""
    symbols = list(alphabet.symbols) if isinstance(alphabet, Alphabet) else list(alphabet)
    word = "".join if all(len(s) == 1 for s in symbols) else list
    for n in range(min_len, max_len + 1):
        yield from map(word, itertools.product(symbols, repeat=n))


def check_enumeration(symbols, bound: int, extra: int = 0) -> int:
    """The number of strings of length 1..bound, plus `extra` more that the
    caller also evaluates; a ValueError past the guard."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    total = sum(len(symbols) ** n for n in range(1, bound + 1)) + extra
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of {total} strings exceeds ENUMERATION_GUARD ({ENUMERATION_GUARD})"
        )
    return total


def diff_languages(left, right, alphabet, bound: int, names=("left", "right")) -> DiffReport:
    """Exhaustively compare two recognizers on all strings of length 1..bound."""
    symbols = tuple(alphabet.symbols) if isinstance(alphabet, Alphabet) else tuple(alphabet)
    check_enumeration(symbols, bound)
    mismatches = []
    checked = 0
    for w in strings_over(symbols, bound):
        checked += 1
        a, b = bool(left(w)), bool(right(w))
        if a != b:
            mismatches.append((w, a, b))
    return DiffReport(names[0], names[1], symbols, bound, checked, mismatches)


@dataclass(frozen=True)
class StutterWitness:
    prefix: str
    symbol: str
    suffix: str

    def base(self):
        return self.prefix + self.symbol + self.suffix

    def doubled(self):
        return self.prefix + self.symbol + self.symbol + self.suffix


def stutter_invariant_up_to(recognizer, alphabet, bound: int):
    """Check u a v in L iff u a a v in L for every |uav| <= bound.

    Returns (True, None) or (False, first witness in length-lex order).
    Membership of each string is computed once and cached. Besides every
    string of length 1..bound, the check evaluates the doubled strings of
    length bound + 1: those with two equal neighbouring symbols. Both count
    against `ENUMERATION_GUARD`.
    """
    symbols = tuple(alphabet.symbols) if isinstance(alphabet, Alphabet) else tuple(alphabet)
    if any(len(s) != 1 for s in symbols):
        raise ValueError("stutter check expects single-character symbols")
    k = len(symbols)
    doubled = k ** (bound + 1) - k * (k - 1) ** bound if bound >= 1 else 0
    check_enumeration(symbols, bound, doubled)
    cache: dict = {}

    def member(w: str) -> bool:
        hit = cache.get(w)
        if hit is None:
            hit = bool(recognizer(w))
            cache[w] = hit
        return hit

    for w in strings_over(symbols, bound):
        for k in range(len(w)):
            u, a, v = w[:k], w[k], w[k + 1:]
            if member(w) != member(u + a + a + v):
                return False, StutterWitness(u, a, v)
    return True, None


# ---------------------------------------------------------------------------
# Staircase languages


def stair_oracle(k: int) -> LanguageOracle:
    """Strings over {a, b, c} whose c-free projection contains a^k."""
    if k < 1:
        raise ValueError("k must be at least 1")

    def member(w) -> bool:
        squeezed = "".join(c for c in w if c != "c")
        return "a" * k in squeezed

    return LanguageOracle(f"stair_{k}", member)


def stair_formula(k: int) -> ltl.Formula:
    """since-only formula for the k-step staircase language.

    The core chain gamma_k marks positions ending an a-run of length k
    (modulo interleaved c's); membership needs such a position anywhere, so
    the chain is wrapped in an exists-strictly-before plus a disjunct for a
    chain ending at the last position itself.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    gamma = stair_chain(k)
    return ltl.or_(ltl.since(ltl.TRUE, gamma), gamma)


def stair_chain(k: int) -> ltl.Formula:
    gamma = ltl.atom("a")
    for _ in range(k - 1):
        gamma = ltl.and_(ltl.atom("a"), ltl.since(ltl.atom("c"), gamma))
    return gamma


STAIR_ALPHABET = Alphabet(("a", "b", "c"))


# ---------------------------------------------------------------------------
# Recognizer adapters


def program_recognizer(prog: BraspProgram, preds=None) -> Callable:
    return lambda w: brasp.accepts(prog, w, preds)


def formula_recognizer(f: ltl.Formula, preds=None, alphabet=None) -> Callable:
    return lambda w: ltl.ltl_accepts(f, w, preds, alphabet=alphabet)


def transformer_recognizer(model) -> Callable:
    from . import transformer as tf

    return lambda w: tf.accepts_transformer(model, w)


# ---------------------------------------------------------------------------
# Random non-strict programs


def random_nonstrict_program(seed: int, alphabet=("a", "b"), max_ops: int = 6) -> BraspProgram:
    """Seeded generator of programs using only non-strict or absent masks.

    Bounded to `max_ops` operations with at most 3 atoms per expression;
    the same seed always yields the same program.
    """
    rng = random.Random(seed)
    alpha = Alphabet(tuple(alphabet))
    names = [brasp.qname(s) for s in alpha.symbols]
    ops = []

    def rand_expr(pool, max_atoms=3) -> bx.Expr:
        n_atoms = rng.randint(1, max_atoms)
        atoms = [bx.Var(*rng.choice(pool)) for _ in range(n_atoms)]
        expr = atoms[0]
        for a in atoms[1:]:
            combine = rng.choice((bx.conj, bx.disj))
            expr = combine([expr, a])
        if rng.random() < 0.3:
            expr = bx.neg(expr)
        return expr

    n_ops = rng.randint(1, max_ops)
    for k in range(n_ops):
        name = f"P{k + 1}"
        i_pool = [(v, "i") for v in names]
        ij_pool = i_pool + [(v, "j") for v in names]
        if rng.random() < 0.4:
            ops.append(BraspOp(name, Positionwise(rand_expr(i_pool))))
        else:
            mask = rng.choice((MaskKind.NONE, MaskKind.FUTURE_EQ, MaskKind.PAST_EQ))
            direction = rng.choice((brasp.LEFTMOST, brasp.RIGHTMOST))
            score = rand_expr(ij_pool)
            value = rand_expr(ij_pool)
            default = rng.choice((bx.TRUE, bx.FALSE, rand_expr(i_pool)))
            ops.append(BraspOp(name, Attention(direction, mask, score, value, default)))
        names.append(name)
    output = brasp.Accept(ops[-1].name)
    return BraspProgram(alpha, tuple(ops), output, ())

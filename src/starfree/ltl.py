"""Temporal formulas over finite words, with strict and non-strict operators.

A formula is evaluated at a position of a non-empty string; the language of
a formula is the set of strings satisfying it at the last position. The
binary operator `since` looks strictly left: phi since psi holds at i when
psi held at some j < i and phi held everywhere strictly between; `until` is
the mirror image. The primed variants allow j = i and extend the interior
requirement up to the current position.

Evaluation flattens a formula DAG once, on its first evaluation, into a
plan for `brasp.run_plan`, the runner programs use too: one bitmask-row
slot per distinct node, Boolean nodes compiled by `boolexpr.compile_rows`
like program expressions, and one `brasp.scan` per `since`/`until`. Rows cover a
whole batch of equal-length strings (bit (p-1)*m + s is position p of
string s), so `ltl_accepts_batch` answers for every string of a batch in
one run, and `ltl_eval` and `ltl_accepts` run a batch of one. The plan is
kept in a weak-keyed table, so it neither keeps a formula alive nor
travels with it when pickled; predicate rows are computed on every call.
Evaluation never goes through `ltl_to_brasp`, so comparing a formula with
its translation compares two independent semantics.

Translations to and from Boolean-vector programs live here as well, in both
the strict and non-strict dialects. `parse_formula` reads formulas through
the `boolexpr` parser, with S, U, S' and U' as its binary operators.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from . import boolexpr as bx
from . import brasp
from .brasp import (
    Accept,
    Alphabet,
    Attention,
    BraspOp,
    BraspProgram,
    MaskKind,
    Positionwise,
    qname,
)


class LtlError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class Atom:
    symbol: str

    def __post_init__(self):
        if not bx.spellable(self.symbol):
            raise LtlError(f"bad atom symbol {self.symbol!r}")


@dataclass(frozen=True, eq=False)
class PredAtom:
    family: str

    def __post_init__(self):
        if not bx.spellable(self.family):
            raise LtlError(f"bad predicate family name {self.family!r}")


@dataclass(frozen=True, eq=False)
class Lit:
    value: bool


@dataclass(frozen=True, eq=False)
class NotF:
    arg: "Formula"


@dataclass(frozen=True, eq=False)
class AndF:
    args: tuple


@dataclass(frozen=True, eq=False)
class OrF:
    args: tuple


@dataclass(frozen=True, eq=False)
class Since:
    lhs: "Formula"
    rhs: "Formula"
    strict: bool = True


@dataclass(frozen=True, eq=False)
class Until:
    lhs: "Formula"
    rhs: "Formula"
    strict: bool = True


Formula = Atom | PredAtom | Lit | NotF | AndF | OrF | Since | Until

TRUE = Lit(True)
FALSE = Lit(False)


def atom(symbol: str) -> Atom:
    return Atom(symbol)


def pred(family: str) -> PredAtom:
    return PredAtom(family)


def not_(f: Formula) -> Formula:
    return NotF(f)


def and_(*args: Formula) -> Formula:
    return AndF(tuple(args)) if len(args) != 1 else args[0]


def or_(*args: Formula) -> Formula:
    return OrF(tuple(args)) if len(args) != 1 else args[0]


def since(lhs: Formula, rhs: Formula) -> Formula:
    return Since(lhs, rhs, True)


def until(lhs: Formula, rhs: Formula) -> Formula:
    return Until(lhs, rhs, True)


def since_ns(lhs: Formula, rhs: Formula) -> Formula:
    return Since(lhs, rhs, False)


def until_ns(lhs: Formula, rhs: Formula) -> Formula:
    return Until(lhs, rhs, False)


def subformulas(f: Formula):
    """Iterate the formula DAG once per node (by identity)."""
    seen = set()

    def walk(g):
        if id(g) in seen:
            return
        seen.add(id(g))
        yield g
        if isinstance(g, NotF):
            yield from walk(g.arg)
        elif isinstance(g, (AndF, OrF)):
            for a in g.args:
                yield from walk(a)
        elif isinstance(g, (Since, Until)):
            yield from walk(g.lhs)
            yield from walk(g.rhs)

    return walk(f)


def symbols_of(f: Formula) -> list:
    out = []
    for g in subformulas(f):
        if isinstance(g, Atom) and g.symbol not in out:
            out.append(g.symbol)
    return out


def families_of(f: Formula) -> list:
    out = []
    for g in subformulas(f):
        if isinstance(g, PredAtom) and g.family not in out:
            out.append(g.family)
    return out


def uses_until(f: Formula) -> bool:
    return any(isinstance(g, Until) for g in subformulas(f))


def is_strict_only(f: Formula) -> bool:
    return all(
        g.strict for g in subformulas(f) if isinstance(g, (Since, Until))
    )


# ---------------------------------------------------------------------------
# Semantics


_PLANS = weakref.WeakKeyDictionary()  # formula -> its _FormulaPlan


class _FormulaPlan:
    """A formula DAG flattened once into postorder steps, for `brasp.run_plan`.

    Every distinct node gets a slot, an atom its symbol's or family's row. A
    Boolean node is compiled by `boolexpr.compile_rows`, its atoms named by the
    slots of its arguments; since/until are one `brasp.scan` each.
    """

    __slots__ = ("slots", "symbol_slot", "pred_slot", "steps", "root")
    error = LtlError

    def __init__(self, f: Formula):
        self.slots = 0
        self.symbol_slot: dict = {}
        self.pred_slot: dict = {}
        self.steps: list = []
        slot: dict = {}  # id(node) -> slot

        def boolean(expr: bx.Expr):
            return bx.compile_rows(expr, lambda atom: atom.name)

        def visit(g) -> int:
            if id(g) in slot:
                return slot[id(g)]
            if isinstance(g, Atom):
                k = self.symbol_slot.setdefault(g.symbol, self.slots)
            elif isinstance(g, PredAtom):
                k = self.pred_slot.setdefault(g.family, self.slots)
            else:
                if isinstance(g, Lit):
                    step = boolean(bx.Const(g.value))
                elif isinstance(g, NotF):
                    step = boolean(bx.Not(bx.Var(visit(g.arg))))
                elif isinstance(g, (AndF, OrF)):
                    args = tuple(bx.Var(visit(a)) for a in g.args)
                    step = boolean((bx.And if isinstance(g, AndF) else bx.Or)(args))
                elif isinstance(g, (Since, Until)):
                    step = _temporal_step(visit(g.lhs), visit(g.rhs), isinstance(g, Since), g.strict)
                else:
                    raise LtlError(f"unknown formula node {g!r}")
                k = self.slots
                self.steps.append((k, step))
            if k == self.slots:  # a new slot
                self.slots += 1
            slot[id(g)] = k
            return k

        self.root = visit(f)


def _temporal_step(lhs: int, rhs: int, since_: bool, strict: bool):
    """The step computing `lhs S rhs` (or `U` when not `since_`) from their rows."""
    return lambda rows, full, m: brasp.scan(rows[lhs], rows[rhs], since_, strict, full, m)


def _row(f: Formula, batch, preds, alphabet: Optional[Alphabet]) -> tuple:
    """The formula's truth values on a batch of equal-length strings, as one
    `brasp.run_plan` row: (row, n, m)."""
    plan = _PLANS.get(f)
    if plan is None:
        plan = _PLANS[f] = _FormulaPlan(f)
    rows, n, m = brasp.run_plan(plan, batch, preds, alphabet)
    return rows[plan.root], n, m


def ltl_eval(f: Formula, input_text, i: int, preds=None, alphabet=None) -> bool:
    """Whether the formula holds at position i (1-based) of the input."""
    row, n, _ = _row(f, [input_text], preds, alphabet)
    if not 1 <= i <= n:
        raise LtlError(f"position {i} out of range 1..{n}")
    return bool(row >> (i - 1) & 1)


def ltl_accepts_batch(f: Formula, batch, preds=None, alphabet=None) -> list:
    """Language membership of each of a batch of equal-length strings."""
    if not batch:
        return []
    return brasp.last_bits(*_row(f, batch, preds, alphabet))


def ltl_accepts(f: Formula, input_text, preds=None, alphabet=None) -> bool:
    """Language membership: evaluate at the last position."""
    return ltl_accepts_batch(f, [input_text], preds, alphabet)[0]


def temporal_depth(f: Formula) -> int:
    """Nesting depth of since/until."""
    memo: dict = {}

    def depth(g) -> int:
        hit = memo.get(id(g))
        if hit is not None:
            return hit
        if isinstance(g, (Atom, PredAtom, Lit)):
            d = 0
        elif isinstance(g, NotF):
            d = depth(g.arg)
        elif isinstance(g, (AndF, OrF)):
            d = max((depth(a) for a in g.args), default=0)
        else:
            d = max(depth(g.lhs), depth(g.rhs)) + 1
        memo[id(g)] = d
        return d

    return depth(f)


# ---------------------------------------------------------------------------
# Formula -> program


def ltl_to_brasp(
    f: Formula,
    alphabet: Optional[Alphabet] = None,
    until_free: bool = False,
) -> BraspProgram:
    """Compile a formula to a program with one vector per distinct subformula.

    since maps to rightmost future-masked attention with score
    "lhs fails or rhs holds", value "rhs holds", default 0; until is the
    mirror image with leftmost past-masked attention. Non-strict operators
    use the matching non-strict masks. The program's attention depth equals
    the formula's temporal depth. With `until_free`, any until raises.
    """
    if until_free and uses_until(f):
        raise LtlError("formula contains until, but until-free mode was requested")
    if alphabet is None:
        syms = symbols_of(f)
        if not syms:
            raise LtlError("cannot infer an alphabet from a symbol-free formula")
        alphabet = Alphabet(tuple(syms))
    families = tuple(families_of(f))
    ops: list = []
    by_key: dict = {}
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"F{counter[0]}"

    def emit(key, body) -> str:
        hit = by_key.get(key)
        if hit is not None:
            return hit
        name = fresh()
        ops.append(BraspOp(name, body))
        by_key[key] = name
        return name

    def translate(g: Formula) -> str:
        if isinstance(g, Lit):
            return emit(("lit", g.value), Positionwise(bx.Const(g.value)))
        if isinstance(g, Atom):
            if g.symbol not in alphabet.symbols:
                raise LtlError(f"symbol {g.symbol!r} not in alphabet")
            return emit(("atom", g.symbol), Positionwise(bx.Var(qname(g.symbol), "i")))
        if isinstance(g, PredAtom):
            return emit(("pred", g.family), Positionwise(bx.Pred(g.family, "i")))
        if isinstance(g, NotF):
            sub = translate(g.arg)
            return emit(("not", sub), Positionwise(bx.neg(bx.Var(sub, "i"))))
        if isinstance(g, (AndF, OrF)):
            subs = tuple(translate(a) for a in g.args)
            combine = bx.conj if isinstance(g, AndF) else bx.disj
            kind = "and" if isinstance(g, AndF) else "or"
            return emit((kind, subs), Positionwise(combine(bx.Var(s, "i") for s in subs)))
        if isinstance(g, (Since, Until)):
            p1, p2 = translate(g.lhs), translate(g.rhs)
            before = isinstance(g, Since)
            body = Attention(
                brasp.RIGHTMOST if before else brasp.LEFTMOST,
                MaskKind.toward(before, g.strict),
                bx.disj([bx.neg(bx.Var(p1, "j")), bx.Var(p2, "j")]),
                bx.Var(p2, "j"),
                bx.FALSE,
            )
            return emit((type(g), g.strict, p1, p2), body)
        raise LtlError(f"unknown formula node {g!r}")

    root = translate(f)
    return BraspProgram(alphabet, tuple(ops), Accept(root), families)


# ---------------------------------------------------------------------------
# Program -> formula


def _exists(g: Formula, before: bool, strict: bool) -> Formula:
    """g holds somewhere left of (`before`) or right of the current position."""
    return (Since if before else Until)(TRUE, g, strict)


def _extreme_holding(g: Formula, first: bool) -> Formula:
    """Marks the globally leftmost (`first`) or rightmost position satisfying
    g (strict operators)."""
    return and_(g, not_(_exists(g, first, True)))


def brasp_to_ltl(prog: BraspProgram, nonstrict_none: Optional[bool] = None) -> Formula:
    """Translate an accepting program into an equivalent formula.

    Both normal forms are applied first, so every attention op reads only
    the attended position in its score and value; each op then becomes a
    formula built from derived exists / extremal-position operators. No
    simplification is performed, so formula size reflects the construction.

    Unmasked ops translate through strict operators by default; pass
    `nonstrict_none=True` (or let it default on an all-non-strict program)
    to use the non-strict renderings instead.
    """
    from . import normalform

    if not isinstance(prog.output, Accept):
        raise LtlError("program does not have an accept output")
    prog = normalform.normalize_unary_score(normalform.normalize_unary_value(prog))

    if nonstrict_none is None:
        masks = {op.body.mask for op in prog.ops if isinstance(op.body, Attention)}
        nonstrict_none = bool(masks) and all(not m.strict for m in masks)

    formulas: dict = {qname(s): Atom(s) for s in prog.alphabet.symbols}

    def expr_to_formula(expr: bx.Expr) -> Formula:
        if isinstance(expr, bx.Const):
            return TRUE if expr.value else FALSE
        if isinstance(expr, bx.Var):
            return formulas[expr.name]
        if isinstance(expr, bx.Pred):
            return PredAtom(expr.family)
        if isinstance(expr, bx.Not):
            return not_(expr_to_formula(expr.arg))
        if isinstance(expr, bx.And):
            return AndF(tuple(expr_to_formula(a) for a in expr.args))
        return OrF(tuple(expr_to_formula(a) for a in expr.args))

    for op in prog.ops:
        body = op.body
        if isinstance(body, Positionwise):
            formulas[op.name] = expr_to_formula(body.expr)
            continue
        fs = expr_to_formula(body.score)
        fv = expr_to_formula(body.value)
        fd = expr_to_formula(body.default)
        formulas[op.name] = _attention_formula(body, fs, fv, fd, nonstrict_none)

    return formulas[prog.output.vector]


def _suffix_extremum(fs: Formula, fv: Formula, before: bool) -> Formula:
    """Non-strict rendering of "the farthest score position on one side has
    the value": before=True looks left (since'), else right (until')."""
    witness = and_(fs, fv, not_(_exists(and_(fs, not_(fv)), before, False)))
    return _exists(witness, before, False)


def _nearest(fs: Formula, fv: Formula, before: bool, strict: bool) -> Formula:
    """The nearest score position on one side has the value."""
    return (Since if before else Until)(not_(fs), and_(fs, fv), strict)


def _attention_formula(body, fs, fv, fd, nonstrict_none: bool) -> Formula:
    leftmost = body.direction == brasp.LEFTMOST
    mask = body.mask
    if mask is not MaskKind.NONE:
        before, strict = mask.before, mask.strict
        if leftmost != before:  # the tie-break picks the score position nearest i
            hit = _nearest(fs, fv, before, strict)
        elif strict:  # ... the farthest one, past a strict mask
            hit = _exists(and_(_extreme_holding(fs, before), fv), before, True)
        else:
            hit = _suffix_extremum(fs, fv, before)
        return or_(hit, and_(not_(_exists(fs, before, strict)), fd))
    if not nonstrict_none:
        anywhere_s = or_(_exists(fs, True, True), fs, _exists(fs, False, True))
        hit = and_(_extreme_holding(fs, leftmost), fv)
        anywhere_hit = or_(_exists(hit, True, True), hit, _exists(hit, False, True))
        return or_(anywhere_hit, and_(not_(anywhere_s), fd))
    # Non-strict rendering: the extremal score position is the farthest one
    # on the tie-break's side of i, if that side (i included) has one, and
    # otherwise the nearest one on the other side.
    far_side = _exists(fs, leftmost, False)
    near_side = _exists(fs, not leftmost, False)
    return or_(
        and_(far_side, _suffix_extremum(fs, fv, leftmost)),
        and_(not_(far_side), near_side, _nearest(fs, fv, not leftmost, False)),
        and_(not_(far_side), not_(near_side), fd),
    )


# ---------------------------------------------------------------------------
# Text format


def _atom(reader: bx.Reader, token: str) -> Formula:
    """`Q<symbol>` or `PRED:<family>`."""
    if token.startswith("Q") and len(token) > 1:
        return Atom(token[1:])
    if token.startswith("PRED:") and len(token) > len("PRED:"):
        return PredAtom(token[len("PRED:"):])
    raise reader.error("an atom", back=1)


_SYNTAX = bx.Syntax(
    _atom, (FALSE, TRUE), not_, lambda args: and_(*args), lambda args: or_(*args),
    {"S": since, "U": until, "S'": since_ns, "U'": until_ns},
)


def parse_formula(text: str) -> Formula:
    """Read a formula in the syntax `formula_to_text` writes; see the README."""
    try:
        return bx.parse(text, _SYNTAX)
    except bx.ExprError as e:
        raise LtlError(f"{e} in {text!r}") from None


def formula_to_text(f: Formula) -> str:
    def render(g: Formula, level: int) -> str:
        if isinstance(g, Lit):
            return "1" if g.value else "0"
        if isinstance(g, Atom):
            return f"Q{g.symbol}"
        if isinstance(g, PredAtom):
            return f"PRED:{g.family}"
        if isinstance(g, NotF):
            return "!" + render(g.arg, 3)
        if isinstance(g, AndF):
            body = " & ".join(render(a, 2) for a in g.args)
            return f"({body})" if level > 1 else body
        if isinstance(g, OrF):
            body = " | ".join(render(a, 1) for a in g.args)
            return f"({body})" if level > 0 else body
        op = {True: {"S": "S", "U": "U"}, False: {"S": "S'", "U": "U'"}}
        sym = op[g.strict]["S" if isinstance(g, Since) else "U"]
        body = f"{render(g.lhs, 1)} {sym} {render(g.rhs, 1)}"
        return f"({body})" if level > 0 else body

    return render(f, 0)

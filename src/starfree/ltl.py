"""Temporal formulas over finite words, with strict and non-strict operators.

A formula is evaluated at a position of a non-empty string; the language of
a formula is the set of strings satisfying it at the last position. The
binary operator `since` looks strictly left: phi since psi holds at i when
psi held at some j < i and phi held everywhere strictly between; `until` is
the mirror image. The primed variants allow j = i and extend the interior
requirement up to the current position.

Evaluation flattens a formula DAG once, on its first evaluation, into a
postorder list of steps, one slot per distinct node, plus the list of its
predicate families. The plan is kept in a weak-keyed table, so it neither
keeps a formula alive nor travels with it when pickled. Each call computes
the predicate rows afresh and then one bitmask row per step; `since` and
`until` are one linear scan each (the non-strict operator holds at k when
its right side holds at k, or its left side holds at k and it held at the
neighbour; the strict one is the non-strict one read one position late).

Translations to and from Boolean-vector programs live here as well, in both
the strict and non-strict dialects.
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


@dataclass(frozen=True, eq=False)
class PredAtom:
    family: str


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
_LIT, _ATOM, _PRED, _NOT, _AND, _OR, _SINCE, _UNTIL = range(8)  # step kinds


class _FormulaPlan:
    """A formula DAG flattened once into postorder steps.

    Step k computes row k from earlier rows: (kind, a, b), where a and b are
    a symbol, a family name, a truth value or earlier slots, by kind. The
    last step is the formula itself. `families` lists its predicate
    families, whose rows are computed per call.
    """

    __slots__ = ("steps", "families")

    def __init__(self, f: Formula):
        slot: dict = {}  # id(node) -> slot
        self.steps: list = []
        self.families: list = []

        def visit(g) -> int:
            hit = slot.get(id(g))
            if hit is not None:
                return hit
            if isinstance(g, Lit):
                step = (_LIT, g.value, None)
            elif isinstance(g, Atom):
                step = (_ATOM, g.symbol, None)
            elif isinstance(g, PredAtom):
                if g.family not in self.families:
                    self.families.append(g.family)
                step = (_PRED, g.family, None)
            elif isinstance(g, NotF):
                step = (_NOT, visit(g.arg), None)
            elif isinstance(g, (AndF, OrF)):
                step = (_AND if isinstance(g, AndF) else _OR, tuple(visit(a) for a in g.args), None)
            elif isinstance(g, (Since, Until)):
                kind = _SINCE if isinstance(g, Since) else _UNTIL
                step = (kind, (visit(g.lhs), visit(g.rhs)), g.strict)
            else:
                raise LtlError(f"unknown formula node {g!r}")
            slot[id(g)] = len(self.steps)
            self.steps.append(step)
            return slot[id(g)]

        visit(f)


def _plan_for(f: Formula) -> _FormulaPlan:
    plan = _PLANS.get(f)
    if plan is None:
        plan = _PLANS[f] = _FormulaPlan(f)
    return plan


def _row(f: Formula, tokens: list, preds=None) -> int:
    """The formula's truth value at every position, as a bitmask row."""
    from . import predicates as predmod

    plan = _plan_for(f)
    n = len(tokens)
    full = (1 << n) - 1
    symbol_rows: dict = {}
    for p, t in enumerate(tokens):
        symbol_rows[t] = symbol_rows.get(t, 0) | (1 << p)
    pred_rows = {}
    for fam in plan.families:
        family = (preds or {}).get(fam) or predmod.lookup(fam)
        if family is None:
            raise LtlError(f"unbound predicate family {fam!r}")
        row = 0
        for i in range(1, n + 1):
            if family(n, i):
                row |= 1 << (i - 1)
        pred_rows[fam] = row
    bits = [1 << k for k in range(n)]
    rows: list = []
    for kind, a, b in plan.steps:
        if kind == _ATOM:
            row = symbol_rows.get(a, 0)
        elif kind == _NOT:
            row = full ^ rows[a]
        elif kind == _AND:
            row = full
            for k in a:
                row &= rows[k]
        elif kind == _OR:
            row = 0
            for k in a:
                row |= rows[k]
        elif kind == _SINCE:
            # non-strict: holds at k iff rhs holds at k, or lhs holds at k and it held at k - 1
            row = _scan(rows[a[0]], rows[a[1]], bits)
            if b:  # strict since at k is non-strict since at k - 1
                row = (row << 1) & full
        elif kind == _UNTIL:
            row = _scan(rows[a[0]], rows[a[1]], reversed(bits))
            if b:
                row >>= 1
        elif kind == _PRED:
            row = pred_rows[a]
        else:  # _LIT
            row = full if a else 0
        rows.append(row)
    return rows[-1]


def _scan(lhs: int, rhs: int, bits) -> int:
    """Non-strict since (or until, on reversed bits): one pass along `bits`."""
    row = hold = 0
    for bit in bits:
        hold = rhs & bit or (hold and lhs & bit)
        if hold:
            row |= bit
    return row


def _tokens(input_text, alphabet: Optional[Alphabet]) -> list:
    if alphabet is not None:
        return alphabet.tokenize(input_text)
    if isinstance(input_text, (list, tuple)):
        return list(input_text)
    return list(input_text)


def ltl_eval(f: Formula, input_text, i: int, preds=None, alphabet=None) -> bool:
    """Whether the formula holds at position i (1-based) of the input."""
    tokens = _tokens(input_text, alphabet)
    if not tokens:
        raise LtlError("empty input string")
    if not 1 <= i <= len(tokens):
        raise LtlError(f"position {i} out of range 1..{len(tokens)}")
    return bool(_row(f, tokens, preds) >> (i - 1) & 1)


def ltl_accepts(f: Formula, input_text, preds=None, alphabet=None) -> bool:
    """Language membership: evaluate at the last position."""
    tokens = _tokens(input_text, alphabet)
    if not tokens:
        raise LtlError("empty input string")
    return bool(_row(f, tokens, preds) >> (len(tokens) - 1) & 1)


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
        if isinstance(g, Since):
            p1, p2 = translate(g.lhs), translate(g.rhs)
            mask = MaskKind.FUTURE if g.strict else MaskKind.FUTURE_EQ
            body = Attention(
                brasp.RIGHTMOST,
                mask,
                bx.disj([bx.neg(bx.Var(p1, "j")), bx.Var(p2, "j")]),
                bx.Var(p2, "j"),
                bx.FALSE,
            )
            return emit(("since", g.strict, p1, p2), body)
        if isinstance(g, Until):
            p1, p2 = translate(g.lhs), translate(g.rhs)
            mask = MaskKind.PAST if g.strict else MaskKind.PAST_EQ
            body = Attention(
                brasp.LEFTMOST,
                mask,
                bx.disj([bx.neg(bx.Var(p1, "j")), bx.Var(p2, "j")]),
                bx.Var(p2, "j"),
                bx.FALSE,
            )
            return emit(("until", g.strict, p1, p2), body)
        raise LtlError(f"unknown formula node {g!r}")

    root = translate(f)
    return BraspProgram(alphabet, tuple(ops), Accept(root), families)


# ---------------------------------------------------------------------------
# Program -> formula


def _exists_before(g: Formula, strict: bool) -> Formula:
    return Since(TRUE, g, strict)


def _exists_after(g: Formula, strict: bool) -> Formula:
    return Until(TRUE, g, strict)


def _last_holding(score: Formula) -> Formula:
    """Marks the globally rightmost position satisfying `score` (strict ops)."""
    return and_(score, not_(_exists_after(score, True)))


def _first_holding(score: Formula) -> Formula:
    return and_(score, not_(_exists_before(score, True)))


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


def _suffix_extremum(fs: Formula, fv: Formula, outward: bool) -> Formula:
    """Non-strict rendering of "the farthest score position on one side has
    the value". outward=True looks right (until'), else left (since')."""
    mk = _exists_after if outward else _exists_before
    witness = and_(fs, fv, not_(mk(and_(fs, not_(fv)), False)))
    return mk(witness, False)


def _attention_formula(body, fs, fv, fd, nonstrict_none: bool) -> Formula:
    rightmost = body.direction == brasp.RIGHTMOST
    mask = body.mask
    if mask is MaskKind.FUTURE and rightmost:
        return or_(
            Since(not_(fs), and_(fs, fv), True),
            and_(not_(_exists_before(fs, True)), fd),
        )
    if mask is MaskKind.PAST and not rightmost:
        return or_(
            Until(not_(fs), and_(fs, fv), True),
            and_(not_(_exists_after(fs, True)), fd),
        )
    if mask is MaskKind.PAST and rightmost:
        return or_(
            _exists_after(and_(_last_holding(fs), fv), True),
            and_(not_(_exists_after(fs, True)), fd),
        )
    if mask is MaskKind.FUTURE and not rightmost:
        return or_(
            _exists_before(and_(_first_holding(fs), fv), True),
            and_(not_(_exists_before(fs, True)), fd),
        )
    if mask is MaskKind.FUTURE_EQ and rightmost:
        return or_(
            Since(not_(fs), and_(fs, fv), False),
            and_(not_(_exists_before(fs, False)), fd),
        )
    if mask is MaskKind.PAST_EQ and not rightmost:
        return or_(
            Until(not_(fs), and_(fs, fv), False),
            and_(not_(_exists_after(fs, False)), fd),
        )
    if mask is MaskKind.PAST_EQ and rightmost:
        return or_(
            _suffix_extremum(fs, fv, True),
            and_(not_(_exists_after(fs, False)), fd),
        )
    if mask is MaskKind.FUTURE_EQ and not rightmost:
        return or_(
            _suffix_extremum(fs, fv, False),
            and_(not_(_exists_before(fs, False)), fd),
        )
    assert mask is MaskKind.NONE
    if not nonstrict_none:
        anywhere_s = or_(_exists_before(fs, True), fs, _exists_after(fs, True))
        marker = _last_holding(fs) if rightmost else _first_holding(fs)
        hit = and_(marker, fv)
        anywhere_hit = or_(_exists_before(hit, True), hit, _exists_after(hit, True))
        return or_(anywhere_hit, and_(not_(anywhere_s), fd))
    # Non-strict rendering: split on which side of the current position the
    # extremal score position falls.
    e_fwd = _exists_after(fs, False)
    e_bwd = _exists_before(fs, False)
    if rightmost:
        far = _suffix_extremum(fs, fv, True)
        near = Since(not_(fs), and_(fs, fv), False)
        return or_(
            and_(e_fwd, far),
            and_(not_(e_fwd), e_bwd, near),
            and_(not_(e_fwd), not_(e_bwd), fd),
        )
    far = _suffix_extremum(fs, fv, False)
    near = Until(not_(fs), and_(fs, fv), False)
    return or_(
        and_(e_bwd, far),
        and_(not_(e_bwd), e_fwd, near),
        and_(not_(e_bwd), not_(e_fwd), fd),
    )


# ---------------------------------------------------------------------------
# Text format


_OPERATORS = ("S'", "U'", "S", "U")


def parse_formula(text: str) -> Formula:
    tokens = _lex(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def parse_temporal() -> Formula:
        left = parse_or()
        t = peek()
        if t in _OPERATORS:
            take()
            right = parse_temporal()  # right-associative
            if t == "S":
                return since(left, right)
            if t == "U":
                return until(left, right)
            if t == "S'":
                return since_ns(left, right)
            return until_ns(left, right)
        return left

    def parse_or() -> Formula:
        args = [parse_and()]
        while peek() == "|":
            take()
            args.append(parse_and())
        return or_(*args)

    def parse_and() -> Formula:
        args = [parse_unary()]
        while peek() == "&":
            take()
            args.append(parse_unary())
        return and_(*args)

    def parse_unary() -> Formula:
        t = peek()
        if t == "!":
            take()
            return not_(parse_unary())
        if t == "(":
            take()
            f = parse_temporal()
            if peek() != ")":
                raise LtlError(f"expected ')' near token {pos[0]} in {text!r}")
            take()
            return f
        return parse_atom()

    def parse_atom() -> Formula:
        t = take()
        if t is None:
            raise LtlError(f"unexpected end of formula in {text!r}")
        if t == "0":
            return FALSE
        if t == "1":
            return TRUE
        if t.startswith("PRED:"):
            return PredAtom(t[len("PRED:"):])
        if t.startswith("Q") and len(t) > 1:
            return Atom(t[1:])
        raise LtlError(f"bad atom {t!r} in {text!r}")

    f = parse_temporal()
    if pos[0] != len(tokens):
        raise LtlError(f"trailing tokens {tokens[pos[0]:]} in {text!r}")
    return f


def _lex(text: str) -> list:
    out = []
    k = 0
    while k < len(text):
        c = text[k]
        if c.isspace():
            k += 1
            continue
        if c in "()!&|":
            out.append(c)
            k += 1
            continue
        j = k
        while j < len(text) and not text[j].isspace() and text[j] not in "()!&|":
            j += 1
        word = text[k:j]
        # A bare S/U (optionally primed) is an operator, not an atom.
        if word in ("0", "1") or word in _OPERATORS:
            out.append(word)
        elif word.startswith("Q") or word.startswith("PRED:"):
            out.append(word)
        else:
            raise LtlError(f"cannot lex {word!r} in {text!r}")
        k = j
    return out


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

"""Deliberately naive reference evaluators for programs, formulas and
transformers, and the definitional counter-freeness check for automata.

Recomputes every vector value and every subformula recursively from the
definition, scanning all candidate positions one by one, with no bitmask
tricks and no sharing with the production interpreters or the transformer
runtime: the transformer evaluator reads only the model's weights. Slow on
purpose; used only as a test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy

from starfree import boolexpr as bx
from starfree import ltl
from starfree.automata import Dfa, transition_monoid
from starfree import predicates as predmod
from starfree.brasp import (
    Attention,
    BraspProgram,
    LEFTMOST,
    MaskKind,
    Positionwise,
    qname,
)


def _mask_ok(mask: MaskKind, i: int, j: int) -> bool:
    if mask is MaskKind.NONE:
        return True
    if mask is MaskKind.FUTURE:
        return j < i
    if mask is MaskKind.PAST:
        return j > i
    if mask is MaskKind.FUTURE_EQ:
        return j <= i
    return j >= i


def brute_value(prog: BraspProgram, tokens, name: str, i: int, preds=None) -> bool:
    """Value of vector `name` at position i, straight from the definitions."""
    preds = preds or {}

    def family(fam):
        return preds.get(fam) or predmod.lookup(fam)

    def atom_value(a, i_pos, j_pos):
        pos = i_pos if a.pos == "i" else j_pos
        if isinstance(a, bx.Pred):
            return family(a.family)(len(tokens), pos)
        return vector(a.name, pos)

    def expr_value(expr, i_pos, j_pos=None):
        return bx.eval_bool(expr, lambda a: atom_value(a, i_pos, j_pos))

    def vector(name: str, pos: int) -> bool:
        for sym in prog.alphabet.symbols:
            if name == qname(sym):
                return tokens[pos - 1] == sym
        op = prog.op(name)
        body = op.body
        if isinstance(body, Positionwise):
            return expr_value(body.expr, pos)
        candidates = [
            j
            for j in range(1, len(tokens) + 1)
            if _mask_ok(body.mask, pos, j) and expr_value(body.score, pos, j)
        ]
        if not candidates:
            return expr_value(body.default, pos)
        j = min(candidates) if body.direction == LEFTMOST else max(candidates)
        return expr_value(body.value, pos, j)

    return vector(name, i)


def brute_accepts(prog: BraspProgram, w, preds=None) -> bool:
    tokens = prog.alphabet.tokenize(w)
    return brute_value(prog, tokens, prog.output.vector, len(tokens), preds)


# ---------------------------------------------------------------------------
# Formulas


def brute_ltl_holds(f, tokens, i: int, preds=None) -> bool:
    """Whether formula f holds at position i (1-based) of `tokens`.

    phi S psi: psi holds at some j < i and phi at every k with j < k < i.
    phi S' psi: psi holds at some j <= i and phi at every k with j < k <= i.
    U and U' are the mirror images.
    """
    n = len(tokens)
    preds = preds or {}

    def holds(g, i: int) -> bool:
        if isinstance(g, ltl.Lit):
            return g.value
        if isinstance(g, ltl.Atom):
            return tokens[i - 1] == g.symbol
        if isinstance(g, ltl.PredAtom):
            return (preds.get(g.family) or predmod.lookup(g.family))(n, i)
        if isinstance(g, ltl.NotF):
            return not holds(g.arg, i)
        if isinstance(g, ltl.AndF):
            return all(holds(a, i) for a in g.args)
        if isinstance(g, ltl.OrF):
            return any(holds(a, i) for a in g.args)
        if isinstance(g, ltl.Since):
            witnesses = range(1, i) if g.strict else range(1, i + 1)
            between = lambda j: range(j + 1, i) if g.strict else range(j + 1, i + 1)
        else:
            witnesses = range(i + 1, n + 1) if g.strict else range(i, n + 1)
            between = lambda j: range(i + 1, j) if g.strict else range(i, j)
        return any(holds(g.rhs, j) and all(holds(g.lhs, k) for k in between(j)) for j in witnesses)

    return holds(f, i)


# ---------------------------------------------------------------------------
# Transformers


def _sign(x) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    x = sympy.simplify(sympy.sympify(x))
    if x == 0:
        return 0
    if x.is_positive is None:
        return 1 if x.evalf(60) > 0 else -1
    return 1 if x.is_positive else -1


def _layer_norm(ln, x: list) -> list:
    """Textbook layer norm: mean S/d, variance (d*Q - S^2)/d^2 for S = sum x, Q = sum x^2."""
    d = len(x)
    total = sum(x)
    spread = d * sum(v * v for v in x) - total * total
    if ln.mode == "assert":
        assert ln.expected_mean is None or Fraction(total) / d == ln.expected_mean
        assert ln.expected_var is None or Fraction(spread) / (d * d) == ln.expected_var
        return list(x)
    spread = Fraction(spread)
    root = Fraction(math.isqrt(spread.numerator), math.isqrt(spread.denominator))
    assert root * root == spread, f"variance {spread / (d * d)} has no rational square root"
    # (v - mean) / sigma == (d*v - S) / sqrt(d*Q - S^2)
    out = [g * (d * v - total) / root + b for g, b, v in zip(ln.gamma, ln.beta, x)]
    # integral results as ints, so that later layers add ints, not Fractions
    return [v.numerator if v.denominator == 1 else v for v in out]


def brute_transformer_trace(model, w):
    """(embeddings, per layer (choices, att_state, ffn_state, out_state)).

    Every score is the product (x_i^T S) x_j, every argmax compares
    all unmasked positions, and nothing is remembered between positions,
    layers or strings.
    """
    tokens = model.alphabet.tokenize(w)
    n = len(tokens)
    x = []
    for i, t in enumerate(tokens, start=1):
        vec = list(model.embedding[t])
        for pe, offset in model.position_embeddings:
            for k, v in enumerate(pe(n, i)):
                vec[offset + k] += v
        x.append(vec)
    embeddings = [list(v) for v in x]
    layers = []
    for layer in model.layers:
        att = [list(v) for v in x]
        all_choices = []
        for head in layer.heads:
            choices = []
            for i in range(1, n + 1):
                row = {}  # x_i^T S, by column
                for r, c, v in head.score_sparse.entries:
                    row[c] = row.get(c, 0) + x[i - 1][r] * v
                scores = {}
                for j in range(1, n + 1):
                    if _mask_ok(head.mask, i, j):
                        scores[j] = sum((v * x[j - 1][c] for c, v in row.items()), 0)
                if not scores:
                    choices.append(None)
                    continue
                top = next(iter(scores.values()))
                for s in scores.values():
                    if _sign(s - top) > 0:
                        top = s
                best = [j for j, s in scores.items() if _sign(s - top) == 0]
                j = min(best) if head.tiebreak == LEFTMOST else max(best)
                choices.append(j)
                value = [0] * model.width
                for r, c, v in head.value_sparse.entries:
                    value[r] += v * x[j - 1][c]
                for r, b in enumerate(head.value_bias or ()):
                    value[r] += b
                att[i - 1] = [a + b for a, b in zip(att[i - 1], value)]
            all_choices.append(choices)
        ffn_state = []
        out_state = []
        for vec in att:
            mid = _layer_norm(layer.ln_att, vec) if layer.ln_att is not None else vec
            ffn = layer.ffn
            hidden = list(ffn.b1)
            for r, c, v in ffn.w1_sparse.entries:
                hidden[r] += v * mid[c]
            hidden = [h if _sign(h) > 0 else 0 for h in hidden]
            y = [a + b for a, b in zip(mid, ffn.b2)]
            for r, c, v in ffn.w2_sparse.entries:
                y[r] += v * hidden[c]
            ffn_state.append(y)
            out_state.append(_layer_norm(layer.ln_ffn, y) if layer.ln_ffn is not None else y)
        layers.append((all_choices, att, ffn_state, out_state))
        x = out_state
    return embeddings, layers


def brute_transformer_accepts(model, w) -> bool:
    embeddings, layers = brute_transformer_trace(model, w)
    last = layers[-1][3][-1] if layers else embeddings[-1]
    acc = model.output.bias + sum(wt * v for wt, v in zip(model.output.weights, last))
    return _sign(acc) >= 0


def is_counter_free_bruteforce(dfa: Dfa) -> bool:
    """Definitional check: no word may permute a state subset nontrivially.

    Words are represented by their monoid elements, which cover every word's
    action; each element is tested on every subset of states.
    """
    n = len(dfa.states)
    for m in transition_monoid(dfa):
        for mask in range(1 << n):
            subset = [k for k in range(n) if mask >> k & 1]
            image = [m[k] for k in subset]
            if sorted(image) == subset:  # m permutes the subset
                if any(m[k] != k for k in subset):
                    return False
    return True

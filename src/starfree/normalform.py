"""Rewrites that restrict what attention predicates may read.

Three language-preserving passes:

* `normalize_unary_value`: every attention value predicate reads only the
  attended position. Values that read the query position are traded for an
  attends-anything flag plus helper attention ops, combined position-wise
  with the default.
* `normalize_unary_score`: every score predicate reads only the attended
  position. The query-side atoms are specialized over all truth assignments,
  producing one attention op per assignment and a position-wise combiner
  that selects the matching one.
* `flatten_defaults`: every attention default is a constant. Non-constant
  defaults are routed through the attends-anything flag.

Each pass leaves already-conforming operations untouched.
"""

from __future__ import annotations

from . import boolexpr as bx
from .boolexpr import Const, Expr, Pred, Var
from .brasp import Attention, BraspOp, BraspProgram, Positionwise

SCORE_ATOM_CAP = 16


def _namegen(taken):
    taken = set(taken)

    def fresh(base: str) -> str:
        if base not in taken:
            taken.add(base)
            return base
        k = 2
        while f"{base}{k}" in taken:
            k += 1
        taken.add(f"{base}{k}")
        return f"{base}{k}"

    return fresh


def _rebuild(prog: BraspProgram, ops) -> BraspProgram:
    return BraspProgram(prog.alphabet, tuple(ops), prog.output, prog.predicate_families)


def normalize_unary_value(prog: BraspProgram) -> BraspProgram:
    fresh = _namegen(prog.vector_names)
    new_ops = []
    for op in prog.ops:
        body = op.body
        if isinstance(body, Positionwise) or not bx.has_pos(body.value, "i"):
            new_ops.append(op)
            continue
        flag = fresh(f"{op.name}_any")
        new_ops.append(
            BraspOp(flag, Attention(body.direction, body.mask, body.score, bx.TRUE, bx.FALSE))
        )

        def fired_value(expr: Expr) -> Expr:
            # Position-wise expression equal to V(i, j_i) whenever the flag holds.
            if not bx.has_pos(expr, "i"):
                if isinstance(expr, Const):
                    return expr
                helper = fresh(f"{op.name}_val")
                new_ops.append(
                    BraspOp(
                        helper,
                        Attention(body.direction, body.mask, body.score, expr, bx.FALSE),
                    )
                )
                return Var(helper, "i")
            if isinstance(expr, (Var, Pred)):
                return expr
            if isinstance(expr, bx.Not):
                return bx.neg(fired_value(expr.arg))
            if isinstance(expr, bx.And):
                return bx.conj(fired_value(a) for a in expr.args)
            return bx.disj(fired_value(a) for a in expr.args)

        picked = fired_value(body.value)
        a = Var(flag, "i")
        combined = bx.disj([bx.conj([a, picked]), bx.conj([bx.neg(a), body.default])])
        new_ops.append(BraspOp(op.name, Positionwise(combined)))
    return _rebuild(prog, new_ops)


def normalize_unary_score(prog: BraspProgram) -> BraspProgram:
    fresh = _namegen(prog.vector_names)
    new_ops = []
    for op in prog.ops:
        body = op.body
        if isinstance(body, Positionwise):
            new_ops.append(op)
            continue
        query_atoms = bx.atoms_at(body.score, "i")
        if not query_atoms:
            new_ops.append(op)
            continue
        if len(query_atoms) > SCORE_ATOM_CAP:
            raise ValueError(
                f"{op.name}: score of {len(query_atoms)} query atoms "
                f"exceeds SCORE_ATOM_CAP ({SCORE_ATOM_CAP})"
            )
        branches = []
        for bits in range(1 << len(query_atoms)):
            chosen = {a for k, a in enumerate(query_atoms) if bits >> k & 1}
            mapping = {a: Const(a in chosen) for a in query_atoms}
            specialized = bx.substitute(body.score, mapping)
            helper = fresh(f"{op.name}_c{bits}")
            new_ops.append(
                BraspOp(
                    helper,
                    Attention(body.direction, body.mask, specialized, body.value, body.default),
                )
            )
            match = bx.conj(a if a in chosen else bx.neg(a) for a in query_atoms)
            branches.append(bx.conj([Var(helper, "i"), match]))
        new_ops.append(BraspOp(op.name, Positionwise(bx.disj(branches))))
    return _rebuild(prog, new_ops)


def flatten_defaults(prog: BraspProgram) -> BraspProgram:
    fresh = _namegen(prog.vector_names)
    new_ops = []
    for op in prog.ops:
        body = op.body
        if isinstance(body, Positionwise) or isinstance(body.default, Const):
            new_ops.append(op)
            continue
        flag = fresh(f"{op.name}_any")
        picked = fresh(f"{op.name}_hit")
        new_ops.append(
            BraspOp(flag, Attention(body.direction, body.mask, body.score, bx.TRUE, bx.FALSE))
        )
        new_ops.append(
            BraspOp(picked, Attention(body.direction, body.mask, body.score, body.value, bx.FALSE))
        )
        a = Var(flag, "i")
        new_ops.append(
            BraspOp(
                op.name,
                Positionwise(
                    bx.disj([bx.conj([a, Var(picked, "i")]), bx.conj([bx.neg(a), body.default])])
                ),
            )
        )
    return _rebuild(prog, new_ops)


def is_unary_value(prog: BraspProgram) -> bool:
    return all(
        isinstance(op.body, Positionwise) or not bx.has_pos(op.body.value, "i")
        for op in prog.ops
    )


def is_unary_score(prog: BraspProgram) -> bool:
    return all(
        isinstance(op.body, Positionwise) or not bx.has_pos(op.body.score, "i")
        for op in prog.ops
    )

"""The one Boolean evaluator, `compile_rows`, through `truth_table`, against
the reference `eval_bool`."""

import random

import pytest

from starfree import boolexpr as bx


def random_tree(rng: random.Random, atoms: list, depth: int) -> bx.Expr:
    """A tree over `atoms` built with the raw node constructors, so constants,
    nested negations, one-argument connectives and repeated atoms survive."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(atoms) if atoms and rng.random() < 0.8 else bx.Const(rng.random() < 0.5)
    if roll < 0.45:
        return bx.Not(random_tree(rng, atoms, depth - 1))
    args = tuple(random_tree(rng, atoms, depth - 1) for _ in range(rng.randint(1, 4)))
    return (bx.And if roll < 0.7 else bx.Or)(args)


@pytest.mark.parametrize("k", range(7))
def test_truth_table_matches_eval_bool(k):
    rng = random.Random(k)
    # Vectors and predicate families at both positions; slots in a shuffled order.
    atoms = [
        bx.Var(f"V{s}", rng.choice("ij")) if s % 2 else bx.Pred(f"F{s}", rng.choice("ij")) for s in range(k)
    ]
    order = rng.sample(range(k), k)
    slot = {a: order[s] for s, a in enumerate(atoms)}
    for _ in range(60):
        expr = random_tree(rng, atoms, rng.randint(0, 5))
        table = bx.truth_table(expr, k, slot.__getitem__)
        assert 0 <= table < 1 << (1 << k)
        for b in range(1 << k):
            want = bx.eval_bool(expr, lambda a: b >> slot[a] & 1)
            assert (table >> b & 1) == want, (expr, b)

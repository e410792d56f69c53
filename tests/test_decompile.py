"""Value-set enumeration and transformer-to-program translation."""

import itertools
from fractions import Fraction

import pytest

from starfree import brasp, compiler, corpus, ltl, testkit
from starfree import transformer as tf
from starfree.brasp import Alphabet, MaskKind
from starfree.compiler import (
    CompileError,
    compile_naive,
    decompile,
    decompile_with_predicates,
    enumerate_value_set,
    finite_image_bound,
)
from starfree.transformer import (
    AttentionHead,
    FeedForward,
    OutputLayer,
    SparseMatrix,
    Transformer,
    TransformerLayer,
)

F = Fraction


def test_depth_zero_value_set_is_alphabet_sized():
    emb = {"a": (F(1), F(0)), "b": (F(0), F(1))}
    model = Transformer(2, Alphabet(("a", "b")), emb, [])
    levels = enumerate_value_set(model)
    assert len(levels) == 1
    assert len(levels[0].activations) == 2


def test_bound_holds_per_layer_for_compiled_dyck():
    model = compile_naive(corpus.dyck_program())
    levels = enumerate_value_set(model)
    for ell, level in enumerate(levels):
        assert len(level.activations) <= finite_image_bound(model, ell), ell


def test_observed_activations_lie_in_enumerated_set():
    model = compile_naive(corpus.dyck_program())
    levels = enumerate_value_set(model)
    sets = [set(level.activations) for level in levels]
    for n in range(1, 7):
        for tup in itertools.product("lr", repeat=n):
            trace = tf.run_transformer(model, "".join(tup))
            for ell in range(model.depth + 1):
                for vec in trace.activations(ell):
                    assert tuple(vec) in sets[ell], (tup, ell)


@pytest.mark.parametrize(
    "program, counts",
    [(corpus.dyck_program, (1150, 170, 119)), (corpus.parity_mod_program, (4, 5, 4))],
    ids=["dyck", "parity_mod"],
)
def test_value_set_size_and_decompiled_op_counts_are_pinned(program, counts):
    """Value-set size, then shallower and smaller op counts, of the naive model."""
    model = compile_naive(program())
    size = sum(len(level.activations) for level in enumerate_value_set(model))
    assert (size, len(decompile(model, "shallower").ops), len(decompile(model, "smaller").ops)) == counts


def test_enumerate_rejects_uncertified_pe():
    from starfree.predicates import PositionEmbedding

    pe = PositionEmbedding("raw", 1, lambda n, i: (F(i),), finite_image=False)
    emb = {"a": (F(1), F(0)), "b": (F(0), F(1))}
    model = Transformer(2, Alphabet(("a", "b")), emb, [], position_embeddings=((pe, 0),))
    with pytest.raises(CompileError):
        enumerate_value_set(model)


def _diff_decompiled(model, reference, alphabet, bound, variant, preds=None):
    back, families = decompile_with_predicates(model, variant)
    bindings = dict(families)
    if preds:
        bindings.update(preds)
    report = testkit.diff_languages(
        testkit.program_recognizer(back, bindings),
        reference,
        alphabet,
        bound,
    )
    assert report.ok, (variant, report.summary())
    return back


def test_decompile_identity_transformer_matches_embedding_bits():
    emb = {"a": (F(1), F(0)), "b": (F(0), F(1))}
    model = Transformer(
        2, Alphabet(("a", "b")), emb, [], OutputLayer((F(1), F(0)), F(-1, 2))
    )
    back = decompile(model, "shallower")
    assert brasp.attention_depth(back) == 0
    report = testkit.diff_languages(
        testkit.program_recognizer(back),
        lambda w: w[-1] == "a",
        Alphabet(("a", "b")),
        6,
    )
    assert report.ok, report.summary()


def test_decompile_round_trip_dyck_both_variants():
    prog = corpus.dyck_program()
    model = compile_naive(prog)
    for variant in ("shallower", "smaller"):
        back = _diff_decompiled(
            model, testkit.program_recognizer(prog), prog.alphabet, 8, variant
        )
        if variant == "shallower":
            assert brasp.attention_depth(back) <= model.depth


def test_decompile_round_trip_phi2():
    prog = ltl.ltl_to_brasp(corpus.phi(2), corpus.PHI_ALPHABET)
    model = compile_naive(prog)
    for variant in ("shallower", "smaller"):
        _diff_decompiled(
            model, testkit.program_recognizer(prog), prog.alphabet, 7, variant
        )


def test_decompile_handwritten_fractional_scores():
    # Scores in {0, 1/2, 1}: rightmost earlier b scores 1, earlier a scores 1/2.
    emb = {"a": (F(1), F(0), F(0)), "b": (F(0), F(1), F(0))}
    # query is anything; key a gives 1/2, key b gives 1
    score = SparseMatrix(3, 3, [(0, 0, F(1, 2)), (1, 0, F(1, 2)), (0, 1, F(1)), (1, 1, F(1))])
    value = SparseMatrix(3, 3, [(2, 1, F(1))])  # copy the attended b-indicator into coord 2
    head = AttentionHead(score, MaskKind.FUTURE, tf.RIGHTMOST, value)
    layer = TransformerLayer([head], FeedForward.zero(3))
    model = Transformer(
        3, Alphabet(("a", "b")), emb, [layer], OutputLayer((F(0), F(0), F(1)), F(-1, 2))
    )

    def oracle(w):
        # accepted iff some earlier position exists and the best-scoring
        # earlier position (b beats a, rightmost wins) holds b
        if len(w) < 2:
            return False
        prefix = w[:-1]
        return "b" in prefix

    for variant in ("shallower", "smaller"):
        _diff_decompiled(model, oracle, Alphabet(("a", "b")), 7, variant)


def test_decompile_shallower_depth_tracks_live_attention():
    prog = ltl.ltl_to_brasp(corpus.phi(3), corpus.PHI_ALPHABET)
    model = compile_naive(prog)
    back = decompile(model, "shallower")
    assert brasp.attention_depth(back) == brasp.attention_depth(prog)


def test_decompile_smaller_uses_fewer_ops_than_shallower():
    prog = corpus.dyck_program()
    model = compile_naive(prog)
    small = decompile(model, "smaller")
    shallow = decompile(model, "shallower")
    assert len(small.ops) <= len(shallow.ops)


def test_decompile_requires_output_layer():
    emb = {"a": (F(1),)}
    model = Transformer(1, Alphabet(("a",)), emb, [])
    with pytest.raises(CompileError):
        decompile(model)


def test_decompile_multihead_layer():
    # Two heads writing different coords; output checks their agreement.
    emb = {"a": (F(1), F(0), F(0), F(0)), "b": (F(0), F(1), F(0), F(0))}
    v1 = SparseMatrix(4, 4, [(2, 0, F(1))])  # copy attended a-bit into coord 2
    h1 = AttentionHead(SparseMatrix(4, 4), MaskKind.FUTURE, tf.RIGHTMOST, v1)
    v2 = SparseMatrix(4, 4, [(3, 1, F(1))])  # copy attended b-bit into coord 3
    h2 = AttentionHead(SparseMatrix(4, 4), MaskKind.PAST, tf.LEFTMOST, v2)
    layer = TransformerLayer([h1, h2], FeedForward.zero(4))
    model = Transformer(
        4,
        Alphabet(("a", "b")),
        emb,
        [layer],
        OutputLayer((F(0), F(0), F(1), F(1)), F(-1, 2)),
    )

    def oracle(w):
        n = len(w)
        score = 0
        if n >= 2:
            score += int(w[-2] == "a")  # h1 at last position attends n-1
        # h2 at the last position has no past positions, contributes zero
        return score >= F(1, 2)

    for variant in ("shallower", "smaller"):
        _diff_decompiled(model, oracle, Alphabet(("a", "b")), 6, variant)


def test_decompile_with_position_embedding_round_trip():
    prog = corpus.parity_mod_program()
    model = compile_naive(prog)
    for variant in ("shallower", "smaller"):
        _diff_decompiled(
            model, corpus.ORACLES["aa_star"], prog.alphabet, 10, variant
        )

"""Runtime semantics: hard attention, residuals, composition, layer norm."""

import json
from fractions import Fraction

import pytest

from starfree import exact, transformer as tf
from starfree.brasp import Alphabet, MaskKind, LEFTMOST, RIGHTMOST
from starfree.transformer import (
    AttentionHead,
    FeedForward,
    LayerNorm,
    OutputLayer,
    SparseMatrix,
    Transformer,
    TransformerError,
    TransformerLayer,
    identity_layer,
    parallel_compose,
    run_transformer,
    accepts_transformer,
    transformer_from_json,
    transformer_to_json,
)

F = Fraction
AB = Alphabet(("a", "b"))


def _one_hot_embedding(width=2):
    emb = {}
    for k, s in enumerate(AB.symbols):
        vec = [F(0)] * width
        vec[k] = F(1)
        emb[s] = tuple(vec)
    return emb


def _copy_head(mask, tiebreak, width=2):
    # Score 0 everywhere; value copies the attended vector.
    value = SparseMatrix(width, width, [(k, k, F(1)) for k in range(width)])
    return AttentionHead(SparseMatrix(width, width), mask, tiebreak, value)


def test_strict_future_head_is_empty_at_first_position():
    layer = TransformerLayer([_copy_head(MaskKind.FUTURE, RIGHTMOST)], FeedForward.zero(2))
    model = Transformer(2, AB, _one_hot_embedding(), [layer])
    trace = run_transformer(model, "a")
    assert trace.layers[0].choices[0] == [None]
    # residual only: activation equals the embedding
    assert trace.final[0] == [F(1), F(0)]


def test_rightmost_and_leftmost_choices():
    for tiebreak, expected in [(RIGHTMOST, 2), (LEFTMOST, 1)]:
        layer = TransformerLayer([_copy_head(MaskKind.FUTURE, tiebreak)], FeedForward.zero(2))
        model = Transformer(2, AB, _one_hot_embedding(), [layer])
        trace = run_transformer(model, "aba")
        assert trace.layers[0].choices[0][2] == expected


def test_scores_select_argmax_positions():
    # Score = 1 iff attended position holds symbol b.
    score = SparseMatrix(2, 2, [(0, 1, F(1)), (1, 1, F(1))])
    value = SparseMatrix(2, 2, [(1, 1, F(1))])
    head = AttentionHead(score, MaskKind.FUTURE, RIGHTMOST, value)
    layer = TransformerLayer([head], FeedForward.zero(2))
    model = Transformer(2, AB, _one_hot_embedding(), [layer])
    trace = run_transformer(model, "abaa")
    # position 4 attends to position 2 (the rightmost earlier b)
    assert trace.layers[0].choices[0][3] == 2


def test_ffn_and_gadget():
    # relu(x0 + x1 - 1) computes AND of two Boolean inputs into coord 0 delta.
    ffn = FeedForward(
        SparseMatrix(1, 2, [(0, 0, F(1)), (0, 1, F(1))]),
        (F(-1),),
        SparseMatrix(2, 1, [(0, 0, F(1))]),
        (F(0), F(0)),
    )
    assert ffn.apply([F(1), F(1)]) == [F(1), F(0)]
    assert ffn.apply([F(1), F(0)]) == [F(0), F(0)]
    assert ffn.apply([F(0), F(0)]) == [F(0), F(0)]


def test_relu_keeps_rationals_as_ints():
    for x in (F(-3, 2), F(0), -2, 0):
        assert exact.relu(x) == 0 and type(exact.relu(x)) is int
    assert exact.relu(F(5, 2)) == F(5, 2) and exact.relu(3) == 3
    # bool goes through the isinstance fallback, as before
    assert exact.sign(True) == 1 and exact.compare(False, 0) == 0


def test_model_structure_is_frozen_after_evaluation():
    model = Transformer(2, AB, _one_hot_embedding(), [identity_layer(2)], OutputLayer((F(0), F(1)), F(0)))
    assert accepts_transformer(model, "ab") is True
    with pytest.raises(AttributeError):
        model.layers.append(identity_layer(2))
    with pytest.raises(AttributeError):
        model.layers[0].heads.append(_copy_head(MaskKind.NONE, LEFTMOST))
    assert isinstance(model.layers, tuple) and isinstance(model.layers[0].heads, tuple)


def test_output_weights_are_normalized():
    model = Transformer(2, AB, _one_hot_embedding(), [], OutputLayer([F(0, 1), F(3, 2)], F(0)))
    assert model.output.weights == (0, F(3, 2)) and type(model.output.weights[0]) is int
    with pytest.raises(TransformerError, match="output weights has 1 entries; expected 2"):
        Transformer(2, AB, _one_hot_embedding(), [], OutputLayer((F(1),), F(0)))


def test_accepts_constant_half():
    model = Transformer(
        2, AB, _one_hot_embedding(), [], OutputLayer((F(0), F(0)), F(1, 2))
    )
    assert accepts_transformer(model, "ab") is True
    assert accepts_transformer(model, "b") is True


def test_accepts_zero_output_is_accept():
    model = Transformer(2, AB, _one_hot_embedding(), [], OutputLayer((F(0), F(0)), F(0)))
    assert accepts_transformer(model, "a") is True


def test_identity_layer_is_identity():
    model = Transformer(2, AB, _one_hot_embedding(), [identity_layer(2)])
    trace = run_transformer(model, "abba")
    assert trace.final == trace.embeddings


def test_multihead_sums_single_heads():
    h1 = _copy_head(MaskKind.FUTURE, RIGHTMOST)
    h2 = _copy_head(MaskKind.PAST, LEFTMOST)
    both = TransformerLayer([h1, h2], FeedForward.zero(2))
    model_both = Transformer(2, AB, _one_hot_embedding(), [both])
    t_both = run_transformer(model_both, "abab")

    single1 = run_transformer(Transformer(2, AB, _one_hot_embedding(), [TransformerLayer([h1], FeedForward.zero(2))]), "abab")
    single2 = run_transformer(Transformer(2, AB, _one_hot_embedding(), [TransformerLayer([h2], FeedForward.zero(2))]), "abab")
    for i in range(4):
        expected = [
            a + b - e
            for a, b, e in zip(single1.final[i], single2.final[i], single1.embeddings[i])
        ]
        assert t_both.final[i] == expected


def test_parallel_compose_concatenates_activations():
    layer = TransformerLayer([_copy_head(MaskKind.FUTURE, RIGHTMOST)], FeedForward.zero(2))
    t1 = Transformer(2, AB, _one_hot_embedding(), [layer])
    t2 = Transformer(2, AB, _one_hot_embedding(), [])
    composed = parallel_compose(t1, t2)
    assert composed.width == 4
    assert composed.depth == 1
    tr = run_transformer(composed, "ab")
    tr1 = run_transformer(t1, "ab")
    tr2 = run_transformer(t2, "ab")
    for i in range(2):
        assert tr.final[i] == list(tr1.final[i]) + list(tr2.final[i])


def test_parallel_compose_with_itself_duplicates_coordinates():
    import itertools

    from starfree import compiler, corpus

    model = compiler.compile_naive(corpus.dyck_program())
    doubled = parallel_compose(model, model)
    for n in range(1, 7):
        for tup in itertools.product("lr", repeat=n):
            w = "".join(tup)
            single = run_transformer(model, w).final
            both = run_transformer(doubled, w).final
            for i in range(n):
                assert both[i] == list(single[i]) + list(single[i])


def test_parallel_compose_depths():
    layer = lambda: TransformerLayer([_copy_head(MaskKind.FUTURE, RIGHTMOST)], FeedForward.zero(2))
    t1 = Transformer(2, AB, _one_hot_embedding(), [layer()])
    t3 = Transformer(2, AB, _one_hot_embedding(), [layer(), layer(), layer()])
    assert parallel_compose(t1, t3).depth == 3
    assert parallel_compose(t3, t1).depth == 3


def test_parallel_compose_with_width_zero_is_neutral():
    t1 = Transformer(2, AB, _one_hot_embedding(), [identity_layer(2)])
    t0 = Transformer(0, AB, {"a": (), "b": ()}, [])
    composed = parallel_compose(t1, t0)
    tr = run_transformer(composed, "abba")
    tr1 = run_transformer(t1, "abba")
    assert [v[:2] for v in tr.final] == tr1.final
    assert composed.width == 2


def test_parallel_compose_alphabet_mismatch():
    t1 = Transformer(2, AB, _one_hot_embedding(), [])
    t2 = Transformer(1, Alphabet(("x",)), {"x": (F(1),)}, [])
    with pytest.raises(TransformerError):
        parallel_compose(t1, t2)


def test_layernorm_exact_identity_on_pairs():
    ln = LayerNorm([F(1, 2)] * 4, [F(1, 2)] * 4, "exact")
    x = [F(1), F(0), F(0), F(1)]
    assert ln.apply(x) == x


def test_layernorm_assert_mode_checks_stats():
    ln = LayerNorm([F(1, 2)] * 4, [F(1, 2)] * 4, "assert", F(1, 2), F(1, 4))
    assert ln.apply([F(1), F(0), F(0), F(1)]) == [F(1), F(0), F(0), F(1)]
    with pytest.raises(TransformerError):
        ln.apply([F(1), F(1), F(1), F(0)])


def _two_wide_model():
    score = SparseMatrix(2, 2, [(0, 1, F(1, 3)), (1, 0, F(-2))])
    value = SparseMatrix(2, 2, [(0, 0, F(1)), (1, 1, F(-1, 7))])
    head = AttentionHead(score, MaskKind.PAST_EQ, LEFTMOST, value, (F(5), F(0)))
    w1 = SparseMatrix(1, 2, [(0, 0, F(1)), (0, 1, F(-1))])
    w2 = SparseMatrix(2, 1, [(0, 0, F(1)), (1, 0, F(3))])
    ffn = FeedForward(w1, (F(2),), w2, (F(0), F(-1, 2)))
    return Transformer(
        2,
        AB,
        _one_hot_embedding(),
        [TransformerLayer([head], ffn)],
        OutputLayer((F(1), F(0)), F(-1, 2)),
    )


def test_weight_file_round_trip():
    model = _two_wide_model()
    text = transformer_to_json(model)
    again = transformer_from_json(text)
    assert transformer_to_json(again) == text
    for w in ["a", "ab", "abba"]:
        assert accepts_transformer(again, w) == accepts_transformer(model, w)


# `_two_wide_model` as the format-1 writer saved it (dense rows, no "format"
# key), re-dumped without indentation.
V1_TWO_WIDE = (
    '{"width":2,"alphabet":["a","b"],"embedding":{"a":["1","0"],"b":["0","1"]},'
    '"position_embeddings":[],"layers":[{"heads":[{"mask":"j>=i","tiebreak":"leftmost",'
    '"score":[["0","1/3"],["-2","0"]],"value":[["1","0"],["0","-1/7"]],"value_bias":["5","0"]}],'
    '"ffn":{"w1":[["1","-1"]],"b1":["2"],"w2":[["1"],["3"]],"b2":["0","-1/2"]}}],'
    '"output":{"weights":["1","0"],"bias":"-1/2"}}'
)


def test_format_1_file_loads_and_resaves_as_format_2():
    model = _two_wide_model()
    old = transformer_from_json(V1_TWO_WIDE)
    for w in ["a", "b", "ab", "ba", "abba", "bbab"]:
        assert accepts_transformer(old, w) == accepts_transformer(model, w)
        want = run_transformer(model, w)
        got = run_transformer(old, w)
        assert got.layers[0].choices == want.layers[0].choices
        assert got.final == want.final
    text = transformer_to_json(old)
    assert json.loads(text)["format"] == 2
    assert text == transformer_to_json(model)
    assert transformer_to_json(transformer_from_json(text)) == text


def test_v2_matrices_are_shape_and_sorted_triples():
    payload = json.loads(transformer_to_json(_two_wide_model()))
    head = payload["layers"][0]["heads"][0]
    assert head["score"] == {"shape": [2, 2], "entries": [[0, 1, "1/3"], [1, 0, "-2"]]}
    assert payload["layers"][0]["ffn"]["w2"] == {"shape": [2, 1], "entries": [[0, 0, "1"], [1, 0, "3"]]}


def test_dense_views_keep_their_shape():
    model = _two_wide_model()
    head, ffn = model.layers[0].heads[0], model.layers[0].ffn
    assert head.score_matrix == ((0, F(1, 3)), (-2, 0))
    assert head.value_matrix == ((1, 0), (0, F(-1, 7)))
    assert ffn.w1 == ((1, -1),)
    assert ffn.w2 == ((1,), (3,))
    assert FeedForward.zero(3).w1 == () and FeedForward.zero(3).w2 == ((), (), ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: SparseMatrix(2, 2, [(2, 0, 1)]),
        lambda: SparseMatrix(2, 2, [(0, -1, 1)]),
        lambda: SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)]),
        lambda: AttentionHead(SparseMatrix(2, 2), MaskKind.NONE, LEFTMOST, SparseMatrix(1, 2)),
        lambda: AttentionHead(SparseMatrix(2, 2), MaskKind.NONE, LEFTMOST, SparseMatrix(2, 2), (1,)),
        lambda: FeedForward(SparseMatrix(1, 2), (1, 2), SparseMatrix(2, 1), (0, 0)),
        lambda: FeedForward(SparseMatrix(1, 2), (1,), SparseMatrix(2, 2), (0, 0)),
        lambda: FeedForward(SparseMatrix(1, 2), (1,), SparseMatrix(2, 1), (0,)),
        lambda: Transformer(2, AB, {"a": (1, 0), "b": (0,)}, []),
        lambda: Transformer(2, AB, _one_hot_embedding(), [], OutputLayer((1,), 0)),
        lambda: Transformer(3, AB, _one_hot_embedding(3), [TransformerLayer([_copy_head(MaskKind.NONE, LEFTMOST)], FeedForward.zero(3))]),
        lambda: Transformer(2, AB, _one_hot_embedding(), [TransformerLayer([_copy_head(MaskKind.NONE, LEFTMOST)], FeedForward.zero(3))]),
    ],
)
def test_shapes_are_checked_at_construction(build):
    with pytest.raises(TransformerError):
        build()

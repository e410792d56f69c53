"""Value-set enumeration and transformer-to-program translation."""

import hashlib
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


# sha256 of program_to_text(decompile(model, variant)), shallower then smaller.
DECOMPILED_SHA256 = {
    ("dyck", "naive"): (
        "66e6d94eabba8a66c2d6524d985aca250782e1068cd3714d420e9ebdf2b81120",
        "8bfcd66a43a653232ccf2bcb07e7ebd8269db32379805d0a25cfab0774303f4e",
    ),
    ("parity_mod", "naive"): (
        "07a038d8520b9890d9eaeb167caba3697c082ee004183e86419aa32f43f40cdb",
        "fb8fafc8996003064a6ac4839045c708a1a8b75c4bc80952f41f03c3602591d7",
    ),
    ("phi1", "naive"): (
        "1b54cc9f5bdcbb1baea6649f3904543c2486f26932260064160737fab8c8c2a6",
        "e1ab8fd350346be9e331301c6882289d65b0818ba6d60a9c49075527e8605fa5",
    ),
    ("phi1", "depth"): (
        "7c7f5cd49e53d1cf7fb718c24d6e3e3459afe01fb1a1a67c3834dff83dbcf45f",
        "7c7f5cd49e53d1cf7fb718c24d6e3e3459afe01fb1a1a67c3834dff83dbcf45f",
    ),
    ("phi2", "naive"): (
        "d8314e03f56e5ca8544d36e77634b7b7e887a7f31e370368000f455ab1fa0e6d",
        "c901eadbc7890e5ebdea02541d69d8c524fb094086867c755aaf650502eacd3e",
    ),
    ("phi2", "depth"): (
        "47bffac7334f9c66eda2ba8d9bf05747ab532817689fa67da866519efd08084d",
        "f95942e4fcd459ebe54fccb5a6802c58f0837e01317fbbfddc76306f48f34d5c",
    ),
    ("phi3", "naive"): (
        "2c54e3cdd6e5b869cf73c10dff736715f60b6d11bb8b22191efbe1ae40f61284",
        "f7b1c1ed09f091d07d006073ba1e3780b46ecce498f5a951a7e28e216a0c5ada",
    ),
    ("phi3", "depth"): (
        "3b3f8646e56c45b6932877303b0a08a017fa989c8d8d8d0c8e2ccb3211321c8d",
        "1e34b23da1bc290ed2265df8c3e36ef66db1d9df5bcfcfa3ff0ec78a83c075d7",
    ),
    ("phi4", "naive"): (
        "924814fa99bb7a4ce33b6371b3ae81b69f6d38b94615f47c9490d07c4a898b97",
        "f727085a245410f2b49521942b55a8aff5ca002b04e8fe40af9969279fff75a5",
    ),
    ("phi4", "depth"): (
        "be7b39f1e713e81da1833cc828443816d533c63a1df17e0b74c61fb07e630ce1",
        "db8e78e7719286e2ff84c37b3de07b08c8a774bdc08d5df8d0fe33095b0e3b38",
    ),
    ("random_nonstrict:3:1", "naive"): (
        "bba0bd13a1445c755287105b5dd340a441ed07f010c319b4c0743a38110b54a6",
        "55ba888a058f1db6f50d1ba753b1e28da7dd122649aea3739cc48c070da6a191",
    ),
    ("random_nonstrict:3:1", "depth"): (
        "d3bc4a1242239e063a19bec1e7f17e116f8c795cec0c018191781a8c39cc6ae1",
        "18b4632c440a6c9b6139ee04b75b109f8ce27f9422ba6d8dcebc188e500476bc",
    ),
    ("random_nonstrict:3:5", "naive"): (
        "0a31a09fafea0d0f7c1f9de1d8415b3beb5b70f35bba9e446a01d54ca214be98",
        "728784cf3206f2e7105c3b910cdfb9c093c598de2562fcfbbb45aa40e9de5057",
    ),
    ("random_nonstrict:3:5", "depth"): (
        "5a5a1716948fcc47ca6bdb7ab5891747d10a6494d96cc00d5499e93d7d64fbd9",
        "e61e6fe30b65103e89629c48d9bc4eb9fdb347220f7ea5e11cc5f18cf898a436",
    ),
    ("random_nonstrict:3:6", "naive"): (
        "390e449bd43ada71a2e751eb41e0f9fe6c74fea7d480ce46c700f0ce1f5d90a3",
        "c8ea9e3d6df95eee1ffdc7e179b324528dc9a6dd9d38a462b4b2f5629b43f4e8",
    ),
    ("random_nonstrict:3:7", "naive"): (
        "c440ea49efc0dabbf3896a5506b203032a383338f281c719ba429ca7c91745a7",
        "f7647b72b88163252d11c3de0e7e55c33934c9b01fc5bc1bf492745a72f5dec0",
    ),
    ("random_nonstrict:3:7", "depth"): (
        "4813ba5c37188e919930d9efb0b0fa06c59d0ac9655a02a176eb2d68b8305660",
        "8b3fbd6ed5e96338fdf1b6e7ff37fa6bdfa5d2b58b1db93856f375dcc4ee76c0",
    ),
}


def _decompiled_source(key: str):
    if key.startswith("random_nonstrict:"):
        _, max_ops, seed = key.split(":")
        return testkit.random_nonstrict_program(int(seed), max_ops=int(max_ops))
    if key.startswith("phi"):
        return ltl.ltl_to_brasp(corpus.phi(int(key[3:])))
    return corpus.corpus().programs[key]()


def test_decompiled_programs_are_pinned():
    compile_fns = {"naive": compile_naive, "depth": compiler.compile_depth_preserving}
    drifted = []
    for (key, kind), digests in DECOMPILED_SHA256.items():
        model = compile_fns[kind](_decompiled_source(key))
        for variant, digest in zip(("shallower", "smaller"), digests):
            text = brasp.program_to_text(decompile(model, variant))
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                drifted.append((key, kind, variant))
    assert drifted == []

"""Program-to-transformer compilation, both constructions."""

import hashlib
import itertools
import random

import pytest

from starfree import boolexpr as bx
from starfree import brasp, compiler, corpus, ltl, normalform, testkit
from starfree import transformer as tf
from starfree.brasp import (
    Accept,
    Alphabet,
    Attention,
    BraspOp,
    BraspProgram,
    MaskKind,
    Positionwise,
)
from starfree.compiler import (
    CompileError,
    compile_depth_preserving,
    compile_naive,
    decompose_score,
    ffn_from_writes,
)

from test_boolexpr import random_tree


def _diff(model, prog, bound, preds=None):
    report = testkit.diff_languages(
        testkit.transformer_recognizer(model),
        testkit.program_recognizer(prog, preds),
        prog.alphabet,
        bound,
    )
    assert report.ok, report.summary()


def _check_simulation(model, prog, words, preds=None):
    """Every vector of the normalized program is tracked by its coordinate."""
    src = model.source_program
    for w in words:
        trace = brasp.eval(src, w, preds)
        run = tf.run_transformer(model, w)
        final = run.final
        for name, coord in model.coord_of.items():
            for i in range(1, trace.n + 1):
                assert final[i - 1][coord] == trace.value(name, i), (w, name, i)


def test_score_decomposition_recombines():
    cases = [
        bx.TRUE,
        bx.Var("A", "j"),
        bx.conj([bx.Var("A", "i"), bx.Var("B", "j")]),
        bx.disj(
            [
                bx.conj([bx.Var("A", "i"), bx.Var("B", "j")]),
                bx.conj([bx.neg(bx.Var("A", "i")), bx.Var("C", "j")]),
            ]
        ),
        bx.iff(bx.Var("A", "i"), bx.Var("B", "j")),
    ]
    for score in cases:
        dec = decompose_score(score)
        atoms = list(dec.query_atoms) + list(dec.key_atoms)
        for bits in range(1 << len(atoms)):
            assign = {a: bool(bits >> k & 1) for k, a in enumerate(atoms)}
            want = bx.eval_bool(score, lambda a: assign[a])
            hits = [
                bx.eval_bool(alpha, lambda a: assign[a]) and bx.eval_bool(beta, lambda a: assign[a])
                for alpha, beta in dec.conjuncts
            ]
            assert sum(hits) <= 1
            assert any(hits) == want


def test_score_decomposition_cap():
    score = bx.disj([bx.Var(f"A{k}", "j") for k in range(17)])
    with pytest.raises(CompileError):
        decompose_score(score)


def test_ffn_from_writes_boolean_function():
    expr = bx.disj([bx.conj([compiler.catom(0), compiler.catom(1)]), bx.neg(compiler.catom(2))])
    ffn = ffn_from_writes(4, {3: expr})
    for bits in range(8):
        x = [bits & 1, bits >> 1 & 1, bits >> 2 & 1, 0]
        want = (x[0] and x[1]) or not x[2]
        y = [a + d for a, d in zip(x, ffn.apply(x))]
        assert y[3] == int(want)
        assert y[:3] == x[:3]
    # Seeded random writes over up to 10 input coordinates, each a connective
    # of three random trees, against the reference evaluator on every
    # assignment of the inputs.
    for seed in range(16):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        inputs = [compiler.catom(c) for c in range(n)]
        writes = {
            n + k: rng.choice((bx.And, bx.Or))(tuple(random_tree(rng, inputs, 4) for _ in range(3)))
            for k in range(rng.randint(1, 3))
        }
        ffn = ffn_from_writes(n + len(writes), writes)
        for bits in range(1 << n):
            x = [bits >> c & 1 for c in range(n)] + [0] * len(writes)
            y = [a + d for a, d in zip(x, ffn.apply(x))]
            assert y[:n] == x[:n]
            for c, expr in writes.items():
                assert y[c] == int(bx.eval_bool(expr, lambda a: x[int(a.name[1:])])), (seed, bits, c)


def test_naive_dyck_language_equal():
    prog = corpus.dyck_program()
    _diff(compile_naive(prog), prog, 8)


def test_naive_simulation_invariant_dyck():
    prog = corpus.dyck_program()
    model = compile_naive(prog)
    words = ["l", "r", "lr", "llrr", "llrrllrlrr", "lrrlllrrrl", "rllr"]
    _check_simulation(model, prog, words)


def test_naive_single_positionwise_is_one_layer_with_identity_attention():
    prog = brasp.parse_program("alphabet: a b\nP(i) := !Q_a(i)\noutput: P\n")
    model = compile_naive(prog)
    assert model.depth == 1
    head = model.layers[0].heads[0]
    assert all(v == 0 for row in head.value_matrix for v in row)
    _diff(model, prog, 6)


def test_naive_layer_count_formula():
    # After normalization: one layer per position-wise op, two per attention op.
    for prog in [corpus.dyck_program(), ltl.ltl_to_brasp(corpus.phi(4), corpus.PHI_ALPHABET)]:
        model = compile_naive(prog)
        src = model.source_program
        n_att = sum(1 for op in src.ops if isinstance(op.body, Attention))
        n_pos = len(src.ops) - n_att
        assert model.depth == 2 * n_att + n_pos


def test_naive_compiles_translated_formulas():
    for name in ["phi1", "phi2", "phi4"]:
        entry = corpus.corpus().languages[name]
        prog = ltl.ltl_to_brasp(entry.formula(), entry.alphabet)
        model = compile_naive(prog)
        report = testkit.diff_languages(
            testkit.transformer_recognizer(model),
            entry.oracle,
            entry.alphabet,
            6,
        )
        assert report.ok, report.summary()


def test_naive_transducer_compiles_without_output_layer():
    prog = corpus.recall_program()
    model = compile_naive(prog)
    assert model.output is None
    tokens = list(corpus.expected_trace("recall").input_tokens)
    _check_simulation(model, prog, [tokens])


def test_naive_mixed_score_program():
    # Query-and-key score forces the whole pipeline through specialization.
    op = BraspOp(
        "P",
        Attention(
            brasp.RIGHTMOST,
            MaskKind.FUTURE,
            bx.iff(bx.Var("Q_a", "i"), bx.Var("Q_a", "j")),
            bx.Var("Q_b", "j"),
            bx.Var("Q_a", "i"),
        ),
    )
    prog = BraspProgram(Alphabet(("a", "b")), (op,), Accept("P"))
    model = compile_naive(prog)
    _diff(model, prog, 7)


def test_naive_unsatisfiable_score_falls_back_to_default():
    op = BraspOp(
        "P",
        Attention(brasp.RIGHTMOST, MaskKind.FUTURE, bx.FALSE, bx.TRUE, bx.Var("Q_a", "i")),
    )
    prog = BraspProgram(Alphabet(("a", "b")), (op,), Accept("P"))
    _diff(compile_naive(prog), prog, 6)


def test_tiebreak_against_program_semantics_randomized():
    rng = random.Random(20240)
    names = ["Q_a", "Q_b"]
    for trial in range(30):
        direction = rng.choice((brasp.LEFTMOST, brasp.RIGHTMOST))
        mask = rng.choice(list(MaskKind))

        def rand_expr(pos):
            table = rng.randrange(16)
            terms = []
            for k, (va, vb) in enumerate(itertools.product((0, 1), repeat=2)):
                if table >> k & 1:
                    lits = [
                        bx.Var(names[0], pos) if va else bx.neg(bx.Var(names[0], pos)),
                        bx.Var(names[1], pos) if vb else bx.neg(bx.Var(names[1], pos)),
                    ]
                    terms.append(bx.conj(lits))
            return bx.disj(terms)

        default = bx.Const(bool(rng.getrandbits(1)))
        op = BraspOp(
            "P",
            Attention(direction, mask, rand_expr("j"), rand_expr("j"), default),
        )
        prog = BraspProgram(Alphabet(("a", "b")), (op,), Accept("P"))
        model = compile_naive(prog)
        _diff(model, prog, 5)


def test_depth_preserving_dyck():
    prog = corpus.dyck_program()
    model = compile_depth_preserving(prog)
    assert model.depth == brasp.attention_depth(prog) == 3
    _diff(model, prog, 8)


def test_depth_preserving_depth_zero_program():
    prog = brasp.parse_program("alphabet: a b\nP(i) := Q_a(i) & !Q_b(i)\noutput: P\n")
    model = compile_depth_preserving(prog)
    assert model.depth == 0
    _diff(model, prog, 6)


def test_depth_preserving_stair_chain():
    for k in (1, 2):
        f = testkit.stair_formula(k)
        prog = ltl.ltl_to_brasp(f, testkit.STAIR_ALPHABET)
        model = compile_depth_preserving(prog)
        assert model.depth == ltl.temporal_depth(f) == k
        report = testkit.diff_languages(
            testkit.transformer_recognizer(model),
            testkit.stair_oracle(k),
            testkit.STAIR_ALPHABET,
            6,
        )
        assert report.ok, report.summary()


def test_depth_preserving_simulates_output_vector():
    prog = corpus.dyck_program()
    model = compile_depth_preserving(prog)
    for w in ["lr", "llrr", "rl", "llrrllrlrr"]:
        trace = brasp.eval(prog, w)
        final = tf.run_transformer(model, w).final
        coord = model.coord_of["Y"]
        for i in range(1, trace.n + 1):
            assert final[i - 1][coord] == trace.value("Y", i)


# sha256 of each program's depth-preserving weight file: the construction's
# layout, down to head order and hidden-unit order, must not drift. Keys are
# corpus programs, the corpus formulas through `ltl_to_brasp` (`mid` needs a
# predicate family, `dyck_since` exceeds `FFN_SUPPORT_CAP` after seconds), and
# `random_nonstrict:<max_ops>:<seed>`.
DEPTH_PRESERVING_SHA256 = {
    "dyck": "117a24dbcee06b27d8b863433d39d96a02cfe48ba0c9b3a34c73e3de51dc0ae8",
    "dyck_nonstrict": "163abb27f81ed8386284d40233e6357df540f428a07c1b055a839b96b041fc5a",
    "phi1": "4e805026aae65a8d5b1151aca6cf9803cd4c1a0949fbd0bedb40fadcbe3ea505",
    "phi2": "7985faf7edfefa96ad6128f6959b81ec0868735b3dfe30079cd92bd4da9af911",
    "phi3": "adcb1d9db435bafb83f22d7576c9702c94bad3f33238ad104cf4071a2d15e70e",
    "phi4": "a441d1bd91075e2cbc7e5a88210388ca06686d4b6010f3c67b4f3b7215e058d7",
    "ab_star": "e2261fe6218c252ec19a6cbf27206150d93d5ddd4539cedcab7b099fd637defd",
    "apbp_star": "36e87a9753af04f6517c81581359a0d06ffcba941af7b7e9a4794c1871e36a42",
    "stair_1": "3975b3c8a682b3fd5595a92203dc873aebb4f50f245221a7a98a7946f08a20a5",
    "stair_2": "1a9c3e61456f10caa4aa79959a4d6c8a19bbdb6309322a49739688fba53ef6a7",
    "stair_3": "a36ef0a4572db7c90fae52b90e5d9f99d655f4799451cb6a4120fdd249467b6d",
    "stair_4": "9921371bd7fbaadebe4d7f6b167718e8dc5af7f79276222e1b32efd42a7c1055",
    "random_nonstrict:6:0": "74506a30fe674c9f67220ae6d95f50293269428e2324209c91f078de6c1ce086",
    "random_nonstrict:6:1": "85463b490d3aaa7cba1d37b3450db4f0d6a7d3ec824d9bfca1ef30e6790d7400",
    "random_nonstrict:6:2": "99c3000027eec7e7ef4d9f13097b5e870071e17ed3fa856ec9ecf5082f455bb4",
    "random_nonstrict:6:4": "1ac11d4b03e8456db533501b7d16259835a38b256c3af9db98e748ccc0aa60fd",
    "random_nonstrict:6:5": "7f763ed6375e35b1be78646817f45f59013e7a83def26bbf6a2b0bd6184481ab",
    "random_nonstrict:6:8": "9d3b3d44d3f87020892bc92ec1465e32b94fbd611242c5d120a2a4691538d8fd",
    "random_nonstrict:6:11": "e435baab8604e520b8f8a98ab6426926c60254b2ea6bfceb4993f211a72699d9",
    "random_nonstrict:6:42": "0b0b4972f10e71d31fec4d46444ce7e3f26d26447a5a28c0b32e3dd1b05a254f",
    "random_nonstrict:6:73": "989cc4e03354f6b95bb9eafb1be25117abeb0601b287063f3bfbdc1eb8b579af",
    "random_nonstrict:6:227": "a95759492219b402482355c7a8268c056005f7707fce42a596bb8bfd7cb53a90",
    "random_nonstrict:3:1": "246b0f9dd586ead315391487a012bdcff3c79cb3ab67bd5c50ad695d6b44585e",
    "random_nonstrict:3:5": "b37f4b085de546bb512837bfe71145970254f0283782871260395c17b9624a58",
    "random_nonstrict:3:6": "fd06855d9013c1236c941a5f58b2d1c70ae3b7250b9ac1ccf6ad32369ed944f4",
    "random_nonstrict:3:7": "2de02f295cf3cad291010c717891021bcc5b2bdc97fee6d238b3ccf09424f110",
    "random_nonstrict:3:10": "43385549ad41e7b440abf9e0dad1c61473ad40e527809c460cdb81691c124859",
    "random_nonstrict:3:11": "1f36b6ab2529a563d944a1ef0a9c0b3d494dc67f9a0bbcbbee7277c6b4e1ae31",
    "random_nonstrict:3:12": "9af8e52ead22acd520377c0da78fcf34823b0382d95494aaff6d86792c2fc76f",
    "random_nonstrict:3:27": "5bfa1bcd06466318a7a695d8cfb54b125429c06f4d751cc0ca9e09f1b55ae83c",
    "random_nonstrict:3:44": "4b448c5c0cec817e0bc6c8cfcc9c85110f86073f4d3eceeff2279253d4d99fb0",
}


def _pinned_program(key: str):
    if key == "dyck":
        return corpus.dyck_program()
    if key == "dyck_nonstrict":
        return corpus.nonstrict_variant(corpus.dyck_program())
    if key.startswith("random_nonstrict:"):
        _, max_ops, seed = key.split(":")
        return testkit.random_nonstrict_program(int(seed), max_ops=int(max_ops))
    return ltl.ltl_to_brasp(corpus.corpus().formulas[key]())


def test_depth_preserving_weight_files_are_pinned():
    drifted = []
    for key, digest in DEPTH_PRESERVING_SHA256.items():
        text = tf.transformer_to_json(compile_depth_preserving(_pinned_program(key)))
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            drifted.append(key)
    assert drifted == []


def test_depth_preserving_lowers_each_feed_forward_net_once(monkeypatch):
    calls = []
    lower = compiler.ffn_from_writes

    def counted(width, writes):
        calls.append(width)
        return lower(width, writes)

    monkeypatch.setattr(compiler, "ffn_from_writes", counted)
    model = compile_depth_preserving(corpus.dyck_program())
    assert calls == [model.width] * model.depth
    assert model.depth == 3


def test_depth_preserving_rejects_predicate_families():
    with pytest.raises(CompileError):
        compile_depth_preserving(corpus.parity_mod_program())


def test_naive_with_predicate_families():
    prog = corpus.parity_mod_program()
    model = compile_naive(prog)
    report = testkit.diff_languages(
        testkit.transformer_recognizer(model),
        corpus.ORACLES["aa_star"],
        prog.alphabet,
        12,
    )
    assert report.ok, report.summary()


def test_weight_round_trip_of_compiled_model():
    prog = corpus.dyck_program()
    model = compile_naive(prog)
    text = tf.transformer_to_json(model, getattr(model, "coord_doc", None))
    again = tf.transformer_from_json(text)
    for w in ["lr", "llrr", "lrrlllrrrl"]:
        assert tf.accepts_transformer(again, w) == tf.accepts_transformer(model, w)


def test_weight_files_round_trip_every_corpus_model():
    for make in corpus.corpus().programs.values():
        prog = make()
        models = [compile_naive(prog)]
        if not prog.predicate_families:
            models.append(compile_depth_preserving(prog))
        models += [tf.apply_layernorm_encoding(m) for m in models]
        for model in models:
            text = tf.transformer_to_json(model)
            assert tf.transformer_to_json(tf.transformer_from_json(text)) == text


def _dense_weight_counts(model) -> tuple:
    """(nonzero, total) scalars over every weight vector and dense matrix view."""
    vectors = [list(v) for v in model.embedding.values()]
    for layer in model.layers:
        for head in layer.heads:
            vectors += [list(r) for r in head.score_matrix + head.value_matrix]
            if head.value_bias is not None:
                vectors.append(list(head.value_bias))
        ffn = layer.ffn
        vectors += [list(r) for r in ffn.w1 + ffn.w2] + [list(ffn.b1), list(ffn.b2)]
    if model.output is not None:
        vectors.append(list(model.output.weights))
    return sum(1 for vec in vectors for v in vec if v != 0), sum(len(vec) for vec in vectors)


@pytest.mark.parametrize(
    "make, compile_fn, counts",
    [
        (corpus.dyck_program, compile_naive, (297, 41592)),
        (corpus.parity_mod_program, compile_naive, (4, 34)),
        (corpus.dyck_program, compile_depth_preserving, (4027, 398877)),
    ],
)
def test_dense_weight_counts_are_pinned(make, compile_fn, counts):
    assert _dense_weight_counts(compile_fn(make())) == counts

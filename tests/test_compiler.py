"""Program-to-transformer compilation, both constructions."""

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
            got = dec.evaluate(lambda a: assign[a])
            assert got == want


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

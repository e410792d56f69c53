"""Formula semantics, depth, and both translation directions."""

import itertools

import pytest

from starfree import brasp, corpus, ltl, normalform, testkit
from starfree.brasp import Attention, MaskKind, Positionwise

from brute import brute_ltl_holds


def test_phi1_at_last_position():
    assert ltl.ltl_eval(corpus.phi(1), "ab#", 3) is True
    assert ltl.ltl_accepts(corpus.phi(1), "ab#") is True


def test_phi4_hand_checked_instance():
    assert ltl.ltl_eval(corpus.phi(4), "#a#b#", 5) is True


def test_since_length_two():
    f = ltl.since(ltl.atom("a"), ltl.atom("b"))
    assert ltl.ltl_eval(f, "ba", 2) is True


def test_position_out_of_range():
    with pytest.raises(ltl.LtlError):
        ltl.ltl_eval(corpus.phi(1), "ab#", 4)


def test_accepts_examples():
    assert ltl.ltl_accepts(corpus.phi(2), "a#bb#") is True
    assert ltl.ltl_accepts(corpus.phi(2), "a#ba#") is False
    assert ltl.ltl_accepts(corpus.phi(1), "#") is True


def test_empty_input_rejected():
    with pytest.raises(ltl.LtlError):
        ltl.ltl_accepts(corpus.phi(1), "")


def test_eval_matches_brute_force_semantics():
    formulas = [
        corpus.phi(2),
        corpus.phi(4),
        ltl.since_ns(ltl.atom("a"), ltl.atom("b")),
        ltl.until_ns(ltl.atom("b"), ltl.atom("#")),
        ltl.until(ltl.not_(ltl.atom("a")), ltl.atom("#")),
    ]
    for f in formulas:
        for n in range(1, 6):
            for tup in itertools.product("ab#", repeat=n):
                w = "".join(tup)
                for i in range(1, n + 1):
                    assert ltl.ltl_eval(f, w, i) == brute_ltl_holds(f, w, i), (w, i)


def test_formula_round_trip_through_text():
    for name in ["phi2", "phi4", "mid", "ab_star", "apbp_star"]:
        f = corpus.corpus().formulas[name]()
        again = ltl.parse_formula(ltl.formula_to_text(f))
        assert ltl.formula_to_text(again) == ltl.formula_to_text(f)
    from test_interpreters import random_formula

    for seed in range(50):
        text = ltl.formula_to_text(random_formula(seed))
        assert ltl.formula_to_text(ltl.parse_formula(text)) == text, seed


def test_formula_precedence_and_associativity():
    f = ltl.parse_formula("!Qa & Qb | Qa S Qb U' !(Qa)")
    assert ltl.formula_to_text(f) == "(!Qa & Qb | Qa) S (Qb U' !Qa)"
    for text in ("Qa:b", "PRED:MOD?"):  # separators end a symbol or family name
        with pytest.raises(ltl.LtlError, match="offset"):
            ltl.parse_formula(text)


def test_texts_round_trip_for_a_symbol_that_is_no_separator():
    f = ltl.and_(ltl.atom("#"), ltl.since(ltl.atom("a"), ltl.not_(ltl.atom("#"))))
    text = ltl.formula_to_text(f)
    assert text == "Q# & (Qa S !Q#)"
    assert ltl.formula_to_text(ltl.parse_formula(text)) == text
    prog = ltl.ltl_to_brasp(f)
    assert "Q_#(i)" in brasp.program_to_text(prog)
    again = brasp.parse_program(brasp.program_to_text(prog))
    assert again == prog
    for w in ["#", "a#", "#a#", "#aa", "a"]:
        assert brasp.accepts(again, w) == ltl.ltl_accepts(f, w)


def test_temporal_depth():
    assert ltl.temporal_depth(ltl.atom("a")) == 0
    assert ltl.temporal_depth(corpus.phi(3)) == 2
    # Depth of the staircase chain grows by one per level.
    for k in range(1, 5):
        assert ltl.temporal_depth(testkit.stair_chain(k)) == k - 1
        assert ltl.temporal_depth(testkit.stair_formula(k)) == k


def test_oracle_sanity():
    assert corpus.ORACLES["phi1"]("ab#")
    assert corpus.ORACLES["phi2"]("a#bb#")
    assert not corpus.ORACLES["phi2"]("a#ba#")
    assert corpus.ORACLES["phi4"]("#a#b#")
    assert not corpus.ORACLES["phi4"]("a#b#")


def test_ltl_to_brasp_since_shape():
    f = ltl.since(ltl.atom("b"), ltl.atom("#"))
    prog = ltl.ltl_to_brasp(f, corpus.PHI_ALPHABET)
    att = [op for op in prog.ops if isinstance(op.body, Attention)]
    assert len(att) == 1
    body = att[0].body
    assert body.direction == brasp.RIGHTMOST
    assert body.mask is MaskKind.FUTURE
    assert brasp.attention_depth(prog) == 1


def test_ltl_to_brasp_atom_is_positionwise_copy():
    prog = ltl.ltl_to_brasp(ltl.atom("a"), corpus.AB_ALPHABET)
    assert all(isinstance(op.body, Positionwise) for op in prog.ops)
    assert brasp.attention_depth(prog) == 0


def test_ltl_to_brasp_memoizes_shared_subformulas():
    shared = ltl.since(ltl.atom("a"), ltl.atom("b"))
    f = ltl.and_(shared, ltl.not_(shared))
    prog = ltl.ltl_to_brasp(f, corpus.AB_ALPHABET)
    att = [op for op in prog.ops if isinstance(op.body, Attention)]
    assert len(att) == 1


def test_until_free_mode():
    f = ltl.until(ltl.atom("a"), ltl.atom("b"))
    with pytest.raises(ltl.LtlError):
        ltl.ltl_to_brasp(f, corpus.AB_ALPHABET, until_free=True)
    ltl.ltl_to_brasp(corpus.phi(4), corpus.PHI_ALPHABET, until_free=True)


def _diff_formula_vs_program(f, alphabet, bound, preds=None):
    prog = ltl.ltl_to_brasp(f, alphabet)
    report = testkit.diff_languages(
        testkit.formula_recognizer(f, preds, alphabet=alphabet),
        testkit.program_recognizer(prog, preds),
        alphabet,
        bound,
    )
    assert report.ok, report.summary()


def test_phi4_translation_exhaustive():
    _diff_formula_vs_program(corpus.phi(4), corpus.PHI_ALPHABET, 7)


def test_translation_handles_until_and_nonstrict():
    formulas = [
        ltl.until(ltl.atom("b"), ltl.atom("a")),
        ltl.since_ns(ltl.atom("a"), ltl.atom("b")),
        ltl.until_ns(ltl.not_(ltl.atom("a")), ltl.atom("b")),
        ltl.and_(ltl.since(ltl.TRUE, ltl.atom("a")), ltl.not_(ltl.until(ltl.TRUE, ltl.atom("b")))),
    ]
    for f in formulas:
        _diff_formula_vs_program(f, corpus.AB_ALPHABET, 6)


def test_brasp_to_ltl_positionwise_only():
    prog = brasp.parse_program("alphabet: a\nP(i) := Q_a(i)\noutput: P\n")
    f = ltl.brasp_to_ltl(prog)
    assert isinstance(f, ltl.Atom) and f.symbol == "a"


def test_brasp_to_ltl_predecessor_vector():
    text = "alphabet: l r\nP_l(i) := [rightmost, j<i] 1 ? Q_l(j) : 0\noutput: P_l\n"
    prog = brasp.parse_program(text)
    f = ltl.brasp_to_ltl(prog)

    def oracle(w):
        return len(w) >= 2 and w[-2] == "l"

    report = testkit.diff_languages(
        testkit.formula_recognizer(f),
        oracle,
        corpus.LR_ALPHABET,
        6,
    )
    assert report.ok, report.summary()


def test_brasp_to_ltl_dyck_exhaustive():
    f = ltl.brasp_to_ltl(corpus.dyck_program())
    report = testkit.diff_languages(
        testkit.formula_recognizer(f, alphabet=corpus.LR_ALPHABET),
        corpus.ORACLES["dyck"],
        corpus.LR_ALPHABET,
        8,
    )
    assert report.ok, report.summary()


def test_brasp_to_ltl_rejects_transducer():
    with pytest.raises(ltl.LtlError):
        ltl.brasp_to_ltl(corpus.recall_program())


def _mask_coverage_programs():
    """One single-attention program per (mask, direction) pair."""
    import starfree.boolexpr as bx
    from starfree.brasp import Accept, Alphabet, BraspOp, BraspProgram

    progs = []
    for mask in MaskKind:
        for direction in (brasp.LEFTMOST, brasp.RIGHTMOST):
            op = BraspOp(
                "P",
                Attention(
                    direction,
                    mask,
                    bx.Var("Q_b", "j"),
                    bx.Var("Q_a", "j"),
                    bx.Var("Q_a", "i"),
                ),
            )
            progs.append(BraspProgram(Alphabet(("a", "b")), (op,), Accept("P")))
    return progs


def test_brasp_to_ltl_covers_every_mask_direction():
    for prog in _mask_coverage_programs():
        f = ltl.brasp_to_ltl(prog)
        report = testkit.diff_languages(
            testkit.formula_recognizer(f, alphabet=corpus.AB_ALPHABET),
            testkit.program_recognizer(prog),
            corpus.AB_ALPHABET,
            7,
        )
        assert report.ok, (prog.ops[0].body.mask, prog.ops[0].body.direction, report.summary())


# Formula texts for `_mask_coverage_programs`: score Qb, value Qa, default Qa.
PINNED_BRASP_TO_LTL = {
    ("none", "leftmost"): "(1 S' Qb) & (1 S' Qb & Qa & !(1 S' Qb & !Qa)) | !(1 S' Qb) & (1 U' Qb) & (!Qb U' Qb & Qa) | !(1 S' Qb) & !(1 U' Qb) & Qa",
    ("none", "rightmost"): "(1 U' Qb) & (1 U' Qb & Qa & !(1 U' Qb & !Qa)) | !(1 U' Qb) & (1 S' Qb) & (!Qb S' Qb & Qa) | !(1 U' Qb) & !(1 S' Qb) & Qa",
    ("j<i", "leftmost"): "(1 S (Qb & !(1 S Qb)) & Qa) | !(1 S Qb) & Qa",
    ("j<i", "rightmost"): "(!Qb S Qb & Qa) | !(1 S Qb) & Qa",
    ("j>i", "leftmost"): "(!Qb U Qb & Qa) | !(1 U Qb) & Qa",
    ("j>i", "rightmost"): "(1 U (Qb & !(1 U Qb)) & Qa) | !(1 U Qb) & Qa",
    ("j<=i", "leftmost"): "(1 S' Qb & Qa & !(1 S' Qb & !Qa)) | !(1 S' Qb) & Qa",
    ("j<=i", "rightmost"): "(!Qb S' Qb & Qa) | !(1 S' Qb) & Qa",
    ("j>=i", "leftmost"): "(!Qb U' Qb & Qa) | !(1 U' Qb) & Qa",
    ("j>=i", "rightmost"): "(1 U' Qb & Qa & !(1 U' Qb & !Qa)) | !(1 U' Qb) & Qa",
}
# The strict rendering of the unmasked case (`nonstrict_none=False`).
PINNED_STRICT_UNMASKED = {
    "leftmost": "((1 S (Qb & !(1 S Qb)) & Qa) | (Qb & !(1 S Qb)) & Qa | (1 U (Qb & !(1 S Qb)) & Qa)) | !((1 S Qb) | Qb | (1 U Qb)) & Qa",
    "rightmost": "((1 S (Qb & !(1 U Qb)) & Qa) | (Qb & !(1 U Qb)) & Qa | (1 U (Qb & !(1 U Qb)) & Qa)) | !((1 S Qb) | Qb | (1 U Qb)) & Qa",
}


def test_brasp_to_ltl_pinned_text_per_mask_direction():
    for prog in _mask_coverage_programs():
        body = prog.ops[0].body
        text = ltl.formula_to_text(ltl.brasp_to_ltl(prog))
        assert text == PINNED_BRASP_TO_LTL[(body.mask.value, body.direction)]
        if body.mask is MaskKind.NONE:
            text = ltl.formula_to_text(ltl.brasp_to_ltl(prog, nonstrict_none=False))
            assert text == PINNED_STRICT_UNMASKED[body.direction]


@pytest.mark.parametrize(
    "formula, attention",
    [
        ("Qa S Qb", "[rightmost, j<i]"),
        ("Qa S' Qb", "[rightmost, j<=i]"),
        ("Qa U Qb", "[leftmost, j>i]"),
        ("Qa U' Qb", "[leftmost, j>=i]"),
    ],
)
def test_ltl_to_brasp_pinned_text(formula, attention):
    prog = ltl.ltl_to_brasp(ltl.parse_formula(formula))
    assert brasp.program_to_text(prog) == (
        "alphabet: a b\n"
        "F1(i) := Q_a(i)\n"
        "F2(i) := Q_b(i)\n"
        f"F3(i) := {attention} !F1(j) | F2(j) ? F2(j) : 0\n"
        "output: F3\n"
    )


def test_nonstrict_unmasked_rendering_stays_nonstrict():
    import starfree.boolexpr as bx
    from starfree.brasp import Accept, Alphabet, BraspOp, BraspProgram

    op = BraspOp(
        "P",
        Attention(brasp.RIGHTMOST, MaskKind.NONE, bx.Var("Q_b", "j"), bx.Var("Q_a", "j"), bx.TRUE),
    )
    prog = BraspProgram(Alphabet(("a", "b")), (op,), Accept("P"))
    f = ltl.brasp_to_ltl(prog, nonstrict_none=True)
    assert not ltl.is_strict_only(f) or not any(
        isinstance(g, (ltl.Since, ltl.Until)) for g in ltl.subformulas(f)
    )
    assert all(not g.strict for g in ltl.subformulas(f) if isinstance(g, (ltl.Since, ltl.Until)))
    report = testkit.diff_languages(
        testkit.formula_recognizer(f, alphabet=corpus.AB_ALPHABET),
        testkit.program_recognizer(prog),
        corpus.AB_ALPHABET,
        7,
    )
    assert report.ok, report.summary()


def test_round_trips_preserve_language():
    for name in ["phi1", "phi2", "phi3", "phi4"]:
        entry = corpus.corpus().languages[name]
        f = entry.formula()
        prog = ltl.ltl_to_brasp(f, entry.alphabet)
        back = ltl.brasp_to_ltl(prog)
        report = testkit.diff_languages(
            testkit.formula_recognizer(back, alphabet=entry.alphabet),
            entry.oracle,
            entry.alphabet,
            7,
        )
        assert report.ok, (name, report.summary())


def test_program_round_trip_through_formula():
    dyck = corpus.dyck_program()
    back = ltl.ltl_to_brasp(ltl.brasp_to_ltl(dyck), corpus.LR_ALPHABET)
    report = testkit.diff_languages(
        testkit.program_recognizer(back),
        testkit.program_recognizer(dyck),
        corpus.LR_ALPHABET,
        8,
    )
    assert report.ok, report.summary()


def test_nonstrict_dialect_round_trip():
    ns = corpus.nonstrict_variant(corpus.dyck_program())
    f = ltl.brasp_to_ltl(ns)
    # only non-strict temporal operators appear
    assert all(
        not g.strict for g in ltl.subformulas(f) if isinstance(g, (ltl.Since, ltl.Until))
    )
    report = testkit.diff_languages(
        testkit.formula_recognizer(f, alphabet=corpus.LR_ALPHABET),
        testkit.program_recognizer(ns),
        corpus.LR_ALPHABET,
        7,
    )
    assert report.ok, report.summary()
    back = ltl.ltl_to_brasp(f, corpus.LR_ALPHABET)
    report = testkit.diff_languages(
        testkit.program_recognizer(back),
        testkit.program_recognizer(ns),
        corpus.LR_ALPHABET,
        7,
    )
    assert report.ok, report.summary()


def test_depth_preservation_under_translation():
    cases = [
        corpus.phi(1),
        corpus.phi(2),
        corpus.phi(3),
        corpus.phi(4),
        testkit.stair_formula(1),
        testkit.stair_formula(2),
        testkit.stair_formula(3),
        corpus.ab_star_formula(),
        corpus.apbp_star_formula(),
    ]
    for f in cases:
        prog = ltl.ltl_to_brasp(f, None)
        assert brasp.attention_depth(prog) == ltl.temporal_depth(f)


def test_since_only_translation_emits_only_future_rightmost():
    for name in ["phi1", "phi2", "phi3", "phi4", "ab_star", "apbp_star", "stair_2", "dyck_since"]:
        f = corpus.corpus().formulas[name]()
        assert ltl.is_strict_only(f)
        assert not ltl.uses_until(f)
        prog = ltl.ltl_to_brasp(f, None, until_free=True)
        for op in prog.ops:
            if isinstance(op.body, Attention):
                assert op.body.direction == brasp.RIGHTMOST
                assert op.body.mask is MaskKind.FUTURE

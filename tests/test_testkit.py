"""Differential harness, stutter-invariance, staircase languages, corpus."""

import pytest

from starfree import brasp, corpus, ltl, testkit
from starfree.brasp import Alphabet, Attention
from starfree.testkit import (
    StutterWitness,
    diff_languages,
    random_nonstrict_program,
    stair_formula,
    stair_oracle,
    stutter_invariant_up_to,
)


def test_diff_reports_zero_mismatches_for_equal_languages():
    entry = corpus.corpus().languages["dyck"]
    report = diff_languages(
        testkit.program_recognizer(entry.program()),
        entry.dfa().accepts,
        entry.alphabet,
        8,
    )
    assert report.ok
    assert report.checked == 2 + 4 + 8 + 16 + 32 + 64 + 128 + 256


def test_diff_counts_mismatches_and_orders_them():
    report = diff_languages(lambda w: True, lambda w: False, Alphabet(("a", "b")), 1)
    assert len(report.mismatches) == 2
    assert report.mismatches[0][0] == "a"


def test_diff_enumeration_guard():
    with pytest.raises(ValueError):
        diff_languages(lambda w: True, lambda w: True, Alphabet(("a", "b")), 40)


def test_stutter_invariant_block_language():
    ok, witness = stutter_invariant_up_to(corpus.ORACLES["apbp_star"], Alphabet(("a", "b")), 8)
    assert ok and witness is None


def test_stutter_witness_for_ab_star():
    ok, witness = stutter_invariant_up_to(corpus.ORACLES["ab_star"], Alphabet(("a", "b")), 8)
    assert not ok
    assert (witness.prefix, witness.symbol, witness.suffix) == ("", "a", "b")
    assert witness.base() == "ab" and witness.doubled() == "aab"


def test_stutter_witness_for_dyck():
    ok, witness = stutter_invariant_up_to(corpus.ORACLES["dyck"], corpus.LR_ALPHABET, 8)
    assert not ok
    assert (witness.prefix, witness.symbol, witness.suffix) == ("", "l", "r")


def test_stair_oracle_examples():
    assert stair_oracle(2)("acab") is True
    assert stair_oracle(2)("abab") is False
    assert stair_oracle(1)("bca") is True
    assert stair_oracle(1)("bcb") is False


def test_stair_formula_matches_oracle():
    for k in (1, 2, 3):
        f = stair_formula(k)
        report = diff_languages(
            testkit.formula_recognizer(f, alphabet=testkit.STAIR_ALPHABET),
            stair_oracle(k),
            testkit.STAIR_ALPHABET,
            8 if k < 3 else 7,
        )
        assert report.ok, (k, report.summary())


def test_stair_k1_accepts_single_a():
    assert ltl.ltl_accepts(stair_formula(1), "a") is True


def test_random_nonstrict_programs_are_nonstrict_and_reproducible():
    p1 = random_nonstrict_program(42)
    p2 = random_nonstrict_program(42)
    assert brasp.program_to_text(p1) == brasp.program_to_text(p2)
    for op in p1.ops:
        if isinstance(op.body, Attention):
            assert not op.body.mask.strict


def test_nonstrict_corpus_variants_are_stutter_invariant():
    for maker in [corpus.dyck_program]:
        prog = corpus.nonstrict_variant(maker())
        ok, witness = stutter_invariant_up_to(
            testkit.program_recognizer(prog), prog.alphabet, 8
        )
        assert ok, witness


def test_random_nonstrict_programs_are_stutter_invariant_sample():
    # The acceptance suite runs all 200 seeds; keep a fast sample here.
    for seed in range(25):
        prog = random_nonstrict_program(seed)
        ok, witness = stutter_invariant_up_to(
            testkit.program_recognizer(prog), prog.alphabet, 6
        )
        assert ok, (seed, witness, brasp.program_to_text(prog))


def _stutter_reference(member, symbols, bound):
    """The check string by string: the first (w, k) in length-lex order whose
    doubled string disagrees with w."""
    for w in testkit.strings_over(symbols, bound):
        for k in range(len(w)):
            if bool(member(w)) != bool(member(w[:k + 1] + w[k:])):
                return False, StutterWitness(w[:k], w[k], w[k + 1:])
    return True, None


def test_stutter_witnesses_match_a_per_string_reference():
    entries = corpus.corpus().languages.values()
    programs = [(e.program(), 6) for e in entries if e.program is not None]
    programs += [(corpus.nonstrict_variant(corpus.dyck_program()), 8), (corpus.dyck_program(), 8)]
    programs += [(random_nonstrict_program(seed), 6) for seed in range(16)]
    witnesses = 0
    for prog, bound in programs:
        got = stutter_invariant_up_to(testkit.program_recognizer(prog), prog.alphabet, bound)
        assert got == _stutter_reference(lambda w: brasp.accepts(prog, w), prog.alphabet.symbols, bound)
        witnesses += not got[0]
    for entry in entries:
        if entry.formula is not None:
            f = entry.formula()
            got = stutter_invariant_up_to(testkit.formula_recognizer(f, alphabet=entry.alphabet), entry.alphabet, 5)
            member = lambda w: ltl.ltl_accepts(f, w, alphabet=entry.alphabet)
            assert got == _stutter_reference(member, entry.alphabet.symbols, 5), entry.name
            witnesses += not got[0]
    assert witnesses >= 5


def test_stutter_enumeration_count_is_pinned():
    with pytest.raises(ValueError, match="enumeration of 16777212 strings exceeds"):
        stutter_invariant_up_to(testkit.program_recognizer(corpus.dyck_program()), corpus.LR_ALPHABET, 22)
    with pytest.raises(ValueError, match="enumeration of 21474207 strings exceeds"):
        stutter_invariant_up_to(bool, ("a", "b", "c"), 14)


def test_corpus_collection_contents():
    c = corpus.corpus()
    assert "dyck" in c.languages and "stair_3" in c.languages
    assert c.traces == ("dyck_accept", "dyck_reject", "recall")
    tr = corpus.expected_trace("dyck_accept")
    assert tr.rows["I"] == (0, 1, 1, 0, 0, 1, 1, 1, 1, 0)
    rec = corpus.expected_trace("recall")
    assert len(rec.rows) == 13
    assert rec.output_tokens == tuple("a?b?b2a3c?a2c1")


def test_corpus_oracle_phi1_agrees_with_formula():
    entry = corpus.corpus().languages["phi1"]
    report = diff_languages(
        testkit.formula_recognizer(entry.formula(), alphabet=entry.alphabet),
        entry.oracle,
        entry.alphabet,
        6,
    )
    assert report.ok, report.summary()


def test_corpus_language_artifacts_agree():
    # Program, formula, and automaton views of each language match its oracle.
    c = corpus.corpus()
    for name, entry in c.languages.items():
        bound = min(entry.bound, 6 if len(entry.alphabet.symbols) > 2 else 7)
        if entry.program is not None:
            report = diff_languages(
                testkit.program_recognizer(entry.program()),
                entry.oracle,
                entry.alphabet,
                bound,
            )
            assert report.ok, (name, "program", report.summary())
        if entry.formula is not None:
            report = diff_languages(
                testkit.formula_recognizer(entry.formula(), alphabet=entry.alphabet),
                entry.oracle,
                entry.alphabet,
                bound,
            )
            assert report.ok, (name, "formula", report.summary())
        if entry.dfa is not None:
            report = diff_languages(
                entry.dfa().accepts, entry.oracle, entry.alphabet, bound
            )
            assert report.ok, (name, "dfa", report.summary())

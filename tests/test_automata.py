"""DFAs, counter-freeness, cascades, homomorphisms, and their compilation."""

import pytest

from starfree import automata, brasp, corpus, testkit
from starfree.automata import (
    AutomatonError,
    Cascade,
    Dfa,
    IdentityResetAutomaton,
    cascade_to_brasp,
    cascade_to_global,
    check_homomorphism,
    identity_reset_to_brasp,
    is_counter_free,
    run_dfa,
)
from starfree.brasp import Alphabet

from brute import is_counter_free_bruteforce


def test_run_dfa_walk():
    trace = run_dfa(corpus.a3_dfa(), "RRL")
    assert trace.states == ("0", "1", "2", "1")


def test_run_dfa_empty_input():
    trace = run_dfa(corpus.a3_dfa(), "")
    assert trace.states == ("0",)


def test_l12_dfa_accepts_llrr():
    assert corpus.l12_dfa().accepts("llrr") is True
    assert corpus.l12_dfa().accepts("lr") is True
    assert corpus.l12_dfa().accepts("rl") is False


def test_unknown_symbol_rejected():
    with pytest.raises(Exception):
        run_dfa(corpus.a3_dfa(), "RX")


def test_counter_free_examples():
    assert is_counter_free(corpus.a3_dfa()) is True
    assert is_counter_free(corpus.aa_dfa()) is False
    one = Dfa(Alphabet(("a",)), ("q",), {("q", "a"): "q"}, "q", frozenset(["q"]))
    assert is_counter_free(one) is True
    assert is_counter_free(corpus.l12_dfa()) is True


def test_counter_free_agrees_with_bruteforce():
    for dfa in [corpus.a3_dfa(), corpus.aa_dfa(), corpus.l12_dfa()]:
        assert is_counter_free(dfa) == is_counter_free_bruteforce(dfa)


def test_identity_reset_classification():
    auto = IdentityResetAutomaton.from_dfa(corpus.aa_dfa()) if False else None
    with pytest.raises(AutomatonError):
        IdentityResetAutomaton.from_dfa(corpus.aa_dfa())  # 'a' swaps, neither id nor const
    factor = corpus.a3_cascade().factors[0]
    assert factor.step("A", "R") == "B"
    assert factor.step("B", "L") == "A"


def test_cascade_global_automaton():
    glob = cascade_to_global(corpus.a3_cascade())
    assert len(glob.states) == 8
    assert glob.delta[("ACE", "R")] == "BCE"
    trace = run_dfa(glob, "RRRR")
    assert trace.states[-1] == "BDF"
    assert corpus.a3_cascade().homomorphism["BDF"] == "3"


def test_check_homomorphism_fig_cascade():
    assert check_homomorphism(corpus.a3_cascade(), corpus.a3_dfa()) is True
    assert check_homomorphism(corpus.l12_cascade(), corpus.l12_dfa()) is True


def test_check_homomorphism_perturbed_entry_fails():
    cas = corpus.a3_cascade()
    bad = Cascade(cas.alphabet, cas.factors, {**cas.homomorphism, "ACE": "1"})
    assert check_homomorphism(bad, corpus.a3_dfa()) is False


def test_check_homomorphism_requires_full_table():
    cas = corpus.a3_cascade()
    partial = dict(cas.homomorphism)
    del partial["BDF"]
    with pytest.raises(AutomatonError):
        check_homomorphism(Cascade(cas.alphabet, cas.factors, partial), corpus.a3_dfa())


def test_single_factor_cascade_is_the_factor():
    factor = corpus.a3_cascade().factors[0]
    cas = Cascade(Alphabet(("R", "L")), (factor,), {"A": "A", "B": "B"})
    glob = cascade_to_global(cas)
    target = Dfa(
        Alphabet(("R", "L")),
        ("A", "B"),
        {("A", "R"): "B", ("A", "L"): "A", ("B", "R"): "B", ("B", "L"): "A"},
        "A",
        frozenset(["A"]),
    )
    assert check_homomorphism(cas, target) is True
    assert glob.states == ("A", "B")


def test_global_trace_maps_to_target_trace():
    import random

    cas = corpus.a3_cascade()
    hom = cas.homomorphism
    glob = cascade_to_global(cas)
    target = corpus.a3_dfa()
    rng = random.Random(7)
    for _ in range(50):
        w = "".join(rng.choice("RL") for _ in range(rng.randint(0, 50)))
        gt = run_dfa(glob, w)
        tt = run_dfa(target, w)
        assert tuple(hom[q] for q in gt.states) == tt.states


def test_identity_reset_tracker_vectors():
    # Two states, a resets to q1, b is identity; start q0.
    auto = IdentityResetAutomaton(("q0", "q1"), "q0", {"q1": ("a",)})
    prog, names = identity_reset_to_brasp(auto, alphabet=Alphabet(("a", "b")))
    tr = brasp.eval(prog, "ba")
    assert tr.row_bits(names["q0"]) == [1, 1]
    assert tr.row_bits(names["q1"]) == [0, 0]
    tr = brasp.eval(prog, "baa")
    assert tr.row_bits(names["q1"]) == [0, 0, 1]


def test_identity_reset_all_identity_automaton():
    auto = IdentityResetAutomaton(("q0", "q1"), "q0", {})
    prog, names = identity_reset_to_brasp(auto, alphabet=Alphabet(("a", "b")))
    tr = brasp.eval(prog, "abab")
    assert tr.row_bits(names["q0"]) == [1, 1, 1, 1]
    assert tr.row_bits(names["q1"]) == [0, 0, 0, 0]


def test_identity_reset_first_factor_states():
    factor = corpus.a3_cascade().factors[0]
    prog, names = identity_reset_to_brasp(factor, alphabet=Alphabet(("R", "L")))
    tr = brasp.eval(prog, "RL")
    # states before positions 1, 2 are A, B; after the string the walk is at A.
    assert tr.row_bits(names["A"]) == [1, 0]
    assert tr.row_bits(names["B"]) == [0, 1]


def test_cascade_to_brasp_a3_exhaustive():
    prog = cascade_to_brasp(corpus.a3_cascade(), corpus.a3_dfa())
    report = testkit.diff_languages(
        testkit.program_recognizer(prog),
        corpus.a3_dfa().accepts,
        Alphabet(("R", "L")),
        10,
    )
    assert report.ok, report.summary()


def test_cascade_to_brasp_single_factor():
    factor = corpus.a3_cascade().factors[0]
    cas = Cascade(Alphabet(("R", "L")), (factor,), {"A": "A", "B": "B"})
    target = Dfa(
        Alphabet(("R", "L")),
        ("A", "B"),
        {("A", "R"): "B", ("A", "L"): "A", ("B", "R"): "B", ("B", "L"): "A"},
        "A",
        frozenset(["B"]),
    )
    prog = cascade_to_brasp(cas, target)
    report = testkit.diff_languages(
        testkit.program_recognizer(prog), target.accepts, Alphabet(("R", "L")), 8
    )
    assert report.ok, report.summary()


def test_cascade_to_brasp_state_after_first_symbol():
    prog = cascade_to_brasp(corpus.a3_cascade(), corpus.a3_dfa())
    tr = brasp.eval(prog, "R")
    assert tr.value("Y_1", 1) == 1
    assert tr.value("Y_0", 1) == 0


def test_cascade_to_brasp_rejects_bad_homomorphism():
    cas = corpus.a3_cascade()
    bad = Cascade(cas.alphabet, cas.factors, {**cas.homomorphism, "ACE": "1"})
    with pytest.raises(AutomatonError):
        cascade_to_brasp(bad, corpus.a3_dfa())


def test_cascade_to_brasp_l12_matches_oracle():
    prog = cascade_to_brasp(corpus.l12_cascade(), corpus.l12_dfa())
    report = testkit.diff_languages(
        testkit.program_recognizer(prog),
        corpus.ORACLES["dyck"],
        corpus.LR_ALPHABET,
        8,
    )
    assert report.ok, report.summary()


def test_dfa_json_round_trip():
    for loader in [corpus.a3_dfa, corpus.aa_dfa, corpus.l12_dfa]:
        dfa = loader()
        again = automata.dfa_from_json(automata.dfa_to_json(dfa))
        assert again == dfa


def test_cascade_json_round_trip():
    cas = corpus.a3_cascade()
    again = automata.cascade_from_json(automata.cascade_to_json(cas))
    assert again.homomorphism == cas.homomorphism
    assert cascade_to_global(again).delta == cascade_to_global(cas).delta

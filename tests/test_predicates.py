"""Predicate families, position embeddings, and the modular-arithmetic gadget."""

from fractions import Fraction

import pytest
import sympy

from starfree import brasp, corpus, exact, ltl, predicates, testkit
from starfree.predicates import (
    bind_pe_as_predicates,
    family_tuple_pe,
    mid_predicate,
    mod_predicate,
    mod_relu_gadget,
    pe_bit_coding,
    sinusoidal_pe,
)

F = Fraction


def test_mod_predicate_basic():
    fam = mod_predicate(1, 2)
    assert [fam(4, i) for i in range(1, 5)] == [True, False, True, False]
    assert mod_predicate(0, 3)(3, 3) is True


def test_mod_predicate_rejects_bad_residue():
    with pytest.raises(ValueError):
        mod_predicate(2, 2)
    with pytest.raises(ValueError):
        mod_predicate(0, 0)


def test_mid_predicate():
    mid = mid_predicate()
    assert [mid(5, i) for i in range(1, 6)] == [False, False, True, False, False]
    assert all(not mid(4, i) for i in range(1, 5))


def test_family_out_of_range_position():
    with pytest.raises(ValueError):
        mod_predicate(0, 2)(3, 4)


def test_registry_lookup():
    assert predicates.lookup("Mid") is not None
    assert predicates.lookup("MOD[1,3]") is not None
    assert predicates.lookup("MOD[3,3]") is None
    assert predicates.lookup("nope") is None


def test_registry_binding_is_stable():
    f1 = predicates.lookup("MOD[0,2]")
    f2 = predicates.lookup("MOD[0,2]")
    assert f1.truth_table(9) == f2.truth_table(9)


def test_parity_program_via_mod_family():
    prog = corpus.parity_mod_program()
    assert brasp.accepts(prog, "aaaa") is True
    assert brasp.accepts(prog, "aaa") is False
    report = testkit.diff_languages(
        testkit.program_recognizer(prog),
        corpus.ORACLES["aa_star"],
        prog.alphabet,
        12,
    )
    assert report.ok, report.summary()


def test_mid_formula_against_oracle():
    f = corpus.mid_formula()
    report = testkit.diff_languages(
        testkit.formula_recognizer(f, alphabet=corpus.PHI_ALPHABET),
        corpus.ORACLES["mid_lang"],
        corpus.PHI_ALPHABET,
        9,
    )
    assert report.ok, report.summary()
    assert ltl.ltl_accepts(f, "#aa#bb#") is True
    assert ltl.ltl_accepts(f, "#a#bb#") is False


def test_sinusoidal_quarter_turn():
    pe = sinusoidal_pe([F(1, 4)])
    assert pe.dim == 2
    assert pe.period == 4
    s, c = pe(8, 1)
    assert exact.eq(s, 1) and exact.eq(c, 0)
    image = pe.image()
    assert len(image) <= 4


def test_sinusoidal_rejects_irrational():
    with pytest.raises((ValueError, TypeError)):
        sinusoidal_pe([0.5])


def test_sinusoidal_third_turn_is_algebraic():
    pe = sinusoidal_pe([F(1, 3)])
    s, c = pe(6, 1)
    assert exact.eq(s, sympy.sqrt(3) / 2)
    assert exact.eq(c, F(-1, 2))
    assert len(pe.image()) == 3


def test_pe_equipped_transformer_distinguishes_positions():
    # One layer; score is the attended position's sin coordinate, so the
    # model attends to positions congruent to 1 mod 4 when any exist.
    from starfree.brasp import Alphabet, MaskKind
    from starfree.transformer import (
        AttentionHead,
        FeedForward,
        OutputLayer,
        SparseMatrix,
        Transformer,
        TransformerLayer,
    )

    pe = sinusoidal_pe([F(1, 4)])  # occupies coords 2 (sin) and 3 (cos)
    emb = {
        "a": (F(1), F(0), F(0), F(0), F(0)),
        "b": (F(0), F(1), F(0), F(0), F(0)),
    }
    # query weight on own a-coord (and b-coord) times key sin coord
    score = SparseMatrix(5, 5, [(0, 2, F(1)), (1, 2, F(1))])
    value = SparseMatrix(5, 5, [(4, 0, F(1))])  # copy attended a-indicator upward
    head = AttentionHead(score, MaskKind.NONE, "rightmost", value)
    model = Transformer(
        5,
        Alphabet(("a", "b")),
        emb,
        [TransformerLayer([head], FeedForward.zero(5))],
        OutputLayer((F(0), F(0), F(0), F(0), F(1)), F(-1, 2)),
        ((pe, 2),),
    )
    from starfree.transformer import accepts_transformer

    # rightmost position with sin = 1 is position 1 in "abbb" (only i=1 has
    # sin 1 among 1..4), and position 5 in a length-5 string.
    assert accepts_transformer(model, "abbb") is True   # attends position 1: a
    assert accepts_transformer(model, "bbba") is False  # attends position 1: b
    assert accepts_transformer(model, "bbbba") is True  # attends position 5: a


def test_mod_relu_gadget_examples():
    g2 = mod_relu_gadget(0, 2)
    assert g2.evaluate_at(2) == 1
    assert g2.evaluate_at(3) == 0
    g1 = mod_relu_gadget(0, 1)
    assert g1.evaluate_at(1) == 1
    assert g1.evaluate_at(7) == 1


def test_mod_relu_gadget_matches_mod_predicate():
    for m in (2, 3, 4):
        for r in range(m):
            gadget = mod_relu_gadget(r, m)
            fam = mod_predicate(r, m)
            for i in range(1, 25):
                assert gadget.evaluate_at(i) == int(fam(24, i)), (r, m, i)


def test_mod_relu_gadget_rejects_bad_residue():
    with pytest.raises(ValueError):
        mod_relu_gadget(5, 3)


def test_pe_bit_families_of_half_frequency_match_mod2():
    pe = sinusoidal_pe([F(1, 2)])
    fams = bind_pe_as_predicates(pe)
    # cos(pi*i) alternates; some bit family must equal parity of i
    mod0 = predicates.mod_predicate(0, 2)
    tables = [tuple(f(16, i) for i in range(1, 17)) for f in fams]
    want = tuple(mod0(16, i) for i in range(1, 17))
    complement = tuple(not b for b in want)
    assert want in tables or complement in tables


def test_bind_constant_pe_gives_constant_families():
    pe = family_tuple_pe([predicates.PredicateFamily("always", lambda n, i: True)])
    fams = bind_pe_as_predicates(pe)
    for fam in fams:
        table = {fam(6, i) for i in range(1, 7)}
        assert len(table) == 1


def test_binding_same_family_twice_is_identical():
    pe = sinusoidal_pe([F(1, 4)])
    t1 = [f.truth_table(12) for f in bind_pe_as_predicates(pe)]
    t2 = [f.truth_table(12) for f in bind_pe_as_predicates(pe)]
    assert t1 == t2


def test_pigeonhole_collision_for_finite_image():
    pe = sinusoidal_pe([F(1, 3)])
    n = len(pe.image()) + 1
    vectors = [pe(n, i) for i in range(1, n + 1)]
    assert any(
        all(exact.eq(a, b) for a, b in zip(vectors[x], vectors[y]))
        for x in range(n)
        for y in range(x + 1, n)
    )


def test_transformer_with_pe_vs_predicate_program():
    # Round trip: a program over MOD bit families matches the transformer with
    # the bundled family embedding, both ways, via the compiler.
    from starfree import compiler

    prog = corpus.parity_mod_program()
    model = compiler.compile_naive(prog)
    back, fams = compiler.decompile_with_predicates(model, "shallower")
    report = testkit.diff_languages(
        testkit.program_recognizer(back, fams),
        testkit.program_recognizer(prog),
        prog.alphabet,
        7,
    )
    assert report.ok, report.summary()


def test_family_table_file(tmp_path):
    path = tmp_path / "fam.tab"
    path.write_text("# n i bit\n3 1 1\n3 2 0\n3 3 1\n")
    fam = predicates.load_family_table(path, "tab")
    assert fam.truth_table(3) == [True, False, True]
    with pytest.raises(ValueError):
        fam(4, 1)

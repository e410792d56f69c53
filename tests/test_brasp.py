"""Parser, interpreter, and attention-depth tests for the program core."""

import itertools
import pickle

import pytest

from starfree import boolexpr as bx
from starfree import brasp, corpus
from starfree.brasp import (
    Accept,
    Alphabet,
    Attention,
    BraspError,
    BraspOp,
    BraspProgram,
    MaskKind,
    ParseError,
    Positionwise,
)

from brute import brute_value


def test_parse_dyck_has_nine_vectors():
    prog = corpus.dyck_program()
    assert prog.vector_names == ["Q_l", "Q_r", "P_l", "S_r", "I", "B_l", "A_r", "C", "Y"]
    assert isinstance(prog.output, Accept) and prog.output.vector == "Y"


def test_parse_single_positionwise():
    prog = brasp.parse_program("alphabet: a\nP(i) := Q_a(i)\noutput: P\n")
    assert prog.vector_names == ["Q_a", "P"]


def test_parse_rejects_undefined_reference():
    with pytest.raises(BraspError):
        brasp.parse_program("alphabet: a\nP(i) := R(i)\noutput: P\n")


def test_parse_rejects_forward_reference():
    text = "alphabet: a\nP(i) := R(i)\nR(i) := Q_a(i)\noutput: P\n"
    with pytest.raises(BraspError):
        brasp.parse_program(text)


def test_parse_rejects_j_atom_in_positionwise():
    with pytest.raises(BraspError):
        brasp.parse_program("alphabet: a\nP(i) := Q_a(j)\noutput: P\n")


def test_parse_rejects_j_atom_in_default():
    text = "alphabet: a\nP(i) := [rightmost, j<i] 1 ? Q_a(j) : Q_a(j)\noutput: P\n"
    with pytest.raises(BraspError):
        brasp.parse_program(text)


def test_parse_rejects_name_reuse():
    text = "alphabet: a\nP(i) := Q_a(i)\nP(i) := !Q_a(i)\noutput: P\n"
    with pytest.raises(BraspError):
        brasp.parse_program(text)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        brasp.parse_program("alphabet: a\nP(i) := Q_a(i) &\noutput: P\n")
    assert err.value.line == 2


def test_round_trip_through_text():
    prog = corpus.dyck_program()
    again = brasp.parse_program(brasp.program_to_text(prog))
    assert brasp.program_to_text(again) == brasp.program_to_text(prog)
    for w in ["llrr", "lrlr", "rl", "llrrllrlrr"]:
        assert brasp.accepts(prog, w) == brasp.accepts(again, w)


def test_empty_input_rejected():
    with pytest.raises(BraspError):
        brasp.eval(corpus.dyck_program(), "")


def test_dyck_accept_trace_matches_expected_rows():
    prog = corpus.dyck_program()
    expected = corpus.expected_trace("dyck_accept")
    tr = brasp.eval(prog, "".join(expected.input_tokens))
    for name, bits in expected.rows.items():
        assert tuple(tr.row_bits(name)) == bits, name
    assert tr.value("Y", 10) == 1


def test_dyck_reject_trace_matches_expected_rows():
    prog = corpus.dyck_program()
    expected = corpus.expected_trace("dyck_reject")
    tr = brasp.eval(prog, "".join(expected.input_tokens))
    for name, bits in expected.rows.items():
        assert tuple(tr.row_bits(name)) == bits, name
    assert tuple(tr.row_bits("C")) == (1, 1, 0, 0, 1, 1, 1, 1, 0, 0)
    assert tr.value("Y", 10) == 0


def test_dyck_accepts_examples():
    prog = corpus.dyck_program()
    assert brasp.accepts(prog, "llrrllrlrr") is True
    assert brasp.accepts(prog, "lrrlllrrrl") is False
    assert brasp.accepts(prog, "l") is False


def test_attention_default_on_short_input():
    text = "alphabet: a b\nP(i) := [rightmost, j<i] 1 ? Q_a(j) : 0\noutput: P\n"
    prog = brasp.parse_program(text)
    tr = brasp.eval(prog, "ab")
    assert tr.row_bits("P") == [0, 1]


def test_recall_transduction_and_table():
    prog = corpus.recall_program()
    expected = corpus.expected_trace("recall")
    tokens = list(expected.input_tokens)
    out = brasp.transduce(prog, tokens)
    assert out == "a?b?b2a3c?a2c1"
    tr = brasp.eval(prog, tokens)
    for name, bits in expected.rows.items():
        assert tuple(tr.row_bits(name)) == bits, name


def test_recall_no_prior_occurrence():
    prog = corpus.recall_program()
    assert brasp.transduce(prog, ["a", "1"]) == "a?"


def test_identity_transducer():
    text = "\n".join(
        [
            "alphabet: a b c",
            "Y_a(i) := Q_a(i)",
            "Y_b(i) := Q_b(i)",
            "Y_c(i) := Q_c(i)",
            "transduce: a->Y_a b->Y_b c->Y_c",
        ]
    )
    prog = brasp.parse_program(text)
    assert brasp.transduce(prog, "abc") == "abc"


def test_transduce_requires_exactly_one_output():
    text = "alphabet: a\nY1(i) := Q_a(i)\nY2(i) := Q_a(i)\ntransduce: a->Y1 b->Y2\n"
    prog = brasp.parse_program(text)
    with pytest.raises(BraspError):
        brasp.transduce(prog, "a")


def test_accepts_rejects_transducer():
    prog = corpus.recall_program()
    with pytest.raises(BraspError):
        brasp.accepts(prog, ["a", "1"])


def test_unbound_predicate_family_errors():
    text = "alphabet: a\npreds: Mystery\nP(i) := PRED:Mystery(i)\noutput: P\n"
    prog = brasp.parse_program(text)
    with pytest.raises(BraspError):
        brasp.eval(prog, "aa")
    # binding it explicitly works
    from starfree.predicates import PredicateFamily

    fam = PredicateFamily("Mystery", lambda n, i: i == n)
    tr = brasp.eval(prog, "aa", {"Mystery": fam})
    assert tr.row_bits("P") == [0, 1]


def test_alphabet_tokenizes_and_pickles_by_its_symbols_alone():
    chars, words = Alphabet(("l", "r")), Alphabet(("ab", "c"))
    assert chars.tokenize("lrl") == ["l", "r", "l"]
    assert words.tokenize("ab c ab") == ["ab", "c", "ab"]
    assert words.tokenize(("c", "ab")) == ["c", "ab"]
    with pytest.raises(BraspError, match="not in alphabet"):
        chars.tokenize("l r")
    with pytest.raises(BraspError, match="bad alphabet symbol"):
        Alphabet(("a", 1))
    for alphabet in (chars, words):
        assert alphabet.__getstate__() == {"symbols": alphabet.symbols}
        copy = pickle.loads(pickle.dumps(alphabet))
        assert copy == alphabet and hash(copy) == hash(alphabet)
        assert copy.tokenize(list(alphabet.symbols)) == list(alphabet.symbols)


def test_eval_is_deterministic():
    prog = corpus.dyck_program()
    a = brasp.eval(prog, "llrlrr").rows
    b = brasp.eval(prog, "llrlrr").rows
    assert a == b


ONE_SIDED = (MaskKind.FUTURE, MaskKind.PAST, MaskKind.FUTURE_EQ, MaskKind.PAST_EQ)


def test_mask_toward_inverts_side_and_strictness():
    for mask in ONE_SIDED:
        assert MaskKind.toward(mask.before, mask.strict) is mask
    assert [(m.before, m.strict) for m in ONE_SIDED] == [
        (True, True), (False, True), (True, False), (False, False)
    ]


def test_mask_row_agrees_with_side_and_strictness():
    for mask in MaskKind:
        for n in range(1, 7):
            for i in range(1, n + 1):
                row = mask.row(i, n)
                for j in range(1, n + 1):
                    if mask is MaskKind.NONE:
                        allowed = True
                    elif j == i:
                        allowed = not mask.strict
                    else:
                        allowed = (j < i) == mask.before
                    assert bool(row >> (j - 1) & 1) == allowed, (mask, n, i, j)
                assert row >> n == 0
            assert mask.rows(n) == tuple(mask.row(i, n) for i in range(1, n + 1)), (mask, n)
            for leftmost in (True, False):
                picks = [
                    (min if leftmost else max)(j for j in range(1, n + 1) if row >> (j - 1) & 1) if row else None
                    for row in mask.rows(n)
                ]
                assert list(mask.picks(n, leftmost)) == picks, (mask, n, leftmost)


def _op_form_programs():
    """Small programs covering every mask/direction combination."""
    progs = []
    for mask in MaskKind:
        for direction in (brasp.LEFTMOST, brasp.RIGHTMOST):
            for score, value, default in [
                (bx.TRUE, bx.Var("Q_a", "j"), bx.FALSE),
                (bx.Var("Q_b", "j"), bx.disj([bx.Var("Q_a", "j"), bx.Var("Q_a", "i")]), bx.TRUE),
                (
                    bx.conj([bx.Var("Q_a", "i"), bx.Var("Q_b", "j")]),
                    bx.neg(bx.Var("Q_b", "j")),
                    bx.Var("Q_b", "i"),
                ),
            ]:
                op = BraspOp("P", Attention(direction, mask, score, value, default))
                progs.append(
                    BraspProgram(Alphabet(("a", "b")), (op,), Accept("P"))
                )
    progs.append(
        BraspProgram(
            Alphabet(("a", "b")),
            (BraspOp("P", Positionwise(bx.neg(bx.Var("Q_a", "i")))),),
            Accept("P"),
        )
    )
    return progs


def test_eval_matches_bruteforce_on_all_op_forms():
    for prog in _op_form_programs():
        for n in range(1, 6):
            for tup in itertools.product("ab", repeat=n):
                w = "".join(tup)
                tr = brasp.eval(prog, w)
                for i in range(1, n + 1):
                    assert tr.value("P", i) == brute_value(prog, list(tup), "P", i), (
                        brasp.program_to_text(prog),
                        w,
                        i,
                    )


def test_attention_depth_dyck_is_three():
    assert brasp.attention_depth(corpus.dyck_program()) == 3


def test_attention_depth_positionwise_only_is_zero():
    prog = brasp.parse_program("alphabet: a\nP(i) := !Q_a(i)\noutput: P\n")
    assert brasp.attention_depth(prog) == 0


def test_trace_table_formatting_is_stable():
    tr = brasp.eval(corpus.dyck_program(), "llrr")
    t1 = tr.format_table()
    t2 = brasp.eval(corpus.dyck_program(), "llrr").format_table()
    assert t1 == t2
    assert t1.splitlines()[0].startswith("input")

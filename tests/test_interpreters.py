"""The planned program and formula interpreters against naive references.

`brasp.eval` and `ltl.ltl_eval`/`ltl_accepts` analyse each program and
formula once, on first use, and keep that plan. The differential tests
compare them with `brute.py` on seeded random programs and formulas that
cover what `testkit.random_nonstrict_program` leaves out: strict masks,
scores and values that read i, non-constant defaults, predicate families,
transducers, and strict and non-strict since/until. The batch tests ask
for whole lengths at a time, split into chunks of several sizes, and check
that a batch fails as its first failing string would. The lifecycle tests
check that a plan is built lazily, changes no equality or hash, is never
pickled, and caches no predicate rows.
"""

import gc
import pickle
import random
import re
import weakref

import pytest

from starfree import boolexpr as bx
from starfree import brasp, corpus, ltl, testkit
from starfree.brasp import (
    Accept,
    Alphabet,
    Attention,
    BraspOp,
    BraspProgram,
    MaskKind,
    Positionwise,
    Transduce,
)
from starfree.predicates import PredicateFamily

from brute import brute_accepts, brute_ltl_holds, brute_value

AB = Alphabet(("a", "b"))
FAMILIES = ("MOD[0,2]", "MOD[1,3]", "Mid")


# ---------------------------------------------------------------------------
# Random programs


def random_program(seed: int, max_ops: int = 4) -> BraspProgram:
    """A program over {a, b} with any mask, i-atoms anywhere they are allowed,
    predicate families, and an accept or a transduce output."""
    rng = random.Random(seed)
    families = tuple(rng.sample(FAMILIES, rng.randint(0, 2)))
    names = [brasp.qname(s) for s in AB.symbols]

    def atom(pos: str):
        if families and rng.random() < 0.25:
            return bx.Pred(rng.choice(families), pos)
        return bx.Var(rng.choice(names), pos)

    def expr(positions, depth: int = 2):
        if depth == 0 or rng.random() < 0.4:
            a = atom(rng.choice(positions))
            return bx.neg(a) if rng.random() < 0.3 else a
        args = [expr(positions, depth - 1) for _ in range(rng.randint(2, 3))]
        e = rng.choice((bx.conj, bx.disj))(args)
        return bx.neg(e) if rng.random() < 0.2 else e

    ops = []
    for k in range(rng.randint(1, max_ops)):
        if rng.random() < 0.3:
            body = Positionwise(expr(("i",)))
        else:
            body = Attention(
                rng.choice((brasp.LEFTMOST, brasp.RIGHTMOST)),
                rng.choice(list(MaskKind)),
                expr(("i", "j")),
                expr(("i", "j")),
                rng.choice((bx.TRUE, bx.FALSE, expr(("i",)))),
            )
        ops.append(BraspOp(f"P{k + 1}", body))
        names.append(f"P{k + 1}")
    last = names[-1]
    if rng.random() < 0.5:
        return BraspProgram(AB, tuple(ops), Accept(last), families)
    # Transduce each position to the last vector's bit there.
    ops.append(BraspOp("Off", Positionwise(bx.neg(bx.Var(last, "i")))))
    return BraspProgram(AB, tuple(ops), Transduce((("0", "Off"), ("1", last))), families)


PROGRAM_SEEDS = range(150)


def test_random_programs_cover_what_the_benchmark_generator_leaves_out():
    progs = [random_program(seed) for seed in PROGRAM_SEEDS]
    attention = [op.body for p in progs for op in p.ops if isinstance(op.body, Attention)]
    assert {body.mask for body in attention} == set(MaskKind)
    assert any(bx.has_pos(body.score, "i") for body in attention)
    assert any(bx.has_pos(body.value, "i") for body in attention)
    assert any(not isinstance(body.default, bx.Const) for body in attention)
    assert any(p.predicate_families for p in progs)
    assert any(isinstance(p.output, Transduce) for p in progs)
    assert any(isinstance(p.output, Accept) for p in progs)


@pytest.mark.parametrize("chunk", range(5))
def test_eval_matches_bruteforce_on_random_programs(chunk):
    for seed in PROGRAM_SEEDS[chunk::5]:
        prog = random_program(seed)
        for w in testkit.strings_over(AB, 5):
            tokens = list(w)
            tr = brasp.eval(prog, w)
            for name in prog.vector_names:
                want = [int(brute_value(prog, tokens, name, i)) for i in range(1, len(w) + 1)]
                assert tr.row_bits(name) == want, (seed, w, name)
            if isinstance(prog.output, Accept):
                assert brasp.accepts(prog, w) == brute_accepts(prog, w), (seed, w)
            else:
                last = prog.output.outputs[1][1]
                want = "".join(str(int(brute_value(prog, tokens, last, i))) for i in range(1, len(w) + 1))
                assert brasp.transduce(prog, w) == want, (seed, w)


def test_program_formulas_match_bruteforce_programs():
    """The formula an accepting program translates to, through `ltl_accepts`."""
    for seed in PROGRAM_SEEDS:
        prog = random_program(seed)
        if isinstance(prog.output, Accept):
            f = ltl.brasp_to_ltl(prog)
            for w in testkit.strings_over(AB, 5):
                assert ltl.ltl_accepts(f, w, alphabet=AB) == brute_accepts(prog, w), (seed, w)


# ---------------------------------------------------------------------------
# Random formulas


def random_formula(seed: int) -> ltl.Formula:
    """A formula over a, b and two predicate families, sharing subformulas."""
    rng = random.Random(seed)
    pool = [ltl.atom("a"), ltl.atom("b"), ltl.pred("MOD[0,2]"), ltl.pred("Mid"), ltl.TRUE]

    def build(depth: int):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(pool)
        kind = rng.choice(("not", "and", "or", "since", "until", "since", "until"))
        if kind == "not":
            g = ltl.not_(build(depth - 1))
        elif kind in ("and", "or"):
            args = [build(depth - 1) for _ in range(rng.randint(2, 3))]
            g = ltl.and_(*args) if kind == "and" else ltl.or_(*args)
        else:
            node = ltl.Since if kind == "since" else ltl.Until
            g = node(build(depth - 1), build(depth - 1), rng.random() < 0.5)
        pool.append(g)  # later draws may reuse it: the formula is a DAG
        return g

    return build(4)


FORMULA_SEEDS = range(120)


def test_random_formulas_mix_strict_and_nonstrict_operators():
    nodes = [g for seed in FORMULA_SEEDS for g in ltl.subformulas(random_formula(seed))]
    for kind in (ltl.Since, ltl.Until):
        assert {g.strict for g in nodes if isinstance(g, kind)} == {True, False}
    assert any(isinstance(g, ltl.PredAtom) for g in nodes)


@pytest.mark.parametrize("chunk", range(3))
def test_ltl_eval_matches_bruteforce_on_random_formulas(chunk):
    for seed in FORMULA_SEEDS[chunk::3]:
        f = random_formula(seed)
        for w in testkit.strings_over(AB, 5):
            for i in range(1, len(w) + 1):
                assert ltl.ltl_eval(f, w, i) == brute_ltl_holds(f, w, i), (seed, w, i)
            assert ltl.ltl_accepts(f, w) == brute_ltl_holds(f, w, len(w)), (seed, w)


def test_formula_programs_match_bruteforce_formulas():
    """The program a formula compiles to, through `brasp.eval`."""
    for seed in FORMULA_SEEDS[:40]:
        f = random_formula(seed)
        prog = ltl.ltl_to_brasp(f, AB)
        for w in testkit.strings_over(AB, 5):
            assert brasp.accepts(prog, w) == brute_ltl_holds(f, w, len(w)), (seed, w)


# ---------------------------------------------------------------------------
# Batches


def test_batched_verdicts_match_bruteforce(monkeypatch):
    """Each length's verdicts, asked of recognizer batches that span several
    chunks when `BATCH_BITS` is small, against per-string references."""
    words = list(testkit.strings_over(AB, 5))
    cases = [
        (testkit.program_recognizer(prog), [brute_accepts(prog, w) for w in words])
        for prog in map(random_program, PROGRAM_SEEDS)
        if isinstance(prog.output, Accept)
    ]
    cases += [
        (testkit.formula_recognizer(f), [brute_ltl_holds(f, w, len(w)) for w in words])
        for f in map(random_formula, FORMULA_SEEDS)
    ]
    sizes = set()
    run_plan = brasp.run_plan

    def recording(plan, batch, *rest):
        sizes.add(len(batch))
        return run_plan(plan, batch, *rest)

    monkeypatch.setattr(brasp, "run_plan", recording)
    for bits in (16, brasp.BATCH_BITS):
        monkeypatch.setattr(brasp, "BATCH_BITS", bits)
        for k, (recognizer, want) in enumerate(cases):
            reference = dict(zip(words, want)).__getitem__
            assert testkit.compare_on(recognizer, reference, words) == (len(words), []), (bits, k)
    # 16 bits: lengths 3-5 take chunks of 5, 4 and 3 strings; 4096: one chunk per length.
    assert {2, 3, 4, 5, 8, 16, 32} <= sizes


def test_a_batch_fails_as_its_first_failing_string_does():
    dyck = corpus.dyck_program()
    f = ltl.since(ltl.atom("l"), ltl.atom("r"))
    with pytest.raises(brasp.BraspError) as single:
        brasp.accepts(dyck, "lxr")
    assert str(single.value) == "symbol 'x' not in alphabet ['l', 'r']"
    with pytest.raises(brasp.BraspError, match=re.escape(str(single.value))):
        brasp.accepts_batch(dyck, ["lrl", "lxr", "yll"])
    with pytest.raises(brasp.BraspError, match=re.escape(str(single.value))):
        ltl.ltl_accepts_batch(f, ["lrl", "lxr", "yll"], alphabet=corpus.LR_ALPHABET)
    with pytest.raises(brasp.BraspError, match="empty input string"):
        brasp.accepts_batch(dyck, ["", ""])
    with pytest.raises(ltl.LtlError, match="empty input string"):
        ltl.ltl_accepts_batch(f, [""])
    with pytest.raises(brasp.BraspError, match="strings of one length"):
        brasp.accepts_batch(dyck, ["lr", "lrr"])
    assert brasp.accepts_batch(dyck, []) == [] and ltl.ltl_accepts_batch(f, []) == []


def test_token_batches_match_character_batches():
    """Token lists and whitespace-separated symbols take the tokenizing path."""
    words = list(testkit.strings_over(AB, 4, 4))
    for seed in FORMULA_SEEDS[:20]:
        f = random_formula(seed)
        assert ltl.ltl_accepts_batch(f, [list(w) for w in words]) == ltl.ltl_accepts_batch(f, words)
    for seed in PROGRAM_SEEDS[:40]:
        prog = random_program(seed)
        if isinstance(prog.output, Accept):
            assert brasp.accepts_batch(prog, [list(w) for w in words]) == brasp.accepts_batch(prog, words)
    wide = brasp.parse_program(
        "alphabet: aa b\nP(i) := [rightmost, j<=i] Q_aa(j) ? Q_aa(j) : 0\n"
        "Y(i) := [leftmost, j>i] Q_b(j) & !P(j) ? 1 : P(i)\noutput: Y\n"
    )
    texts = [" ".join(w).replace("a", "aa") for w in words]
    assert brasp.accepts_batch(wide, texts) == [brute_accepts(wide, w) for w in texts]


# ---------------------------------------------------------------------------
# Plan lifecycle


def _has_plan(prog: BraspProgram) -> bool:
    return "_plan" in prog.__dict__


def _formula_has_plan(f: ltl.Formula) -> bool:
    return f in ltl._PLANS


MYSTERY_TEXT = "alphabet: a b\npreds: Mystery\nP(i) := [rightmost, j<=i] PRED:Mystery(j) ? Q_b(j) : 0\noutput: P\n"
FIRST = PredicateFamily("Mystery", lambda n, i: i == 1)
LAST = PredicateFamily("Mystery", lambda n, i: i == n)


def test_programs_are_built_without_a_plan():
    text = brasp.program_to_text(corpus.dyck_program())
    assert not _has_plan(brasp.parse_program(text))
    built = BraspProgram(AB, (BraspOp("P", Positionwise(bx.Var("Q_a", "i"))),), Accept("P"))
    assert not _has_plan(built)
    assert not _has_plan(random_program(3))


def test_a_plan_changes_no_equality_hash_or_pickle():
    text = brasp.program_to_text(corpus.dyck_program())
    prog = brasp.parse_program(text)
    before = pickle.dumps(prog)
    brasp.eval(prog, "llrr")
    assert _has_plan(prog)
    fresh = brasp.parse_program(text)
    assert prog == fresh and hash(prog) == hash(fresh)
    assert pickle.dumps(prog) == before
    copy = pickle.loads(pickle.dumps(prog))
    assert copy == prog and not _has_plan(copy)
    for w in ("llrr", "lrl", "rrll", "lllrrr"):
        assert brasp.eval(copy, w) == brasp.eval(prog, w)


def test_cold_and_warm_plans_give_the_same_rows():
    words = list(testkit.strings_over(corpus.LR_ALPHABET, 6))
    forward = corpus.dyck_program()
    rows = {w: brasp.eval(forward, w).rows for w in words}
    backward = corpus.dyck_program()
    for w in reversed(words):
        assert brasp.eval(backward, w).rows == rows[w], w
    for w in words:  # warm, in the first order
        assert brasp.eval(forward, w).rows == rows[w], w


def test_predicate_rows_are_computed_per_call():
    prog = brasp.parse_program(MYSTERY_TEXT)
    assert brasp.accepts(prog, "ba", {"Mystery": FIRST}) is True
    assert brasp.accepts(prog, "ba", {"Mystery": LAST}) is False
    assert brasp.accepts(prog, "ba", {"Mystery": FIRST}) is True


def test_formulas_are_built_without_a_plan():
    f = ltl.parse_formula("Qa S (Qb | PRED:Mid)")
    assert not _formula_has_plan(f)
    assert not _formula_has_plan(ltl.since_ns(ltl.atom("a"), ltl.atom("b")))


def test_a_formula_plan_changes_no_equality_hash_or_pickle():
    text = ltl.formula_to_text(corpus.phi(4))
    f = ltl.parse_formula(text)
    before_hash, before_pickle = hash(f), pickle.dumps(f)
    want = {w: ltl.ltl_accepts(f, w) for w in testkit.strings_over(corpus.PHI_ALPHABET, 4)}
    assert _formula_has_plan(f)
    assert hash(f) == before_hash and f == f
    assert ltl.formula_to_text(f) == ltl.formula_to_text(ltl.parse_formula(text))
    assert pickle.dumps(f) == before_pickle
    copy = pickle.loads(before_pickle)
    assert not _formula_has_plan(copy)
    for w, answer in reversed(list(want.items())):  # the copy cold, in reverse order
        assert ltl.ltl_accepts(copy, w) == answer, w


def test_a_formula_plan_does_not_keep_its_formula_alive():
    f = ltl.until(ltl.atom("a"), ltl.atom("b"))
    assert ltl.ltl_accepts(f, "ab") is False
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_formula_predicate_rows_are_computed_per_call():
    f = ltl.since_ns(ltl.TRUE, ltl.and_(ltl.pred("Mystery"), ltl.atom("b")))
    assert ltl.ltl_accepts(f, "ba", {"Mystery": FIRST}) is True
    assert ltl.ltl_accepts(f, "ba", {"Mystery": LAST}) is False
    assert ltl.ltl_accepts(f, "ba", {"Mystery": FIRST}) is True


def test_formula_evaluation_never_goes_through_a_program(monkeypatch):
    """Formula-vs-program diffs compare two semantics only while this holds."""
    def forbidden(*args, **kwargs):
        raise AssertionError("formula evaluated through ltl_to_brasp")

    monkeypatch.setattr(ltl, "ltl_to_brasp", forbidden)
    monkeypatch.setattr(brasp, "eval", forbidden)
    for seed in FORMULA_SEEDS[:10]:
        f = random_formula(seed)
        for w in testkit.strings_over(AB, 4):
            assert ltl.ltl_accepts(f, w) == brute_ltl_holds(f, w, len(w)), (seed, w)

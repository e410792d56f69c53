"""Every cap fails with a message that gives the count and names the cap."""

import re

import pytest

from starfree import boolexpr as bx
from starfree import brasp, compiler, corpus, ltl, normalform, testkit
from starfree.cli import main


def _named(cap: str, value: int) -> str:
    return re.escape(f"exceeds {cap} ({value})")


@pytest.fixture(scope="module")
def parity_naive():
    return compiler.compile_naive(corpus.parity_mod_program())


def test_score_atom_cap_in_score_decomposition(monkeypatch):
    monkeypatch.setattr(normalform, "SCORE_ATOM_CAP", 1)
    score = bx.conj([bx.Var("x0", "i"), bx.Var("x1", "j")])
    with pytest.raises(compiler.CompileError, match="score of 2 atoms " + _named("SCORE_ATOM_CAP", 1)):
        compiler.decompose_score(score)


def test_score_atom_cap_in_unary_score_normalization(monkeypatch):
    monkeypatch.setattr(normalform, "SCORE_ATOM_CAP", 1)
    prog = brasp.parse_program(
        "alphabet: a b\nP(i) := [leftmost, j<i] Q_a(i) & Q_b(i) & Q_a(j) ? Q_b(j) : 0\noutput: P\n"
    )
    with pytest.raises(ValueError, match="P: score of 2 query atoms " + _named("SCORE_ATOM_CAP", 1)):
        normalform.normalize_unary_score(prog)


def test_ffn_support_cap(monkeypatch):
    monkeypatch.setattr(compiler, "FFN_SUPPORT_CAP", 2)
    expr = bx.disj([compiler.catom(0), compiler.catom(1), compiler.catom(2)])
    with pytest.raises(compiler.CompileError, match="3 inputs for coordinate 3 " + _named("FFN_SUPPORT_CAP", 2)):
        compiler.ffn_from_writes(4, {3: expr})


def test_ffn_support_cap_in_depth_preserving_compilation(tmp_path, monkeypatch, capsys):
    prog = corpus.dyck_program()
    width = compiler.compile_depth_preserving(prog).width
    monkeypatch.setattr(compiler, "FFN_SUPPORT_CAP", 1)
    with pytest.raises(compiler.CompileError, match=r"for coordinate (\d+) " + _named("FFN_SUPPORT_CAP", 1)) as err:
        compiler.compile_depth_preserving(prog)
    assert int(re.search(r"coordinate (\d+)", str(err.value)).group(1)) < width
    source = tmp_path / "dyck_program"
    source.write_text(brasp.program_to_text(prog))
    assert main(["compile", str(source), "--mode", "depth", "-o", str(tmp_path / "weights")]) == 2
    assert "exceeds FFN_SUPPORT_CAP (1)" in capsys.readouterr().err


def _lowerings_before_the_cap_error(compile_fn, prog, message, monkeypatch) -> list:
    calls = []
    lower = compiler.ffn_from_writes
    monkeypatch.setattr(compiler, "ffn_from_writes", lambda *args: calls.append(args) or lower(*args))
    with pytest.raises(compiler.CompileError, match=message + _named("FFN_SUPPORT_CAP", 20)):
        compile_fn(prog)
    return calls


def test_depth_preserving_checks_every_cap_before_lowering(monkeypatch):
    # ltl_to_brasp(dyck_since) has an over-cap write above a costly layer 1.
    prog = ltl.ltl_to_brasp(corpus.dyck_since_formula(), corpus.LR_ALPHABET)
    calls = _lowerings_before_the_cap_error(
        compiler.compile_depth_preserving, prog, "30 inputs for coordinate 519 ", monkeypatch
    )
    assert calls == []


def test_naive_checks_every_cap_before_lowering(monkeypatch):
    # 21 vectors one layer each, then a last write that reads all of them.
    lines = ["alphabet: a b"] + [f"X{k}(i) := [leftmost, j<i] 1 ? Q_a(j) : 0" for k in range(21)]
    lines += ["Y(i) := " + " & ".join(f"X{k}(i)" for k in range(21)), "output: Y"]
    prog = brasp.parse_program("\n".join(lines) + "\n")
    calls = _lowerings_before_the_cap_error(
        compiler.compile_naive, prog, r"21 inputs for coordinate \d+ ", monkeypatch
    )
    assert calls == []


def test_candidate_cap(monkeypatch, parity_naive):
    monkeypatch.setattr(compiler, "CANDIDATE_CAP", 1)
    with pytest.raises(compiler.CompileError, match=r"of \d+ candidates " + _named("CANDIDATE_CAP", 1)):
        compiler.enumerate_value_set(parity_naive)


@pytest.mark.parametrize("cap, counted", [(0, "score pair enumeration of 1 pairs"), (1, "combinations")])
def test_pair_cap(cap, counted, monkeypatch, parity_naive):
    # Cap 0 stops the first head's score pairs; cap 1 lets them through and
    # stops a coordinate's (input, head output) combinations.
    monkeypatch.setattr(compiler, "PAIR_CAP", cap)
    with pytest.raises(compiler.CompileError, match=counted + ".* " + _named("PAIR_CAP", cap)):
        compiler.decompile(parity_naive)


def test_enumeration_guard(monkeypatch):
    monkeypatch.setattr(testkit, "ENUMERATION_GUARD", 5)
    with pytest.raises(ValueError, match="enumeration of 6 strings " + _named("ENUMERATION_GUARD", 5)):
        testkit.diff_languages(bool, bool, ("a", "b"), 2)


def test_decompile_command_exits_2_on_a_cap(tmp_path, monkeypatch, capsys):
    weights = tmp_path / "parity_weights"
    source = tmp_path / "parity_program"
    source.write_text(brasp.program_to_text(corpus.parity_mod_program()))
    assert main(["compile", str(source), "--mode", "naive", "-o", str(weights)]) == 0
    monkeypatch.setattr(compiler, "PAIR_CAP", 0)
    assert main(["decompile", str(weights)]) == 2
    assert "exceeds PAIR_CAP (0)" in capsys.readouterr().err

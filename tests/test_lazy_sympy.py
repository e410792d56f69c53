"""sympy is loaded only when an algebraic value exists.

Every compiled model in the corpus is rational, so compiling, saving,
loading, evaluating, diffing and decompiling them, and translating between
programs, formulas and automata, must never import sympy. Each check runs
in a fresh interpreter, since the test process itself may already hold
sympy. A sinusoidal embedding loads sympy when it is evaluated, not when it
is built.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _run(code: str) -> str:
    return _python("-c", textwrap.dedent(code)).stdout


def test_cli_import_does_not_import_sympy():
    lines = _python("-X", "importtime", "-c", "import starfree.cli").stderr.splitlines()
    assert any(line.rstrip().endswith("starfree.cli") for line in lines)
    assert not [line for line in lines if "sympy" in line]


def test_rational_workflow_never_loads_sympy():
    out = _run(
        """
        import sys
        from starfree import automata, compiler, corpus, ltl, testkit
        from starfree import transformer as tf

        prog = corpus.dyck_program()
        models = [compiler.compile_naive(prog), compiler.compile_depth_preserving(prog)]
        for model in models:
            loaded = tf.transformer_from_json(tf.transformer_to_json(model))
            for w in testkit.strings_over(prog.alphabet, 6):
                assert tf.accepts_transformer(loaded, w) == tf.accepts_transformer(model, w)
                tf.run_transformer(loaded, w)
        entry = corpus.corpus().languages["dyck"]
        report = testkit.diff_languages(
            testkit.transformer_recognizer(models[1]), entry.oracle, entry.alphabet, entry.bound
        )
        assert report.ok, report.summary()
        back = compiler.decompile(models[0], "shallower")
        assert testkit.diff_languages(
            testkit.program_recognizer(back), testkit.program_recognizer(prog), prog.alphabet, 6
        ).ok
        ltl.brasp_to_ltl(ltl.ltl_to_brasp(corpus.phi(2), corpus.PHI_ALPHABET))
        assert automata.is_counter_free(corpus.a3_dfa())
        print("sympy" in sys.modules)
        """
    )
    assert out.split() == ["False"]


def test_sinusoidal_embedding_loads_sympy_when_evaluated():
    out = _run(
        """
        import sys
        from fractions import Fraction
        from starfree.predicates import sinusoidal_pe

        pe = sinusoidal_pe([Fraction(1, 3)])
        print(pe.period, "sympy" in sys.modules)
        pe(3, 1)
        print("sympy" in sys.modules)
        """
    )
    assert out.split() == ["3", "False", "True"]


def test_exact_contract_holds_with_sympy_unloaded():
    out = _run(
        """
        import sys
        from fractions import Fraction as F
        from starfree import exact

        for call in (lambda: exact.as_exact(0.5), lambda: exact.sign("x")):
            try:
                call()
            except TypeError:
                pass
            else:
                raise AssertionError("no TypeError")
        assert exact.is_rational(object()) is False
        assert exact.is_rational(F(1, 3)) and exact.is_rational(2)
        assert exact.as_exact("2/4") == F(1, 2) and exact.as_exact(3) == F(3)
        scalars = (-2, 0, 3, F(-1, 2), F(0), F(5, 3))
        for a in scalars:
            assert exact.sign(a) == (a > 0) - (a < 0)
            assert exact.relu(a) == (a if a > 0 else 0)
            for b in scalars:
                assert exact.compare(a, b) == (a > b) - (a < b)
        assert exact.relu(-3) == 0 and type(exact.relu(F(-1, 2))) is int
        assert all(callable(f) for f in (exact.compare, exact.sign, exact._sympy_sign))
        print("sympy" in sys.modules)
        """
    )
    assert out.split() == ["False"]


def test_compare_rejects_floats_and_strings_with_sympy_unloaded():
    out = _run(
        """
        import sys
        from starfree import exact

        for call in (lambda: exact.compare(0.5, 1), lambda: exact.compare("x", 1)):
            try:
                call()
            except TypeError:
                pass
            else:
                raise AssertionError("no TypeError")
        print("sympy" in sys.modules)
        """
    )
    assert out.split() == ["False"]

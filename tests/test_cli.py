"""End-to-end command-line tests, exercising every subcommand."""

import json
import re
from pathlib import Path

import pytest

from starfree import compiler, corpus
from starfree import transformer as tf
from starfree.cli import main


@pytest.fixture()
def dyck_path(tmp_path):
    p = tmp_path / "dyck_program"
    p.write_text(corpus.data_text("dyck.brasp"))
    return str(p)


@pytest.fixture()
def phi2_path(tmp_path):
    p = tmp_path / "phi2_formula"
    p.write_text(corpus.data_text("phi2.ltl"))
    return str(p)


def test_run_accept_with_trace(dyck_path, capsys):
    code = main(["run", dyck_path, "--input", "llrrllrlrr", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("input")
    assert any(line.startswith("Y ") for line in lines)
    assert "accept: True" in out


def test_run_reject_exit_code(dyck_path, capsys):
    assert main(["run", dyck_path, "--input", "lrrlllrrrl"]) == 1


def test_run_empty_input_is_usage_error(dyck_path, capsys):
    assert main(["run", dyck_path, "--input", ""]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_output_is_byte_stable(dyck_path, capsys):
    main(["run", dyck_path, "--input", "llrr", "--trace"])
    first = capsys.readouterr().out
    main(["run", dyck_path, "--input", "llrr", "--trace"])
    second = capsys.readouterr().out
    assert first == second


def test_transduce_recall(tmp_path, capsys):
    p = tmp_path / "recall_program"
    p.write_text(corpus.data_text("recall.brasp"))
    code = main(["transduce", str(p), "--input", "a3b2b1a2c1a1c3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "a?b?b2a3c?a2c1" in out


def test_translate_then_diff_against_oracle(phi2_path, tmp_path, capsys):
    code = main(
        ["translate", "--from", "ltl", "--to", "brasp", phi2_path, "--alphabet", "a b #"]
    )
    out = capsys.readouterr().out
    assert code == 0
    prog_path = tmp_path / "phi2_program"
    prog_path.write_text(out)
    code = main(["diff", str(prog_path), "corpus:phi2", "--bound", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 mismatches" in out


def test_translate_inline_formula(capsys):
    code = main(["translate", "--from", "ltl", "--to", "brasp", "Qa S Qb", "--alphabet", "a b"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alphabet: a b" in out


def test_translate_brasp_to_ltl(dyck_path, capsys):
    code = main(["translate", "--from", "brasp", "--to", "ltl", dyck_path])
    out = capsys.readouterr().out
    assert code == 0
    assert " S " in out


def test_compile_run_transformer_and_decompile(dyck_path, tmp_path, capsys):
    weights = tmp_path / "dyck_weights"
    code = main(["compile", dyck_path, "--mode", "naive", "-o", str(weights)])
    assert code == 0
    code = main(["run-transformer", str(weights), "--input", "llrr"])
    out = capsys.readouterr().out
    assert code == 0 and "accept: True" in out
    assert main(["run-transformer", str(weights), "--input", "rl"]) == 1
    capsys.readouterr()
    code = main(["decompile", str(weights), "--variant", "smaller"])
    out = capsys.readouterr().out
    assert code == 0
    assert "output:" in out


def test_compile_depth_mode(dyck_path, tmp_path, capsys):
    weights = tmp_path / "w"
    assert main(["compile", dyck_path, "--mode", "depth", "-o", str(weights)]) == 0
    payload = json.loads(weights.read_text())
    assert len(payload["layers"]) == 3


def test_automata_subcommands(tmp_path, capsys):
    a3 = tmp_path / "a3"
    a3.write_text(corpus.data_text("a3_dfa.json"))
    aa = tmp_path / "aa"
    aa.write_text(corpus.data_text("aa_dfa.json"))
    cas = tmp_path / "cascade"
    cas.write_text(corpus.data_text("a3_cascade.json"))

    assert main(["automata", "check-cf", str(a3)]) == 0
    assert "counter-free: True" in capsys.readouterr().out
    assert main(["automata", "check-cf", str(aa)]) == 1
    capsys.readouterr()
    assert main(["automata", "verify-hom", str(cas), "--target", str(a3)]) == 0
    capsys.readouterr()
    code = main(["automata", "cascade-compile", str(cas), "--target", str(a3)])
    out = capsys.readouterr().out
    assert code == 0
    prog_path = tmp_path / "a3_program"
    prog_path.write_text(out)
    assert main(["diff", str(prog_path), str(a3), "--bound", "6"]) == 0


def _without_resets(payload):
    del payload["factors"][1]["resets"]


@pytest.mark.parametrize(
    "data, corrupt, command, named",
    [
        ("a3_dfa.json", lambda p: p.pop("alphabet"), "check-cf", "DFA: missing field 'alphabet'"),
        ("a3_dfa.json", lambda p: p.update(finals=5), "check-cf", "DFA: field 'finals' must be a list"),
        ("a3_cascade.json", _without_resets, "cascade-compile", "cascade factor 2: missing field 'resets'"),
        ("a3_dfa.json", lambda p: p["transitions"][0].pop(), "check-cf", "is not a [state, symbol, state] triple"),
        ("a3_dfa.json", lambda p: p["states"].append(["4"]), "check-cf", "is not a state or symbol name"),
    ],
)
def test_malformed_automaton_file_is_a_usage_error(data, corrupt, command, named, tmp_path, capsys):
    payload = json.loads(corpus.data_text(data))
    corrupt(payload)
    path = tmp_path / "automaton"
    path.write_text(json.dumps(payload))
    target = tmp_path / "a3"
    target.write_text(corpus.data_text("a3_dfa.json"))
    argv = ["automata", command, str(path)] + (["--target", str(target)] if command != "check-cf" else [])
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_diff_json_lines_and_jobs(capsys):
    code = main(
        [
            "diff", "corpus:phi1", "corpus:phi2",
            "--bound", "3", "--format", "json-lines",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["mismatches"] > 0
    assert all("string" in entry for entry in lines[:-1])


def test_diff_with_jobs(dyck_path, capsys):
    code = main(["diff", dyck_path, "corpus:dyck", "--bound", "6", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "0 mismatches" in out


def test_diff_jobs_split_gives_the_single_process_report(capsys):
    reports = {}
    for jobs in (1, 2, 3):
        for fmt in ("text", "json-lines"):
            code = main(["diff", "corpus:phi1", "corpus:phi2", "--bound", "4",
                         "--format", fmt, "--jobs", str(jobs)])
            assert code == 1
            reports[jobs, fmt] = capsys.readouterr().out
    lines = [json.loads(line) for line in reports[1, "json-lines"].splitlines()]
    assert lines[-1]["checked"] == 3 + 9 + 27 + 81 and lines[-1]["mismatches"] > 1
    strings = [entry["string"] for entry in lines[:-1]]
    order = corpus.PHI_ALPHABET.symbols
    assert strings == sorted(strings, key=lambda w: (len(w), [order.index(c) for c in w]))
    for (jobs, fmt), out in reports.items():
        assert out == reports[1, fmt], (jobs, fmt)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_diff_with_a_symbol_outside_a_program_alphabet_exits_2(dyck_path, jobs, capsys):
    code = main(["diff", dyck_path, "corpus:dyck", "--alphabet", "l r x", "--jobs", jobs])
    assert code == 2
    assert "symbol 'x' not in alphabet" in capsys.readouterr().err


def test_an_alphabet_symbol_with_a_separator_exits_2(capsys):
    assert main(["diff", "corpus:phi1", "corpus:phi2", "--bound", "2", "--alphabet", "a ("]) == 2
    assert "bad alphabet symbol '('" in capsys.readouterr().err


def test_a_program_without_an_output_line_is_no_recognizer(tmp_path, capsys):
    path = tmp_path / "program"
    path.write_text("alphabet: a\nP(i) := Q_a(i)\n")
    assert main(["diff", str(path), "corpus:aa_star", "--bound", "2"]) == 2
    assert "has no 'output:' line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where",
    [
        ("alphabet: a\nP(i) := (Q_a(i) & Q_a(i)\noutput: P\n", "line 2, col 25: expected ')'"),
        ("alphabet: a\nP(i) := Q_a(i) &\noutput: P\n", "line 2, col 17: expected an operand"),
        ("alphabet: a\nP(i) := [leftmost, j<i] Q_a(j) : 0\noutput: P\n", "line 2, col 32: expected '?'"),
        ("alphabet: a\nP(i) := [leftmost, j<i] 1 ? Q_a(j)\noutput: P\n", "line 2, col 35: expected ':'"),
        ("alphabet: a\nP(i) := Q_a(k)\noutput: P\n", "line 2, col 13: expected position i or j"),
        ("alphabet: a\nP(i) := Q_a(i) Q_a(i)\noutput: P\n", "line 2, col 16: expected an operator"),
        ("(Qa S Qb\n", "offset 8: expected ')'"),
        ("Qa &\n", "offset 4: expected an operand"),
        ("Qa S\n", "offset 4: expected an operand"),
        ("Qa Qb\n", "offset 3: expected an operator"),
    ],
)
def test_a_malformed_program_or_formula_file_names_where_it_fails(text, where, tmp_path, capsys):
    path = tmp_path / "source"
    path.write_text(text)
    assert main(["translate", "--from", "ltl", "--to", "brasp", str(path)]
                if ":=" not in text else ["run", str(path), "--input", "a"]) == 2
    assert where in capsys.readouterr().err


def test_input_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    formula = tmp_path / "formula"
    formula.write_text("!" * 3000 + "Qa\n")
    program = tmp_path / "program"
    program.write_text("alphabet: a\nY(i) := " + "(" * 1200 + "Q_a(i)" + ")" * 1200 + "\noutput: Y\n")
    assert main(["translate", "--from", "ltl", "--to", "brasp", str(formula)]) == 2
    assert "the input nests too deeply" in capsys.readouterr().err
    assert main(["run", str(program), "--input", "a"]) == 2
    assert "the input nests too deeply" in capsys.readouterr().err


def test_an_unwritable_predicate_family_name_exits_2(tmp_path, capsys):
    path = tmp_path / "program"
    path.write_text("alphabet: a\npreds: a:b\nY(i) := Q_a(i)\noutput: Y\n")
    assert main(["run", str(path), "--input", "a"]) == 2
    assert "bad predicate family name 'a:b'" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_diff_jobs_below_one_is_an_error(jobs, capsys):
    code = main(["diff", "corpus:phi1", "corpus:phi2", "--bound", "2", "--jobs", jobs])
    assert code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_diff_bound_below_one_is_an_error_with_any_jobs(jobs, capsys):
    code = main(["diff", "corpus:phi1", "corpus:phi2", "--bound", "0", "--jobs", jobs])
    assert code == 2
    assert "bound must be at least 1" in capsys.readouterr().err


def test_stutter_check(capsys):
    assert main(["stutter-check", "corpus:apbp_star", "--bound", "6"]) == 0
    capsys.readouterr()
    code = main(["stutter-check", "corpus:ab_star", "--bound", "6"])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness" in out


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_stutter_check_bound_below_one_is_an_error(bound, capsys):
    assert main(["stutter-check", "corpus:apbp_star", "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert "bound must be at least 1" in captured.err
    assert "stutter-invariant" not in captured.out


@pytest.mark.parametrize("bound", ["22", "26"])
def test_stutter_check_past_the_enumeration_guard_is_an_error(bound, capsys):
    # Bound 22 passes `diff` (8.4 million strings); the doubled strings of
    # length 23 take the stutter check past the guard.
    assert main(["stutter-check", "corpus:apbp_star", "--bound", bound]) == 2
    assert "exceeds ENUMERATION_GUARD" in capsys.readouterr().err


def test_corpus_list_and_show(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "language dyck" in out and "data dyck.brasp" in out
    assert main(["corpus", "show", "phi4.ltl"]) == 0
    assert "Qb S" in capsys.readouterr().out


def test_unknown_file_is_error(capsys):
    assert main(["run", "/nonexistent/path", "--input", "a"]) == 2


def _dyck_payload() -> dict:
    model = compiler.compile_naive(corpus.dyck_program())
    return json.loads(tf.transformer_to_json(model))


def _as_format_1(payload: dict) -> dict:
    """The same weights in the format-1 layout: matrices as dense rows."""

    def dense(spec):
        rows, cols = spec["shape"]
        out = [["0"] * cols for _ in range(rows)]
        for r, c, v in spec["entries"]:
            out[r][c] = v
        return out

    for layer in payload["layers"]:
        for head in layer["heads"]:
            head["score"], head["value"] = dense(head["score"]), dense(head["value"])
        ffn = layer["ffn"]
        ffn["w1"], ffn["w2"] = dense(ffn["w1"]), dense(ffn["w2"])
    del payload["format"]
    return payload


def _sinusoidal(payload, frequency):
    """Give the model a sinusoidal position embedding of one frequency."""
    payload["position_embeddings"] = [{"offset": 0, "pe": {"kind": "sinusoidal", "frequencies": [frequency]}}]


def _write(tmp_path, payload) -> str:
    path = tmp_path / "weights"
    path.write_text(json.dumps(payload))
    return str(path)


def test_format_1_weight_file_runs(tmp_path, capsys):
    path = _write(tmp_path, _as_format_1(_dyck_payload()))
    assert main(["run-transformer", path, "--input", "llrr"]) == 0
    assert "accept: True" in capsys.readouterr().out
    assert main(["run-transformer", path, "--input", "lrrl"]) == 1


@pytest.mark.parametrize("fmt", [1, 2])
def test_short_value_matrix_is_rejected(fmt, tmp_path, capsys):
    # The last layer's head copies the attended value bit into the last
    # coordinate. Without the row that writes it, the model would reject
    # "llrr"; loading must fail instead.
    payload = _dyck_payload()
    last = payload["width"] - 1
    value = payload["layers"][-1]["heads"][0]["value"]
    assert any(r == last for r, _c, _v in value["entries"])
    if fmt == 1:
        payload = _as_format_1(payload)
        payload["layers"][-1]["heads"][0]["value"].pop()
    else:
        value["shape"][0] = last
        value["entries"] = [e for e in value["entries"] if e[0] != last]
    path = _write(tmp_path, payload)
    with pytest.raises(tf.TransformerError, match="value matrix"):
        tf.transformer_from_json(Path(path).read_text())
    assert main(["run-transformer", path, "--input", "llrr"]) == 2
    assert "value matrix" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda p: p["layers"][0].pop("ffn"), "layer 1: missing field 'ffn'"),
        (lambda p: p.update(format=3), "unknown format 3"),
        (lambda p: p.pop("width"), "missing field 'width'"),
        (lambda p: p["layers"][0]["heads"][0].update(mask="j<>i"), "layer 1: head 0"),
        (lambda p: p["layers"][1]["heads"][0]["score"]["entries"].append([0, p["width"], "1"]), "outside"),
        (lambda p: p["layers"][0]["ffn"]["w1"]["entries"][0].pop(), "layer 1: ffn: w1"),
        (lambda p: p["layers"][0]["ffn"]["b1"].pop(), "feed-forward b1"),
        (lambda p: p["embedding"]["l"].pop(), "embedding of 'l'"),
        (lambda p: p["output"]["weights"].pop(), "output weights"),
        # Scalars are JSON strings with nonzero denominators.
        (lambda p: p["output"].update(bias="1/0"), "output bias: scalar token '1/0' has a zero denominator"),
        (lambda p: p["output"].update(bias=True), "output bias: scalar token True is not a string"),
        (lambda p: p["layers"][0]["ffn"]["b1"].__setitem__(0, 1), "layer 1: ffn: scalar token 1 is not a string"),
        (lambda p: _sinusoidal(p, "1/0"), "position embedding 0: scalar token '1/0' has a zero denominator"),
        (lambda p: _sinusoidal(p, 0.1), "position embedding 0: scalar token 0.1 is not a string"),
        # Vectors, matrix entries, layers and heads are JSON lists.
        (lambda p: p.update(layers=""), "weight file: layers is not a list"),
        (lambda p: p.update(layers={}), "layers is not a list"),
        (lambda p: p["layers"][0].update(heads={}), "layer 1: heads is not a list"),
        (lambda p: p["layers"][1]["heads"][0]["score"].update(entries={}), "layer 2: head 0: score: entries"),
        (lambda p: p["layers"][0]["ffn"].update(b2="0" * p["width"]), "layer 1: ffn: b2 is not a list"),
        (lambda p: p["embedding"].update(l="0" * p["width"]), "embedding of 'l' is not a list"),
        (lambda p: p.update(alphabet="lr"), "alphabet is not a list"),
        (lambda p: p.update(position_embeddings={}), "position embeddings is not a list"),
    ],
)
def test_malformed_weight_file_is_a_usage_error(corrupt, named, tmp_path, capsys):
    payload = _dyck_payload()
    corrupt(payload)
    path = _write(tmp_path, payload)
    with pytest.raises(tf.TransformerError, match=re.escape(named)):
        tf.transformer_from_json(Path(path).read_text())
    assert main(["run-transformer", path, "--input", "llrr"]) == 2
    assert named in capsys.readouterr().err


def test_run_transformer_runs_the_model_once(dyck_path, tmp_path, monkeypatch, capsys):
    weights = tmp_path / "w"
    assert main(["compile", dyck_path, "-o", str(weights)]) == 0
    calls = []
    real = tf.run_transformer

    def counting(model, text):
        calls.append(text)
        return real(model, text)

    monkeypatch.setattr(tf, "run_transformer", counting)
    assert main(["run-transformer", str(weights), "--input", "llrr", "--trace"]) == 0
    assert "accept: True" in capsys.readouterr().out
    assert calls == ["llrr"]

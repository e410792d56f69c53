"""Command-line entry point exposing every pipeline.

Exit codes: 0 for success or accept, 1 for reject (or a found mismatch /
witness), 2 for usage and input errors. Input files are detected by
content: JSON objects are automata, cascades, or transformer weights
depending on their keys; text with ":=" lines is a program; anything else
is parsed as a formula. `corpus:NAME` names a built-in language's oracle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import automata, brasp, compiler, corpus, ltl, testkit
from . import transformer as tf
from .brasp import Alphabet


class CliError(Exception):
    pass


def _read(path: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def sniff_kind(text: str) -> str:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        if "factors" in payload:
            return "cascade"
        if "layers" in payload:
            return "transformer"
        if "transitions" in payload:
            return "dfa"
        raise CliError("unrecognized JSON input (want dfa, cascade, or transformer keys)")
    if ":=" in stripped:
        return "brasp"
    return "ltl"


def load_artifact(path: str):
    text = _read(path)
    kind = sniff_kind(text)
    if kind == "brasp":
        return kind, brasp.parse_program(text)
    if kind == "ltl":
        return kind, ltl.parse_formula(text)
    if kind == "dfa":
        return kind, automata.dfa_from_json(text)
    if kind == "cascade":
        return kind, automata.cascade_from_json(text)
    return kind, tf.transformer_from_json(text)


def recognizer_spec(spec: str):
    """Build (name, alphabet or None, membership callable) from a CLI spec."""
    if spec.startswith("corpus:"):
        name = spec[len("corpus:"):]
        entry = corpus.corpus().languages.get(name)
        if entry is None:
            raise CliError(f"no corpus language named {name!r}")
        return name, entry.alphabet, entry.oracle
    kind, art = load_artifact(spec)
    if kind == "brasp":
        if not isinstance(art.output, brasp.Accept):
            raise CliError(f"{spec}: transducers cannot be used as recognizers")
        return spec, art.alphabet, testkit.program_recognizer(art)
    if kind == "ltl":
        return spec, None, testkit.formula_recognizer(art)
    if kind == "dfa":
        return spec, art.alphabet, art.accepts
    if kind == "transformer":
        return spec, art.alphabet, testkit.transformer_recognizer(art)
    raise CliError(f"{spec}: cascades need 'automata cascade-compile' first")


def _alphabet_from(args, *candidates) -> Alphabet:
    if getattr(args, "alphabet", None):
        return Alphabet(tuple(args.alphabet.split()))
    for c in candidates:
        if c is not None:
            return c
    raise CliError("cannot infer an alphabet; pass --alphabet 'a b c'")


def _emit(args, payload: dict, text: str):
    if args.format == "json-lines":
        print(json.dumps(payload, default=str))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    kind, prog = load_artifact(args.program)
    if kind != "brasp":
        raise CliError(f"{args.program} is not a program")
    if args.input is None:
        raise CliError("run needs --input")
    trace = brasp.eval(prog, args.input)
    if args.trace:
        print(trace.format_table())
    if isinstance(prog.output, brasp.Accept):
        accepted = bool(trace.value(prog.output.vector, trace.n))
        _emit(args, {"input": args.input, "accept": accepted}, f"accept: {accepted}")
        return 0 if accepted else 1
    out = brasp.transduce(prog, args.input)
    _emit(args, {"input": args.input, "output": out}, f"output: {out}")
    return 0


def cmd_transduce(args) -> int:
    kind, prog = load_artifact(args.program)
    if kind != "brasp" or not isinstance(prog.output, brasp.Transduce):
        raise CliError(f"{args.program} is not a transducer program")
    out = brasp.transduce(prog, args.input)
    if args.trace:
        print(brasp.eval(prog, args.input).format_table())
    _emit(args, {"input": args.input, "output": out}, out)
    return 0


def cmd_translate(args) -> int:
    src_text = _read(args.source) if os.path.exists(args.source) else args.source
    if args.src == "ltl" and args.dst == "brasp":
        formula = ltl.parse_formula(src_text)
        alphabet = None
        if args.alphabet:
            alphabet = Alphabet(tuple(args.alphabet.split()))
        prog = ltl.ltl_to_brasp(formula, alphabet, until_free=args.since_only)
        sys.stdout.write(brasp.program_to_text(prog))
        return 0
    if args.src == "brasp" and args.dst == "ltl":
        prog = brasp.parse_program(src_text)
        nonstrict = None
        if args.mask:
            nonstrict = args.mask == "nonstrict"
        formula = ltl.brasp_to_ltl(prog, nonstrict_none=nonstrict)
        print(ltl.formula_to_text(formula))
        return 0
    raise CliError(f"unsupported translation {args.src} -> {args.dst}")


def cmd_compile(args) -> int:
    kind, prog = load_artifact(args.program)
    if kind != "brasp":
        raise CliError(f"{args.program} is not a program")
    model = (
        compiler.compile_naive(prog)
        if args.mode == "naive"
        else compiler.compile_depth_preserving(prog)
    )
    text = tf.transformer_to_json(model, getattr(model, "coord_doc", None))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_decompile(args) -> int:
    kind, model = load_artifact(args.weights)
    if kind != "transformer":
        raise CliError(f"{args.weights} is not a transformer weight file")
    prog = compiler.decompile(model, args.variant)
    sys.stdout.write(brasp.program_to_text(prog))
    return 0


def cmd_run_transformer(args) -> int:
    kind, model = load_artifact(args.weights)
    if kind != "transformer":
        raise CliError(f"{args.weights} is not a transformer weight file")
    trace = tf.run_transformer(model, args.input)
    if args.trace:
        from .exact import to_token

        for ell in range(model.depth + 1):
            acts = trace.activations(ell)
            for i, vec in enumerate(acts, start=1):
                cells = " ".join(to_token(v) for v in vec)
                print(f"layer {ell} pos {i}: {cells}")
    if model.output is None:
        _emit(args, {"input": args.input, "accept": None}, "no output layer")
        return 0
    accepted = tf.trace_accepts(model, trace)
    _emit(args, {"input": args.input, "accept": accepted}, f"accept: {accepted}")
    return 0 if accepted else 1


def cmd_automata(args) -> int:
    if args.auto_cmd == "check-cf":
        kind, dfa = load_artifact(args.dfa)
        if kind != "dfa":
            raise CliError(f"{args.dfa} is not an automaton file")
        ok = automata.is_counter_free(dfa)
        _emit(args, {"counter_free": ok}, f"counter-free: {ok}")
        return 0 if ok else 1
    kind, cascade = load_artifact(args.cascade)
    if kind != "cascade":
        raise CliError(f"{args.cascade} is not a cascade file")
    tkind, target = load_artifact(args.target)
    if tkind != "dfa":
        raise CliError(f"{args.target} is not an automaton file")
    if args.auto_cmd == "verify-hom":
        ok = automata.check_homomorphism(cascade, target)
        _emit(args, {"homomorphism": ok}, f"homomorphism: {ok}")
        return 0 if ok else 1
    prog = automata.cascade_to_brasp(cascade, target)
    sys.stdout.write(brasp.program_to_text(prog))
    return 0


def _diff_part(spec_a, spec_b, symbols, bound, part, parts):
    """Compare on the part-th of `parts` equal slices of every length's strings."""
    _, _, left = recognizer_spec(spec_a)
    _, _, right = recognizer_spec(spec_b)
    mismatches = []
    checked = 0
    for n in range(1, bound + 1):
        total = len(symbols) ** n
        strings = testkit.strings_over(symbols, n, n)
        for w in itertools.islice(strings, total * part // parts, total * (part + 1) // parts):
            checked += 1
            a, b = bool(left(w)), bool(right(w))
            if a != b:
                mismatches.append((w, a, b))
    return checked, mismatches


def cmd_diff(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    name_a, alpha_a, left = recognizer_spec(args.left)
    name_b, alpha_b, right = recognizer_spec(args.right)
    alphabet = _alphabet_from(args, alpha_a, alpha_b)
    if args.jobs > 1:
        symbols = tuple(alphabet.symbols)
        testkit.check_enumeration(symbols, args.bound)
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_diff_part, args.left, args.right, symbols, args.bound, k, args.jobs)
                for k in range(args.jobs)
            ]
            parts = [fut.result() for fut in futures]
        # Each part lists its mismatches by length, and part k's strings of a
        # length precede part k+1's: a stable sort by length restores
        # length-lexicographic order.
        mismatches = sorted((m for _, ms in parts for m in ms), key=lambda m: len(m[0]))
        checked = sum(c for c, _ in parts)
        report = testkit.DiffReport(name_a, name_b, symbols, args.bound, checked, mismatches)
    else:
        report = testkit.diff_languages(
            left, right, alphabet, args.bound, names=(name_a, name_b)
        )
    if args.format == "json-lines":
        for w, a, b in report.mismatches:
            print(json.dumps({"string": w, "left": a, "right": b}))
        print(
            json.dumps(
                {
                    "checked": report.checked,
                    "mismatches": len(report.mismatches),
                    "bound": report.bound,
                }
            )
        )
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_stutter_check(args) -> int:
    name, alpha, recog = recognizer_spec(args.recognizer)
    alphabet = _alphabet_from(args, alpha)
    ok, witness = testkit.stutter_invariant_up_to(recog, alphabet, args.bound)
    if ok:
        _emit(args, {"stutter_invariant": True}, "stutter-invariant: true")
        return 0
    payload = {
        "stutter_invariant": False,
        "prefix": witness.prefix,
        "symbol": witness.symbol,
        "suffix": witness.suffix,
    }
    _emit(
        args,
        payload,
        f"stutter-invariant: false (witness u={witness.prefix!r}, "
        f"a={witness.symbol!r}, v={witness.suffix!r})",
    )
    return 1


def cmd_corpus(args) -> int:
    if args.corpus_cmd == "list":
        c = corpus.corpus()
        for name in sorted(c.languages):
            print(f"language {name}")
        for name in corpus.data_names():
            print(f"data {name}")
        return 0
    try:
        sys.stdout.write(corpus.data_text(args.name))
    except FileNotFoundError:
        raise CliError(f"no corpus data file named {args.name!r}") from None
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="starfree", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json-lines"), default="text")

    sp = sub.add_parser("run", help="run a program on an input string")
    sp.add_argument("program")
    sp.add_argument("--input", required=True)
    sp.add_argument("--trace", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("transduce", help="run a transducer program")
    sp.add_argument("program")
    sp.add_argument("--input", required=True)
    sp.add_argument("--trace", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_transduce)

    sp = sub.add_parser("translate", help="translate between formulas and programs")
    sp.add_argument("--from", dest="src", choices=("ltl", "brasp"), required=True)
    sp.add_argument("--to", dest="dst", choices=("ltl", "brasp"), required=True)
    sp.add_argument("source", help="file path or inline text")
    sp.add_argument("--alphabet")
    sp.add_argument("--mask", choices=("strict", "nonstrict"))
    sp.add_argument("--since-only", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_translate)

    sp = sub.add_parser("compile", help="compile a program to transformer weights")
    sp.add_argument("program")
    sp.add_argument("--mode", choices=("naive", "depth"), default="naive")
    sp.add_argument("-o", "--output")
    common(sp)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("decompile", help="translate transformer weights to a program")
    sp.add_argument("weights")
    sp.add_argument("--variant", choices=("shallower", "smaller"), default="shallower")
    common(sp)
    sp.set_defaults(func=cmd_decompile)

    sp = sub.add_parser("run-transformer", help="run a transformer on an input string")
    sp.add_argument("weights")
    sp.add_argument("--input", required=True)
    sp.add_argument("--trace", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_run_transformer)

    sp = sub.add_parser("automata", help="automata checks and compilation")
    asub = sp.add_subparsers(dest="auto_cmd", required=True)
    a1 = asub.add_parser("check-cf", help="decide counter-freeness")
    a1.add_argument("dfa")
    common(a1)
    a2 = asub.add_parser("verify-hom", help="verify a cascade homomorphism")
    a2.add_argument("cascade")
    a2.add_argument("--target", required=True)
    common(a2)
    a3 = asub.add_parser("cascade-compile", help="compile a cascade to a program")
    a3.add_argument("cascade")
    a3.add_argument("--target", required=True)
    common(a3)
    sp.set_defaults(func=cmd_automata)

    sp = sub.add_parser("diff", help="exhaustively compare two recognizers")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--bound", type=int, default=6)
    sp.add_argument("--alphabet")
    sp.add_argument("--jobs", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_diff)

    sp = sub.add_parser("stutter-check", help="check stutter invariance up to a bound")
    sp.add_argument("recognizer")
    sp.add_argument("--bound", type=int, default=6)
    sp.add_argument("--alphabet")
    common(sp)
    sp.set_defaults(func=cmd_stutter_check)

    sp = sub.add_parser("corpus", help="list or dump the example corpus")
    csub = sp.add_subparsers(dest="corpus_cmd", required=True)
    c1 = csub.add_parser("list")
    common(c1)
    c2 = csub.add_parser("show")
    c2.add_argument("name")
    common(c2)
    sp.set_defaults(func=cmd_corpus)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (brasp.BraspError, ltl.LtlError, automata.AutomatonError,
            compiler.CompileError, tf.TransformerError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

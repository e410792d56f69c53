"""The four benchmark workloads, written against the public `starfree` API.

Each workload has a set-up (parsing, input generation and set-up
compiles, all drawn from one `random.Random(seed)`), a timed pass that is
repeated for the length of a run, and an untimed `verify` for checks too
costly to repeat. Every call into the program is one operation of a
`Recorder`: an operation fails when it raises or when its result differs
from an independent reference, and a failure is counted, not raised.

Module functions are always looked up at call time (`testkit.diff_languages`,
never a name bound at import), so that a traced run sees its wrappers.

Bounds are below the acceptance suite's so that one pass takes a few
seconds and a run holds several passes; each workload says where.
"""

from __future__ import annotations

import random
import time

from starfree import automata, brasp, compiler, corpus, ltl, normalform, testkit
from starfree import transformer as tf

DECOMPILE_VARIANTS = ("shallower", "smaller")


class Recorder:
    """Operations attempted and failed, verdict latencies, and per-pass
    stage times and counts, timed by `clock`."""

    def __init__(self, tracer=None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.latency: dict = {}  # model label -> seconds per verdict
        self.new_pass()

    def new_pass(self):
        self.stages: dict = {}
        self.counts: dict = {}
        self._marks = {label: len(v) for label, v in self.latency.items()}

    def rescale(self, scale: float):
        """Rescale the stage times and verdict latencies of the current pass."""
        self.stages = {k: v * scale for k, v in self.stages.items()}
        for label, values in self.latency.items():
            for k in range(self._marks.get(label, 0), len(values)):
                values[k] *= scale

    def count(self, key: str, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def fail(self, label: str, problem: str):
        self.failed += 1
        self.errors.append(f"{label}: {problem}")

    def op(self, label: str, fn, *args, check=None, stage=None):
        """Call fn(*args) as one operation; `check(result)` returns a problem or None."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        start = self.clock()
        try:
            result = fn(*args)
        except Exception as exc:  # counted into error_rate, the run goes on
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if stage is not None:
                self.stages[stage] = self.stages.get(stage, 0.0) + self.clock() - start
        problem = check(result) if check is not None else None
        if problem:
            self.fail(label, problem)
        return result

    def timed(self, label: str, model):
        """A recognizer for `model` that records the latency of each verdict."""
        samples = self.latency.setdefault(label, [])
        clock = self.clock

        def recognize(w):
            start = clock()
            verdict = tf.accepts_transformer(model, w)
            samples.append(clock() - start)
            return verdict

        return recognize

    def diff(self, label: str, left, right, alphabet, bound: int):
        """One exhaustive diff, checked for mismatches and for its string count."""
        k = len(alphabet.symbols)
        expected = sum(k ** n for n in range(1, bound + 1))

        def check(report):
            if report.checked != expected:
                return f"checked {report.checked} strings, expected {expected}"
            if not report.ok:
                return report.summary()
            return None

        report = self.op(label, testkit.diff_languages, left, right, alphabet, bound,
                         check=check)
        if report is not None:
            self.count("strings", report.checked)
            self.count("mismatches", len(report.mismatches))
        return report


# ---------------------------------------------------------------------------
# Inputs


def dyck_program():
    return brasp.parse_program(corpus.data_text("dyck.brasp"))


def formula(name: str):
    return ltl.parse_formula(corpus.data_text(f"{name}.ltl"))


def normalized(prog):
    return normalform.flatten_defaults(
        normalform.normalize_unary_score(normalform.normalize_unary_value(prog)))


def weight_counts(model) -> tuple:
    """(nonzero, total) scalars over every weight vector and matrix of a model."""
    vectors = [list(v) for v in model.embedding.values()]
    for layer in model.layers:
        for head in layer.heads:
            vectors += [list(r) for r in head.score_matrix + head.value_matrix]
            if head.value_bias is not None:
                vectors.append(list(head.value_bias))
        ffn = layer.ffn
        vectors += [list(r) for r in ffn.w1 + ffn.w2] + [list(ffn.b1), list(ffn.b2)]
        for ln in (layer.ln_att, layer.ln_ffn):
            if ln is not None:
                vectors += [list(ln.gamma), list(ln.beta)]
    if model.output is not None:
        vectors.append(list(model.output.weights))
    nnz = sum(1 for vec in vectors for v in vec if v != 0)
    return nnz, sum(len(vec) for vec in vectors)


RANDOM_NNZ = (100, 600)
RANDOM_SCALARS = (4000, 8000)


def draw_programs(rng: random.Random, count: int) -> list:
    """Seeded random non-strict programs of a stated size, with both models.

    Kept: attention depth 1, at most 6 operations after the normal-form
    rewrites, and over the two compiled models 100-600 nonzero weights
    (which set evaluation cost) and 4,000-8,000 stored scalars (which set
    save and load cost); a program a compiler rejects is skipped like any
    other outside the band. Unfiltered, one program in a few dozen compiles to
    feed-forward nets hundreds of times larger, and its cost alone would
    decide a run.
    """
    out = []
    while len(out) < count:
        prog = testkit.random_nonstrict_program(rng.randrange(2 ** 31), max_ops=3)
        if brasp.attention_depth(prog) != 1 or len(normalized(prog).ops) > 6:
            continue
        try:
            naive = compiler.compile_naive(prog)
            if weight_counts(naive)[1] > RANDOM_SCALARS[1]:
                continue  # skip the depth-preserving compile of an oversized program
            deep = compiler.compile_depth_preserving(prog)
        except compiler.CompileError:
            continue
        nnz, scalars = (a + b for a, b in zip(weight_counts(naive), weight_counts(deep)))
        if RANDOM_NNZ[0] <= nnz <= RANDOM_NNZ[1] and RANDOM_SCALARS[0] <= scalars <= RANDOM_SCALARS[1]:
            out.append((prog, naive, deep))
    return out


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    why = ""
    #: end-to-end metrics beyond setup_s, wall_s, peak_rss_mb and error_rate
    reports: tuple = ()

    def setup(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def run_pass(self, state: dict, rec: Recorder):
        raise NotImplementedError

    def verify(self, state: dict, rec: Recorder):
        """Untimed checks, run once after the timed passes."""

    def models(self, state: dict) -> list:
        """Models whose methods a traced run wraps."""
        return []


class ExhaustiveDiff(Workload):
    """Both compilers' models against `brasp.accepts` on every short string.

    Acceptance criterion 04 uses bounds 8 (dyck) and 7; here dyck runs to
    length 6 and the three-letter languages to 5, which keeps 64-243
    strings of each top length for lockstep evaluation to share.
    """

    name = "exhaustive-diff"
    why = "the paper's core differential check, dominated by transformer attention on many short strings"
    reports = ("strings_per_s", "string_ms_p50", "string_ms_p90")
    BOUNDS = {"dyck": 6, "phi2": 5, "phi4": 5, "stair_2": 5, "random": 5}
    RANDOM_PROGRAMS = 4

    def setup(self, rng):
        programs = {
            "dyck": dyck_program(),
            "phi2": ltl.ltl_to_brasp(formula("phi2"), corpus.PHI_ALPHABET),
            "phi4": ltl.ltl_to_brasp(formula("phi4"), corpus.PHI_ALPHABET),
            "stair_2": ltl.ltl_to_brasp(testkit.stair_formula(2), testkit.STAIR_ALPHABET),
        }
        cases = []
        for name, prog in programs.items():
            cases.append((name, "naive", compiler.compile_naive(prog), prog))
            cases.append((name, "depth", compiler.compile_depth_preserving(prog), prog))
        for k, (prog, naive, deep) in enumerate(draw_programs(rng, self.RANDOM_PROGRAMS)):
            cases += [(f"random{k}", "naive", naive, prog), (f"random{k}", "depth", deep, prog)]
        return {"cases": cases}

    def run_pass(self, state, rec):
        for name, compiled, model, prog in state["cases"]:
            group = "random" if name.startswith("random") else name
            rec.diff(f"{name}-{compiled}", rec.timed(f"{group}-{compiled}", model),
                     testkit.program_recognizer(prog), prog.alphabet, self.BOUNDS[group])

    def models(self, state):
        return [model for _, _, model, _ in state["cases"]]


def dyck_member(rng: random.Random, n: int) -> str:
    """A uniformly stepped walk in depth 0..2 of even length n that ends at 0."""
    out, depth = [], 0
    for left in range(n, 0, -1):
        up = depth < 2 and left - 1 >= depth + 1
        down = depth > 0
        step = "l" if up and (not down or rng.random() < 0.5) else "r"
        depth += 1 if step == "l" else -1
        out.append(step)
    return "".join(out)


class LongInputs(Workload):
    """One verdict at a time on long strings, checked against the dyck oracle.

    The lengths are fixed (16, 24, ..., 64) so that the O(n^2) attention
    cost of a pass does not swing with the seed, which draws the symbols:
    every other string is a dyck member, the rest are uniform random.
    """

    name = "long-inputs"
    why = "single long strings with O(n^2) attention and nothing shared across a length; the only real LayerNorm work"
    reports = ("string_ms_p50", "string_ms_p90")
    LENGTHS = (16, 24, 32, 40, 48, 56, 64)

    def setup(self, rng):
        prog = dyck_program()
        naive = compiler.compile_naive(prog)
        models = {
            "dyck-naive": naive,
            "dyck-depth": compiler.compile_depth_preserving(prog),
            "dyck-ln": tf.apply_layernorm_encoding(naive),
        }
        inputs = []
        for k, n in enumerate(self.LENGTHS):
            if k % 2 == 0:
                inputs.append(dyck_member(rng, n))
            else:
                inputs.append("".join(rng.choice("lr") for _ in range(n)))
        return {"models": models, "inputs": inputs}

    def run_pass(self, state, rec):
        for label, model in state["models"].items():
            recognize = rec.timed(label, model)
            for w in state["inputs"]:
                rec.op(label, recognize, w, check=lambda got, w=w: (
                    None if got == corpus.ORACLES["dyck"](w) else f"{w!r}: verdict {got}"))

    def models(self, state):
        return list(state["models"].values())


# Counts at the seed commit: the value-set sizes and decompiled operation
# counts are deterministic functions of the corpus models.
PINNED = {
    "dyck-naive": {"value_set": 1150, "shallower": 170, "smaller": 119},
    "parity_mod-naive": {"value_set": 4, "shallower": 5, "smaller": 4},
}


class CompileRoundtrip(Workload):
    """Compile, save, load, enumerate and decompile, with no strings evaluated.

    The corpus programs are `corpus.corpus().programs` (dyck, and parity_mod,
    which has position predicates and so compiles naively only), plus seeded
    random programs. Naive models are enumerated and decompiled, as in
    acceptance criterion 05; decompiling the depth-preserving dyck model
    takes over 10 s.
    """

    name = "compile-roundtrip"
    why = "compilers, weight-file save and load, value sets and decompilation, where the dense weight layout dominates"
    reports = ("compile_s", "save_s", "load_s", "decompile_s", "weight_bytes")
    RANDOM_PROGRAMS = 3

    def setup(self, rng):
        programs = {"dyck": dyck_program(), "parity_mod": corpus.parity_mod_program()}
        for k, (prog, _, _) in enumerate(draw_programs(rng, self.RANDOM_PROGRAMS)):
            programs[f"random{k}"] = prog
        return {"programs": programs, "outputs": {}}

    def run_pass(self, state, rec):
        outputs = state["outputs"]
        for name, prog in state["programs"].items():
            compilers = [("naive", compiler.compile_naive)]
            if not prog.predicate_families:
                compilers.append(("depth", compiler.compile_depth_preserving))
            for kind, compile_fn in compilers:
                label = f"{name}-{kind}"
                model = rec.op(f"{label} compile", compile_fn, prog, stage="compile")
                if model is None:
                    continue
                text = rec.op(f"{label} save", tf.transformer_to_json, model, stage="save")
                if text is None:
                    continue
                loaded = rec.op(f"{label} load", tf.transformer_from_json, text, stage="load")
                if loaded is None:
                    continue
                nnz, scalars = weight_counts(model)
                rec.count("weight_bytes", len(text.encode("utf-8")))
                rec.count("weight_nnz", nnz)
                rec.count("weight_scalars", scalars)
                rec.count("model_width", model.width)
                rec.count("model_depth", model.depth)
                outputs[label] = {"prog": prog, "text": text, "loaded": loaded}
                if kind == "naive":
                    self._decompile(label, loaded, rec, outputs[label])

    def _decompile(self, label, model, rec, out):
        pinned = PINNED.get(label, {})

        def pin(key, value):
            want = pinned.get(key)
            return None if want is None or want == value else f"{key} {value}, pinned {want}"

        levels = rec.op(f"{label} value set", compiler.enumerate_value_set, model, stage="decompile",
                        check=lambda lv: pin("value_set", sum(len(x.activations) for x in lv)))
        if levels is not None:
            rec.count("value_set_size", sum(len(x.activations) for x in levels))
        for variant in DECOMPILE_VARIANTS:
            back = rec.op(f"{label} decompile {variant}", compiler.decompile, model, variant,
                          stage="decompile", check=lambda p, v=variant: pin(v, len(p.ops)))
            if back is not None:
                rec.count("decompiled_ops", len(back.ops))
                out[variant] = back

    def verify(self, state, rec):
        for label, out in state["outputs"].items():
            rec.op(f"{label} json round trip",
                   lambda text: tf.transformer_to_json(tf.transformer_from_json(text)), out["text"],
                   check=lambda again, text=out["text"]: None if again == text else "text changed")
            prog = out["prog"]
            for variant in DECOMPILE_VARIANTS:
                if variant not in out:
                    continue
                # position-embedding bits come back as predicate families to bind
                families = compiler.decompile_with_predicates(out["loaded"], variant)[1]
                rec.diff(f"{label} decompiled {variant}", testkit.program_recognizer(out[variant], families),
                         testkit.program_recognizer(prog), prog.alphabet, 5)


class SymbolicCheck(Workload):
    """Programs, formulas and automata against the corpus oracles; no transformers.

    The structure follows acceptance criteria 03, 05, 08, 09 and 11, each a
    step lower in bound (03: 6 not 7; 08: 9 not 10; 11: 8 not 9; decompiled
    diffs: 5 and 4 not 8 and 7); the dyck diffs keep bound 8.
    """

    name = "symbolic-check"
    why = "B-RASP, temporal-formula and automaton paths on small and large programs, where transformers do no work"
    reports = ("strings_per_s",)
    STUTTER_PROGRAMS = 16

    def setup(self, rng):
        dyck = dyck_program()
        phi2 = ltl.ltl_to_brasp(formula("phi2"), corpus.PHI_ALPHABET)
        stair2 = ltl.ltl_to_brasp(testkit.stair_formula(2), testkit.STAIR_ALPHABET)
        decompiled = []
        for name, prog, bound in (("dyck", dyck, 5), ("phi2", phi2, 5), ("stair_2", stair2, 4)):
            model = compiler.compile_naive(prog)
            for variant in DECOMPILE_VARIANTS:
                decompiled.append((f"{name} {variant}", compiler.decompile(model, variant), prog, bound))
        dfa = {k: automata.dfa_from_json(corpus.data_text(f"{k}_dfa.json")) for k in ("a3", "aa", "l12")}
        cascade = {k: automata.cascade_from_json(corpus.data_text(f"{k}_cascade.json")) for k in ("a3", "l12")}
        return {
            "dyck": dyck,
            "formulas": {f"phi{k}": formula(f"phi{k}") for k in (1, 2, 3, 4)},
            "stairs": {f"stair_{k}": testkit.stair_formula(k) for k in (1, 2, 3)},
            "mid": formula("mid_phi"),
            "parity": corpus.parity_mod_program(),
            "dfa": dfa,
            "cascade": cascade,
            "decompiled": decompiled,
            "stutter": [testkit.random_nonstrict_program(rng.randrange(2 ** 31))
                        for _ in range(self.STUTTER_PROGRAMS)],
        }

    def run_pass(self, state, rec):
        oracle = corpus.ORACLES  # looked up per pass: a traced run replaces it
        pr, fr = testkit.program_recognizer, testkit.formula_recognizer
        phi_ab, stair_ab, lr = corpus.PHI_ALPHABET, testkit.STAIR_ALPHABET, corpus.LR_ALPHABET
        dfa, cascade = state["dfa"], state["cascade"]

        # criterion 03: translations both ways, against the oracles
        for name, f in state["formulas"].items():
            prog = rec.op(f"{name} to program", ltl.ltl_to_brasp, f, phi_ab)
            if prog is not None:
                rec.diff(f"{name} program", pr(prog), oracle[name], phi_ab, 6)
            rec.diff(f"{name} formula", fr(f, alphabet=phi_ab), oracle[name], phi_ab, 6)
        for name, f in state["stairs"].items():
            prog = rec.op(f"{name} to program", ltl.ltl_to_brasp, f, stair_ab)
            if prog is not None:
                rec.diff(f"{name} program", pr(prog), oracle[name], stair_ab, 6)
        dyck_formula = rec.op("dyck to formula", ltl.brasp_to_ltl, state["dyck"])
        if dyck_formula is not None:
            rec.diff("dyck formula", fr(dyck_formula, alphabet=lr), oracle["dyck"], lr, 8)

        # criterion 08: counter-freeness, homomorphisms, cascades to programs
        known = {"a3": True, "aa": False, "l12": True}
        for name, answer in known.items():
            rec.op(f"{name} counter-free", automata.is_counter_free, dfa[name],
                   check=lambda got, a=answer: None if got is a else f"answered {got}")
        for name in ("a3", "l12"):
            rec.op(f"{name} homomorphism", automata.check_homomorphism, cascade[name], dfa[name],
                   check=lambda got: None if got is True else f"answered {got}")
        a3 = rec.op("a3 cascade to program", automata.cascade_to_brasp, cascade["a3"], dfa["a3"])
        if a3 is not None:
            rec.diff("a3 cascade program", pr(a3), dfa["a3"].accepts, dfa["a3"].alphabet, 9)
        l12 = rec.op("l12 cascade to program", automata.cascade_to_brasp, cascade["l12"], dfa["l12"])
        if l12 is not None:
            since = rec.op("l12 program to formula", ltl.brasp_to_ltl, l12)
            if since is not None:
                back = rec.op("since formula to program", ltl.ltl_to_brasp, since, lr)
                if back is not None:
                    rec.diff("since program", pr(back), oracle["dyck"], lr, 8)
        rec.diff("l12 dfa", dfa["l12"].accepts, oracle["dyck"], lr, 8)
        rec.diff("aa dfa", dfa["aa"].accepts, oracle["aa_star"], dfa["aa"].alphabet, 12)

        # criterion 11: predicates
        rec.diff("mid formula", fr(state["mid"], alphabet=phi_ab), oracle["mid_lang"], phi_ab, 8)
        parity = state["parity"]
        rec.diff("parity program", pr(parity), oracle["aa_star"], parity.alphabet, 12)

        # criterion 05: decompiled programs against their source
        for label, back, prog, bound in state["decompiled"]:
            rec.diff(f"decompiled {label}", pr(back), pr(prog), prog.alphabet, bound)

        # criterion 09: stutter invariance and its known witnesses
        ab = corpus.AB_ALPHABET
        stutter = [
            ("apbp_star", oracle["apbp_star"], ab, None),
            ("ab_star", oracle["ab_star"], ab, ("", "a", "b")),
            ("dyck", oracle["dyck"], lr, ("", "l", "r")),
            ("nonstrict dyck", pr(corpus.nonstrict_variant(state["dyck"])), lr, None),
        ]
        stutter += [(f"random{k}", pr(p), p.alphabet, None) for k, p in enumerate(state["stutter"])]
        for label, recognizer, alphabet, witness in stutter:
            bound = 8 if label in ("apbp_star", "ab_star", "dyck", "nonstrict dyck") else 6
            rec.op(f"{label} stutter", testkit.stutter_invariant_up_to, recognizer, alphabet, bound,
                   check=lambda got, want=witness: _stutter_problem(got, want))


def _stutter_problem(got, witness):
    ok, found = got
    if witness is None:
        return None if ok else f"unexpected witness {found}"
    if ok or (found.prefix, found.symbol, found.suffix) != witness:
        return f"witness {found}, expected {witness}"
    return None


WORKLOADS = {w.name: w for w in (ExhaustiveDiff(), LongInputs(), CompileRoundtrip(), SymbolicCheck())}

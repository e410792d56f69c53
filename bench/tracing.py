"""Span tracing installed from outside the program.

A `Tracer` replaces public functions on the `starfree` modules, and the
head, feed-forward, layer-norm and embedding methods of chosen model
instances, with wrappers that record one span per call. Each span has a
name, a start, an end, a parent span and an operation id. Self time (a
span's duration minus the time its child spans cover) is aggregated per
name as the spans close, so memory stays flat however many calls a run
makes; only the first `keep` spans are kept whole, for writing out.

A module function is patched on every `starfree` module that binds it
(for example `compiler` binds some `transformer` names directly), so the
wrapper is seen wherever the name is looked up. `restore` puts every
original back, and `leftovers` lists any wrapper that is still installed.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

WRAPPED = "__bench_wrapped__"

# (module, attribute, span name); a name of None counts calls without a span.
MODULE_TARGETS = (
    ("transformer", "run_transformer", "transformer.run"),
    ("transformer", "accepts_transformer", "transformer.accepts"),
    ("transformer", "transformer_to_json", "transformer.to_json"),
    ("transformer", "transformer_from_json", "transformer.from_json"),
    ("exact", "compare", None),
    ("exact", "sign", None),
    ("exact", "_sympy_sign", None),
    ("compiler", "compile_naive", "compiler.compile_naive"),
    ("compiler", "compile_depth_preserving", "compiler.compile_depth_preserving"),
    ("compiler", "enumerate_value_set", "compiler.enumerate_value_set"),
    ("normalform", "normalize_unary_value", "normalform.normalize_unary_value"),
    ("normalform", "normalize_unary_score", "normalform.normalize_unary_score"),
    ("normalform", "flatten_defaults", "normalform.flatten_defaults"),
    ("brasp", "eval", "brasp.eval"),
    ("ltl", "ltl_accepts", "ltl.ltl_accepts"),
    ("ltl", "ltl_to_brasp", "ltl.ltl_to_brasp"),
    ("ltl", "brasp_to_ltl", "ltl.brasp_to_ltl"),
    ("automata", "run_dfa", "automata.dfa_accepts"),
    ("automata", "cascade_to_brasp", "automata.cascade_to_brasp"),
    ("automata", "is_counter_free", "automata.is_counter_free"),
    ("automata", "check_homomorphism", "automata.check_homomorphism"),
    ("testkit", "diff_languages", "testkit.diff_languages"),
    ("testkit", "stutter_invariant_up_to", "testkit.stutter"),
)

DECOMPILE_VARIANTS = ("shallower", "smaller")


def _starfree_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "starfree" or name.startswith("starfree."))]


def _is_wrapper(value) -> bool:
    return getattr(value, WRAPPED, False) is True


class Tracer:
    def __init__(self, clock=time.perf_counter, keep: int = 20000):
        self.clock = clock
        self.self_s: dict = {}  # span name -> [self seconds, calls]
        self.calls: dict = {}  # counted-only name -> calls
        self.spans: list = []  # (id, name, start, end, parent id, op id)
        self.keep = keep
        self.op = 0
        self._stack: list = []  # per open span: [child seconds, span id]
        self._ids = itertools.count(1)
        self._patched: list = []  # (owner, attribute, original or None for instance attributes)

    # -- wrappers

    def span(self, name: str, fn):
        agg = self.self_s.setdefault(name, [0.0, 0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, self.clock
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                d = end - start
                agg[0] += d - frame[0]
                agg[1] += 1
                if stack:
                    stack[-1][0] += d
                if len(spans) < tracer.keep:
                    spans.append((sid, name, start, end, parent, tracer.op))

        setattr(traced, WRAPPED, True)
        return traced

    def counter(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, WRAPPED, True)
        return counted

    # -- installation

    def _patch_everywhere(self, original, replacement):
        for mod in _starfree_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import starfree.compiler as compiler

        for modname, attr, name in MODULE_TARGETS:
            mod = sys.modules[f"starfree.{modname}"]
            original = getattr(mod, attr)
            label = name or f"{modname}.{attr.lstrip('_')}"
            wrapper = self.span(label, original) if name else self.counter(label, original)
            self._patch_everywhere(original, wrapper)

        original = compiler.decompile
        by_variant = {v: self.span(f"compiler.decompile_{v}", original) for v in DECOMPILE_VARIANTS}

        def decompile(model, variant="shallower"):
            return by_variant[variant](model, variant)

        setattr(decompile, WRAPPED, True)
        self._patch_everywhere(original, decompile)

        # Reference oracles are looked up in this dict at call time.
        import starfree.corpus as corpus

        original = corpus.ORACLES
        self._patched.append((corpus, "ORACLES", original))
        corpus.ORACLES = {k: self.span("testkit.oracle", v) for k, v in original.items()}

    def instrument_model(self, model):
        """Wrap the embedding and every head, FFN and layer-norm method of one model."""
        targets = [(model, "embed", "transformer.embed")]
        for layer in model.layers:
            for head in layer.heads:
                targets += [
                    (head, "query", "transformer.head_query"),
                    (head, "score_from_query", "transformer.head_score"),
                    (head, "value", "transformer.head_value"),
                ]
            targets.append((layer.ffn, "apply", "transformer.ffn"))
            for ln in (layer.ln_att, layer.ln_ffn):
                if ln is not None:
                    targets.append((ln, "apply", "transformer.layernorm"))
        for obj, attr, name in targets:
            if attr in vars(obj):
                continue  # shared sublayer, already wrapped
            setattr(obj, attr, self.span(name, getattr(obj, attr)))
            self._patched.append((obj, attr, None))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            if original is None:
                vars(owner).pop(attr, None)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- results

    def total_self_s(self) -> float:
        return sum(s for s, _ in self.self_s.values())

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def leftovers(models=()) -> list:
    """Wrappers still reachable from the starfree modules or the given models."""
    found = []
    for mod in _starfree_modules():
        for attr, value in vars(mod).items():
            values = value.values() if isinstance(value, dict) else (value,)
            if any(_is_wrapper(v) for v in values):
                found.append(f"{mod.__name__}.{attr}")
    for model in models:
        objs = [model]
        for layer in model.layers:
            objs += list(layer.heads) + [layer.ffn, layer.ln_att, layer.ln_ffn]
        for obj in objs:
            if obj is not None:
                found += [f"{type(obj).__name__}.{a}" for a, v in vars(obj).items() if _is_wrapper(v)]
    return found

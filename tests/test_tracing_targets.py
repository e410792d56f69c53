"""The benchmark tracer's targets exist and are called by the runtime.

`bench/tracing.py` wraps module functions, and the methods of a model's
embedding, heads, feed-forward nets and layer norms, by name. A refactor that
renames or bypasses one fails here rather than in a traced benchmark run. The
tracer is read and executed from its source, so no bytecode is written under
`bench/`.
"""

import importlib
import types
from pathlib import Path

from starfree import compiler, corpus
from starfree import transformer as tf

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_module_target_exists():
    tracing = _tracing()
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _name in tracing.MODULE_TARGETS
        if not callable(getattr(importlib.import_module(f"starfree.{modname}"), attr, None))
    ]
    assert missing == []
    tracer = tracing.Tracer()
    try:
        tracer.install()  # also wraps compiler.decompile and corpus.ORACLES
    finally:
        tracer.restore()
    assert tracing.leftovers() == []


def test_every_instrumented_model_method_is_called_by_the_runtime():
    tracing = _tracing()
    model = tf.apply_layernorm_encoding(compiler.compile_naive(corpus.dyck_program()))
    tracer = tracing.Tracer()
    try:
        tracer.instrument_model(model)
        assert tf.accepts_transformer(model, "llrr") is True
    finally:
        tracer.restore()
    assert tracing.leftovers([model]) == []
    names = ("embed", "head_query", "head_score", "head_value", "ffn", "layernorm")
    calls = {name: tracer.self_s.get(f"transformer.{name}", [0.0, 0])[1] for name in names}
    assert all(calls.values()), calls

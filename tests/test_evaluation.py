"""The memoized transformer evaluator against a naive reference.

`run_transformer` and `accepts_transformer` evaluate each head, feed-forward
net and layer norm once per distinct activation and keep what they computed
on the model. These tests compare full traces with `brute.py`'s evaluator,
which recomputes everything from the weights, and check the cache's
lifetime rules.
"""

import pickle
from fractions import Fraction
from functools import lru_cache

import pytest

from starfree import brasp, compiler, corpus, ltl, testkit
from starfree import transformer as tf
from starfree.brasp import Alphabet, MaskKind
from starfree.predicates import sinusoidal_pe

from brute import brute_transformer_accepts, brute_transformer_trace

F = Fraction

# Acceptance criterion 04's bounds, one lower for the three-letter alphabets
# to keep the naive evaluator's time down; parity_mod to criterion 11's.
BOUNDS = {"dyck": 8, "phi2": 6, "phi4": 6, "stair_2": 6, "parity_mod": 12}
# The naive layer norm spends a few Fraction operations on every coordinate
# at every position of every layer, so encoded models get shorter strings.
LN_BOUNDS = {"dyck": 5, "phi2": 3, "phi4": 3, "stair_2": 3, "parity_mod": 12}


@lru_cache(maxsize=None)
def _programs():
    return {
        "dyck": corpus.dyck_program(),
        "phi2": ltl.ltl_to_brasp(corpus.phi(2), corpus.PHI_ALPHABET),
        "phi4": ltl.ltl_to_brasp(corpus.phi(4), corpus.PHI_ALPHABET),
        "stair_2": ltl.ltl_to_brasp(testkit.stair_formula(2), testkit.STAIR_ALPHABET),
        "parity_mod": corpus.parity_mod_program(),
    }


def _compiled(name, kind):
    prog = _programs()[name]
    return compiler.compile_naive(prog) if kind == "naive" else compiler.compile_depth_preserving(prog)


def _sinusoidal_model(frequency):
    """test_predicates' model: attend rightmost to the largest sin coordinate."""
    pe = sinusoidal_pe([frequency])  # coords 2 (sin) and 3 (cos)
    emb = {"a": (1, 0, 0, 0, 0), "b": (0, 1, 0, 0, 0)}
    score = tf.SparseMatrix(5, 5, [(0, 2, 1), (1, 2, 1)])
    value = tf.SparseMatrix(5, 5, [(4, 0, 1)])
    head = tf.AttentionHead(score, MaskKind.NONE, "rightmost", value)
    layer = tf.TransformerLayer([head], tf.FeedForward.zero(5))
    return tf.Transformer(
        5, Alphabet(("a", "b")), emb, [layer], tf.OutputLayer((0, 0, 0, 0, 1), F(-1, 2)), ((pe, 2),)
    )


def _assert_same_trace(model, w):
    got = tf.run_transformer(model, w)
    embeddings, layers = brute_transformer_trace(model, w)
    assert got.embeddings == embeddings, w
    assert len(got.layers) == len(layers)
    for ell, (acts, (choices, att, ffn, out)) in enumerate(zip(got.layers, layers), start=1):
        assert acts.choices == choices, (w, ell)
        assert acts.att_state == att, (w, ell)
        assert acts.ffn_state == ffn, (w, ell)
        assert acts.out_state == out, (w, ell)
    assert tf.accepts_transformer(model, w) == brute_transformer_accepts(model, w), w


CASES = [(name, kind) for name in ("dyck", "phi2", "phi4", "stair_2") for kind in ("naive", "depth")]
CASES.append(("parity_mod", "naive"))  # position predicates: naive compiler only


@pytest.mark.parametrize("name,kind", CASES)
def test_compiled_model_traces_match_naive_evaluator(name, kind):
    model = _compiled(name, kind)
    for w in testkit.strings_over(model.alphabet, BOUNDS[name]):
        _assert_same_trace(model, w)


@pytest.mark.parametrize("name,kind", CASES)
def test_layer_norm_encoding_traces_match_naive_evaluator(name, kind):
    model = tf.apply_layernorm_encoding(_compiled(name, kind))
    for w in testkit.strings_over(model.alphabet, LN_BOUNDS[name]):
        _assert_same_trace(model, w)


def test_sinusoidal_model_traces_match_naive_evaluator():
    # At frequency 1/3 the sin values are algebraic and every comparison
    # goes through sympy, in the runtime and in the reference alike.
    for frequency, bound in ((F(1, 4), 7), (F(1, 3), 4)):
        model = _sinusoidal_model(frequency)
        for w in testkit.strings_over(model.alphabet, bound):
            _assert_same_trace(model, w)


def test_cold_and_warm_cache_agree_in_either_order():
    words = [w for n in (3, 6) for w in testkit.strings_over(corpus.LR_ALPHABET, n, min_len=n)]
    forward = _compiled("dyck", "depth")
    traces = {w: tf.run_transformer(forward, w) for w in words}
    backward = _compiled("dyck", "depth")
    for w in reversed(words):
        assert tf.run_transformer(backward, w) == traces[w], w
    for w in words:
        assert tf.run_transformer(forward, w) == traces[w], w


def test_cache_is_kept_only_for_rational_finite_image_embeddings():
    quarter = _sinusoidal_model(F(1, 4))  # sin/cos values 0, 1, -1
    assert quarter._eval_cache is None  # never built at construction
    assert tf.accepts_transformer(quarter, "abbb") is True
    assert quarter._eval_cache is not None
    third = _sinusoidal_model(F(1, 3))  # sin values are multiples of sqrt(3)
    assert tf.accepts_transformer(third, "abb") is True
    tf.run_transformer(third, "bab")
    assert third._eval_cache is None


def test_pickled_model_carries_no_cache():
    model = _compiled("dyck", "naive")
    want = [tf.accepts_transformer(model, w) for w in ("llrr", "lrl", "rrll")]
    assert model._eval_cache is not None
    copy = pickle.loads(pickle.dumps(model))
    assert copy._eval_cache is None
    assert [tf.accepts_transformer(copy, w) for w in ("llrr", "lrl", "rrll")] == want


# Depth-preserving dyck is left out: its value set takes seconds to
# enumerate, and over a minute once layer-norm encoded.
VALUE_SET_CASES = [case for case in CASES if case != ("dyck", "depth")]


@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "layernorm"])
@pytest.mark.parametrize("name,kind", VALUE_SET_CASES)
def test_interned_states_lie_in_the_enumerated_value_set(name, kind, encoded):
    """The finite-image property, checked between the runtime and the enumerator."""
    model = _compiled(name, kind)
    if encoded:
        model = tf.apply_layernorm_encoding(model)
    for w in testkit.strings_over(model.alphabet, (LN_BOUNDS if encoded else BOUNDS)[name]):
        tf.accepts_transformer(model, w)
    levels = compiler.enumerate_value_set(model)
    states = model._eval_cache.levels
    assert len(states) == len(levels) == model.depth + 1
    for ell, (level, values) in enumerate(zip(states, levels)):
        assert level.states, ell
        assert set(level.states) <= set(values.activations), ell


def test_heads_with_no_score_entries_pick_from_the_mask_alone():
    model = _compiled("dyck", "naive")
    empty = [h for layer in model.layers for h in layer.heads if not h.score_sparse.entries]
    assert len(empty) == 7  # compile_naive's feed-forward-only layers
    calls = []

    def forbidden(*args):
        calls.append(args)
        raise AssertionError("score computed for a head with no score entries")

    for head in empty:  # the evaluator looks these up on the instance
        head.query = head.score_from_query = forbidden
    for w in testkit.strings_over(model.alphabet, 6):
        _assert_same_trace(model, w)
    assert calls == []


def test_traces_hand_out_fresh_choice_lists():
    """Empty-score heads read their choices from a shared table; a trace gets copies."""
    model = _compiled("dyck", "naive")
    first = tf.run_transformer(model, "llrr")
    want = [[list(c) for c in layer.choices] for layer in first.layers]
    for layer in first.layers:
        for c in layer.choices:
            c[:] = [None] * len(c)
    again = tf.run_transformer(model, "llrr")
    assert [layer.choices for layer in again.layers] == want
    assert all(type(c) is list for layer in again.layers for c in layer.choices)


def test_a_second_pass_builds_no_mask_rows(monkeypatch):
    model = _compiled("dyck", "naive")
    prog = _programs()["dyck"]
    words = list(testkit.strings_over(model.alphabet, 6))
    calls = []
    row = MaskKind.row

    def counted(mask, i, n):
        calls.append((mask, i, n))
        return row(mask, i, n)

    monkeypatch.setattr(MaskKind, "row", counted)
    MaskKind.rows.cache_clear()
    MaskKind.picks.cache_clear()

    def one_pass():
        for w in words:
            tf.run_transformer(model, w)
            brasp.eval(prog, w)

    one_pass()
    assert calls  # the first pass builds each (mask, n) table once
    calls.clear()
    one_pass()
    assert calls == []

"""Exact-arithmetic runtime for masked hard-attention transformers.

All weights and activations are exact scalars (Fractions, or algebraic
tokens coming from sinusoidal position embeddings), so attention argmax
sets, tie-breaking, and acceptance thresholds are decided exactly and runs
are reproducible bit for bit.

Per layer and position: every head scores all unmasked positions with a
bilinear form, keeps the best-scoring set, breaks ties leftmost or
rightmost, and emits a linear function of the chosen position's activation
(the zero vector when everything is masked); head outputs are summed into
the residual stream, followed by a two-layer ReLU feed-forward network with
its own residual. Optional layer normalization runs after either sublayer.

The forward semantics are defined once, here: `Transformer.embed` and
`Transformer.embedding_image` build embeddings with one helper,
`AttentionHead.query`, `score_from_query` and `value` score and read
positions, `TransformerLayer.step` does a layer's residual sum, layer norms
and feed-forward net, and `output_rule` decides acceptance. The evaluator
below, `compiler.enumerate_value_set` and the decompiler all call these, so
value sets and decompiled programs are computed from the runtime itself.

Weight matrices are sparse (`SparseMatrix`): in compiled models about one
weight in a hundred is nonzero, or fewer, so every combinator and the
runtime work on the nonzero entries only. Vectors are dense tuples.

Evaluation is memoized over interned states. Without position embeddings,
or with finite-image ones, each layer's activations lie in a finite set that
does not depend on the input length (the property `enumerate_value_set`
enumerates), so the evaluator numbers the distinct activation vectors of
each level and computes each sublayer once per distinct input: a head's
query and value once per state, its score once per (query, key state) pair,
and `TransformerLayer.step` once per (state, attended states) pair. Only the
argmax over positions is redone for every string, on the bitmask rows of
`brasp`: `positions_of` groups positions by state and `MaskKind.rows(n)`
gives each query position's unmasked positions from a table kept per
(mask, n). A head with no score entries picks straight from the mask, from
`MaskKind.picks`. The cache is built on first use and kept on the model
when every position embedding is finite-image with rational values, which
have one representation per value, so it then holds at most the enumerated
value set; other models get a fresh cache per call. It is never pickled or
written to weight files. Sublayers are called by attribute lookup at every
miss, so wrappers installed on a model's heads, feed-forward nets and layer
norms see every computation the evaluator makes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import exact
from .brasp import Alphabet, MaskKind, LEFTMOST, RIGHTMOST, positions_of
from .predicates import PositionEmbedding, ScalarKey, pe_from_spec


class TransformerError(Exception):
    pass


def _intify(v):
    """Integral Fractions become plain ints: exact, and much faster to add."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def _vec(values, size: int, piece: str) -> tuple:
    """An exact vector of `size` entries, integral values as ints."""
    vec = tuple(_intify(v) for v in values)
    if len(vec) != size:
        raise TransformerError(f"{piece} has {len(vec)} entries; expected {size}")
    return vec


class SparseMatrix:
    """A rows x cols matrix as its nonzero (row, col, value) triples.

    Triples are sorted by (row, col) and integral values are stored as
    ints. Every index is checked against the shape when the matrix is built.
    """

    def __init__(self, rows: int, cols: int, entries=()):
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise TransformerError(f"bad matrix shape {rows!r}x{cols!r}")
        cells = {}
        for r, c, v in entries:
            if type(r) is not int or type(c) is not int or not (0 <= r < rows and 0 <= c < cols):
                raise TransformerError(f"entry ({r!r}, {c!r}) lies outside a {rows}x{cols} matrix")
            if (r, c) in cells:
                raise TransformerError(f"duplicate entry ({r}, {c})")
            cells[(r, c)] = _intify(v)
        self.shape = (rows, cols)
        self.entries = tuple((r, c, v) for (r, c), v in sorted(cells.items()) if v != 0)

    @classmethod
    def from_dense(cls, rows, cols: int) -> "SparseMatrix":
        """Build from a sequence of rows, each of `cols` scalars."""
        entries = []
        for r, row in enumerate(rows):
            if len(row) != cols:
                raise TransformerError(f"matrix row {r} has {len(row)} entries; expected {cols}")
            entries += [(r, c, v) for c, v in enumerate(row) if v != 0]
        return cls(len(rows), cols, entries)

    def dense(self) -> tuple:
        """Rows of scalars, zeros filled in."""
        rows, cols = self.shape
        out = [[0] * cols for _ in range(rows)]
        for r, c, v in self.entries:
            out[r][c] = v
        return tuple(tuple(row) for row in out)

    def by_row(self) -> list:
        """Per row, its (col, value) pairs."""
        out = [[] for _ in range(self.shape[0])]
        for r, c, v in self.entries:
            out[r].append((c, v))
        return out


def _place_blocks(rows: int, cols: int, blocks) -> SparseMatrix:
    """A rows x cols matrix holding each (matrix, row offset, col offset) block."""
    return SparseMatrix(
        rows, cols, [(r + dr, c + dc, v) for m, dr, dc in blocks for r, c, v in m.entries]
    )


class AttentionHead:
    """One hard-attention head: bilinear score, mask, tie-break, linear value.

    `score` and `value` are width x width `SparseMatrix`es; `value_bias` is
    an optional dense vector.
    """

    def __init__(self, score: SparseMatrix, mask: MaskKind, tiebreak: str, value: SparseMatrix, value_bias=None):
        if tiebreak not in (LEFTMOST, RIGHTMOST):
            raise TransformerError(f"bad tie-break {tiebreak!r}")
        d = score.shape[0]
        for piece, m in (("score", score), ("value", value)):
            if m.shape != (d, d):
                raise TransformerError(f"head {piece} matrix is {m.shape[0]}x{m.shape[1]}; expected {d}x{d}")
        self.width = d
        self.score_sparse = score
        self.mask = mask
        self.tiebreak = tiebreak
        self.value_sparse = value
        self.value_bias = _vec(value_bias, d, "head value bias") if value_bias is not None else None

    @property
    def score_matrix(self) -> tuple:
        """Dense view of the score matrix, built anew on every read."""
        return self.score_sparse.dense()

    @property
    def value_matrix(self) -> tuple:
        """Dense view of the value matrix, built anew on every read."""
        return self.value_sparse.dense()

    def query(self, x) -> dict:
        """Sparse row vector x^T W, keyed by column."""
        out: dict = {}
        for r, c, v in self.score_sparse.entries:
            xr = x[r]
            if xr != 0:
                out[c] = out.get(c, 0) + xr * v
        return {c: v for c, v in out.items() if v != 0}

    def score_from_query(self, q: dict, y) -> object:
        acc = 0
        for c, v in q.items():
            yc = y[c]
            if yc != 0:
                acc = acc + v * yc
        return acc

    def value(self, y) -> list:
        out = [0] * self.width
        for r, c, v in self.value_sparse.entries:
            yc = y[c]
            if yc != 0:
                out[r] = out[r] + v * yc
        if self.value_bias is not None:
            out = [a + b for a, b in zip(out, self.value_bias)]
        return out


class FeedForward:
    """Two-layer ReLU network; `apply` returns the residual delta.

    `w1` is a hidden x width `SparseMatrix` and `w2` a width x hidden one;
    the biases are dense vectors.
    """

    def __init__(self, w1: SparseMatrix, b1, w2: SparseMatrix, b2):
        self.hidden, self.width = w1.shape
        if w2.shape != (self.width, self.hidden):
            raise TransformerError(
                f"feed-forward w2 is {w2.shape[0]}x{w2.shape[1]}; expected {self.width}x{self.hidden}"
            )
        self.w1_sparse = w1
        self.b1 = _vec(b1, self.hidden, "feed-forward b1")
        self.w2_sparse = w2
        self.b2 = _vec(b2, self.width, "feed-forward b2")

    @property
    def w1(self) -> tuple:
        """Dense view of w1, built anew on every read."""
        return self.w1_sparse.dense()

    @property
    def w2(self) -> tuple:
        """Dense view of w2, built anew on every read."""
        return self.w2_sparse.dense()

    def apply(self, x) -> list:
        hidden = list(self.b1)
        for r, c, v in self.w1_sparse.entries:
            xc = x[c]
            if xc != 0:
                hidden[r] = hidden[r] + v * xc
        hidden = [exact.relu(h) for h in hidden]
        out = list(self.b2)
        for r, c, v in self.w2_sparse.entries:
            hc = hidden[c]
            if hc != 0:
                out[r] = out[r] + v * hc
        return out

    @staticmethod
    def zero(width: int) -> "FeedForward":
        return FeedForward(SparseMatrix(0, width), (), SparseMatrix(width, 0), (0,) * width)


class LayerNorm:
    """Position-wise normalization with exact statistics.

    In "exact" mode the vector is normalized (the variance must have a
    rational square root); in "assert" mode the declared mean and variance
    are checked and the vector passes through unchanged.
    """

    def __init__(self, gamma, beta, mode: str = "exact", expected_mean=None, expected_var=None):
        if mode not in ("exact", "assert"):
            raise TransformerError(f"bad layer norm mode {mode!r}")
        self.gamma = tuple(gamma)
        self.beta = tuple(beta)
        self.mode = mode
        self.expected_mean = expected_mean
        self.expected_var = expected_var

    def stats(self, x):
        d = len(x)
        if all(type(v) is int for v in x):
            total = sum(x)
            mean = Fraction(total, d)
            sq = sum(v * v for v in x)
            var = Fraction(sq, d) - mean * mean
            return mean, var
        mean = sum(x, Fraction(0)) / d
        var = sum(((v - mean) ** 2 for v in x), Fraction(0)) / d
        return mean, var

    def apply(self, x) -> list:
        mean, var = self.stats(x)
        if self.mode == "assert":
            if self.expected_mean is not None and not exact.eq(mean, self.expected_mean):
                raise TransformerError(f"layer norm: mean {mean} != {self.expected_mean}")
            if self.expected_var is not None and not exact.eq(var, self.expected_var):
                raise TransformerError(f"layer norm: variance {var} != {self.expected_var}")
            return list(x)
        sigma = _exact_sqrt(var)
        if sigma == 0:
            raise TransformerError("layer norm: zero variance")
        inv = 1 / sigma
        if all(g * inv == 1 and b == mean for g, b in zip(self.gamma, self.beta)):
            return list(x)  # parameters cancel the normalization exactly
        return [g * (v - mean) * inv + b for g, b, v in zip(self.gamma, self.beta, x)]


def _exact_sqrt(v: Fraction) -> Fraction:
    if not isinstance(v, Fraction):
        raise TransformerError("layer norm requires rational activations")
    if v < 0:
        raise TransformerError("negative variance")
    num = math.isqrt(v.numerator)
    den = math.isqrt(v.denominator)
    if num * num != v.numerator or den * den != v.denominator:
        raise TransformerError(f"variance {v} has no rational square root")
    return Fraction(num, den)


@dataclass
class TransformerLayer:
    heads: tuple
    ffn: FeedForward
    ln_att: Optional[LayerNorm] = None
    ln_ffn: Optional[LayerNorm] = None

    def __post_init__(self):
        self.heads = tuple(self.heads)
        if not self.heads:
            raise TransformerError("layer needs at least one head")

    def step(self, x, head_outputs) -> tuple:
        """The layer's position-wise part at one position.

        `x` is the position's input activation and `head_outputs` the value
        vectors of the heads that attended somewhere. Returns (att, ffn, out):
        the residual sum, the feed-forward residual after `ln_att`, and the
        layer output after `ln_ffn`.
        """
        att = list(x)
        for value in head_outputs:
            for k, v in enumerate(value):
                if v != 0:
                    att[k] = att[k] + v
        mid = att if self.ln_att is None else self.ln_att.apply(att)
        ffn = [a + b for a, b in zip(mid, self.ffn.apply(mid))]
        out = ffn if self.ln_ffn is None else self.ln_ffn.apply(ffn)
        return att, ffn, out


@dataclass
class OutputLayer:
    weights: tuple
    bias: object = Fraction(0)


class Transformer:
    """Embeddings, layers, and an optional scalar output rule.

    `position_embeddings` is a tuple of (PositionEmbedding, offset) pairs;
    each embedding's vector is added into the coordinate slice starting at
    its offset. Acceptance is "output projection of the last position's
    activation is >= 0".
    """

    def __init__(self, width, alphabet, embedding, layers, output=None, position_embeddings=()):
        self.width = width
        self.alphabet = alphabet if isinstance(alphabet, Alphabet) else Alphabet(tuple(alphabet))
        self.embedding = {sym: _vec(vec, width, f"embedding of {sym!r}") for sym, vec in embedding.items()}
        self.layers = tuple(layers)
        self.output = output
        if output is not None:
            self.output = OutputLayer(_vec(output.weights, width, "output weights"), output.bias)
        self.position_embeddings = tuple(position_embeddings)
        for sym in self.alphabet.symbols:
            if sym not in self.embedding:
                raise TransformerError(f"no embedding for symbol {sym!r}")
        for k, layer in enumerate(self.layers, start=1):
            sizes = [(f"head {h}", head.width) for h, head in enumerate(layer.heads)]
            sizes.append(("feed-forward net", layer.ffn.width))
            for key in ("ln_att", "ln_ffn"):
                ln = getattr(layer, key)
                if ln is not None:
                    sizes += [(f"{key} gamma", len(ln.gamma)), (f"{key} beta", len(ln.beta))]
            for piece, size in sizes:
                if size != width:
                    raise TransformerError(f"layer {k} {piece} has width {size}; expected {width}")
        for pe, offset in self.position_embeddings:
            if offset < 0 or offset + pe.dim > width:
                raise TransformerError("position embedding slice out of range")
        self._eval_cache = None  # built by the first evaluation, see `_cache_for`

    def __getstate__(self):
        return {**self.__dict__, "_eval_cache": None}

    @property
    def depth(self) -> int:
        return len(self.layers)

    def _embedded(self, symbol, pe_vectors) -> list:
        """The embedding of `symbol` plus each position embedding's vector in its slice."""
        vec = list(self.embedding[symbol])
        if pe_vectors:  # `embed` calls this per token; an empty zip would double its cost
            for (_pe, offset), pv in zip(self.position_embeddings, pe_vectors):
                for k, v in enumerate(pv):
                    vec[offset + k] = vec[offset + k] + v
        return vec

    def embed(self, tokens) -> list:
        n = len(tokens)
        columns = [[pe(n, i) for i in range(1, n + 1)] for pe, _ in self.position_embeddings]
        per_position = zip(*columns) if columns else [()] * n
        return [self._embedded(t, pvs) for t, pvs in zip(tokens, per_position)]

    def embedding_image(self) -> list:
        """Every (symbol, position-embedding vectors, embedding vector).

        Symbol-major, the vectors of each symbol in `itertools.product` order
        over the position embeddings' images; needs finite-image embeddings.
        """
        images = [pe.image() for pe, _ in self.position_embeddings]
        return [
            (sym, combo, tuple(self._embedded(sym, combo)))
            for sym in self.alphabet.symbols
            for combo in itertools.product(*images)
        ]


@dataclass
class LayerActivations:
    choices: list  # per head: list over positions of chosen j (1-based) or None
    att_state: list  # after attention + residual, before any layer norm
    ffn_state: list  # after ffn + residual, before any layer norm
    out_state: list  # layer output


@dataclass
class ActivationTrace:
    tokens: list
    embeddings: list
    layers: list

    @property
    def final(self) -> list:
        return self.layers[-1].out_state if self.layers else self.embeddings

    def activations(self, layer: int) -> list:
        """Layer outputs; layer 0 is the embedding."""
        if layer == 0:
            return self.embeddings
        return self.layers[layer - 1].out_state


# ---------------------------------------------------------------------------
# Evaluation over interned states


def _cache_for(model: Transformer) -> "_EvalCache":
    """The model's evaluation cache, built on first use.

    It is kept on the model when every position embedding is finite-image
    with rational values; otherwise each call gets a fresh one.
    """
    cache = model._eval_cache
    if cache is None:
        cache = _EvalCache(model)
        if all(
            pe.finite_image and all(exact.is_rational(v) for vec in pe.image() for v in vec)
            for pe, _ in model.position_embeddings
        ):
            model._eval_cache = cache
    return cache


class _Level:
    """The distinct activation vectors met at one level, numbered as met."""

    __slots__ = ("ids", "states", "shared")

    def __init__(self, shared: dict):
        self.ids: dict = {}  # state tuple -> id
        self.states: list = []  # id -> state tuple
        self.shared = shared

    def intern(self, vec) -> int:
        vec = _share(self.shared, vec)
        sid = self.ids.get(vec)
        if sid is None:
            sid = self.ids[vec] = len(self.states)
            self.states.append(vec)
        return sid


def _share(shared: dict, vec) -> tuple:
    """`vec` as a tuple, the same object for every equal vector."""
    vec = tuple(vec)
    return shared.setdefault(vec, vec)


class _HeadCache:
    __slots__ = ("query_of", "query_ids", "queries", "scores", "ranks", "values")

    def __init__(self):
        self.query_of: dict = {}  # state id -> query id
        self.query_ids: dict = {}  # sorted query items -> query id
        self.queries: list = []  # query id -> sparse query {col: value}
        self.scores: list = []  # query id -> {key state id: score}
        self.ranks: list = []  # query id -> {key state id: rank of its score}
        self.values: dict = {}  # state id -> value vector


class _EvalCache:
    """Interned states and memoized sublayer results of one model.

    `levels[0]` holds embeddings and `levels[l]` layer l's outputs. Per
    layer, `steps` maps (own state id, per head the attended state id or
    None) to (att_state, ffn_state, output state id), and each head caches
    its query and value by state id and its score by (query id, key state
    id), together with each score's rank among the scores of its query, so
    that a string's argmax needs no comparison once the ranks are known.
    `verdicts` maps final state ids to the output rule's answer.
    """

    def __init__(self, model: "Transformer"):
        self.shared: dict = {}
        self.levels = [_Level(self.shared) for _ in range(model.depth + 1)]
        self.heads = [[_HeadCache() for _ in layer.heads] for layer in model.layers]
        self.steps = [{} for _ in model.layers]
        self.verdicts: dict = {}

    def evaluate(self, model: "Transformer", tokens) -> tuple:
        """State ids of the embeddings, and per layer (choices, step results)."""
        n = len(tokens)
        if n == 0:
            raise TransformerError("empty input string")
        ids0 = [self.levels[0].intern(v) for v in model.embed(tokens)]
        ids = ids0
        layers = []
        for k, layer in enumerate(model.layers):
            level, nxt, steps = self.levels[k], self.levels[k + 1], self.steps[k]
            at = positions_of(ids)  # state id -> bitmask of the positions holding it
            choices = [self._choose(h, hc, level, ids, at, n) for h, hc in zip(layer.heads, self.heads[k])]
            attended = [[None if j is None else ids[j - 1] for j in c] for c in choices]
            results = []
            for key in zip(ids, zip(*attended)):
                hit = steps.get(key)
                if hit is None:
                    hit = steps[key] = self._step(layer, self.heads[k], level, nxt, key)
                results.append(hit)
            layers.append((choices, results))
            ids = [r[2] for r in results]
        return ids0, layers

    def _choose(self, head, hc: _HeadCache, level: _Level, ids: list, at: dict, n: int):
        """Per query position, the attended position (1-based) or None."""
        leftmost = head.tiebreak == LEFTMOST
        if not head.score_sparse.entries:
            # Every score is 0, so the argmax set is every unmasked position.
            return head.mask.picks(n, leftmost)
        ranked = {}  # query id -> position bitmasks, one per distinct score, best first
        out = []
        for sid, row in zip(ids, head.mask.rows(n)):
            if not row:
                out.append(None)
                continue
            q = hc.query_of.get(sid)
            if q is None:
                q = self._query_id(head, hc, level, sid)
            groups = ranked.get(q)
            if groups is None:
                groups = ranked[q] = self._rank(head, hc, level, q, at)
            for group in groups:
                best = group & row  # the argmax set among unmasked positions
                if best:
                    break
            out.append((best & -best).bit_length() if leftmost else best.bit_length())
        return out

    @staticmethod
    def _query_id(head, hc: _HeadCache, level: _Level, sid: int) -> int:
        query = head.query(level.states[sid])
        key = tuple(sorted(query.items()))
        q = hc.query_ids.get(key)
        if q is None:
            q = hc.query_ids[key] = len(hc.queries)
            hc.queries.append(query)
            hc.scores.append({})
            hc.ranks.append({})
        hc.query_of[sid] = q
        return q

    @staticmethod
    def _rank(head, hc: _HeadCache, level: _Level, q: int, at: dict) -> list:
        """Positions grouped by equal score, in decreasing score order."""
        ranks = hc.ranks[q]
        if not at.keys() <= ranks.keys():
            query, scores = hc.queries[q], hc.scores[q]
            for sid in at:
                if sid not in scores:
                    scores[sid] = head.score_from_query(query, level.states[sid])
            ranks = hc.ranks[q] = _ranks(scores)
        by_rank = {}
        for sid, positions in at.items():
            r = ranks[sid]
            by_rank[r] = by_rank.get(r, 0) | positions
        return [by_rank[r] for r in sorted(by_rank, reverse=True)]

    def _step(self, layer, heads: list, level: _Level, nxt: _Level, key: tuple) -> tuple:
        """`layer.step` for one (state, attended states) key."""
        sid, chosen = key
        values = []
        for head, hc, c in zip(layer.heads, heads, chosen):
            if c is None:
                continue
            value = hc.values.get(c)
            if value is None:
                value = hc.values[c] = _share(self.shared, head.value(level.states[c]))
            values.append(value)
        att, ffn, out = layer.step(level.states[sid], values)
        return _share(self.shared, att), _share(self.shared, ffn), nxt.intern(out)

    def verdict(self, model: "Transformer", sid: int) -> bool:
        hit = self.verdicts.get(sid)
        if hit is None:
            hit = self.verdicts[sid] = output_rule(model, self.levels[-1].states[sid])
        return hit


def _ranks(scores: dict) -> dict:
    """Key -> an int that orders the keys' scores: equal ints for equal scores."""
    order = sorted(scores.items(), key=lambda item: ScalarKey(item[1]))
    ranks = {}
    rank = 0
    for k, (key, score) in enumerate(order):
        if k and exact.compare(score, order[k - 1][1]) != 0:
            rank += 1
        ranks[key] = rank
    return ranks


def run_transformer(model: Transformer, input_text) -> ActivationTrace:
    tokens = model.alphabet.tokenize(input_text)
    cache = _cache_for(model)
    ids0, layers = cache.evaluate(model, tokens)
    level0 = cache.levels[0].states
    trace_layers = []
    for (choices, results), level in zip(layers, cache.levels[1:]):
        trace_layers.append(
            LayerActivations(
                [list(c) for c in choices],  # empty-score heads share a cached tuple
                [list(att) for att, _, _ in results],
                [list(ffn) for _, ffn, _ in results],
                [list(level.states[sid]) for _, _, sid in results],
            )
        )
    return ActivationTrace(tokens, [list(level0[sid]) for sid in ids0], trace_layers)


def output_rule(model: Transformer, last) -> bool:
    """The output projection of the last position's activation is nonnegative."""
    if model.output is None:
        raise TransformerError("transformer has no output layer")
    acc = model.output.bias
    for w, v in zip(model.output.weights, last):
        if w != 0:
            acc = acc + w * v
    return exact.sign(acc) >= 0


def trace_accepts(model: Transformer, trace: ActivationTrace) -> bool:
    """The output rule applied to a trace's last position."""
    return output_rule(model, trace.final[-1])


def accepts_transformer(model: Transformer, input_text) -> bool:
    """True iff the output projection at the last position is nonnegative."""
    tokens = model.alphabet.tokenize(input_text)
    cache = _cache_for(model)
    ids0, layers = cache.evaluate(model, tokens)
    final = layers[-1][1][-1][2] if layers else ids0[-1]
    return cache.verdict(model, final)


# ---------------------------------------------------------------------------
# Structural combinators


def identity_layer(width: int) -> TransformerLayer:
    """A layer whose attention adds nothing and whose FFN is zero."""
    empty = SparseMatrix(width, width)
    head = AttentionHead(empty, MaskKind.NONE, LEFTMOST, empty)
    return TransformerLayer([head], FeedForward.zero(width))


def _shift_head(head: AttentionHead, offset: int, total: int) -> AttentionHead:
    bias = None
    if head.value_bias is not None:
        bias = (0,) * offset + head.value_bias + (0,) * (total - offset - head.width)
    return AttentionHead(
        _place_blocks(total, total, [(head.score_sparse, offset, offset)]),
        head.mask,
        head.tiebreak,
        _place_blocks(total, total, [(head.value_sparse, offset, offset)]),
        bias,
    )


def _stack_layer(heads1, ffn1: FeedForward, heads2, ffn2: FeedForward) -> TransformerLayer:
    """Side-by-side layer: the second part's coordinates follow the first's."""
    d1, d2 = ffn1.width, ffn2.width
    h1, h2 = ffn1.hidden, ffn2.hidden
    heads = [_shift_head(h, 0, d1 + d2) for h in heads1]
    heads += [_shift_head(h, d1, d1 + d2) for h in heads2]
    w1 = _place_blocks(h1 + h2, d1 + d2, [(ffn1.w1_sparse, 0, 0), (ffn2.w1_sparse, h1, d1)])
    w2 = _place_blocks(d1 + d2, h1 + h2, [(ffn1.w2_sparse, 0, 0), (ffn2.w2_sparse, d1, h1)])
    return TransformerLayer(heads, FeedForward(w1, ffn1.b1 + ffn2.b1, w2, ffn1.b2 + ffn2.b2))


def _reject_layer_norm(models, what: str):
    for t in models:
        for layer in t.layers:
            if layer.ln_att is not None or layer.ln_ffn is not None:
                raise TransformerError(f"{what} does not support layer norm")


def parallel_compose(t1: Transformer, t2: Transformer) -> Transformer:
    """Concatenate two transformers coordinate-wise.

    The result has width d1+d2 and depth max(L1, L2); the shallower side is
    padded with identity layers on top. Activations are the concatenation of
    both sides' activations at every position. Output layers are dropped;
    layer norm is not supported here because it couples the two blocks.
    """
    if t1.alphabet.symbols != t2.alphabet.symbols:
        raise TransformerError("alphabet mismatch")
    _reject_layer_norm((t1, t2), "parallel composition")
    d1, d2 = t1.width, t2.width
    depth = max(t1.depth, t2.depth)
    layers1 = list(t1.layers) + [identity_layer(d1) for _ in range(depth - t1.depth)]
    layers2 = list(t2.layers) + [identity_layer(d2) for _ in range(depth - t2.depth)]
    new_layers = [_stack_layer(l1.heads, l1.ffn, l2.heads, l2.ffn) for l1, l2 in zip(layers1, layers2)]
    embedding = {
        sym: t1.embedding[sym] + t2.embedding[sym]
        for sym in t1.alphabet.symbols
    }
    pes = list(t1.position_embeddings) + [
        (pe, off + d1) for pe, off in t2.position_embeddings
    ]
    return Transformer(d1 + d2, t1.alphabet, embedding, new_layers, None, tuple(pes))


def widen(model: Transformer, extra: int) -> Transformer:
    """Append `extra` coordinates that no layer reads or writes.

    Layer count and heads are unchanged; the output layer is dropped and
    layer norm is not supported, as in `parallel_compose`.
    """
    _reject_layer_norm((model,), "widening")
    layers = [_stack_layer(layer.heads, layer.ffn, [], FeedForward.zero(extra)) for layer in model.layers]
    embedding = {sym: vec + (0,) * extra for sym, vec in model.embedding.items()}
    return Transformer(
        model.width + extra, model.alphabet, embedding, layers, None, model.position_embeddings
    )


# ---------------------------------------------------------------------------
# Layer-norm-compatible Boolean pair encoding


def apply_layernorm_encoding(model: Transformer, mode: str = "exact") -> Transformer:
    """Double every coordinate into a (value, complement) pair.

    Requires a Boolean-valued transformer (as produced by the compilers):
    every coordinate is 0 or 1 at every sublayer boundary. Each pair then
    sums to 1, so every vector has mean 1/2 and variance 1/4 regardless of
    the input, and layer normalization with gain and shift 1/2 is exactly
    the identity. The encoded model recognizes the same language.
    """
    for sym, vec in model.embedding.items():
        for v in vec:
            if v != 0 and v != 1:
                raise TransformerError(
                    f"embedding of {sym!r} is not Boolean; cannot pair-encode"
                )
    d2 = 2 * model.width

    def pair_vec(vec):
        out = []
        for v in vec:
            out.extend([v, 1 - v])
        return tuple(out)

    def encode_head(head: AttentionHead) -> AttentionHead:
        score = SparseMatrix(d2, d2, [(2 * r, 2 * c, v) for r, c, v in head.score_sparse.entries])
        value = SparseMatrix(
            d2,
            d2,
            [e for r, c, v in head.value_sparse.entries for e in ((2 * r, 2 * c, v), (2 * r + 1, 2 * c, -v))],
        )
        bias = _negated_pairs(head.value_bias) if head.value_bias is not None else None
        return AttentionHead(score, head.mask, head.tiebreak, value, bias)

    def encode_ffn(ffn: FeedForward) -> FeedForward:
        w1 = SparseMatrix(ffn.hidden, d2, [(r, 2 * c, v) for r, c, v in ffn.w1_sparse.entries])
        w2 = SparseMatrix(
            d2,
            ffn.hidden,
            [e for r, c, v in ffn.w2_sparse.entries for e in ((2 * r, c, v), (2 * r + 1, c, -v))],
        )
        return FeedForward(w1, ffn.b1, w2, _negated_pairs(ffn.b2))

    half = Fraction(1, 2)
    quarter = Fraction(1, 4)

    def fresh_ln():
        return LayerNorm(
            [half] * d2, [half] * d2, mode=mode, expected_mean=half, expected_var=quarter
        )

    layers = []
    for layer in model.layers:
        if layer.ln_att is not None or layer.ln_ffn is not None:
            raise TransformerError("model already has layer norm")
        layers.append(
            TransformerLayer(
                [encode_head(h) for h in layer.heads],
                encode_ffn(layer.ffn),
                ln_att=fresh_ln(),
                ln_ffn=fresh_ln(),
            )
        )
    embedding = {sym: pair_vec(vec) for sym, vec in model.embedding.items()}
    pes = []
    for pe, offset in model.position_embeddings:
        pes.append((_paired_pe(pe), 2 * offset))
    output = None
    if model.output is not None:
        weights = []
        for w in model.output.weights:
            weights.extend([w, Fraction(0)])
        output = OutputLayer(tuple(weights), model.output.bias)
    return Transformer(d2, model.alphabet, embedding, layers, output, tuple(pes))


def _negated_pairs(vec) -> tuple:
    return tuple(x for v in vec for x in (v, -v))


def _paired_pe(pe: PositionEmbedding) -> PositionEmbedding:
    values = None
    if pe.values is not None:
        values = tuple(_negated_pairs(vec) for vec in pe.values)
    return PositionEmbedding(
        f"paired({pe.name})",
        2 * pe.dim,
        lambda n, i: _negated_pairs(pe(n, i)),
        pe.finite_image,
        period=pe.period,
        values=values,
        spec={"kind": "paired", "inner": pe.spec} if pe.spec else None,
    )


# ---------------------------------------------------------------------------
# Weight files
#
# Format 2 stores each matrix as {"shape": [rows, cols], "entries": [[row,
# col, "p/q"], ...]} with the entries sorted by position; vectors are lists
# of "p/q" tokens. Format 1 files (no "format" key) store matrices as dense
# rows; they are still read, and saving always writes format 2.

WEIGHT_FORMAT = 2


def _tok_vec(vec):
    return [exact.to_token(v) for v in vec]


def _tok_mat(m: SparseMatrix) -> dict:
    return {"shape": list(m.shape), "entries": [[r, c, exact.to_token(v)] for r, c, v in m.entries]}


def transformer_to_json(model: Transformer, coord_doc=None) -> str:
    layers = []
    for layer in model.layers:
        heads = []
        for h in layer.heads:
            heads.append(
                {
                    "mask": h.mask.value,
                    "tiebreak": h.tiebreak,
                    "score": _tok_mat(h.score_sparse),
                    "value": _tok_mat(h.value_sparse),
                    "value_bias": _tok_vec(h.value_bias) if h.value_bias is not None else None,
                }
            )
        entry = {
            "heads": heads,
            "ffn": {
                "w1": _tok_mat(layer.ffn.w1_sparse),
                "b1": _tok_vec(layer.ffn.b1),
                "w2": _tok_mat(layer.ffn.w2_sparse),
                "b2": _tok_vec(layer.ffn.b2),
            },
        }
        for key, ln in (("ln_att", layer.ln_att), ("ln_ffn", layer.ln_ffn)):
            if ln is not None:
                entry[key] = {
                    "gamma": _tok_vec(ln.gamma),
                    "beta": _tok_vec(ln.beta),
                    "mode": ln.mode,
                    "expected_mean": exact.to_token(ln.expected_mean) if ln.expected_mean is not None else None,
                    "expected_var": exact.to_token(ln.expected_var) if ln.expected_var is not None else None,
                }
        layers.append(entry)
    pes = []
    for pe, offset in model.position_embeddings:
        if pe.spec is None:
            raise TransformerError(f"position embedding {pe.name!r} is not serializable")
        pes.append({"offset": offset, "pe": pe.spec})
    payload = {
        "format": WEIGHT_FORMAT,
        "width": model.width,
        "alphabet": list(model.alphabet.symbols),
        "embedding": {sym: _tok_vec(vec) for sym, vec in model.embedding.items()},
        "position_embeddings": pes,
        "layers": layers,
        "output": (
            {"weights": _tok_vec(model.output.weights), "bias": exact.to_token(model.output.bias)}
            if model.output is not None
            else None
        ),
    }
    if coord_doc:
        payload["coords"] = coord_doc
    return json.dumps(payload) + "\n"


def _untok_vec(vec):
    return tuple(exact.from_token(v) for v in vec)


def _decode(where: str, fn, *args):
    """Run one step of decoding a weight file; any failure names `where`."""
    try:
        return fn(*args)
    except KeyError as e:
        raise TransformerError(f"{where}: missing field {e.args[0]!r}") from None
    except (TransformerError, TypeError, IndexError, ValueError, AttributeError) as e:
        raise TransformerError(f"{where}: {e}") from None


def transformer_from_json(text: str) -> Transformer:
    """Load a weight file of either format."""
    return _decode("weight file", _transformer_from_payload, json.loads(text))


def _transformer_from_payload(payload: dict) -> Transformer:
    fmt = payload.get("format", 1)
    if fmt not in (1, WEIGHT_FORMAT):
        raise TransformerError(f"unknown format {fmt!r}")
    width = payload["width"]

    def matrix(spec, cols: int) -> SparseMatrix:
        """A format-2 matrix, or format-1 dense rows of `cols` entries."""
        if fmt == 1:
            return SparseMatrix.from_dense([_untok_vec(row) for row in spec], cols)
        rows, cols = spec["shape"]
        return SparseMatrix(rows, cols, [(r, c, exact.from_token(v)) for r, c, v in spec["entries"]])

    def head(h) -> AttentionHead:
        return AttentionHead(
            _decode("score", matrix, h["score"], width),
            MaskKind(h["mask"]),
            h["tiebreak"],
            _decode("value", matrix, h["value"], width),
            _untok_vec(h["value_bias"]) if h.get("value_bias") else None,
        )

    def ffn(spec) -> FeedForward:
        w1 = _decode("w1", matrix, spec["w1"], width)
        w2 = _decode("w2", matrix, spec["w2"], w1.shape[0])
        return FeedForward(w1, _untok_vec(spec["b1"]), w2, _untok_vec(spec["b2"]))

    def layer_norm(spec) -> LayerNorm:
        return LayerNorm(
            _untok_vec(spec["gamma"]),
            _untok_vec(spec["beta"]),
            spec["mode"],
            exact.from_token(spec["expected_mean"]) if spec.get("expected_mean") else None,
            exact.from_token(spec["expected_var"]) if spec.get("expected_var") else None,
        )

    def layer(entry) -> TransformerLayer:
        heads = [_decode(f"head {k}", head, h) for k, h in enumerate(entry["heads"])]
        lns = {
            key: _decode(key, layer_norm, entry[key]) for key in ("ln_att", "ln_ffn") if entry.get(key)
        }
        return TransformerLayer(
            heads, _decode("ffn", ffn, entry["ffn"]), lns.get("ln_att"), lns.get("ln_ffn")
        )

    def position_embedding(item) -> tuple:
        spec = item["pe"]
        if spec.get("kind") == "paired":
            return _paired_pe(pe_from_spec(spec["inner"])), item["offset"]
        return pe_from_spec(spec), item["offset"]

    layers = [_decode(f"layer {k}", layer, entry) for k, entry in enumerate(payload["layers"], start=1)]
    pes = [
        _decode(f"position embedding {k}", position_embedding, item)
        for k, item in enumerate(payload.get("position_embeddings", []))
    ]
    output = None
    if payload.get("output"):
        output = OutputLayer(
            _untok_vec(payload["output"]["weights"]),
            exact.from_token(payload["output"]["bias"]),
        )
    return Transformer(
        width,
        Alphabet(tuple(payload["alphabet"])),
        {sym: _untok_vec(vec) for sym, vec in payload["embedding"].items()},
        layers,
        output,
        tuple(pes),
    )

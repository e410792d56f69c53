"""Translations between Boolean-vector programs and hard-attention
transformers, in both directions.

Program to transformer comes in two flavors. The naive construction spends
one layer per position-wise operation and two layers per attention
operation: the first layer's feed-forward net prepares query/key bits for a
disjoint-conjunct score decomposition, a not-attended flag pair, and a
folded value bit; the second layer attends with the bilinear score and
resolves the flag. The depth-preserving construction instead lays the model
out once, before building it: each operation's layout places its
dependencies' layouts side by side, fuses position-wise work into the
unlowered writes of the top feed-forward network, and adds a single
attention layer per nesting level, so layer depth equals attention depth.
The model is built from the final layout, each feed-forward network lowered
a single time.

Transformer to program rests on the finite-image property: without position
embeddings (or with finite-image ones), all scores and activation
components live in a finite set that can be enumerated layer by layer and
bit-encoded order-preservingly. Attention is then simulated either with one
max-detector per possible score (shallower) or with a per-bit argmax chain
(smaller).

Both compilers first rewrite the program so scores and values read only the
attended position and defaults are constants; the attended position cannot
see the query position's vectors, so this is what makes a linear value
function sufficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import boolexpr as bx
from . import brasp as bm
from . import exact, normalform
from .boolexpr import Const, Expr, Pred, Var
from .brasp import (
    Accept,
    Alphabet,
    Attention,
    BraspOp,
    BraspProgram,
    Positionwise,
    qname,
)
from .exact import HALF, ONE, ZERO
from .predicates import ScalarKey, bind_pe_as_predicates, family_tuple_pe, lookup_code, pe_bit_coding
from .transformer import (
    AttentionHead,
    FeedForward,
    OutputLayer,
    SparseMatrix,
    Transformer,
    TransformerLayer,
    _shift_head,
    identity_layer,
    output_rule,
)

FFN_SUPPORT_CAP = 20


class CompileError(Exception):
    pass


# ---------------------------------------------------------------------------
# Score decomposition


@dataclass(frozen=True)
class ScoreDecomposition:
    """S(i,j) as a disjoint disjunction of query-part and key-part conjuncts.

    Built from the full disjunctive normal form over the score's atoms, so
    at most one conjunct holds under any assignment and the bilinear sum of
    alpha_l(i) * beta_l(j) equals the score exactly.
    """

    query_atoms: tuple
    key_atoms: tuple
    conjuncts: tuple  # pairs (alpha expr over query atoms, beta expr over key atoms)

    def evaluate(self, assignment: Callable) -> bool:
        hits = [
            bx.eval_bool(a, assignment) and bx.eval_bool(b, assignment)
            for a, b in self.conjuncts
        ]
        if sum(hits) > 1:
            raise CompileError("score conjuncts are not disjoint")
        return any(hits)


def decompose_score(score: Expr) -> ScoreDecomposition:
    query_atoms = tuple(bx.atoms_at(score, "i"))
    key_atoms = tuple(bx.atoms_at(score, "j"))
    all_atoms = query_atoms + key_atoms
    if len(all_atoms) > normalform.SCORE_ATOM_CAP:
        raise CompileError(
            f"score of {len(all_atoms)} atoms exceeds SCORE_ATOM_CAP ({normalform.SCORE_ATOM_CAP})"
        )
    conjuncts = []
    for bits in range(1 << len(all_atoms)):
        assign = {a: bool(bits >> k & 1) for k, a in enumerate(all_atoms)}
        if not bx.eval_bool(score, lambda a: assign[a]):
            continue
        alpha = bx.conj(a if assign[a] else bx.neg(a) for a in query_atoms)
        beta = bx.conj(a if assign[a] else bx.neg(a) for a in key_atoms)
        conjuncts.append((alpha, beta))
    return ScoreDecomposition(query_atoms, key_atoms, tuple(conjuncts))


# ---------------------------------------------------------------------------
# Feed-forward nets from Boolean coordinate updates


def catom(coord: int, pos: str = "i") -> Var:
    return Var(f"x{coord}", pos)


def _coord_of_atom(a) -> int:
    return int(a.name[1:])


def expr_support(expr: Expr) -> set:
    return {_coord_of_atom(a) for a in bx.atoms(expr)}


def eval_coord_expr(expr: Expr, vec) -> bool:
    return bx.eval_bool(expr, lambda a: vec[_coord_of_atom(a)] != 0)


def _capped_support(coord: int, expr: Expr) -> list:
    """The sorted support of the write to `coord`; a CompileError past FFN_SUPPORT_CAP."""
    supp = sorted(expr_support(expr))
    if len(supp) > FFN_SUPPORT_CAP:
        raise CompileError(
            f"feed-forward support of {len(supp)} inputs for coordinate {coord} "
            f"exceeds FFN_SUPPORT_CAP ({FFN_SUPPORT_CAP})"
        )
    return supp


def ffn_from_writes(width: int, writes: dict) -> FeedForward:
    """Lower `coord -> Boolean value as expr over coordinate atoms` to a
    two-layer ReLU net computing the residual deltas.

    Contract: inputs are Boolean on every support coordinate and every
    written coordinate is still zero when the net runs (all compiled
    coordinates are written exactly once), so the delta equals the target
    value. One exact indicator unit per satisfying support assignment.
    """
    units = []  # (row dict, bias, coord)
    for c in sorted(writes):
        expr = writes[c]
        supp = _capped_support(c, expr)
        for bits in range(1 << len(supp)):
            assign = {supp[k]: bool(bits >> k & 1) for k in range(len(supp))}
            if not bx.eval_bool(expr, lambda a: assign[_coord_of_atom(a)]):
                continue
            row = {}
            ones = 0
            for k in supp:
                row[k] = ONE if assign[k] else -ONE
                ones += int(assign[k])
            units.append((row, Fraction(1 - ones), c))
    w1 = SparseMatrix(
        len(units), width, [(u, k, v) for u, (row, _b, _c) in enumerate(units) for k, v in row.items()]
    )
    w2 = SparseMatrix(width, len(units), [(c, u, ONE) for u, (_r, _b, c) in enumerate(units)])
    return FeedForward(w1, [b for _r, b, _c in units], w2, (ZERO,) * width)


# ---------------------------------------------------------------------------
# Shared compilation plumbing


def _pipeline(prog: BraspProgram) -> BraspProgram:
    return normalform.flatten_defaults(
        normalform.normalize_unary_score(normalform.normalize_unary_value(prog))
    )


def _program_pe(prog: BraspProgram, preds=None):
    if not prog.predicate_families:
        return None
    families = bm.resolve_families(prog.predicate_families, preds)
    ordered = [families[name] for name in prog.predicate_families]
    return family_tuple_pe(ordered)


def _coord_expr(expr: Expr, coord_of: dict, pred_coord: dict, force_pos: Optional[str] = None) -> Expr:
    """Rewrite vector/predicate atoms to coordinate atoms."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return catom(coord_of[expr.name], force_pos or expr.pos)
    if isinstance(expr, Pred):
        return catom(pred_coord[expr.family], force_pos or expr.pos)
    if isinstance(expr, bx.Not):
        return bx.neg(_coord_expr(expr.arg, coord_of, pred_coord, force_pos))
    if isinstance(expr, bx.And):
        return bx.conj(_coord_expr(a, coord_of, pred_coord, force_pos) for a in expr.args)
    return bx.disj(_coord_expr(a, coord_of, pred_coord, force_pos) for a in expr.args)


def _folded_value(body: Attention) -> Expr:
    """(score and value) or (not score and default), over attended-position atoms.

    Sound as a per-position bit because scores and values read only the
    attended position and the default is a constant at this stage.
    """
    if not isinstance(body.default, Const):
        raise CompileError("attention default must be constant here")
    return bx.disj(
        [
            bx.conj([body.score, body.value]),
            bx.conj([bx.neg(body.score), body.default]),
        ]
    )


def _gadget_width(dec: ScoreDecomposition) -> int:
    return 2 * len(dec.conjuncts) + 4


def _attention_gadget(body: Attention, dec: ScoreDecomposition, base: int, width: int, to_coords) -> tuple:
    """The head simulating one attention op, shared by both compilers.

    Uses `_gadget_width(dec)` scratch coordinates from `base`: for each of
    the m score conjuncts a query bit alpha and a key bit beta, then an
    attended flag, a default flag, the folded value bit and the attended
    copy of that bit. Returns (writes, head, answer, labels): `writes` are
    the scratch bits a feed-forward net below the head must set; the head
    scores alpha(i) . beta(j) and copies the attended position's default
    flag and value bit; `answer` is the op's value over the coordinates
    after the head; `labels` names the flag and value-bit coordinates.
    """
    m = len(dec.conjuncts)
    alpha = range(base, base + m)
    beta = range(base + m, base + 2 * m)
    flag_att, flag_def, gval, gatt = range(base + 2 * m, base + 2 * m + 4)
    writes = {}
    for k, (al, be) in enumerate(dec.conjuncts):
        writes[alpha[k]] = to_coords(al, force_pos="i")
        writes[beta[k]] = to_coords(be, force_pos="i")
    writes[flag_def] = bx.TRUE
    writes[gval] = to_coords(_folded_value(body), force_pos="i")
    score = SparseMatrix(width, width, [(a, b, ONE) for a, b in zip(alpha, beta)])
    value = SparseMatrix(
        width, width, [(flag_att, flag_def, ONE), (flag_def, flag_def, -ONE), (gatt, gval, ONE)]
    )
    head = AttentionHead(score, body.mask, body.direction, value)
    answer = bx.disj(
        [
            bx.conj([catom(flag_att), catom(gatt)]),
            bx.conj([bx.neg(catom(flag_att)), to_coords(body.default)]),
        ]
    )
    labels = {
        flag_att: "attended flag",
        flag_def: "default flag",
        gval: "value bit",
        gatt: "attended value bit",
    }
    return writes, head, answer, labels


def _one_hot_embedding(alphabet: Alphabet, width: int) -> dict:
    """Symbol k sets coordinate k; every other coordinate starts at zero."""
    return {
        s: tuple(ONE if c == k else ZERO for c in range(width))
        for k, s in enumerate(alphabet.symbols)
    }


def _accept_output(width: int, coord: int) -> OutputLayer:
    """+1/2 when the coordinate holds 1, -1/2 when it holds 0."""
    return OutputLayer(tuple(ONE if c == coord else ZERO for c in range(width)), -HALF)


# ---------------------------------------------------------------------------
# Naive compilation


def compile_naive(prog: BraspProgram, preds=None) -> Transformer:
    """One layer per position-wise op, two per attention op.

    The compiled transformer simulates every vector of the (normalized)
    program: the coordinate allocated to a vector equals its value at every
    position. Accepting programs get an output layer emitting +1/2 or -1/2;
    transducers compile without one.
    """
    src = _pipeline(prog)
    pe = _program_pe(src, preds)

    nsym = len(src.alphabet.symbols)
    npred = pe.dim if pe is not None else 0
    coord_of = {qname(s): k for k, s in enumerate(src.alphabet.symbols)}
    pred_coord = {f: nsym + k for k, f in enumerate(src.predicate_families)}
    base = nsym + npred
    for op in src.ops:
        coord_of[op.name] = base
        base += 1

    # Scratch allocation per attention op whose score can hold.
    scratch = {}  # op name -> (first scratch coordinate, score decomposition)
    width = base
    for op in src.ops:
        if isinstance(op.body, Positionwise):
            continue
        dec = decompose_score(op.body.score)
        if dec.conjuncts:
            scratch[op.name] = (width, dec)
            width += _gadget_width(dec)

    def to_coords(expr, force_pos=None):
        return _coord_expr(expr, coord_of, pred_coord, force_pos)

    def ffn_layer(writes):
        return TransformerLayer(identity_layer(width).heads, ffn_from_writes(width, writes))

    layers = []
    coord_doc = {str(v): k for k, v in coord_of.items()}
    for op in src.ops:
        body = op.body
        out = coord_of[op.name]
        if op.name not in scratch:
            # Position-wise, or a score that never holds, so the default wins.
            expr = body.expr if isinstance(body, Positionwise) else body.default
            layers.append(ffn_layer({out: to_coords(expr)}))
            continue
        base, dec = scratch[op.name]
        writes, head, answer, labels = _attention_gadget(body, dec, base, width, to_coords)
        coord_doc.update({str(c): f"{op.name}: {label}" for c, label in labels.items()})
        layers.append(ffn_layer(writes))
        layers.append(TransformerLayer([head], ffn_from_writes(width, {out: answer})))

    output = None
    if isinstance(src.output, Accept):
        output = _accept_output(width, coord_of[src.output.vector])
    pes = ((pe, nsym),) if pe is not None else ()
    model = Transformer(width, src.alphabet, _one_hot_embedding(src.alphabet, width), layers, output, pes)
    model.coord_of = dict(coord_of)
    model.coord_doc = coord_doc
    model.source_program = src
    return model


# ---------------------------------------------------------------------------
# Depth-preserving compilation


def _shift_expr(expr: Expr, offset: int) -> Expr:
    """Move every coordinate atom up by `offset`."""
    return bx.substitute(expr, {a: catom(_coord_of_atom(a) + offset, a.pos) for a in bx.atoms(expr)})


def _subst_post(expr: Expr, top_writes: dict) -> Expr:
    """Rewrite an expr over post-FFN coordinates to pre-FFN coordinates."""
    mapping = {}
    for a in bx.atoms(expr):
        c = _coord_of_atom(a)
        if c in top_writes:
            mapping[a] = top_writes[c] if a.pos == "i" else bx.retag(top_writes[c], "i", "j")
    return bx.substitute(expr, mapping)


# The empty head that padding adds: zero coordinates wide, so placed in a
# model of any width it scores nothing and adds nothing.
_EMPTY_HEAD = identity_layer(0).heads[0]


@dataclass
class _Sim:
    """The layout of a transformer simulating one vector, before it is built.

    Each of `layers` is a pair (heads, writes): `heads` lists (head, offset)
    pairs, the head's coordinates starting at `offset` in the model, and
    `writes` is the layer's feed-forward net as the unlowered
    `{coord: expr}` updates that `ffn_from_writes` takes. `coord` holds the
    simulated vector.
    """

    width: int
    embedding: dict  # symbol -> vector of `width` scalars
    layers: list
    coord: Optional[int] = None

    def grow(self, extra: int) -> int:
        """Append `extra` coordinates that start at zero; returns the first."""
        first = self.width
        self.width += extra
        self.embedding = {sym: vec + (ZERO,) * extra for sym, vec in self.embedding.items()}
        return first

    def place(self, part: "_Sim") -> int:
        """Lay `part` out after the current coordinates; returns its offset.

        This is `parallel_compose`'s layout: the shallower side is padded on
        top with layers of one empty head and no writes, and each layer has
        this side's heads followed by the part's.
        """
        off = self.width
        self.layers += [([(_EMPTY_HEAD, 0)], {}) for _ in range(len(self.layers), len(part.layers))]
        for k, (heads, writes) in enumerate(self.layers):
            part_heads, part_writes = part.layers[k] if k < len(part.layers) else ([(_EMPTY_HEAD, 0)], {})
            heads += [(head, o + off) for head, o in part_heads]
            writes.update({c + off: _shift_expr(e, off) for c, e in part_writes.items()})
        self.width += part.width
        self.embedding = {sym: vec + part.embedding[sym] for sym, vec in self.embedding.items()}
        return off

    def fuse(self, writes: dict):
        """Set coordinates to `writes`, exprs over the current output.

        At depth zero the values fold into the embedding; otherwise they
        join the top feed-forward net's writes, read through them.
        """
        if not self.layers:
            for sym, vec in self.embedding.items():
                new = list(vec)
                for c, expr in writes.items():
                    new[c] = ONE if eval_coord_expr(expr, vec) else ZERO
                self.embedding[sym] = tuple(new)
            return
        top = self.layers[-1][1]
        top.update({c: _subst_post(e, top) for c, e in writes.items()})

    def build(self, alphabet: Alphabet) -> Transformer:
        """The accepting model: every head placed and every feed-forward net lowered once.

        Every write is checked against FFN_SUPPORT_CAP, in the order of
        lowering, before any net is lowered: lowering is exponential in the
        support, so an over-cap write in a high layer fails without paying
        for the layers below it.
        """
        for _, writes in self.layers:
            for c in sorted(writes):
                _capped_support(c, writes[c])
        layers = [
            TransformerLayer(
                [_shift_head(head, off, self.width) for head, off in heads],
                ffn_from_writes(self.width, writes),
            )
            for heads, writes in self.layers
        ]
        output = _accept_output(self.width, self.coord)
        return Transformer(self.width, alphabet, self.embedding, layers, output, ())


def compile_depth_preserving(prog: BraspProgram) -> Transformer:
    """Layer depth equals the program's attention depth.

    Lays the model out first, one `_Sim` per operation: its dependencies'
    layouts sit side by side (multi-head layers and block feed-forward nets,
    as in `parallel_compose`), position-wise work joins the top layer's
    writes (or the embedding at depth zero), and each attention operation
    adds exactly one layer. The model is then built once, lowering each
    layer's feed-forward net a single time. Programs with predicate families
    are not supported here; use the naive compiler for those.
    """
    src = _pipeline(prog)
    if src.predicate_families:
        raise CompileError(
            "depth-preserving compilation does not support predicate families"
        )
    if not isinstance(src.output, Accept):
        raise CompileError("depth-preserving compilation needs an accepting program")
    alphabet = src.alphabet
    nsym = len(alphabet.symbols)
    qcoords = {qname(s): k for k, s in enumerate(alphabet.symbols)}
    ops_by_name = {op.name: op for op in src.ops}
    sims: dict = {}

    def dep_names(expr: Expr) -> list:
        out = []
        for a in bx.atoms(expr):
            if isinstance(a, Var) and a.name in ops_by_name and a.name not in out:
                out.append(a.name)
        return out

    def build(name: str) -> _Sim:
        hit = sims.get(name)
        if hit is not None:
            return hit
        body = ops_by_name[name].body
        exprs = (
            [body.expr]
            if isinstance(body, Positionwise)
            else [body.score, body.value, body.default]
        )
        deps = []
        for e in exprs:
            for d in dep_names(e):
                if d not in deps:
                    deps.append(d)
        sim = _Sim(nsym, _one_hot_embedding(alphabet, nsym), [])
        coordmap = dict(qcoords)
        for d in deps:
            dep = build(d)
            coordmap[d] = sim.place(dep) + dep.coord

        def to_coords(expr, force_pos=None):
            return _coord_expr(expr, coordmap, {}, force_pos)

        dec = None if isinstance(body, Positionwise) else decompose_score(body.score)
        if dec is None or not dec.conjuncts:
            # Position-wise, or a score that never holds, so the default wins.
            expr = body.expr if dec is None else body.default
            sim.coord = sim.grow(1)
            sim.fuse({sim.coord: to_coords(expr)})
        else:
            base = sim.grow(_gadget_width(dec) + 1)
            sim.coord = base + _gadget_width(dec)
            writes, head, answer, _labels = _attention_gadget(body, dec, base, sim.width, to_coords)
            sim.fuse(writes)
            sim.layers.append(([(head, 0)], {sim.coord: answer}))
        sims[name] = sim
        return sim

    out_name = src.output.vector
    if out_name in ops_by_name:
        sim = build(out_name)
    else:
        # Output is an initial vector: the embedding alone simulates it.
        sim = _Sim(nsym, _one_hot_embedding(alphabet, nsym), [], qcoords[out_name])
    model = sim.build(alphabet)
    model.coord_of = {out_name: sim.coord}
    model.source_program = src
    return model


# ---------------------------------------------------------------------------
# Value-set enumeration


CANDIDATE_CAP = 2_000_000


@dataclass
class LayerValueSet:
    """Everything a transformer layer can produce, over all inputs.

    `activations` are the possible layer-output vectors; `scores` and
    `value_options` are per head (options include the all-masked zero
    output). Layer 0 holds the possible embedding vectors.
    """

    activations: list
    scores: list
    value_options: list

    def components(self) -> set:
        out = set()
        for vec in self.activations:
            out.update(vec)
        for opts in self.value_options:
            for vec in opts:
                out.update(vec)
        for svals in self.scores:
            out.update(svals)
        return out


def enumerate_value_set(model: Transformer) -> list:
    """Per-layer closure of reachable scores and activations.

    Independent of any particular input: layer l+1 candidates pair every
    layer-l activation with every possible attended output (or zero), then
    map through the feed-forward net. The result is a superset of anything
    observable on a real input. Requires finite-image position embeddings.
    """
    for pe, _off in model.position_embeddings:
        if not pe.finite_image:
            raise CompileError(
                f"position embedding {pe.name!r} has no finite-image certificate"
            )
    levels = [LayerValueSet(_dedup(vec for _sym, _combo, vec in model.embedding_image()), [], [])]

    for layer in model.layers:
        prev = levels[-1].activations
        zero = tuple([ZERO] * model.width)
        opts_per_head = []
        scores_per_head = []
        for head in layer.heads:
            opts = _dedup([tuple(head.value(list(u))) for u in prev] + [zero])
            opts_per_head.append(opts)
            queries = {}
            for u in prev:
                q = head.query(list(u))
                queries[tuple(sorted(q.items()))] = q
            svals = set()
            for q in queries.values():
                for v in prev:
                    svals.add(head.score_from_query(q, list(v)))
            scores_per_head.append(sorted(svals, key=ScalarKey))
        total = len(prev)
        for opts in opts_per_head:
            total *= len(opts)
        if total > CANDIDATE_CAP:
            raise CompileError(
                f"value-set enumeration of {total} candidates exceeds CANDIDATE_CAP ({CANDIDATE_CAP})"
            )
        outs = [
            tuple(layer.step(x, combo)[2]) for x in prev for combo in itertools.product(*opts_per_head)
        ]
        levels.append(LayerValueSet(_dedup(outs), scores_per_head, opts_per_head))
    return levels


def _dedup(items) -> list:
    seen = set()
    out = []
    for it in items:
        if it not in seen:
            seen.add(it)
            out.append(it)
    return out


def finite_image_bound(model: Transformer, layer: int) -> int:
    """(|Sigma|+1)^(2^layer) - 1, the closure's coarse size bound."""
    return (len(model.alphabet.symbols) + 1) ** (2 ** layer) - 1


# ---------------------------------------------------------------------------
# Decompilation


PAIR_CAP = 1_000_000


@dataclass
class _Decompiler:
    model: Transformer
    variant: str
    levels: list
    codes: dict
    bits: int
    ops: list = field(default_factory=list)
    bitref: dict = field(default_factory=dict)  # (layer, coord, bit) -> Expr
    families: dict = field(default_factory=dict)  # name -> PredicateFamily
    pe_codings: list = field(default_factory=list)
    counter: int = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}_{self.counter}"

    def emit_pw(self, base: str, expr: Expr) -> Expr:
        if isinstance(expr, Const):
            return expr
        name = self.fresh(base)
        self.ops.append(BraspOp(name, Positionwise(expr)))
        return Var(name, "i")

    def emit_att(self, base, direction, mask, score, value, default) -> Expr:
        name = self.fresh(base)
        self.ops.append(BraspOp(name, Attention(direction, mask, score, value, default)))
        return Var(name, "i")

    # -- encoding helpers

    def code(self, v) -> int:
        return lookup_code(self.codes, v)

    def coord_match(self, layer: int, coord: int, value, pos: str) -> Expr:
        code = self.code(value)
        terms = []
        for b in range(self.bits):
            ref = self.bitref[(layer, coord, b)]
            if pos == "j":
                ref = bx.retag(ref, "i", "j")
            terms.append(ref if code >> b & 1 else bx.neg(ref))
        return bx.conj(terms)

    def proj_match(self, layer: int, coords, values, pos: str) -> Expr:
        return bx.conj(
            self.coord_match(layer, c, v, pos) for c, v in zip(coords, values)
        )


def decompile_with_predicates(model: Transformer, variant: str = "shallower"):
    """Program simulating the transformer bit for bit, plus the predicate
    bindings for any position-embedding bit families it references.

    The returned program has one Boolean vector per (coordinate, bit) of the
    order-preserving encoding of each layer's possible values (unchanged
    coordinates alias the previous layer's vectors). The `shallower` variant
    simulates each attention layer at attention depth one with a
    max-detector per possible score value; the `smaller` variant builds a
    per-bit argmax chain, deeper but with fewer operations per layer.
    """
    if variant not in ("shallower", "smaller"):
        raise CompileError(f"unknown variant {variant!r}")
    for layer in model.layers:
        if layer.ln_att is not None or layer.ln_ffn is not None:
            raise CompileError("decompilation does not support layer norm; "
                               "decompile the unencoded model instead")
    levels = enumerate_value_set(model)
    table = set()
    for lvl in levels:
        table.update(lvl.components())
    table.add(ZERO)
    for v in table:
        if not exact.is_rational(v):
            raise CompileError(f"non-rational value {v} cannot be bit-encoded")
    ordered = sorted(table, key=ScalarKey)
    codes = {v: k for k, v in enumerate(ordered)}
    bits = max(1, (len(ordered) - 1).bit_length())
    dec = _Decompiler(model, variant, levels, codes, bits)

    for pe, _off in model.position_embeddings:
        coding = pe_bit_coding(pe)
        dec.pe_codings.append(coding)
        for fam in bind_pe_as_predicates(pe):
            dec.families[fam.name] = fam

    _decompile_embedding(dec)
    for ell in range(1, model.depth + 1):
        _decompile_layer(dec, ell)

    if model.output is None:
        raise CompileError("transformer has no output layer to decompile")
    outsupp = [k for k, w in enumerate(model.output.weights) if w != 0]
    projs = _dedup([tuple(u[k] for k in outsupp) for u in levels[-1].activations])
    yexpr = bx.disj(
        dec.proj_match(model.depth, outsupp, p, "i")
        for p in projs
        if output_rule(model, _spread(model.width, outsupp, p))
    )
    name = dec.fresh("Y")
    dec.ops.append(BraspOp(name, Positionwise(yexpr)))
    prog = BraspProgram(
        model.alphabet,
        tuple(dec.ops),
        Accept(name),
        tuple(dec.families),
    )
    return prog, dict(dec.families)


def decompile(model: Transformer, variant: str = "shallower") -> BraspProgram:
    return decompile_with_predicates(model, variant)[0]


def _decompile_embedding(dec: _Decompiler):
    model = dec.model
    combos = model.embedding_image()

    def combo_match(sym, pvs) -> Expr:
        terms = [Var(qname(sym), "i")]
        for coding, pv in zip(dec.pe_codings, pvs):
            for c, v in enumerate(pv):
                code = coding.code_of(c, v)
                for b in range(coding.bits[c]):
                    atom = Pred(coding.family_name(c, b), "i")
                    terms.append(atom if code >> b & 1 else bx.neg(atom))
        return bx.conj(terms)

    for c in range(model.width):
        vals = {vec[c] for _, _, vec in combos}
        for b in range(dec.bits):
            bitvals = {dec.code(v) >> b & 1 for v in vals}
            if len(bitvals) == 1:
                dec.bitref[(0, c, b)] = Const(bool(bitvals.pop()))
                continue
            expr = bx.disj(
                combo_match(sym, pvs)
                for sym, pvs, vec in combos
                if dec.code(vec[c]) >> b & 1
            )
            dec.bitref[(0, c, b)] = dec.emit_pw(f"E{c}b{b}", expr)


def _spread(width: int, coords, values) -> list:
    """A width-long vector holding `values` at `coords` and int zero elsewhere."""
    vec = [0] * width
    for k, v in zip(coords, values):
        vec[k] = v
    return vec


def _decompile_layer(dec: _Decompiler, ell: int):
    model = dec.model
    layer = model.layers[ell - 1]
    prev_acts = dec.levels[ell - 1].activations
    opts_per_head = dec.levels[ell].value_options

    def projections(coords) -> list:
        return _dedup([tuple(u[k] for k in coords) for u in prev_acts])

    # Per head: expressions (or op references) for the bits of the head output.
    obit: dict = {}  # (head, coord, bit) -> Expr
    const_out: dict = {}  # (head, coord) -> constant value when invariant
    for h, head in enumerate(layer.heads):
        isupp = sorted({r for r, _c, _v in head.score_sparse.entries})
        jsupp = sorted({c for _r, c, _v in head.score_sparse.entries})
        vsupp = sorted({c for _r, c, _v in head.value_sparse.entries})
        iprojs, jprojs = projections(isupp), projections(jsupp)
        if len(iprojs) * len(jprojs) > PAIR_CAP:
            raise CompileError(
                f"score pair enumeration of {len(iprojs) * len(jprojs)} pairs exceeds PAIR_CAP ({PAIR_CAP})"
            )
        # Every (i-projection, j-projection) pair: its match expression and its score.
        jside = [(dec.proj_match(ell - 1, jsupp, q, "j"), _spread(model.width, jsupp, q)) for q in jprojs]
        pairs = []
        for p in iprojs:
            query = head.query(_spread(model.width, isupp, p))
            imatch = dec.proj_match(ell - 1, isupp, p, "i")
            pairs.extend((bx.conj([imatch, jmatch]), head.score_from_query(query, y)) for jmatch, y in jside)
        svals = sorted({s for _m, s in pairs}, key=ScalarKey)

        def scored(keep) -> Expr:
            """Some (i, j) projection pair whose score passes `keep` matches."""
            return bx.disj(match for match, s in pairs if keep(s))

        values = [
            (dec.proj_match(ell - 1, vsupp, q, "j"), tuple(head.value(_spread(model.width, vsupp, q))))
            for q in projections(vsupp)
        ]
        varying = []
        for c in range(model.width):
            vals = {v[c] for _m, v in values} | {ZERO}
            if len(vals) == 1:
                const_out[(h, c)] = vals.pop()
            else:
                varying.append(c)
        vbit = {  # (coord, bit) -> the attended position's value has the bit set
            (c, b): bx.disj(vmatch for vmatch, v in values if dec.code(v[c]) >> b & 1)
            for c in varying
            for b in range(dec.bits)
        }

        if dec.variant == "shallower":
            none_ref = dec.emit_att(
                f"L{ell}H{h}none", head.tiebreak, head.mask, bx.TRUE, bx.FALSE, bx.TRUE
            )
            max_refs = {}
            pick_refs = {}
            for v in svals:
                sv = scored(lambda s: s == v)
                sgt = scored(lambda s: exact.compare(s, v) > 0)
                vkey = dec.code(v)
                max_refs[vkey] = dec.emit_att(
                    f"L{ell}H{h}max{vkey}", head.tiebreak, head.mask, sgt, bx.FALSE, bx.TRUE
                )
                for (c, b), vb in vbit.items():
                    pick_refs[(vkey, c, b)] = dec.emit_att(
                        f"L{ell}H{h}at{vkey}c{c}b{b}", head.tiebreak, head.mask, sv, vb, bx.FALSE
                    )
            for c, b in vbit:
                zbit = bool(dec.code(ZERO) >> b & 1)
                expr = bx.disj(
                    [
                        bx.conj([max_refs[dec.code(v)], pick_refs[(dec.code(v), c, b)]])
                        for v in svals
                    ]
                    + ([bx.conj([none_ref, bx.TRUE])] if zbit else [])
                )
                obit[(h, c, b)] = dec.emit_pw(f"L{ell}H{h}o{c}b{b}", expr)
        else:
            sbit = [scored(lambda s: dec.code(s) >> b & 1) for b in range(dec.bits)]
            max_refs = {}
            for b in range(dec.bits - 1, -1, -1):
                higher = bx.conj(
                    bx.iff(sbit[b2], max_refs[b2]) for b2 in range(b + 1, dec.bits)
                )
                max_refs[b] = dec.emit_att(
                    f"L{ell}H{h}mx{b}",
                    head.tiebreak,
                    head.mask,
                    bx.conj([higher, sbit[b]]),
                    bx.TRUE,
                    bx.FALSE,
                )
            argmax = bx.conj(bx.iff(sbit[b], max_refs[b]) for b in range(dec.bits))
            for (c, b), vb in vbit.items():
                zbit = Const(bool(dec.code(ZERO) >> b & 1))
                obit[(h, c, b)] = dec.emit_att(
                    f"L{ell}H{h}o{c}b{b}", head.tiebreak, head.mask, argmax, vb, zbit
                )

    # Position-wise combination: the layer's step on the coordinates that
    # coordinate c depends on, every other coordinate held at zero.
    ffn = layer.ffn
    w1_rows = ffn.w1_sparse.by_row()
    w2_rows = ffn.w2_sparse.by_row()
    for c in range(model.width):
        units = w2_rows[c]  # (hidden unit, weight) pairs feeding coordinate c
        fsupp = {c}
        for u, _w in units:
            fsupp.update(k for k, _v in w1_rows[u])
        fsupp = sorted(fsupp)
        head_varies = [
            h
            for h in range(len(layer.heads))
            if any((h, k) not in const_out for k in fsupp)
        ]
        writes_nothing = (
            not units
            and ffn.b2[c] == 0
            and all(const_out.get((h, c), None) == ZERO for h in range(len(layer.heads)))
        )
        if writes_nothing:
            for b in range(dec.bits):
                dec.bitref[(ell, c, b)] = dec.bitref[(ell - 1, c, b)]
            continue

        xprojs = _dedup([tuple(u[k] for k in fsupp) for u in prev_acts])
        opt_projs = []
        for h in range(len(layer.heads)):
            if h in head_varies:
                opt_projs.append(_dedup([tuple(o[k] for k in fsupp) for o in opts_per_head[h]]))
            else:
                opt_projs.append([tuple(const_out[(h, k)] for k in fsupp)])
        total = len(xprojs)
        for ops_ in opt_projs:
            total *= len(ops_)
        if total > PAIR_CAP:
            raise CompileError(
                f"combination enumeration of {total} combinations exceeds PAIR_CAP ({PAIR_CAP})"
            )

        outcomes = []
        for xp in xprojs:
            x = _spread(model.width, fsupp, xp)
            for combo in itertools.product(*opt_projs):
                _att, _ffn, y = layer.step(x, [_spread(model.width, fsupp, o) for o in combo])
                outcomes.append((xp, combo, y[c]))

        for b in range(dec.bits):
            bitvals = {dec.code(y) >> b & 1 for _xp, _combo, y in outcomes}
            if len(bitvals) == 1:
                dec.bitref[(ell, c, b)] = Const(bool(bitvals.pop()))
                continue
            branches = []
            for xp, combo, y in outcomes:
                if not dec.code(y) >> b & 1:
                    continue
                terms = [dec.proj_match(ell - 1, fsupp, xp, "i")]
                for h in head_varies:
                    o = combo[h]
                    for k, ov in zip(fsupp, o):
                        if (h, k) in const_out:
                            continue
                        code = dec.code(ov)
                        for b2 in range(dec.bits):
                            ref = obit[(h, k, b2)]
                            terms.append(ref if code >> b2 & 1 else bx.neg(ref))
                branches.append(bx.conj(terms))
            dec.bitref[(ell, c, b)] = dec.emit_pw(f"L{ell}y{c}b{b}", bx.disj(branches))

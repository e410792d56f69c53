"""Translations between Boolean-vector programs and hard-attention
transformers, in both directions.

Program to transformer comes in two flavors. The naive construction spends
one layer per position-wise operation and two layers per attention
operation: the first layer's feed-forward net prepares query/key bits for a
disjoint-conjunct score decomposition, a not-attended flag pair, and a
folded value bit; the second layer attends with the bilinear score and
resolves the flag. The depth-preserving construction places each
operation's dependencies side by side, fuses position-wise work into the
unlowered writes of the top feed-forward network, and adds a single
attention layer per nesting level, so layer depth equals attention depth.
Both lay the model out first, as one `_Sim`, and build it once: every write
is checked against FFN_SUPPORT_CAP, then each feed-forward network is
lowered a single time: a write's indicator units are the satisfying
assignments of its truth table (`boolexpr.truth_table`), ascending, as are
a score's disjoint conjuncts.

Transformer to program rests on the finite-image property: without position
embeddings (or with finite-image ones), all scores and activation
components live in a finite set that can be enumerated layer by layer and
bit-encoded order-preservingly, one program vector per code bit. Every
coordinate gets its bits from one step: a table of (match expression,
value) rows, each match spelling a value's code over the previous layer's
bit vectors, gives per bit the disjunction of the rows whose value sets it
(`_Decompiler.bit_exprs`), and `emit_bits` makes each such bit a vector, or
a constant where every value agrees. The embedding, each head's value bits,
the smaller variant's score bits and every feed-forward coordinate go
through it; value sets are restricted to a support only by `_project`.
Attention is simulated either with one max-detector per possible score
(shallower) or with a per-bit argmax chain (smaller).

Both compilers first rewrite the program so scores and values read only the
attended position and defaults are constants; the attended position cannot
see the query position's vectors, so this is what makes a linear value
function sufficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

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


def decompose_score(score: Expr) -> ScoreDecomposition:
    query_atoms = tuple(bx.atoms_at(score, "i"))
    key_atoms = tuple(bx.atoms_at(score, "j"))
    all_atoms = query_atoms + key_atoms
    if len(all_atoms) > normalform.SCORE_ATOM_CAP:
        raise CompileError(
            f"score of {len(all_atoms)} atoms exceeds SCORE_ATOM_CAP ({normalform.SCORE_ATOM_CAP})"
        )
    conjuncts = []
    for bits in _satisfying(score, len(all_atoms), all_atoms.index):
        lits = [a if bits >> k & 1 else bx.neg(a) for k, a in enumerate(all_atoms)]
        conjuncts.append((bx.conj(lits[:len(query_atoms)]), bx.conj(lits[len(query_atoms):])))
    return ScoreDecomposition(query_atoms, key_atoms, tuple(conjuncts))


def _satisfying(expr: Expr, k: int, slot_of) -> list:
    """The assignments of `k` atoms that satisfy `expr`, ascending, read off its truth table."""
    table = format(bx.truth_table(expr, k, slot_of), f"0{1 << k}b")[::-1]
    return list(itertools.compress(range(1 << k), map("1".__eq__, table)))


# ---------------------------------------------------------------------------
# Feed-forward nets from Boolean coordinate updates


def catom(coord: int, pos: str = "i") -> Var:
    return Var(f"x{coord}", pos)


def _coord_of_atom(a) -> int:
    return int(a.name[1:])


def _capped_support(coord: int, expr: Expr) -> list:
    """The sorted support of the write to `coord`; a CompileError past FFN_SUPPORT_CAP."""
    supp = sorted({_coord_of_atom(a) for a in bx.atoms(expr)})
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
    value. One exact indicator unit per satisfying support assignment, in
    ascending order, with int weights +1 and -1.
    """
    units = []  # (row entries, bias, coord)
    for c in sorted(writes):
        supp = _capped_support(c, writes[c])
        for bits in _satisfying(writes[c], len(supp), lambda a: supp.index(_coord_of_atom(a))):
            row = [(k, 1 if bits >> s & 1 else -1) for s, k in enumerate(supp)]
            units.append((row, 1 - bits.bit_count(), c))
    w1 = SparseMatrix(len(units), width, [(u, k, v) for u, (row, _b, _c) in enumerate(units) for k, v in row])
    w2 = SparseMatrix(width, len(units), [(c, u, 1) for u, (_r, _b, c) in enumerate(units)])
    return FeedForward(w1, [b for _r, b, _c in units], w2, (0,) * width)


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
    return bx.substitute(expr, {
        a: catom(coord_of[a.name] if isinstance(a, Var) else pred_coord[a.family], force_pos or a.pos)
        for a in bx.atoms(expr)
    })


def _folded_value(body: Attention) -> Expr:
    """(score and value) or (not score and default), over attended-position atoms.

    Sound as a per-position bit because scores and values read only the
    attended position and the default is a constant at this stage.
    """
    if not isinstance(body.default, Const):
        raise CompileError("attention default must be constant here")
    return bx.disj([bx.conj([body.score, body.value]), bx.conj([bx.neg(body.score), body.default])])


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
        [bx.conj([catom(flag_att), catom(gatt)]), bx.conj([bx.neg(catom(flag_att)), to_coords(body.default)])]
    )
    labels = {flag_att: "attended flag", flag_def: "default flag", gval: "value bit", gatt: "attended value bit"}
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
    """The layout of a transformer, before it is built; both compilers lay
    their models out this way.

    Each of `layers` is a pair (heads, writes): `heads` lists (head, offset)
    pairs, the head's coordinates starting at `offset` in the model, and
    `writes` is the layer's feed-forward net as the unlowered
    `{coord: expr}` updates that `ffn_from_writes` takes. `coord` holds the
    simulated vector that the output layer reads; a transducer has none.
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
            # One row per coordinate: bit s is its value in the s-th symbol's vector.
            syms, full = list(self.embedding), (1 << len(self.embedding)) - 1
            rows = [sum(1 << s for s, sym in enumerate(syms) if self.embedding[sym][c]) for c in range(self.width)]
            new = list(rows)
            for c, expr in writes.items():
                new[c] = bx.compile_rows(expr, _coord_of_atom)(rows, full, 1)
            self.embedding = {sym: tuple(ONE if row >> s & 1 else ZERO for row in new) for s, sym in enumerate(syms)}
            return
        top = self.layers[-1][1]
        top.update({c: _subst_post(e, top) for c, e in writes.items()})

    def build(self, alphabet: Alphabet, position_embeddings=()) -> Transformer:
        """The model: every head placed and every feed-forward net lowered
        once, with an output layer reading `coord` when it is set.

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
        output = None if self.coord is None else _accept_output(self.width, self.coord)
        return Transformer(self.width, alphabet, self.embedding, layers, output, position_embeddings)


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

    sim = _Sim(width, _one_hot_embedding(src.alphabet, width), [])
    if isinstance(src.output, Accept):
        sim.coord = coord_of[src.output.vector]
    coord_doc = {str(v): k for k, v in coord_of.items()}
    for op in src.ops:
        body = op.body
        out = coord_of[op.name]
        if op.name not in scratch:
            # Position-wise, or a score that never holds, so the default wins.
            expr = body.expr if isinstance(body, Positionwise) else body.default
            sim.layers.append(([(_EMPTY_HEAD, 0)], {out: to_coords(expr)}))
            continue
        base, dec = scratch[op.name]
        writes, head, answer, labels = _attention_gadget(body, dec, base, width, to_coords)
        coord_doc.update({str(c): f"{op.name}: {label}" for c, label in labels.items()})
        sim.layers += [([(_EMPTY_HEAD, 0)], writes), ([(head, 0)], {out: answer})]

    model = sim.build(src.alphabet, ((pe, nsym),) if pe is not None else ())
    model.coord_of = dict(coord_of)
    model.coord_doc = coord_doc
    model.source_program = src
    return model


# ---------------------------------------------------------------------------
# Depth-preserving compilation


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
    levels = [LayerValueSet(list(dict.fromkeys(vec for _sym, _combo, vec in model.embedding_image())), [], [])]

    for layer in model.layers:
        prev = levels[-1].activations
        zero = tuple([ZERO] * model.width)
        opts_per_head = []
        scores_per_head = []
        for head in layer.heads:
            opts = list(dict.fromkeys([tuple(head.value(list(u))) for u in prev] + [zero]))
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
        levels.append(LayerValueSet(list(dict.fromkeys(outs)), scores_per_head, opts_per_head))
    return levels


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
    refs: dict = field(default_factory=dict)  # (layer, coord) -> one Expr per code bit
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

    def match(self, refs: list, value, pos: str) -> Expr:
        """`value`'s code over the bit expressions `refs`, read at `pos`."""
        if pos == "j":
            refs = [bx.retag(ref, "i", "j") for ref in refs]
        return _spell(refs, self.code(value))

    def proj_match(self, layer: int, coords, values, pos: str) -> Expr:
        return bx.conj([self.match(self.refs[(layer, c)], v, pos) for c, v in zip(coords, values)])

    def bit_exprs(self, table: list) -> list:
        """Per code bit, the disjunction of the match expressions of the
        (match expression, value) rows of `table` whose value has the bit set."""
        codes = [(m, self.code(v)) for m, v in table]
        return [bx.disj([m for m, code in codes if code >> b & 1]) for b in range(self.bits)]

    def emit_bits(self, layer: int, coord: int, base: str, table: list):
        """Give (layer, coord) one vector per code bit of `table`'s values,
        or a constant for a bit every value agrees on."""
        codes = {self.code(v) for _m, v in table}
        refs = []
        for b, expr in enumerate(self.bit_exprs(table)):
            bitvals = {code >> b & 1 for code in codes}
            refs.append(Const(bool(bitvals.pop())) if len(bitvals) == 1 else self.emit_pw(f"{base}b{b}", expr))
        self.refs[(layer, coord)] = refs


def _spell(refs: list, code: int) -> Expr:
    """Bit b of `code` over the b-th of `refs`: the ref when set, its negation when not."""
    return bx.conj([ref if code >> b & 1 else bx.neg(ref) for b, ref in enumerate(refs)])


def _project(vectors, coords) -> list:
    """The distinct restrictions of `vectors` to `coords`, in first-seen order."""
    return list(dict.fromkeys([tuple(u[k] for k in coords) for u in vectors]))


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
    yexpr = bx.disj(
        dec.proj_match(model.depth, outsupp, p, "i")
        for p in _project(levels[-1].activations, outsupp)
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
                atoms = [Pred(coding.family_name(c, b), "i") for b in range(coding.bits[c])]
                terms.append(_spell(atoms, coding.code_of(c, v)))
        return bx.conj(terms)

    matches = [combo_match(sym, pvs) for sym, pvs, _vec in combos]
    for c in range(model.width):
        dec.emit_bits(0, c, f"E{c}", [(m, vec[c]) for m, (_sym, _pvs, vec) in zip(matches, combos)])


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

    # Per head: the bit expressions (or op references) of each varying output coordinate.
    obit: dict = {}  # (head, coord) -> one Expr per code bit
    const_out: dict = {}  # (head, coord) -> constant value when invariant
    for h, head in enumerate(layer.heads):
        isupp = sorted({r for r, _c, _v in head.score_sparse.entries})
        jsupp = sorted({c for _r, c, _v in head.score_sparse.entries})
        vsupp = sorted({c for _r, c, _v in head.value_sparse.entries})
        iprojs, jprojs = _project(prev_acts, isupp), _project(prev_acts, jsupp)
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
            for q in _project(prev_acts, vsupp)
        ]
        vbit = {}  # coord -> per bit, the attended position's value has the bit set
        for c in range(model.width):
            vals = {v[c] for _m, v in values} | {ZERO}
            if len(vals) == 1:
                const_out[(h, c)] = vals.pop()
            else:
                vbit[c] = dec.bit_exprs([(m, v[c]) for m, v in values])

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
                for c, vbits in vbit.items():
                    for b, vb in enumerate(vbits):
                        pick_refs[(vkey, c, b)] = dec.emit_att(
                            f"L{ell}H{h}at{vkey}c{c}b{b}", head.tiebreak, head.mask, sv, vb, bx.FALSE
                        )
            zero = [none_ref]  # the head attends nowhere and outputs zero
            for c in vbit:
                obit[(h, c)] = [
                    dec.emit_pw(
                        f"L{ell}H{h}o{c}b{b}",
                        bx.disj(
                            [bx.conj([max_refs[dec.code(v)], pick_refs[(dec.code(v), c, b)]]) for v in svals]
                            + (zero if dec.code(ZERO) >> b & 1 else [])
                        ),
                    )
                    for b in range(dec.bits)
                ]
        else:
            sbit = dec.bit_exprs(pairs)
            max_refs = {}
            for b in range(dec.bits - 1, -1, -1):
                higher = bx.conj(bx.iff(sbit[b2], max_refs[b2]) for b2 in range(b + 1, dec.bits))
                max_refs[b] = dec.emit_att(
                    f"L{ell}H{h}mx{b}", head.tiebreak, head.mask, bx.conj([higher, sbit[b]]), bx.TRUE, bx.FALSE
                )
            argmax = bx.conj(bx.iff(sbit[b], max_refs[b]) for b in range(dec.bits))
            for c, vbits in vbit.items():
                obit[(h, c)] = [
                    dec.emit_att(
                        f"L{ell}H{h}o{c}b{b}", head.tiebreak, head.mask, argmax, vb,
                        Const(bool(dec.code(ZERO) >> b & 1)),
                    )
                    for b, vb in enumerate(vbits)
                ]

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
        head_varies = [h for h in range(len(layer.heads)) if any((h, k) in obit for k in fsupp)]
        writes_nothing = (
            not units
            and ffn.b2[c] == 0
            and all(const_out.get((h, c), None) == ZERO for h in range(len(layer.heads)))
        )
        if writes_nothing:
            dec.refs[(ell, c)] = dec.refs[(ell - 1, c)]
            continue

        xprojs = _project(prev_acts, fsupp)
        opt_projs = [
            _project(opts_per_head[h], fsupp) if h in head_varies else [tuple(const_out[(h, k)] for k in fsupp)]
            for h in range(len(layer.heads))
        ]
        total = len(xprojs)
        for ops_ in opt_projs:
            total *= len(ops_)
        if total > PAIR_CAP:
            raise CompileError(
                f"combination enumeration of {total} combinations exceeds PAIR_CAP ({PAIR_CAP})"
            )

        # One row per (input projection, head outputs) combination: its match and coordinate c's value.
        table = []
        for xp in xprojs:
            x = _spread(model.width, fsupp, xp)
            xmatch = dec.proj_match(ell - 1, fsupp, xp, "i")
            for combo in itertools.product(*opt_projs):
                _att, _ffn, y = layer.step(x, [_spread(model.width, fsupp, o) for o in combo])
                omatch = [
                    dec.match(obit[(h, k)], ov, "i") for h in head_varies for k, ov in zip(fsupp, combo[h])
                    if (h, k) in obit
                ]
                table.append((bx.conj([xmatch] + omatch), y[c]))
        dec.emit_bits(ell, c, f"L{ell}y{c}", table)

"""Boolean-vector programs: syntax, text format, and exact interpreter.

A program computes a sequence of named Boolean vectors over the positions of
an input string. The first vectors are the symbol indicators Q_<sym>; each
subsequent operation is either position-wise (a Boolean combination of
earlier vectors at the same position) or an attention operation that picks
the leftmost or rightmost unmasked position whose score predicate holds and
reads the value predicate there, falling back to a default. Acceptance reads
one designated vector at the last position; transduction reads one output
vector per output symbol at every position.

Inputs must be non-empty: the accept/reject decision lives at a designated
position, which an empty string does not have. `parse_program` reads the
text format line by line, each expression through the `boolexpr` parser.

This module owns the bitmask-row format that every interpreter shares. A
row is an int over a batch of m strings of one length n: bit (p-1)*m + s
stands for position p of string s, so a batch of one is the plain set of
positions 1..n with bit p-1 for position p. `run_plan` fills a plan's
symbol rows (one `str.translate` of the batch per symbol) and
predicate-family rows (once per batch), and then runs its steps, each
`step(rows, full, m) -> row`. Programs and temporal formulas (`ltl`) both
run through it, and both read their since/until rows from the one doubling
`scan`, whose shifts have stride m. `accepts_batch` answers for a whole
batch, and `accepts`, `eval` and `transduce` run a batch of one.

A program's plan is built on its first evaluation and kept on the program
instance; it gives every vector and predicate family a slot and compiles
every expression once, to closures over rows, through the one Boolean
evaluator `boolexpr.compile_rows`. For each attention operation it
records the atoms that the score and value read at i; query positions that
agree on them share one score row and one value row, and within such a
group attention is a few whole-row scans (see `_AttentionStep`), with no
loop over positions. A plan is never built at parse or construction time,
does not take part in `==` or `hash`, and is dropped on pickling.
Predicate-family rows are computed on every call, because `preds` may bind
different families from call to call.

`positions_of` and the per-(mask, n) tables `MaskKind.rows` and
`MaskKind.picks` serve the transformer evaluator.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
from dataclasses import dataclass
from typing import Optional

from . import boolexpr as bx
from .boolexpr import Expr, Pred, Var


class BraspError(Exception):
    """Raised for structural and semantic errors in programs."""


class ParseError(BraspError):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise BraspError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise BraspError("alphabet symbols must be distinct")
        for s in self.symbols:
            if not bx.spellable(s):
                raise BraspError(f"bad alphabet symbol {s!r}")
        # Derived from `symbols` for `tokenize`; left out of equality, hash and pickles.
        object.__setattr__(self, "_known", frozenset(self.symbols))
        object.__setattr__(self, "_by_character", all(len(s) == 1 for s in self.symbols))

    def __getstate__(self):
        return {"symbols": self.symbols}

    def __setstate__(self, state):
        object.__setattr__(self, "symbols", state["symbols"])
        self.__post_init__()

    def tokenize(self, text) -> list:
        """Split an input string into symbols.

        Single-character alphabets read character by character; otherwise
        the input must be whitespace-separated.
        """
        if isinstance(text, (list, tuple)) or self._by_character:
            toks = list(text)
        else:
            toks = text.split()
        for t in toks:
            if t not in self._known:
                raise BraspError(f"symbol {t!r} not in alphabet {list(self.symbols)}")
        return toks


def qname(symbol: str) -> str:
    """Name of the built-in indicator vector for a symbol."""
    return f"Q_{symbol}"


# How many tables `MaskKind.rows` and `MaskKind.picks` each keep: one per
# (mask, n), and per tie-break for `picks`; the least recently used goes first.
MASK_TABLES = 128


class MaskKind(enum.Enum):
    """Which positions j a query position i may attend to.

    NONE admits every position. The one-sided masks look to one side of i:
    j<i and j<=i look left (`before`), j>i and j>=i look right. The strict
    masks j<i and j>i also exclude j = i, so a position never attends to
    itself; j<=i and j>=i admit it.
    """

    # text form, before, strict
    NONE = ("none", False, False)
    FUTURE = ("j<i", True, True)
    PAST = ("j>i", False, True)
    FUTURE_EQ = ("j<=i", True, False)
    PAST_EQ = ("j>=i", False, False)

    def __new__(cls, text: str, before: bool, strict: bool):
        mask = object.__new__(cls)
        mask._value_ = text
        mask.before = before  # looks left of i (j<i, j<=i)
        mask.strict = strict  # excludes i itself (j<i, j>i)
        return mask

    @classmethod
    def toward(cls, before: bool, strict: bool) -> "MaskKind":
        """The one-sided mask looking left (`before`) or right, strict or not."""
        return next(m for m in cls if m is not cls.NONE and (m.before, m.strict) == (before, strict))

    def row(self, i: int, n: int) -> int:
        """Bitmask of unmasked positions j for query position i (1-based)."""
        full = (1 << n) - 1
        if self is MaskKind.NONE:
            return full
        if self.before:  # j < i, or j <= i
            return (1 << (i - self.strict)) - 1
        return full & ~((1 << (i - 1 + self.strict)) - 1)  # j > i, or j >= i

    @functools.lru_cache(maxsize=MASK_TABLES)
    def rows(self, n: int) -> tuple:
        """`row(i, n)` for i = 1..n: the mask's table for length n."""
        return tuple(self.row(i, n) for i in range(1, n + 1))

    @functools.lru_cache(maxsize=MASK_TABLES)
    def picks(self, n: int, leftmost: bool) -> tuple:
        """Per query position, its leftmost or rightmost unmasked position, or None."""
        return tuple(
            ((row & -row).bit_length() if leftmost else row.bit_length()) if row else None
            for row in self.rows(n)
        )


LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"


@dataclass(frozen=True)
class Positionwise:
    expr: Expr


@dataclass(frozen=True)
class Attention:
    direction: str
    mask: MaskKind
    score: Expr
    value: Expr
    default: Expr


@dataclass(frozen=True)
class BraspOp:
    name: str
    body: Positionwise | Attention


@dataclass(frozen=True)
class Accept:
    vector: str


@dataclass(frozen=True)
class Transduce:
    outputs: tuple  # pairs (output symbol, vector name)


@dataclass(frozen=True)
class BraspProgram:
    alphabet: Alphabet
    ops: tuple
    output: Optional[Accept | Transduce] = None
    predicate_families: tuple = ()

    def __post_init__(self):
        _validate(self)

    @property
    def initial_names(self) -> list:
        return [qname(s) for s in self.alphabet.symbols]

    @property
    def vector_names(self) -> list:
        return self.initial_names + [op.name for op in self.ops]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_plan", None)  # rebuilt on the first evaluation after loading
        return state

    def op(self, name: str) -> BraspOp:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)


def _check_expr(expr: Expr, defined: set, families: set, allow_j: bool, where: str):
    for a in bx.atoms(expr):
        if a.pos not in ("i", "j"):
            raise BraspError(f"{where}: bad position tag {a.pos!r}")
        if a.pos == "j" and not allow_j:
            raise BraspError(f"{where}: j-atom {a} not allowed here")
        if isinstance(a, Var):
            if a.name not in defined:
                raise BraspError(f"{where}: reference to undefined vector {a.name!r}")
        else:
            if a.family not in families:
                raise BraspError(f"{where}: undeclared predicate family {a.family!r}")


def _vector_name(name) -> bool:
    """Whether program text can write `name` as a vector name: no digit starts one."""
    return bx.spellable(name) and not name[0].isdigit()


def _validate(prog: BraspProgram):
    defined = set(prog.initial_names)
    families = set(prog.predicate_families)
    for family in prog.predicate_families:
        if not bx.spellable(family):
            raise BraspError(f"bad predicate family name {family!r}")
    for op in prog.ops:
        if not _vector_name(op.name):
            raise BraspError(f"bad vector name {op.name!r}")
        if op.name in defined:
            raise BraspError(f"vector name {op.name!r} reused")
        body = op.body
        if isinstance(body, Positionwise):
            _check_expr(body.expr, defined, families, False, op.name)
        else:
            if body.direction not in (LEFTMOST, RIGHTMOST):
                raise BraspError(f"{op.name}: bad direction {body.direction!r}")
            _check_expr(body.score, defined, families, True, f"{op.name} score")
            _check_expr(body.value, defined, families, True, f"{op.name} value")
            _check_expr(body.default, defined, families, False, f"{op.name} default")
        defined.add(op.name)
    out = prog.output
    if isinstance(out, Accept):
        if out.vector not in defined:
            raise BraspError(f"output vector {out.vector!r} not defined")
    elif isinstance(out, Transduce):
        if not out.outputs:
            raise BraspError("transduce output map is empty")
        seen = set()
        for sym, vec in out.outputs:
            if sym in seen:
                raise BraspError(f"duplicate output symbol {sym!r}")
            seen.add(sym)
            if vec not in defined:
                raise BraspError(f"output vector {vec!r} not defined")


# ---------------------------------------------------------------------------
# Text format


def _atom(reader: bx.Reader, name: str) -> Expr:
    """`NAME(i)`, `NAME(j)`, `PRED:FAMILY(i)` or `PRED:FAMILY(j)`, from its name on."""
    family = name[len("PRED:"):] if name.startswith("PRED:") else None
    if name[0].isdigit() or family == "":
        raise reader.error("an atom", back=1)
    reader.expect("(")
    pos = reader.take()
    if pos not in ("i", "j"):
        raise reader.error("position i or j", back=1)
    reader.expect(")")
    return Var(name, pos) if family is None else Pred(family, pos)


_SYNTAX = bx.Syntax(_atom, (bx.FALSE, bx.TRUE), bx.neg, bx.conj, bx.disj)
_MASKS = {m.value: m for m in MaskKind}


def parse_program(text: str) -> BraspProgram:
    """Parse the line-oriented program format; see the package README."""
    alphabet = None
    families: list = []
    ops: list = []
    output = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alphabet:"):
            syms = line[len("alphabet:"):].split()
            if not syms:
                raise ParseError("empty alphabet", lineno)
            alphabet = Alphabet(tuple(syms))
            continue
        if line.startswith("preds:"):
            families.extend(line[len("preds:"):].split())
            continue
        if line.startswith("output:"):
            vec = line[len("output:"):].strip()
            if not vec:
                raise ParseError("missing output vector", lineno)
            output = Accept(vec)
            continue
        if line.startswith("transduce:"):
            pairs = []
            for item in line[len("transduce:"):].split():
                if "->" not in item:
                    raise ParseError(f"bad transduce entry {item!r}", lineno)
                sym, vec = item.split("->", 1)
                pairs.append((sym, vec))
            output = Transduce(tuple(pairs))
            continue
        if ":=" not in line:
            raise ParseError("expected 'NAME(i) := ...'", lineno)
        try:
            ops.append(_operation(raw, lineno))
        except bx.ExprError as e:
            raise ParseError(e.message, lineno, e.offset + 1) from None
    if alphabet is None:
        raise ParseError("missing 'alphabet:' header", 0)
    try:
        return BraspProgram(alphabet, tuple(ops), output, tuple(dict.fromkeys(families)))
    except BraspError as e:
        raise BraspError(f"invalid program: {e}") from e


def _operation(raw: str, lineno: int) -> BraspOp:
    """The operation on line `lineno`, `raw`; expression errors give offsets in `raw`."""
    head, body = raw.split(":=", 1)
    m = re.fullmatch(r"\s*(.+)\(i\)\s*", head)
    if not m:
        raise ParseError(f"bad operation head {head.strip()!r}", lineno)
    name = m.group(1).strip()
    if not _vector_name(name):
        raise ParseError(f"bad vector name {name!r}", lineno)
    start = len(raw) - len(body)  # just past ':='
    if not body.lstrip().startswith("["):
        return BraspOp(name, Positionwise(bx.parse(raw, _SYNTAX, start)))
    close = raw.find("]", start)
    if close < 0:
        raise ParseError("unterminated '[dir, mask]'", lineno)
    parts = [p.strip() for p in raw[raw.index("[", start) + 1:close].split(",")]
    if len(parts) != 2:
        raise ParseError("expected '[dir, mask]'", lineno)
    direction, mask_text = parts
    if direction not in (LEFTMOST, RIGHTMOST):
        raise ParseError(f"bad direction {direction!r}", lineno)
    if mask_text not in _MASKS:
        raise ParseError(f"bad mask {mask_text!r}", lineno)
    reader = bx.Reader(raw, _SYNTAX, close + 1)
    score = reader.expr()
    reader.expect("?")
    value = reader.expr()
    reader.expect(":")
    default = reader.expr()
    reader.end()
    return BraspOp(name, Attention(direction, _MASKS[mask_text], score, value, default))


def program_to_text(prog: BraspProgram) -> str:
    lines = ["alphabet: " + " ".join(prog.alphabet.symbols)]
    if prog.predicate_families:
        lines.append("preds: " + " ".join(prog.predicate_families))
    for op in prog.ops:
        b = op.body
        if isinstance(b, Positionwise):
            lines.append(f"{op.name}(i) := {bx.to_text(b.expr)}")
        else:
            lines.append(
                f"{op.name}(i) := [{b.direction}, {b.mask.value}] "
                f"{bx.to_text(b.score)} ? {bx.to_text(b.value)} : {bx.to_text(b.default)}"
            )
    if isinstance(prog.output, Accept):
        lines.append(f"output: {prog.output.vector}")
    elif isinstance(prog.output, Transduce):
        items = " ".join(f"{s}->{v}" for s, v in prog.output.outputs)
        lines.append(f"transduce: {items}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Interpreter


@dataclass
class Trace:
    """All vector rows for one input, packed as bitmask ints."""

    input_tokens: list
    vector_names: list
    rows: dict
    n: int

    def value(self, name: str, i: int) -> int:
        if not 1 <= i <= self.n:
            raise BraspError(f"position {i} out of range 1..{self.n}")
        return (self.rows[name] >> (i - 1)) & 1

    def row_bits(self, name: str) -> list:
        r = self.rows[name]
        return [(r >> k) & 1 for k in range(self.n)]

    def format_table(self) -> str:
        width = max(len(n) for n in self.vector_names + ["input"])
        sym_w = max(len(t) for t in self.input_tokens)
        def fmt(cells):
            return " ".join(str(c).rjust(sym_w) for c in cells)
        lines = [f"{'input'.ljust(width)} | {fmt(self.input_tokens)}"]
        lines.append("-" * width + "-+-" + "-" * (len(lines[0]) - width - 3))
        for name in self.vector_names:
            lines.append(f"{name.ljust(width)} | {fmt(self.row_bits(name))}")
        return "\n".join(lines)


def resolve_families(names, preds) -> dict:
    """Map family names to evaluators: `preds` first, then the registry."""
    from . import predicates as predmod

    resolved = {}
    for fam in names:
        if preds and fam in preds:
            resolved[fam] = preds[fam]
        else:
            family = predmod.lookup(fam)
            if family is None:
                raise BraspError(f"unbound predicate family {fam!r}")
            resolved[fam] = family
    return resolved


def positions_of(values) -> dict:
    """Each distinct value of the sequence, with the bitmask of its positions."""
    at: dict = {}
    for p, v in enumerate(values):
        at[v] = at.get(v, 0) | 1 << p
    return at


# Row bits per batch: `testkit` hands a recognizer at most
# max(1, BATCH_BITS // n) strings of length n at a time.
BATCH_BITS = 4096


def _read(batch, alphabet) -> tuple:
    """(n, m, text, code) for a batch of m strings of n symbols each.

    `text` has one character per position of every string, position-major
    and reversed, so that its k-th character from the end is row bit k;
    `code` maps each symbol that occurs to its character in `text`. Strings
    over single-character symbols are read as they are, with one alphabet
    check for the whole batch; token lists and whitespace-separated symbols
    are tokenized string by string. Without an alphabet, every symbol is
    accepted.
    """
    if (alphabet is None or alphabet._by_character) and set(map(type, batch)) == {str}:
        lengths = set(map(len, batch))
        text = "".join(map("".join, zip(*batch))) if len(batch) > 1 else batch[0]
        present = set(text)
        if alphabet is not None and not present <= alphabet._known:
            for w in batch:
                alphabet.tokenize(w)  # raises for the first string with a foreign symbol
        code = {c: c for c in present}
    else:
        tokens = [list(w) if alphabet is None else alphabet.tokenize(w) for w in batch]
        lengths = set(map(len, tokens))
        code = {t: chr(k) for k, t in enumerate(dict.fromkeys(itertools.chain.from_iterable(tokens)))}
        text = "".join(code[t] for t in itertools.chain.from_iterable(zip(*tokens)))
    if len(lengths) != 1:
        raise BraspError(f"a batch holds strings of one length, not {sorted(lengths)}")
    return lengths.pop(), len(batch), text[::-1], code


def run_plan(plan, batch, preds, alphabet) -> tuple:
    """Every row of `plan` on a batch of equal-length strings: (rows, n, m).

    `plan` has `slots` rows, `symbol_slot`, `pred_slot` and `steps` as in
    `_Plan`, and `error`, raised for empty strings. Row bit (p-1)*m + s
    stands for position p of string s, so a batch of one is the plain
    bitmask row. A symbol's row is one `str.translate` of the batch text;
    each predicate family (bound as in `resolve_families`) is evaluated
    once per position and spread over the batch. Each step then computes
    its slot as `step(rows, full, m)`.
    """
    n, m, text, code = _read(batch, alphabet)
    if not n:
        raise plan.error("empty input string")
    families = resolve_families(plan.pred_slot, preds)
    full = (1 << n * m) - 1
    rows = [0] * plan.slots
    zeros = dict.fromkeys(map(ord, code.values()), "0")
    for sym, slot in plan.symbol_slot.items():
        c = code.get(sym)
        if c is not None:
            rows[slot] = int(text.translate({**zeros, ord(c): "1"}), 2)
    block = (1 << m) - 1
    for fam, family in families.items():
        rows[plan.pred_slot[fam]] = sum(block << (i - 1) * m for i in range(1, n + 1) if family(n, i))
    for slot, step in plan.steps:
        rows[slot] = step(rows, full, m)
    return rows, n, m


def last_bits(row: int, n: int, m: int) -> list:
    """Each string's bit of a batch row at the last position."""
    return list(map("1".__eq__, reversed(format(row >> (n - 1) * m, f"0{m}b"))))


def scan(through: int, hold: int, before: bool, strict: bool, full: int, m: int) -> int:
    """Where `hold` held at some position on one side and `through` at every
    position after it, up to here: the rows of since (`before`) and until.

    Non-strict, looking left, it holds at k when `hold` holds at k, or
    `through` holds at k and it held at k - 1. The scan solves that
    recurrence by doubling: after the round with shift s positions (s*m
    bits), `hold` marks where it holds counting only the last 2s positions,
    and `through` where `through` holds at all of them. The strict scan at
    k is the non-strict scan at k - 1; looking right is the mirror image.
    """
    s, bits = m, full.bit_length()
    while s < bits:
        if before:
            hold |= through & (hold << s)
            through &= through << s
        else:
            hold |= through & (hold >> s)
            through &= through >> s
        s <<= 1
    if strict:
        hold = (hold << m) & full if before else hold >> m
    return hold


def eval(prog: BraspProgram, input_text, preds=None) -> Trace:
    """Run the program and return every vector row, bit-exactly.

    Pure in (program, input, predicate bindings); attention picks the
    minimum (leftmost) or maximum (rightmost) unmasked position whose score
    holds, and falls back to the default when none exists.
    """
    tokens = prog.alphabet.tokenize(input_text)
    plan = _plan_for(prog)
    rows, n, _ = run_plan(plan, [tokens], preds, prog.alphabet)
    return Trace(tokens, list(plan.names), dict(zip(plan.names, rows)), n)


def _plan_for(prog: BraspProgram) -> "_Plan":
    """The program's evaluation plan, built on its first evaluation."""
    plan = prog.__dict__.get("_plan")
    if plan is None:
        plan = _Plan(prog)
        object.__setattr__(prog, "_plan", plan)
    return plan


class _Plan:
    """What evaluation needs of a program, worked out once, for `run_plan`.

    Every vector and predicate family gets a slot in one flat list of
    bitmask rows: first the vectors in `names` order, then the families
    (`symbol_slot` and `pred_slot` give the slots of symbol indicators and
    families), then one scratch slot per i-atom of each attention
    operation. `steps` pairs each operation's slot with its step,
    `step(rows, full, m) -> row`: a position-wise expression compiled by
    `boolexpr.compile_rows`, or an `_AttentionStep`.
    """

    __slots__ = ("names", "slots", "symbol_slot", "pred_slot", "steps")
    error = BraspError

    def __init__(self, prog: BraspProgram):
        self.names = tuple(prog.vector_names)
        slot = {name: k for k, name in enumerate(self.names)}
        self.symbol_slot = {sym: slot[qname(sym)] for sym in prog.alphabet.symbols}
        self.pred_slot = {fam: len(self.names) + k for k, fam in enumerate(prog.predicate_families)}
        self.slots = len(self.names) + len(self.pred_slot)

        def row_of(atom) -> int:
            return slot[atom.name] if isinstance(atom, Var) else self.pred_slot[atom.family]

        self.steps = []
        for op in prog.ops:
            body = op.body
            if isinstance(body, Positionwise):
                step = bx.compile_rows(body.expr, row_of)
            else:
                step = _AttentionStep(body, row_of, self.slots)
                self.slots += len(step.i_slots)
            self.steps.append((slot[op.name], step))


class _AttentionStep:
    """One attention operation, as a few whole-row scans per group of query positions.

    The distinct atoms that the score and value read at i each get a scratch
    slot. Query positions that agree on all of them see the same score row
    S and value row V, so those rows are evaluated once per group, with
    each scratch slot set to the group's constant row (all ones or zero):
    at most min(n*m, 2^k) groups for k such atoms. Where each query
    position attends then follows from `scan`s of S and V, as in the
    translation to formulas (`ltl._attention_formula`):

    - nearest (the tie-break picks the score position nearest i, on the
      mask's side): since or until of not-S with S and V;
    - farthest (the tie-break picks the far end of the mask's side): the
      string's first or last score position, `pick`, found by a strict
      scan of S, and then whether pick and V held on the mask's side;
    - no mask: the string's first or last score position, spread to both
      sides.

    A query position with no score position on its side takes the default;
    a default that is constantly 0 skips that scan.
    """

    __slots__ = ("leftmost", "before", "strict", "unmasked", "nearest", "i_slots", "score", "value", "default")

    def __init__(self, body: Attention, row_of, first_scratch: int):
        i_atoms = list(dict.fromkeys(
            a for e in (body.score, body.value) for a in bx.atoms(e) if a.pos == "i"
        ))
        scratch = {a: first_scratch + k for k, a in enumerate(i_atoms)}

        def read(atom) -> int:
            return scratch[atom] if atom.pos == "i" else row_of(atom)

        self.leftmost = body.direction == LEFTMOST
        self.before, self.strict = body.mask.before, body.mask.strict
        self.unmasked = body.mask is MaskKind.NONE
        self.nearest = not self.unmasked and self.leftmost != self.before
        self.i_slots = tuple((row_of(a), scratch[a]) for a in i_atoms)  # (row, scratch slot)
        self.score = bx.compile_rows(body.score, read)
        self.value = bx.compile_rows(body.value, read)
        self.default = None if body.default == bx.FALSE else bx.compile_rows(body.default, row_of)

    def __call__(self, rows: list, full: int, m: int) -> int:
        groups = [(full, ())]  # (positions, the scratch rows there)
        for s, _ in self.i_slots:
            r = rows[s]
            groups = [
                part
                for g, c in groups
                for part in ((g & r, c + (full,)), (g & ~r, c + (0,)))
                if part[0]
            ]
        before, strict = self.before, self.strict
        default = self.default(rows, full, m) if self.default else 0
        out = 0
        for g, c in groups:
            for (_, t), v in zip(self.i_slots, c):
                rows[t] = v
            score = self.score(rows, full, m)
            value = self.value(rows, full, m)
            if self.nearest:
                hits = scan(full ^ score, score & value, before, strict, full, m)
                seen = scan(full, score, before, strict, full, m) if default else full
            else:
                earlier = scan(full, score, self.leftmost, True, full, m)
                pick = score & ~earlier
                if self.unmasked:
                    hits = _spread(pick & value, full, m)
                    seen = _spread(pick, full, m) if default else full
                else:
                    hits = scan(full, pick & value, before, strict, full, m)
                    seen = earlier if strict else earlier | score
            out |= g & (hits | (default & ~seen))
        return out


def _spread(row: int, full: int, m: int) -> int:
    """Every position of each string in which `row` holds somewhere."""
    return scan(full, row, True, False, full, m) | scan(full, row, False, False, full, m)


def accepts_batch(prog: BraspProgram, batch, preds=None) -> list:
    """Whether the output vector holds at the last position, for each of a
    batch of equal-length strings."""
    if not isinstance(prog.output, Accept):
        raise BraspError("program does not have an accept output")
    if not batch:
        return []
    plan = _plan_for(prog)
    rows, n, m = run_plan(plan, batch, preds, prog.alphabet)
    return last_bits(rows[plan.names.index(prog.output.vector)], n, m)


def accepts(prog: BraspProgram, input_text, preds=None) -> bool:
    """True iff the output vector holds at the last position."""
    return accepts_batch(prog, [input_text], preds)[0]


def transduce(prog: BraspProgram, input_text, preds=None) -> str:
    """Map the input to the equal-length output string.

    Exactly one output vector must hold at every position.
    """
    if not isinstance(prog.output, Transduce):
        raise BraspError("program does not have a transduce output")
    tr = eval(prog, input_text, preds)
    out_syms = []
    for i in range(1, tr.n + 1):
        hits = [sym for sym, vec in prog.output.outputs if tr.value(vec, i)]
        if len(hits) != 1:
            raise BraspError(
                f"position {i}: {len(hits)} output vectors true (need exactly 1)"
            )
        out_syms.append(hits[0])
    joiner = "" if all(len(s) == 1 for s in out_syms) else " "
    return joiner.join(out_syms)


# ---------------------------------------------------------------------------
# Attention depth


def attention_depth(prog: BraspProgram) -> int:
    """Maximum attention-nesting depth over all operations."""
    depths = op_depths(prog)
    return max(depths.values(), default=0)


def op_depths(prog: BraspProgram) -> dict:
    """Depth of every vector: initial vectors are 0; attention adds 1."""
    depth = {name: 0 for name in prog.initial_names}

    def expr_depth(expr: Expr) -> int:
        d = 0
        for a in bx.atoms(expr):
            if isinstance(a, Var):
                d = max(d, depth[a.name])
        return d

    for op in prog.ops:
        b = op.body
        if isinstance(b, Positionwise):
            depth[op.name] = expr_depth(b.expr)
        else:
            inner = max(expr_depth(b.score), expr_depth(b.value), expr_depth(b.default))
            depth[op.name] = inner + 1
    return depth

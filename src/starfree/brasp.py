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
position, which an empty string does not have.

This module owns the bitmask-row format that every interpreter shares: a
set of positions 1..n is an int whose bit p-1 stands for position p.
`positions_of` groups positions by value, `MaskKind.rows(n)` is a mask's
table of rows for length n, kept in a bounded cache, and `run_plan` fills a
plan's symbol and predicate-family rows and then runs its steps, each
`step(rows, full) -> row`. Programs and temporal formulas (`ltl`) both run
through it. A program's plan is built on its first evaluation and kept on
the program instance; it gives every vector and predicate family a slot and
compiles every expression once, to closures. For each attention operation
it records the atoms that the score and value read at i; query positions
that agree on them share one score row and one value row, so attention
costs one evaluation per group of positions plus a mask-and-pick per
position. A plan is never built at parse or construction time, does not
take part in `==` or `hash`, and is dropped on pickling. Predicate-family
rows are computed on every call, because `preds` may bind different
families from call to call.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Optional

from . import boolexpr as bx
from .boolexpr import And, Const, Expr, Not, Pred, Var


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
            if not isinstance(s, str) or not s or any(c.isspace() for c in s):
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


def _validate(prog: BraspProgram):
    defined = set(prog.initial_names)
    families = set(prog.predicate_families)
    for op in prog.ops:
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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# Atom references may mention alphabet symbols like "#" inside Q_ names, and
# family names like MOD[0,2] carry brackets.
_ATOM_CHARS = re.compile(r"[^\s()&|!?:]+")


class _ExprParser:
    def __init__(self, text: str, line: int, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line = line
        self.col_offset = col_offset

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.line, self.col_offset + self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expr:
        e = self.parse_or()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos:]!r}")
        return e

    def parse_or(self) -> Expr:
        args = [self.parse_and()]
        while self.peek() == "|":
            self.pos += 1
            args.append(self.parse_and())
        return bx.disj(args) if len(args) > 1 else args[0]

    def parse_and(self) -> Expr:
        args = [self.parse_unary()]
        while self.peek() == "&":
            self.pos += 1
            args.append(self.parse_unary())
        return bx.conj(args) if len(args) > 1 else args[0]

    def parse_unary(self) -> Expr:
        c = self.peek()
        if c == "!":
            self.pos += 1
            return bx.neg(self.parse_unary())
        if c == "(":
            self.pos += 1
            e = self.parse_or()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return e
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        self.skip_ws()
        rest = self.text[self.pos:]
        if rest.startswith("0") or rest.startswith("1"):
            val = rest[0] == "1"
            self.pos += 1
            return Const(val)
        if rest.startswith("PRED:"):
            self.pos += len("PRED:")
            m = _ATOM_CHARS.match(self.text, self.pos)
            if not m:
                raise self.error("expected predicate family name")
            fam = m.group(0)
            self.pos = m.end()
            pos = self._parse_pos_suffix(fam)
            return Pred(fam, pos)
        m = _ATOM_CHARS.match(self.text, self.pos)
        if not m:
            raise self.error("expected atom")
        name = m.group(0)
        self.pos = m.end()
        pos = self._parse_pos_suffix(name)
        return Var(name, pos)

    def _parse_pos_suffix(self, name: str) -> str:
        if self.peek() != "(":
            raise self.error(f"expected '(i)' or '(j)' after {name!r}")
        self.pos += 1
        p = self.peek()
        if p not in ("i", "j"):
            raise self.error("position variable must be i or j")
        self.pos += 1
        if self.peek() != ")":
            raise self.error("expected ')'")
        self.pos += 1
        return p


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
        head, body = line.split(":=", 1)
        head = head.strip()
        m = re.fullmatch(r"(.+)\(i\)", head)
        if not m:
            raise ParseError(f"bad operation head {head!r}", lineno)
        name = m.group(1).strip()
        if not _ATOM_CHARS.fullmatch(name) or name[0].isdigit():
            raise ParseError(f"bad vector name {name!r}", lineno)
        body = body.strip()
        if body.startswith("["):
            close = body.index("]") if "]" in body else -1
            if close < 0:
                raise ParseError("unterminated '[dir, mask]'", lineno)
            header = body[1:close]
            parts = [p.strip() for p in header.split(",")]
            if len(parts) != 2:
                raise ParseError("expected '[dir, mask]'", lineno)
            direction, mask_text = parts
            if direction not in (LEFTMOST, RIGHTMOST):
                raise ParseError(f"bad direction {direction!r}", lineno)
            if mask_text not in _MASKS:
                raise ParseError(f"bad mask {mask_text!r}", lineno)
            rest = body[close + 1:]
            qpos = _split_top(rest, "?")
            if qpos is None:
                raise ParseError("attention body needs 'score ? value : default'", lineno)
            score_text, after = qpos
            cpos = _split_top(after, ":")
            if cpos is None:
                raise ParseError("attention body needs ': default'", lineno)
            value_text, default_text = cpos
            score = _ExprParser(score_text, lineno).parse()
            value = _ExprParser(value_text, lineno).parse()
            default = _ExprParser(default_text, lineno).parse()
            ops.append(BraspOp(name, Attention(direction, _MASKS[mask_text], score, value, default)))
        else:
            expr = _ExprParser(body, lineno).parse()
            ops.append(BraspOp(name, Positionwise(expr)))
    if alphabet is None:
        raise ParseError("missing 'alphabet:' header", 0)
    try:
        return BraspProgram(alphabet, tuple(ops), output, tuple(dict.fromkeys(families)))
    except BraspError as e:
        raise BraspError(f"invalid program: {e}") from e


def _split_top(text: str, sep: str):
    """Split at the first top-level occurrence of `sep` (outside parens).

    The colon of a PRED: atom prefix does not count as a separator.
    """
    depth = 0
    for k, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == sep and depth == 0:
            if sep == ":" and text[max(0, k - 4):k] == "PRED":
                continue
            return text[:k], text[k + 1:]
    return None


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


def run_plan(plan, tokens, families) -> list:
    """Every row of `plan` (`slots` rows; `symbol_slot`, `pred_slot` and
    `steps` as in `_Plan`) on a non-empty token list. `families` maps each
    family name to its (n, i) -> bool evaluator; a token without a slot is
    skipped. Each step then computes its slot as `step(rows, full)`.
    """
    n = len(tokens)
    full = (1 << n) - 1
    rows = [0] * plan.slots
    for sym, row in positions_of(tokens).items():
        slot = plan.symbol_slot.get(sym)
        if slot is not None:
            rows[slot] = row
    for fam, family in families.items():
        row = 0
        for i in range(1, n + 1):
            if family(n, i):
                row |= 1 << (i - 1)
        rows[plan.pred_slot[fam]] = row
    for slot, step in plan.steps:
        rows[slot] = step(rows, full)
    return rows


def eval(prog: BraspProgram, input_text, preds=None) -> Trace:
    """Run the program and return every vector row, bit-exactly.

    Pure in (program, input, predicate bindings); attention picks the
    minimum (leftmost) or maximum (rightmost) unmasked position whose score
    holds, and falls back to the default when none exists.
    """
    tokens = prog.alphabet.tokenize(input_text)
    if not tokens:
        raise BraspError("empty input string")
    plan = _plan_for(prog)
    families = resolve_families(plan.pred_slot, preds) if plan.pred_slot else {}
    rows = run_plan(plan, tokens, families)
    return Trace(tokens, list(plan.names), dict(zip(plan.names, rows)), len(tokens))


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
    `step(rows, full) -> row`: a position-wise expression compiled by
    `_compile`, or an `_AttentionStep`.
    """

    __slots__ = ("names", "slots", "symbol_slot", "pred_slot", "steps")

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
                step = _compile(body.expr, row_of)
            else:
                step = _AttentionStep(body, row_of, self.slots)
                self.slots += len(step.i_slots)
            self.steps.append((slot[op.name], step))


def _compile(expr: Expr, row_of):
    """`expr` as a closure (rows, full) -> row; an atom reads rows[row_of(atom)]."""
    if isinstance(expr, Const):
        return (lambda r, full: full) if expr.value else (lambda r, full: 0)
    if isinstance(expr, (Var, Pred)):
        s = row_of(expr)
        return lambda r, full: r[s]
    if isinstance(expr, Not):
        if isinstance(expr.arg, (Var, Pred)):
            s = row_of(expr.arg)
            return lambda r, full: full ^ r[s]
        arg = _compile(expr.arg, row_of)
        return lambda r, full: full ^ arg(r, full)
    # Atom arguments are read in place; only compound ones cost a call.
    slots = tuple(row_of(a) for a in expr.args if isinstance(a, (Var, Pred)))
    rest = tuple(_compile(a, row_of) for a in expr.args if not isinstance(a, (Var, Pred)))
    if isinstance(expr, And):
        def conj(r, full):
            out = full
            for s in slots:
                out &= r[s]
            for a in rest:
                out &= a(r, full)
            return out
        return conj

    def disj(r, full):
        out = 0
        for s in slots:
            out |= r[s]
        for a in rest:
            out |= a(r, full)
        return out
    return disj


class _AttentionStep:
    """One attention operation, evaluated once per group of query positions.

    The distinct atoms that the score and value read at i each get a scratch
    slot. Query positions that agree on all of them see the same score and
    value rows, so those rows are evaluated once per group, with each
    scratch slot set to the group's constant row (all ones or zero): at most
    min(n, 2^k) groups for k such atoms. Only masking and picking the
    leftmost or rightmost candidate is done per position.
    """

    __slots__ = ("leftmost", "mask", "i_slots", "score", "value", "default")

    def __init__(self, body: Attention, row_of, first_scratch: int):
        i_atoms = list(dict.fromkeys(
            a for e in (body.score, body.value) for a in bx.atoms(e) if a.pos == "i"
        ))
        scratch = {a: first_scratch + k for k, a in enumerate(i_atoms)}

        def read(atom) -> int:
            return scratch[atom] if atom.pos == "i" else row_of(atom)

        self.leftmost = body.direction == LEFTMOST
        self.mask = body.mask
        self.i_slots = tuple((row_of(a), scratch[a]) for a in i_atoms)  # (row, scratch slot)
        self.score = _compile(body.score, read)
        self.value = _compile(body.value, read)
        self.default = _compile(body.default, row_of)

    def __call__(self, rows: list, full: int) -> int:
        masks = self.mask.rows(full.bit_length())
        groups = [(full, ())]  # (positions, the scratch rows there)
        for s, _ in self.i_slots:
            r = rows[s]
            groups = [
                part
                for g, c in groups
                for part in ((g & r, c + (full,)), (g & ~r, c + (0,)))
                if part[0]
            ]
        hits = empty = 0
        for g, c in groups:
            for (_, t), v in zip(self.i_slots, c):
                rows[t] = v
            score = self.score(rows, full)
            value = self.value(rows, full)
            while g:
                low = g & -g
                g ^= low
                cand = score & masks[low.bit_length() - 1]
                if not cand:
                    empty |= low
                elif value & (cand & -cand if self.leftmost else 1 << (cand.bit_length() - 1)):
                    hits |= low
        return hits | (empty & self.default(rows, full))


def accepts(prog: BraspProgram, input_text, preds=None) -> bool:
    """True iff the output vector holds at the last position."""
    if not isinstance(prog.output, Accept):
        raise BraspError("program does not have an accept output")
    tr = eval(prog, input_text, preds)
    return bool(tr.value(prog.output.vector, tr.n))


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

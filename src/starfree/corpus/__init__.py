"""Example corpus: programs, formulas, automata, oracles, expected traces.

Everything here is either a text artifact shipped under ``data/`` (parsed on
demand, exercising the public parsers) or a small hand-written membership
function computed straight from the language definition, independent of any
translation in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Callable, Optional

from .. import automata, brasp, ltl, testkit
from ..brasp import Alphabet, Attention, BraspOp, BraspProgram, MaskKind
from ..testkit import LanguageOracle


def _data(name: str) -> str:
    return resources.files(__package__).joinpath("data", name).read_text(encoding="utf-8")


def data_names() -> list:
    root = resources.files(__package__).joinpath("data")
    return sorted(p.name for p in root.iterdir())


def data_text(name: str) -> str:
    return _data(name)


# ---------------------------------------------------------------------------
# Programs


@lru_cache(maxsize=None)
def dyck_program() -> BraspProgram:
    return brasp.parse_program(_data("dyck.brasp"))


@lru_cache(maxsize=None)
def recall_program() -> BraspProgram:
    return brasp.parse_program(_data("recall.brasp"))


@lru_cache(maxsize=None)
def parity_mod_program() -> BraspProgram:
    """Even-length strings over {a}, via the MOD[0,2] predicate family."""
    text = "\n".join(
        [
            "alphabet: a",
            "preds: MOD[0,2]",
            "Y(i) := PRED:MOD[0,2](i)",
            "output: Y",
        ]
    )
    return brasp.parse_program(text)


def nonstrict_variant(prog: BraspProgram) -> BraspProgram:
    """Replace strict masks by their non-strict counterparts."""
    ops = []
    for op in prog.ops:
        body = op.body
        if isinstance(body, Attention) and body.mask.strict:
            body = replace(body, mask=MaskKind.toward(body.mask.before, False))
        ops.append(BraspOp(op.name, body))
    return BraspProgram(prog.alphabet, tuple(ops), prog.output, prog.predicate_families)


# ---------------------------------------------------------------------------
# Formulas


@lru_cache(maxsize=None)
def phi(k: int) -> ltl.Formula:
    if k not in (1, 2, 3, 4):
        raise ValueError("phi(k) is defined for k in 1..4")
    return ltl.parse_formula(_data(f"phi{k}.ltl"))


PHI_ALPHABET = Alphabet(("a", "b", "#"))
AB_ALPHABET = Alphabet(("a", "b"))
LR_ALPHABET = Alphabet(("l", "r"))


@lru_cache(maxsize=None)
def mid_formula() -> ltl.Formula:
    return ltl.parse_formula(_data("mid_phi.ltl"))


@lru_cache(maxsize=None)
def ab_star_formula() -> ltl.Formula:
    return ltl.parse_formula(_data("ab_star.ltl"))


@lru_cache(maxsize=None)
def apbp_star_formula() -> ltl.Formula:
    return ltl.parse_formula(_data("apbp_star.ltl"))


@lru_cache(maxsize=None)
def dyck_since_formula() -> ltl.Formula:
    """since-only formula for the depth-2 bracket language.

    Derived deterministically by compiling the identity-reset cascade to a
    program (whose attention is all rightmost future-masked) and translating
    that program to a formula; the result therefore uses only since.
    """
    prog = automata.cascade_to_brasp(l12_cascade(), l12_dfa())
    return ltl.brasp_to_ltl(prog)


# ---------------------------------------------------------------------------
# Automata


@lru_cache(maxsize=None)
def a3_dfa() -> automata.Dfa:
    return automata.dfa_from_json(_data("a3_dfa.json"))


@lru_cache(maxsize=None)
def aa_dfa() -> automata.Dfa:
    return automata.dfa_from_json(_data("aa_dfa.json"))


@lru_cache(maxsize=None)
def l12_dfa() -> automata.Dfa:
    return automata.dfa_from_json(_data("l12_dfa.json"))


@lru_cache(maxsize=None)
def a3_cascade() -> automata.Cascade:
    return automata.cascade_from_json(_data("a3_cascade.json"))


@lru_cache(maxsize=None)
def l12_cascade() -> automata.Cascade:
    return automata.cascade_from_json(_data("l12_cascade.json"))


# ---------------------------------------------------------------------------
# Oracles (hand-coded from the language definitions)


def _dyck_member(w) -> bool:
    depth = 0
    for c in w:
        if c == "l":
            depth += 1
        elif c == "r":
            depth -= 1
        else:
            return False
        if depth < 0 or depth > 2:
            return False
    return depth == 0


def _phi1_member(w) -> bool:
    return len(w) >= 1 and w[-1] == "#"


def _peel(w, sym):
    k = len(w)
    while k > 0 and w[k - 1] == sym:
        k -= 1
    return w[:k]


def _phi2_member(w) -> bool:
    if not w or w[-1] != "#":
        return False
    rest = _peel(w[:-1], "b")
    return len(rest) >= 1 and rest[-1] == "#"


def _phi3_member(w) -> bool:
    if not w or w[-1] != "#":
        return False
    rest = _peel(w[:-1], "b")
    if not rest or rest[-1] != "#":
        return False
    rest = _peel(rest[:-1], "a")
    return len(rest) >= 1 and rest[-1] == "#"


def _phi4_member(w) -> bool:
    if len(w) < 3 or w[0] != "#" or w[-1] != "#":
        return False
    inner = w[1:-1]
    k = 0
    while k < len(inner) and inner[k] == "a":
        k += 1
    if k >= len(inner) or inner[k] != "#":
        return False
    return all(c == "b" for c in inner[k + 1:])


def _ab_star_member(w) -> bool:
    if len(w) % 2 != 0 or not w:
        return False
    return all(w[k] == ("a" if k % 2 == 0 else "b") for k in range(len(w)))


def _aa_star_member(w) -> bool:
    return len(w) % 2 == 0 and all(c == "a" for c in w)


def _apbp_member(w) -> bool:
    # Runs of a then b, repeated at least once: walk the run structure.
    k = 0
    n = len(w)
    if n == 0:
        return False
    while k < n:
        start = k
        while k < n and w[k] == "a":
            k += 1
        if k == start:
            return False
        start = k
        while k < n and w[k] == "b":
            k += 1
        if k == start:
            return False
    return True


def _mid_lang_member(w) -> bool:
    n = len(w)
    if n < 3 or n % 2 == 0:
        return False
    m = (n - 3) // 2
    return w == "#" + "a" * m + "#" + "b" * m + "#"


ORACLES = {
    "dyck": LanguageOracle("dyck", _dyck_member),
    "phi1": LanguageOracle("phi1", _phi1_member),
    "phi2": LanguageOracle("phi2", _phi2_member),
    "phi3": LanguageOracle("phi3", _phi3_member),
    "phi4": LanguageOracle("phi4", _phi4_member),
    "ab_star": LanguageOracle("ab_star", _ab_star_member),
    "aa_star": LanguageOracle("aa_star", _aa_star_member),
    "apbp_star": LanguageOracle("apbp_star", _apbp_member),
    "mid_lang": LanguageOracle("mid_lang", _mid_lang_member),
    "stair_1": testkit.stair_oracle(1),
    "stair_2": testkit.stair_oracle(2),
    "stair_3": testkit.stair_oracle(3),
    "stair_4": testkit.stair_oracle(4),
}


# ---------------------------------------------------------------------------
# Expected traces


@dataclass(frozen=True)
class ExpectedTrace:
    input_tokens: tuple
    rows: dict  # vector name -> tuple of bits
    output_tokens: Optional[tuple] = None


@lru_cache(maxsize=None)
def expected_trace(name: str) -> ExpectedTrace:
    text = _data(f"trace_{name}.txt")
    input_tokens = None
    output_tokens = None
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        head, cells = parts[0], parts[1:]
        if head == "input":
            input_tokens = tuple(cells)
        elif head == "output":
            output_tokens = tuple(cells)
        else:
            rows[head] = tuple(int(c) for c in cells)
    return ExpectedTrace(input_tokens, rows, output_tokens)


# ---------------------------------------------------------------------------
# The named collection


@dataclass(frozen=True)
class LanguageEntry:
    """One language with every artifact the corpus has for it."""

    name: str
    alphabet: Alphabet
    oracle: LanguageOracle
    bound: int  # exhaustive diff bound used in tests
    program: Optional[Callable] = None  # () -> BraspProgram
    formula: Optional[Callable] = None  # () -> Formula, since-only where present
    dfa: Optional[Callable] = None


@dataclass(frozen=True)
class Corpus:
    languages: dict
    programs: dict
    transducers: dict
    formulas: dict
    dfas: dict
    cascades: dict  # name -> (cascade loader, target dfa loader)
    oracles: dict
    traces: tuple


@lru_cache(maxsize=None)
def corpus() -> Corpus:
    languages = {
        "dyck": LanguageEntry(
            "dyck", LR_ALPHABET, ORACLES["dyck"], 8,
            program=dyck_program, formula=dyck_since_formula, dfa=l12_dfa,
        ),
        "phi1": LanguageEntry("phi1", PHI_ALPHABET, ORACLES["phi1"], 7, formula=lambda: phi(1)),
        "phi2": LanguageEntry("phi2", PHI_ALPHABET, ORACLES["phi2"], 7, formula=lambda: phi(2)),
        "phi3": LanguageEntry("phi3", PHI_ALPHABET, ORACLES["phi3"], 7, formula=lambda: phi(3)),
        "phi4": LanguageEntry("phi4", PHI_ALPHABET, ORACLES["phi4"], 7, formula=lambda: phi(4)),
        "ab_star": LanguageEntry("ab_star", AB_ALPHABET, ORACLES["ab_star"], 8, formula=ab_star_formula),
        "apbp_star": LanguageEntry("apbp_star", AB_ALPHABET, ORACLES["apbp_star"], 8, formula=apbp_star_formula),
        "stair_1": LanguageEntry(
            "stair_1", testkit.STAIR_ALPHABET, ORACLES["stair_1"], 7,
            formula=lambda: testkit.stair_formula(1),
        ),
        "stair_2": LanguageEntry(
            "stair_2", testkit.STAIR_ALPHABET, ORACLES["stair_2"], 7,
            formula=lambda: testkit.stair_formula(2),
        ),
        "stair_3": LanguageEntry(
            "stair_3", testkit.STAIR_ALPHABET, ORACLES["stair_3"], 7,
            formula=lambda: testkit.stair_formula(3),
        ),
        "stair_4": LanguageEntry(
            "stair_4", testkit.STAIR_ALPHABET, ORACLES["stair_4"], 7,
            formula=lambda: testkit.stair_formula(4),
        ),
        "aa_star": LanguageEntry(
            "aa_star", Alphabet(("a",)), ORACLES["aa_star"], 12,
            program=parity_mod_program, dfa=aa_dfa,
        ),
        "mid_lang": LanguageEntry(
            "mid_lang", PHI_ALPHABET, ORACLES["mid_lang"], 9, formula=mid_formula,
        ),
    }
    return Corpus(
        languages=languages,
        programs={"dyck": dyck_program, "parity_mod": parity_mod_program},
        transducers={"recall": recall_program},
        formulas={
            "phi1": lambda: phi(1),
            "phi2": lambda: phi(2),
            "phi3": lambda: phi(3),
            "phi4": lambda: phi(4),
            "mid": mid_formula,
            "ab_star": ab_star_formula,
            "apbp_star": apbp_star_formula,
            "dyck_since": dyck_since_formula,
            "stair_1": lambda: testkit.stair_formula(1),
            "stair_2": lambda: testkit.stair_formula(2),
            "stair_3": lambda: testkit.stair_formula(3),
            "stair_4": lambda: testkit.stair_formula(4),
        },
        dfas={"a3": a3_dfa, "aa": aa_dfa, "l12": l12_dfa},
        cascades={"a3": (a3_cascade, a3_dfa), "l12": (l12_cascade, l12_dfa)},
        oracles=dict(ORACLES),
        traces=("dyck_accept", "dyck_reject", "recall"),
    )

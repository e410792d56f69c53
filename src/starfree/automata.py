"""Finite automata, cascade products of identity-reset factors, and their
compilation to Boolean-vector programs.

Cascades are supplied, not synthesized: this module verifies that factors
are identity-reset, that a claimed homomorphism onto a target automaton
commutes with transitions, and compiles a verified cascade into a program
that tracks the target's state at every position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Optional

from . import boolexpr as bx
from .boolexpr import Var
from .brasp import (
    Accept,
    Alphabet,
    Attention,
    BraspOp,
    BraspProgram,
    MaskKind,
    Positionwise,
    RIGHTMOST,
    qname,
)


class AutomatonError(Exception):
    pass


@dataclass(frozen=True)
class Dfa:
    alphabet: Alphabet
    states: tuple
    delta: dict  # (state, symbol) -> state, total
    start: object
    finals: frozenset

    def __post_init__(self):
        states = set(self.states)
        if self.start not in states:
            raise AutomatonError(f"start state {self.start!r} unknown")
        if not set(self.finals) <= states:
            raise AutomatonError("final states must be states")
        for q in self.states:
            for a in self.alphabet.symbols:
                if (q, a) not in self.delta:
                    raise AutomatonError(f"missing transition ({q!r}, {a!r})")
                if self.delta[(q, a)] not in states:
                    raise AutomatonError(f"transition ({q!r}, {a!r}) leaves the state set")

    def step(self, q, symbol):
        return self.delta[(q, symbol)]

    def accepts(self, input_text) -> bool:
        trace = run_dfa(self, input_text)
        return trace.states[-1] in self.finals

    def symbol_action(self, a) -> tuple:
        return tuple(self.delta[(q, a)] for q in self.states)


@dataclass(frozen=True)
class StateTrace:
    states: tuple  # q_0 .. q_n

    def __len__(self):
        return len(self.states)


def run_dfa(dfa: Dfa, input_text) -> StateTrace:
    """States traversed from the start state; q_0 is before any symbol."""
    tokens = dfa.alphabet.tokenize(input_text)
    states = [dfa.start]
    for t in tokens:
        states.append(dfa.step(states[-1], t))
    return StateTrace(tuple(states))


# ---------------------------------------------------------------------------
# Counter-freeness


def transition_monoid(dfa: Dfa) -> set:
    """Closure of the symbol actions under composition, plus the identity."""
    n = len(dfa.states)
    index = {q: k for k, q in enumerate(dfa.states)}
    gens = []
    for a in dfa.alphabet.symbols:
        gens.append(tuple(index[dfa.delta[(q, a)]] for q in dfa.states))
    identity = tuple(range(n))
    monoid = {identity}
    frontier = [identity]
    while frontier:
        m = frontier.pop()
        for g in gens:
            composed = tuple(g[m[k]] for k in range(n))
            if composed not in monoid:
                monoid.add(composed)
                frontier.append(composed)
    return monoid


def is_counter_free(dfa: Dfa) -> bool:
    """True iff the transition monoid is aperiodic.

    Each element m must satisfy m^(k+1) = m^k for some k <= |Q|; a
    transformation of |Q| points stabilizes within that many iterations
    unless it eventually permutes a subset nontrivially.
    """
    n = len(dfa.states)
    for m in transition_monoid(dfa):
        power = m
        ok = False
        for _ in range(n):
            nxt = tuple(m[power[k]] for k in range(n))
            if nxt == power:
                ok = True
                break
            power = nxt
        if not ok:
            return False
    return True


def is_counter_free_bruteforce(dfa: Dfa) -> bool:
    """Definitional check: no word may permute a state subset nontrivially.

    Words are represented by their monoid elements, which cover every word's
    action; each element is tested on every subset of states.
    """
    n = len(dfa.states)
    for m in transition_monoid(dfa):
        for mask in range(1 << n):
            subset = [k for k in range(n) if mask >> k & 1]
            image = [m[k] for k in subset]
            if sorted(image) == subset:  # m permutes the subset
                if any(m[k] != k for k in subset):
                    return False
    return True


# ---------------------------------------------------------------------------
# Identity-reset automata and cascades


@dataclass(frozen=True)
class IdentityResetAutomaton:
    """DFA whose every symbol acts as the identity or resets to one state.

    `resets` maps each target state r to the tuple of symbols resetting to
    r; symbols not mentioned act as the identity. The input alphabet of a
    cascade factor consists of tuples (earlier states..., input symbol).
    """

    states: tuple
    start: object
    resets: dict  # state -> tuple of symbols (hashable; tuples for factors)

    def __post_init__(self):
        states = set(self.states)
        if self.start not in states:
            raise AutomatonError(f"start state {self.start!r} unknown")
        seen = set()
        for r, syms in self.resets.items():
            if r not in states:
                raise AutomatonError(f"reset target {r!r} unknown")
            for a in syms:
                if a in seen:
                    raise AutomatonError(f"symbol {a!r} resets to two states")
                seen.add(a)

    @property
    def reset_symbols(self) -> set:
        out = set()
        for syms in self.resets.values():
            out.update(syms)
        return out

    def step(self, q, symbol):
        for r, syms in self.resets.items():
            if symbol in syms:
                return r
        return q

    @staticmethod
    def from_dfa(dfa: Dfa, start=None) -> "IdentityResetAutomaton":
        """Classify each symbol as identity or constant; anything else raises."""
        resets: dict = {}
        for a in dfa.alphabet.symbols:
            action = dfa.symbol_action(a)
            targets = set(action)
            if len(targets) == 1:
                r = targets.pop()
                resets.setdefault(r, []).append(a)
            elif action == tuple(dfa.states):
                continue
            else:
                raise AutomatonError(f"symbol {a!r} is neither identity nor constant")
        return IdentityResetAutomaton(
            dfa.states,
            dfa.start if start is None else start,
            {r: tuple(v) for r, v in resets.items()},
        )


@dataclass(frozen=True)
class Cascade:
    """Identity-reset factors where factor k reads (states of 1..k-1, symbol).

    Factor 1 reads plain input symbols; factor k > 1 reads tuples
    (q_1, ..., q_{k-1}, a). The optional homomorphism maps flattened global
    state names onto states of a target automaton.
    """

    alphabet: Alphabet
    factors: tuple
    homomorphism: Optional[dict] = None

    def __post_init__(self):
        if not self.factors:
            raise AutomatonError("cascade needs at least one factor")
        for k, factor in enumerate(self.factors):
            arity = k + 1  # prefix states plus the input symbol
            for syms in factor.resets.values():
                for s in syms:
                    if k == 0:
                        if not isinstance(s, str) or s not in self.alphabet.symbols:
                            raise AutomatonError(f"factor 1 reset symbol {s!r} not in alphabet")
                    else:
                        if not isinstance(s, tuple) or len(s) != arity:
                            raise AutomatonError(
                                f"factor {k + 1} reset symbol {s!r} must be a "
                                f"{arity}-tuple (prefix states..., input symbol)"
                            )
                        if s[-1] not in self.alphabet.symbols:
                            raise AutomatonError(f"factor {k + 1} reset {s!r}: bad input symbol")
                        for m, q in enumerate(s[:-1]):
                            if q not in self.factors[m].states:
                                raise AutomatonError(
                                    f"factor {k + 1} reset {s!r}: {q!r} is not a state of factor {m + 1}"
                                )

    @property
    def start(self) -> tuple:
        return tuple(f.start for f in self.factors)

    def step(self, state: tuple, symbol) -> tuple:
        out = []
        for k, factor in enumerate(self.factors):
            inp = symbol if k == 0 else tuple(state[:k]) + (symbol,)
            out.append(factor.step(state[k], inp))
        return tuple(out)

    def global_states(self) -> list:
        return [tuple(t) for t in product(*(f.states for f in self.factors))]


def flat_name(state: tuple) -> str:
    """Canonical flattened name: concatenated when unambiguous, else comma-joined."""
    parts = [str(q) for q in state]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return ",".join(parts)


def cascade_to_global(cascade: Cascade, finals=()) -> Dfa:
    """Product automaton on flattened state tuples."""
    states = cascade.global_states()
    names = {s: flat_name(s) for s in states}
    delta = {}
    for s in states:
        for a in cascade.alphabet.symbols:
            delta[(names[s], a)] = names[cascade.step(s, a)]
    return Dfa(
        cascade.alphabet,
        tuple(names[s] for s in states),
        delta,
        names[cascade.start],
        frozenset(finals),
    )


def check_homomorphism(cascade: Cascade, target: Dfa) -> bool:
    """Does the declared state map commute with every transition?"""
    if cascade.homomorphism is None:
        raise AutomatonError("cascade has no homomorphism table")
    hom = cascade.homomorphism
    glob = cascade_to_global(cascade)
    for q in glob.states:
        if q not in hom:
            raise AutomatonError(f"global state {q!r} unmapped by the homomorphism")
        if hom[q] not in set(target.states):
            raise AutomatonError(f"homomorphism image {hom[q]!r} not a target state")
    for q in glob.states:
        for a in cascade.alphabet.symbols:
            if hom[glob.delta[(q, a)]] != target.delta[(hom[q], a)]:
                return False
    return True


# ---------------------------------------------------------------------------
# Compilation to programs


def identity_reset_to_brasp(
    automaton: IdentityResetAutomaton, start=None, alphabet: Optional[Alphabet] = None
) -> tuple:
    """Vectors B_q(i): automaton is in state q before reading position i.

    The automaton's symbols must be plain alphabet symbols (a level-1
    factor). Returns (program, {state: vector name}); the program has no
    output designation.
    """
    if alphabet is None:
        syms = sorted(automaton.reset_symbols)
        if not syms:
            raise AutomatonError("cannot infer an alphabet from an all-identity automaton")
        alphabet = Alphabet(tuple(syms))
    start = automaton.start if start is None else start
    ops, names = _reset_tracker_ops(
        automaton,
        start,
        lift=lambda sym, pos: Var(qname(sym), pos),
        namegen=lambda q: f"B_{q}",
    )
    prog = BraspProgram(alphabet, tuple(ops), None, ())
    return prog, names


def _reset_tracker_ops(automaton, start, lift, namegen):
    """Attention ops reading the most recent reset, shared by both entry points.

    `lift(symbol, pos)` renders the factor-alphabet symbol test at a position.
    """
    all_resets = sorted(automaton.reset_symbols, key=repr)
    score = bx.disj(lift(s, "j") for s in all_resets)
    ops = []
    names = {}
    for q in automaton.states:
        mine = automaton.resets.get(q, ())
        value = bx.disj(lift(s, "j") for s in mine)
        default = bx.Const(q == start)
        name = namegen(q)
        ops.append(BraspOp(name, Attention(RIGHTMOST, MaskKind.FUTURE, score, value, default)))
        names[q] = name
    return ops, names


def cascade_to_brasp(cascade: Cascade, target: Dfa) -> BraspProgram:
    """Program accepting exactly the target's language, via the cascade.

    Requires the homomorphism check to pass and the start tuple to map to
    the target's start state. Tracks each factor's state with a
    most-recent-reset attention over lifted input predicates, combines the
    factor states into global-state vectors, reads the target state off the
    homomorphism, and finally accepts iff the state after the last position
    is final.
    """
    if not check_homomorphism(cascade, target):
        raise AutomatonError("homomorphism check failed")
    hom = cascade.homomorphism
    start_name = flat_name(cascade.start)
    if hom[start_name] != target.start:
        raise AutomatonError(
            f"cascade start maps to {hom[start_name]!r}, target starts at {target.start!r}"
        )
    alphabet = cascade.alphabet
    ops: list = []

    # prefix_vectors maps tuples of factor states (prefix of a global state)
    # to the vector name asserting that joint state before position i.
    prefix_vectors: dict = {(): None}
    for k, factor in enumerate(cascade.factors):
        level = k + 1

        def lift(sym, pos, _k=k):
            if _k == 0:
                return Var(qname(sym), pos)
            *prefix_states, a = sym
            prefix_name = prefix_vectors[tuple(prefix_states)]
            return bx.conj([Var(prefix_name, pos), Var(qname(a), pos)])

        level_ops, names = _reset_tracker_ops(
            factor,
            factor.start,
            lift=lift,
            namegen=lambda q, _level=level: f"S{_level}_{q}",
        )
        ops.extend(level_ops)
        new_prefix: dict = {}
        for prefix in product(*(f.states for f in cascade.factors[:k])):
            for q in factor.states:
                joint = prefix + (q,)
                if k == 0:
                    new_prefix[joint] = names[q]
                else:
                    name = f"C{level}_{flat_name(joint)}"
                    ops.append(
                        BraspOp(
                            name,
                            Positionwise(
                                bx.conj([Var(prefix_vectors[prefix], "i"), Var(names[q], "i")])
                            ),
                        )
                    )
                    new_prefix[joint] = name
        prefix_vectors = new_prefix

    # Target state before position i, through the homomorphism.
    state_vec = {}
    for r in target.states:
        sources = [name for s, name in prefix_vectors.items() if hom[flat_name(s)] == r]
        name = f"A_{r}"
        ops.append(BraspOp(name, Positionwise(bx.disj(Var(v, "i") for v in sources))))
        state_vec[r] = name

    # Target state after reading position i.
    after_vec = {}
    for r in target.states:
        branches = []
        for q in target.states:
            for a in alphabet.symbols:
                if target.delta[(q, a)] == r:
                    branches.append(bx.conj([Var(state_vec[q], "i"), Var(qname(a), "i")]))
        name = f"Y_{r}"
        ops.append(BraspOp(name, Positionwise(bx.disj(branches))))
        after_vec[r] = name

    out = BraspOp("Y", Positionwise(bx.disj(Var(after_vec[f], "i") for f in target.finals)))
    ops.append(out)
    return BraspProgram(alphabet, tuple(ops), Accept("Y"), ())


# ---------------------------------------------------------------------------
# File formats (JSON)


def dfa_to_json(dfa: Dfa) -> str:
    payload = {
        "alphabet": list(dfa.alphabet.symbols),
        "states": list(dfa.states),
        "transitions": [[q, a, dfa.delta[(q, a)]] for q in dfa.states for a in dfa.alphabet.symbols],
        "start": dfa.start,
        "finals": sorted(dfa.finals, key=str),
    }
    return json.dumps(payload, indent=2) + "\n"


def _field(spec, key: str, kind: type, where: str):
    """`spec[key]`, which must be a JSON value of type `kind`."""
    if not isinstance(spec, dict):
        raise AutomatonError(f"{where} must be a JSON object")
    if key not in spec:
        raise AutomatonError(f"{where}: missing field {key!r}")
    value = spec[key]
    if not isinstance(value, kind):
        raise AutomatonError(f"{where}: field {key!r} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _name(value, where: str):
    """A state or symbol name: a JSON string or number, which can be hashed."""
    if isinstance(value, (list, dict)):
        raise AutomatonError(f"{where}: {json.dumps(value)} is not a state or symbol name")
    return value


def _names(values, where: str) -> tuple:
    return tuple(_name(v, where) for v in values)


def dfa_from_json(text: str) -> Dfa:
    """Load a DFA file; a missing or ill-typed field raises AutomatonError naming it."""
    payload = json.loads(text)
    alphabet = Alphabet(_names(_field(payload, "alphabet", list, "DFA"), "DFA alphabet"))
    delta = {}
    for t in _field(payload, "transitions", list, "DFA"):
        if not isinstance(t, list) or len(t) != 3:
            raise AutomatonError(f"DFA: transition {json.dumps(t)} is not a [state, symbol, state] triple")
        q, a, r = _names(t, "DFA transition")
        delta[(q, a)] = r
    return Dfa(
        alphabet,
        _names(_field(payload, "states", list, "DFA"), "DFA states"),
        delta,
        _name(_field(payload, "start", object, "DFA"), "DFA start"),
        frozenset(_names(_field(payload, "finals", list, "DFA"), "DFA finals")),
    )


def cascade_to_json(cascade: Cascade) -> str:
    factors = []
    for k, f in enumerate(cascade.factors):
        resets = {}
        for r, syms in f.resets.items():
            resets[str(r)] = [list(s) if isinstance(s, tuple) else s for s in syms]
        factors.append({"states": list(f.states), "start": f.start, "resets": resets})
    payload = {
        "alphabet": list(cascade.alphabet.symbols),
        "factors": factors,
        "homomorphism": cascade.homomorphism,
    }
    return json.dumps(payload, indent=2) + "\n"


def cascade_from_json(text: str) -> Cascade:
    """Load a cascade file; a missing or ill-typed field raises AutomatonError naming it."""
    payload = json.loads(text)
    alphabet = Alphabet(_names(_field(payload, "alphabet", list, "cascade"), "cascade alphabet"))
    factors = []
    for k, spec in enumerate(_field(payload, "factors", list, "cascade"), start=1):
        where = f"cascade factor {k}"
        resets = {}
        for r, syms in _field(spec, "resets", dict, where).items():
            if not isinstance(syms, list):
                raise AutomatonError(f"{where}: resets of {r!r} must be a list")
            resets[r] = tuple(_names(s, where) if isinstance(s, list) else _name(s, where) for s in syms)
        factors.append(
            IdentityResetAutomaton(
                _names(_field(spec, "states", list, where), where),
                _name(_field(spec, "start", object, where), where),
                resets,
            )
        )
    homomorphism = payload.get("homomorphism")
    if homomorphism is not None and not isinstance(homomorphism, dict):
        raise AutomatonError("cascade: field 'homomorphism' must be a dict")
    return Cascade(alphabet, tuple(factors), homomorphism)

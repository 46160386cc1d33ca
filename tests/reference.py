"""The paper's child functions chNo/ch1/ch2 over restrictions of F: the
reference that the engine's incremental child rule,
`treesearch._EngineState.decide`, is tested to equal.

A node is a partial assignment. `restrict` applies it to F, and the search
predicate (`evaluate_predicate`), the DPLL reduction rules (`unit_rule`,
`pure_literal_rule`) and s-implication (`s_implied_over_clauses`) read the
restriction. `ch_no`, `ch1` and `ch2` are built from them and restrict F
afresh at every node; `reference_nodes` walks the tree they define. `locality_check` compares
SIA's window verdicts with s-implication over the full restriction, and
`brute_force_models` lists every model of a small formula.
`bounded_width_cnf` makes the narrow formulas that SIA's window reads.

`qpe_sandwich_zero_probability` and `qpe_counter_circuit` build and simulate
the two phase-estimation circuits, the oracle for `qcircuit.qpe`'s spectral
product. The product sums the same terms in another order, so they agree
within 1e-12, not bit for bit.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from hybridts.formula import UNSET, CnfFormula, SImplication, index_width, s_implication
from hybridts.generators import truth_table
from hybridts.qcircuit.core import Circuit, append_increment, simulate
from hybridts.sia import _SiaCore
from hybridts.treesearch import DPLL, EngineConfig


class Predicate(Enum):
    SATISFIED = "satisfied"
    CONTRADICTION = "contradiction"
    UNDETERMINED = "undetermined"


def lit_satisfied(lit: int, value: int) -> bool:
    return value == (1 if lit > 0 else 0)


@dataclass(frozen=True)
class PartialAssignment:
    """Trit vector over {0, 1, UNSET}, one entry per variable."""

    values: tuple[int, ...]

    @classmethod
    def empty(cls, num_vars: int) -> "PartialAssignment":
        return cls((UNSET,) * num_vars)

    @classmethod
    def of(cls, num_vars: int, pairs: dict[int, int]) -> "PartialAssignment":
        vals = [UNSET] * num_vars
        for var, val in pairs.items():
            vals[var - 1] = int(val)
        return cls(tuple(vals))

    def value(self, var: int) -> int:
        return self.values[var - 1]

    def assign(self, var: int, value: int) -> "PartialAssignment":
        if self.values[var - 1] != UNSET:
            raise ValueError(f"variable {var} already assigned")
        vals = list(self.values)
        vals[var - 1] = int(value)
        return PartialAssignment(tuple(vals))

    @property
    def num_vars(self) -> int:
        return len(self.values)


def _check_pairing(formula: CnfFormula, assignment: PartialAssignment) -> None:
    if assignment.num_vars != formula.num_vars:
        raise ValueError(
            f"assignment over {assignment.num_vars} variables does not pair "
            f"with formula over {formula.num_vars}")


def restrict(formula: CnfFormula, assignment: PartialAssignment) -> CnfFormula:
    """Apply the assignment: drop satisfied clauses, remove false literals.

    An empty clause produced here is preserved; it marks a contradiction.
    """
    _check_pairing(formula, assignment)
    out = []
    for clause in formula.clauses:
        kept = []
        satisfied = False
        for lit in clause:
            val = assignment.value(abs(lit))
            if val == UNSET:
                kept.append(lit)
            elif lit_satisfied(lit, val):
                satisfied = True
                break
        if not satisfied:
            out.append(tuple(kept))
    deduped = tuple(dict.fromkeys(out))
    k = max((len(c) for c in deduped), default=0)
    return CnfFormula(formula.num_vars, deduped, k)


def evaluate_predicate(formula: CnfFormula, assignment: PartialAssignment) -> Predicate:
    """Search predicate P: satisfied iff the restriction is the empty formula,
    contradiction iff it contains an empty clause, undetermined otherwise."""
    _check_pairing(formula, assignment)
    restricted = restrict(formula, assignment)
    if restricted.has_empty_clause:
        return Predicate.CONTRADICTION
    if restricted.is_empty:
        return Predicate.SATISFIED
    return Predicate.UNDETERMINED


def unit_rule(formula: CnfFormula, assignment: PartialAssignment) -> tuple[int, int] | None:
    """First unit clause by (variable index, clause order); returns (var, value)."""
    restricted = restrict(formula, assignment)
    if restricted.has_empty_clause:
        raise ValueError("unit rule called on a contradicted restriction")
    best = None
    for idx, clause in enumerate(restricted.clauses):
        if len(clause) == 1:
            lit = clause[0]
            key = (abs(lit), idx)
            if best is None or key < best[0]:
                best = (key, (abs(lit), 1 if lit > 0 else 0))
    return best[1] if best else None


def pure_literal_rule(formula: CnfFormula, assignment: PartialAssignment) -> tuple[int, int] | None:
    """Lowest unset variable occurring in one polarity only, or in no clause.

    Disappeared variables are assigned true, as are single-positive ones;
    single-negative variables are assigned false.
    """
    restricted = restrict(formula, assignment)
    if restricted.has_empty_clause:
        raise ValueError("pure literal rule called on a contradicted restriction")
    pos = set()
    neg = set()
    for clause in restricted.clauses:
        for lit in clause:
            (pos if lit > 0 else neg).add(abs(lit))
    for var in range(1, formula.num_vars + 1):
        if assignment.value(var) != UNSET:
            continue
        in_pos, in_neg = var in pos, var in neg
        if not in_neg:
            return (var, 1)
        if not in_pos:
            return (var, 0)
    return None


def s_implied_over_clauses(clauses: Sequence[tuple[int, ...]], var: int,
                           s: int) -> SImplication:
    """s-implication over a clause list (already restricted): the connected
    pool of `s_implication`, with the variable index built once."""
    by_var: dict[int, list[int]] = {}
    for ci, clause in enumerate(clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(ci)
    return s_implication(var, s, lambda v: by_var.get(v, ()), clauses.__getitem__)


def brute_force_models(formula: CnfFormula) -> list[tuple[int, ...]]:
    n = formula.num_vars
    return [tuple((int(i) >> (n - v)) & 1 for v in range(1, n + 1))
            for i in np.flatnonzero(truth_table(formula))]


class ChildCount(Enum):
    ZERO_LEAF = 0
    ONE_CHILD = 1
    TWO_CHILDREN = 2


@dataclass(frozen=True)
class TreeNode:
    assignment: PartialAssignment
    depth: int
    guess_count: int

    @classmethod
    def root(cls, num_vars: int) -> "TreeNode":
        return cls(PartialAssignment.empty(num_vars), 0, 0)


def _forced_dpll(formula: CnfFormula, assignment: PartialAssignment,
                 config: EngineConfig) -> tuple[int, int] | None:
    restricted = None
    for rule in config.reduction_rules:
        if rule == "unit":
            hit = unit_rule(formula, assignment)
        elif rule == "pureLiteral":
            hit = pure_literal_rule(formula, assignment)
        else:  # sImplication: lowest forced variable under the connected pool
            if restricted is None:
                restricted = restrict(formula, assignment).clauses
            hit = None
            for var in range(1, formula.num_vars + 1):
                if assignment.value(var) == UNSET:
                    value = s_implied_over_clauses(restricted, var, config.s).forced
                    if value is not None:
                        hit = (var, value)
                        break
        if hit:
            return hit
    return None


def _child_rule(node: TreeNode, formula: CnfFormula,
                config: EngineConfig) -> tuple[int, int | None] | None:
    """The reference child rule: the forced (var, value), else (var, None) for
    the guessed variable, else None at a leaf."""
    config = config.validated(formula)
    assignment = node.assignment
    if evaluate_predicate(formula, assignment) != Predicate.UNDETERMINED:
        return None
    if config.kind == DPLL:
        forced = _forced_dpll(formula, assignment, config)
        if forced is not None:
            return forced
        return next(((v, None) for v in range(1, formula.num_vars + 1)
                     if assignment.value(v) == UNSET), None)
    var = next((v for v in config.permutation if assignment.value(v) == UNSET), None)
    if var is None:
        return None
    value = s_implied_over_clauses(restrict(formula, assignment).clauses,
                                   var, config.s).forced
    if value is None and node.guess_count >= config.guess_budget:
        return None  # out of guesses
    return var, value


def ch_no(node: TreeNode, formula: CnfFormula, config: EngineConfig) -> ChildCount:
    """Number of children: 0 (leaf), 1 (forced), or 2 (guessed)."""
    choice = _child_rule(node, formula, config)
    if choice is None:
        return ChildCount.ZERO_LEAF
    return ChildCount.TWO_CHILDREN if choice[1] is None else ChildCount.ONE_CHILD


def ch1(node: TreeNode, formula: CnfFormula, config: EngineConfig) -> TreeNode:
    """The only child of a forced node."""
    choice = _child_rule(node, formula, config)
    if choice is None or choice[1] is None:
        raise ValueError("ch1 called on a node that is not forced")
    var, value = choice
    return TreeNode(node.assignment.assign(var, value), node.depth + 1,
                    node.guess_count)


def ch2(node: TreeNode, formula: CnfFormula, config: EngineConfig, b: int) -> TreeNode:
    """Child b in {0, 1} of a guessed node."""
    if b not in (0, 1):
        raise ValueError("branch value must be 0 or 1")
    choice = _child_rule(node, formula, config)
    if choice is None or choice[1] is not None:
        raise ValueError("ch2 called on a node that is not guessed")
    return TreeNode(node.assignment.assign(choice[0], b), node.depth + 1,
                    node.guess_count + 1)


def locality_check(formula: CnfFormula, w: int, samples: int,
                   seed: int | None = None, s: int = 1) -> dict:
    """Window-based s-implication must agree with the full-prefix computation
    on every sampled prefix; any mismatch is a hard failure."""
    import random as _random

    if index_width(formula) > w:
        raise ValueError("formula index width exceeds w; locality does not apply")
    rng = _random.Random(seed)
    core = _SiaCore(formula, s, w)
    n = formula.num_vars
    checked = 0
    for _ in range(samples):
        var = rng.randint(1, n)
        prefix = {v: rng.randint(0, 1) for v in range(1, var)}
        assignment = PartialAssignment.of(n, prefix)
        full_clauses = [c for c in restrict(formula, assignment).clauses]
        full = s_implied_over_clauses(full_clauses, var, s)
        window = {v: val for v, val in prefix.items() if v >= var - w}
        local = core.implication(window, var)
        if full != local:
            raise AssertionError(
                f"locality violation at variable {var}: full={full} window={local}")
        checked += 1
    return {"checked": checked, "width": w, "ok": True}


def reference_nodes(formula: CnfFormula,
                    config: EngineConfig) -> Iterator[tuple[TreeNode, Predicate]]:
    """Each node of the tree `ch_no`, `ch1` and `ch2` define, with its
    predicate, in the engine's preorder: child 0 before child 1."""
    stack = [TreeNode.root(formula.num_vars)]
    while stack:
        node = stack.pop()
        yield node, evaluate_predicate(formula, node.assignment)
        kind = ch_no(node, formula, config)
        if kind == ChildCount.ONE_CHILD:
            stack.append(ch1(node, formula, config))
        elif kind == ChildCount.TWO_CHILDREN:
            stack += [ch2(node, formula, config, 1), ch2(node, formula, config, 0)]


def bounded_width_cnf(rng: random.Random, num_vars: int, width: int,
                      num_clauses: int, k: int = 3) -> CnfFormula:
    """Random CNF whose clauses span at most `width` variable indices."""
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, min(k, width + 1))
        lo = rng.randint(1, max(1, num_vars - width))
        hi = min(num_vars, lo + width)
        variables = rng.sample(range(lo, hi + 1), min(size, hi - lo + 1))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return CnfFormula.from_clauses(num_vars, clauses)


# The phase-estimation circuits that `qcircuit.qpe`'s spectral product
# replaces: the t-ancilla Hadamard sandwich, and the counter variant with one
# reused estimate ancilla and a bit_length(t)-wire counter.

def _u_wires(u: np.ndarray) -> int:
    m = int(np.log2(u.shape[0]))
    if 2 ** m != u.shape[0]:
        raise ValueError("unitary dimension is not a power of two")
    return m


def _basis(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def qpe_sandwich_zero_probability(u: np.ndarray, state: np.ndarray, t: int) -> float:
    """All-zero-estimate probability of the Hadamard-sandwich circuit on an
    arbitrary (not necessarily eigen-) input state."""
    if t < 1:
        raise ValueError("t must be >= 1")
    m = _u_wires(u)
    circ = Circuit(t + m)
    targets = tuple(range(t, t + m))
    for j in range(t):
        circ.h(j)
    power = np.asarray(u, dtype=complex)
    for j in range(t):
        circ.unitary(targets, power, ((j, 1),))
        power = power @ power
    for j in range(t):
        circ.h(j)
    init = np.kron(_basis(2 ** t, 0), np.asarray(state, dtype=complex))
    final = simulate(circ, state=init)
    amps = final.reshape(2 ** t, 2 ** m)
    return float(np.sum(np.abs(amps[0]) ** 2))


def qpe_counter_circuit(u: np.ndarray, eigenstate: np.ndarray, t: int) -> tuple[float, int]:
    """Counter variant: one reused estimate ancilla plus a counter of
    bit_length(t) wires; returns (zero-counter probability, ancilla wires)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    m = _u_wires(u)
    p = t.bit_length()
    circ = Circuit(1 + p + m)
    a = 0
    counter = tuple(range(1, 1 + p))
    targets = tuple(range(1 + p, 1 + p + m))
    # One increment cascade, repeated by extend, so simulate compiles it once.
    increment = append_increment(Circuit(circ.num_wires), counter, ((a, 1),))
    power = np.asarray(u, dtype=complex)
    for _ in range(t):
        circ.h(a)
        circ.unitary(targets, power, ((a, 1),))
        circ.h(a)
        circ.extend(increment)
        power = power @ power
    init = np.kron(_basis(2 ** (1 + p), 0), np.asarray(eigenstate, dtype=complex))
    state = simulate(circ, state=init)
    probs = np.abs(state.reshape(2, 2 ** p, 2 ** m)) ** 2
    p0_prime = float(probs[:, 0, :].sum())
    return p0_prime, 1 + p

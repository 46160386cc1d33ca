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

`CountingEngineState` is the engine's restriction state before its clause
bitmasks: per-clause counters updated clause by clause, the oracle that
`treesearch._EngineState` is tested to equal search for search.
`min_guesses_to_solution` and `estimate_permutation_guess_bound` measure the
guesses dncPPSZ needs per variable order.

`qpe_sandwich_zero_probability` and `qpe_counter_circuit` build and simulate
the two phase-estimation circuits, the oracle for `qcircuit.qpe`'s spectral
product. The product sums the same terms in another order, so they agree
within 1e-12, not bit for bit.

SIA's audits: `reference_assignment` is the assignment along the
irreversible reference path, `siac_run` composes the blocks plainly (no
pebbling) and reports the assignment they make, and
`grover_advice_success_set` lists the advice strings whose path ends
satisfied. The circuit audits: `ancilla_audit` checks that wires return to
their inputs, `export_text` writes a circuit one gate a line (the circuit
digest hashes it), and `oracle_phases` reads a clause oracle's phase on every
input from one superposed run.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from hybridts import sia
from hybridts.formula import UNSET, CnfFormula, SImplication, index_width, s_implication
from hybridts.generators import truth_table
from hybridts.qcircuit.core import Circuit, _basis_planes, _map_planes, append_increment, simulate
from hybridts.qcircuit.oracles import OracleCircuit
from hybridts.sia import _SiaCore
from hybridts.treesearch import (
    DNCPPSZ,
    DPLL,
    EngineConfig,
    Verdict,
    dpll_solve,
    ppsz_budget,
    tree_stats,
)


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


class CountingEngineState:
    """Trail-based restriction bookkeeping for fast tree traversal.

    The engine's restriction state before the clause bitmasks of
    `treesearch._EngineState`: per-clause counters of true and unset
    literals, updated clause by clause on `assign` and again on `undo`, with
    a unit set and a pure-literal heap for the DPLL rules. It keeps the
    interface `treesearch._search` reads, so a test can swap it in and
    compare whole searches."""

    def __init__(self, formula: CnfFormula, config: EngineConfig):
        self.formula = formula
        self.config = config
        n = formula.num_vars
        self.values = [UNSET] * (n + 1)   # 1-indexed
        # Variables in the order the engine takes them.
        self.order = config.permutation if config.kind == DNCPPSZ else range(1, n + 1)
        clauses = formula.clauses
        self.clause_lits = clauses
        self.n_unassigned = [len(c) for c in clauses]
        self.n_true = [0] * len(clauses)
        self.alive_count = len(clauses)
        self.contra_count = 0
        self.occ_pos: list[list[int]] = [[] for _ in range(n + 1)]
        self.occ_neg: list[list[int]] = [[] for _ in range(n + 1)]
        for ci, clause in enumerate(clauses):
            for lit in clause:
                if lit > 0:
                    self.occ_pos[lit].append(ci)
                else:
                    self.occ_neg[-lit].append(ci)
        self.occ = [p + q for p, q in zip(self.occ_pos, self.occ_neg)]
        # The unit set and the pure-literal counters are kept (else empty) only
        # for the DPLL rules that read them; dncPPSZ forces by s-implication.
        rules = config.reduction_rules if config.kind == DPLL else ()
        self.track_unit = "unit" in rules
        self.track_pure = "pureLiteral" in rules
        self.unit_set = {ci for ci, c in enumerate(clauses) if self.track_unit and len(c) == 1}
        self.alive_pos = [len(occ) for occ in self.occ_pos if self.track_pure]
        self.alive_neg = [len(occ) for occ in self.occ_neg if self.track_pure]
        self.pure_heap = [var for var in range(1, n + 1) if self.track_pure and (
            self.alive_pos[var] == 0 or self.alive_neg[var] == 0)]
        self.trail: list[tuple[int, int]] = []
        self.num_assigned = 0

    def contradicted(self) -> bool:
        return self.contra_count > 0

    def satisfied(self) -> bool:
        return self.contra_count == 0 and self.alive_count == 0

    def assign(self, var: int, value: int) -> None:
        self.values[var] = value
        self.num_assigned += 1
        self.trail.append((var, value))
        true_occ = self.occ_pos[var] if value else self.occ_neg[var]
        false_occ = self.occ_neg[var] if value else self.occ_pos[var]
        for ci in true_occ:
            self.n_true[ci] += 1
            if self.n_true[ci] == 1:  # clause satisfied, drops from restriction
                self.alive_count -= 1
                if self.track_unit:
                    self.unit_set.discard(ci)
                if not self.track_pure:
                    continue
                for lit in self.clause_lits[ci]:
                    v = abs(lit)
                    if lit > 0:
                        self.alive_pos[v] -= 1
                        if self.alive_pos[v] == 0 and self.values[v] == UNSET:
                            heapq.heappush(self.pure_heap, v)
                    else:
                        self.alive_neg[v] -= 1
                        if self.alive_neg[v] == 0 and self.values[v] == UNSET:
                            heapq.heappush(self.pure_heap, v)
        for ci in false_occ:
            self.n_unassigned[ci] -= 1
            if self.n_true[ci] == 0:
                if self.n_unassigned[ci] == 0:
                    self.contra_count += 1
                    if self.track_unit:
                        self.unit_set.discard(ci)
                elif self.n_unassigned[ci] == 1 and self.track_unit:
                    self.unit_set.add(ci)

    def undo(self) -> None:
        var, value = self.trail.pop()
        true_occ = self.occ_pos[var] if value else self.occ_neg[var]
        false_occ = self.occ_neg[var] if value else self.occ_pos[var]
        for ci in false_occ:
            self.n_unassigned[ci] += 1
            if self.n_true[ci] == 0:
                if self.n_unassigned[ci] == 1:
                    self.contra_count -= 1
                    if self.track_unit:
                        self.unit_set.add(ci)
                elif self.n_unassigned[ci] == 2 and self.track_unit:
                    self.unit_set.discard(ci)
        for ci in true_occ:
            self.n_true[ci] -= 1
            if self.n_true[ci] == 0:  # clause revives
                self.alive_count += 1
                if self.track_pure:
                    for lit in self.clause_lits[ci]:
                        v = abs(lit)
                        if lit > 0:
                            self.alive_pos[v] += 1
                        else:
                            self.alive_neg[v] += 1
                if self.n_unassigned[ci] == 1 and self.track_unit:
                    self.unit_set.add(ci)
        self.values[var] = UNSET
        self.num_assigned -= 1
        if self.track_pure and (self.alive_pos[var] == 0 or self.alive_neg[var] == 0):
            heapq.heappush(self.pure_heap, var)

    # -- rule lookups ------------------------------------------------------

    def find_unit(self) -> tuple[int, int] | None:
        best = None
        for ci in self.unit_set:
            for lit in self.clause_lits[ci]:
                if self.values[abs(lit)] == UNSET:
                    key = (abs(lit), ci)
                    if best is None or key < best[0]:
                        best = (key, (abs(lit), 1 if lit > 0 else 0))
                    break
        return best[1] if best else None

    def find_pure(self) -> tuple[int, int] | None:
        while self.pure_heap:
            var = heapq.heappop(self.pure_heap)
            if self.values[var] != UNSET:
                continue
            if self.alive_neg[var] == 0:
                return (var, 1)   # positive-only or disappeared: assign true
            if self.alive_pos[var] == 0:
                return (var, 0)
        return None

    def restricted(self, ci: int) -> tuple[int, ...] | None:
        """Clause ci restricted to its unset literals; None once satisfied."""
        if self.n_true[ci]:
            return None
        values = self.values
        return tuple(l for l in self.clause_lits[ci] if values[abs(l)] == UNSET)

    def s_implication(self, var: int, s: int) -> SImplication:
        if s == 1:
            # The one-clause subsets from the counters: a live clause whose
            # only unset literal is var.
            return SImplication.of(
                any(self.n_true[ci] == 0 and self.n_unassigned[ci] == 1
                    for ci in self.occ_pos[var]),
                any(self.n_true[ci] == 0 and self.n_unassigned[ci] == 1
                    for ci in self.occ_neg[var]))
        return s_implication(var, s, self.occ.__getitem__, self.restricted)

    def forced_dpll(self) -> tuple[int, int] | None:
        """The first hit of the DPLL reduction rules, in their order."""
        for rule in self.config.reduction_rules:
            if rule == "unit":
                hit = self.find_unit()
            elif rule == "pureLiteral":
                hit = self.find_pure()
            else:  # sImplication: the lowest forced variable
                hit = None
                for var in self.order:
                    if self.values[var] == UNSET:
                        value = self.s_implication(var, self.config.s).forced
                        if value is not None:
                            hit = (var, value)
                            break
            if hit:
                return hit
        return None

    def next_free(self) -> int | None:
        """The engine's next unset variable: lowest for DPLL, first in the
        permutation for dncPPSZ."""
        for var in self.order:
            if self.values[var] == UNSET:
                return var
        return None

    def decide(self) -> tuple[int, int | None] | None:
        """The child rule at an undecided node: the forced (var, value), else
        (var, None) for the variable to guess, else None when all are set."""
        if self.config.kind == DPLL:
            forced = self.forced_dpll()
            if forced is not None:
                return forced
            var = self.next_free()
            return None if var is None else (var, None)
        var = self.next_free()
        if var is None:
            return None
        return var, self.s_implication(var, self.config.s).forced


def min_guesses_to_solution(formula: CnfFormula, permutation: tuple[int, ...],
                            s: int = 1) -> int | None:
    """Minimum guesses over all root-to-solution paths for this ordering: the
    least budget at which dncPPSZ finds a model, None when none does. A guess
    is a two-child vertex, so a solution's guesses are its two-child
    ancestors in the full-budget tree."""
    config = EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",), s=s,
                          permutation=permutation)
    tree = tree_stats(formula, config, collect_tree=True).tree
    guesses = [0] * tree.size
    for v in range(1, tree.size):
        p = tree.parents[v]
        guesses[v] = guesses[p] + (len(tree.children[p]) == 2)
    return min((g for g, m in zip(guesses, tree.marked) if m), default=None)


def estimate_permutation_guess_bound(formula: CnfFormula, samples: int,
                                     seed: int | None, s: int = 1,
                                     threshold: int | None = None) -> dict:
    """Empirical distribution of the minimum guess depth over permutations."""
    check = dpll_solve(formula)
    if check.verdict != Verdict.SAT:
        raise ValueError("formula is unsatisfiable; guess bound undefined")
    n = formula.num_vars
    if threshold is None:
        threshold = ppsz_budget(n, 0.12)
    rng = random.Random(seed)
    depths = []
    for _ in range(samples):
        perm = tuple(rng.sample(range(1, n + 1), n))
        g = min_guesses_to_solution(formula, perm, s)
        depths.append(g if g is not None else n + 1)
    exceeding = sum(1 for g in depths if g > threshold)
    return {
        "samples": samples,
        "minGuesses": depths,
        "threshold": threshold,
        "fractionExceeding": exceeding / samples if samples else 0.0,
        "rng": "random.Random",
        "seed": seed,
    }


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


def reference_assignment(formula: CnfFormula, advice: str | tuple[int, ...],
                         s: int = 1) -> dict[int, int]:
    """Variable values assigned along the reference path (for audits)."""
    return sia._reference_walk(formula, advice, s)[1]


def siac_run(formula: CnfFormula, advice: str | tuple[int, ...], w: int,
             s: int = 1) -> tuple[sia.SiaOutcome, dict[int, int]]:
    """Plain composition of the blocks (no pebbling); returns the outcome and
    the full assignment observed along the way."""
    padded, blocks, advice, core = sia._block_setup(formula, advice, w, s)
    cell = sia.Cell.zero(w)
    assignment: dict[int, int] = {}
    at_variable = None
    for block_index in range(1, blocks + 1):
        cell, info = sia.siab_block(padded, block_index, w, cell, advice, s,
                                    core=core, with_info=True)
        for var, val in info.assigned:
            if var <= formula.num_vars:
                assignment[var] = val
        if info.at_variable is not None and at_variable is None:
            at_variable = info.at_variable
    return sia._outcome(cell.flag, cell.cursor, at_variable), assignment


def grover_advice_success_set(formula: CnfFormula, advice_len: int,
                              s: int = 1) -> set[str]:
    """All advice strings of the given length whose SIA path ends satisfied;
    the Grover-over-advice search space."""
    out = set()
    for value in range(2 ** advice_len):
        bits = tuple((value >> (advice_len - 1 - i)) & 1 for i in range(advice_len))
        outcome = sia.sia_reference(formula, bits, s)
        if outcome.kind == "zeroChildren" and outcome.reason == "satisfied":
            out.add("".join(str(b) for b in bits))
    return out


def ancilla_audit(circuit: Circuit, inputs, wires) -> bool:
    """Check that the given wires return to their input values on every
    listed basis input (restoration contract for oracle ancillas)."""
    planes, n = _basis_planes(circuit.num_wires, inputs)
    out, _ = _map_planes(circuit.gates, planes, n)
    return all(out[w] == planes[w] for w in wires)


def export_text(circuit: Circuit) -> str:
    """Line-oriented audit format: gate name, wires, controls, block refs."""
    lines = [f"wires {circuit.num_wires}"]
    blocks = 0
    for gate in circuit.gates:
        parts = [gate.kind, " ".join(str(t) for t in gate.targets)]
        if gate.controls:
            parts.append("ctrl " + " ".join(f"{w}{'+' if b else '-'}"
                                            for w, b in gate.controls))
        if gate.block is not None:
            parts.append(f"block b{blocks}")
            blocks += 1
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def oracle_phases(oracle: OracleCircuit) -> np.ndarray:
    """Exhaustive oracle phases over all inputs from one superposed run."""
    circ = Circuit(oracle.num_wires)
    for w in oracle.input_wires:
        circ.h(w)
    circ.extend(oracle.circuit)
    state = simulate(circ)
    n = len(oracle.input_wires)
    anc = oracle.num_wires - n
    amps = state.reshape(2 ** n, 2 ** anc)[:, 0]
    phases = amps * math.sqrt(2 ** n)
    if np.abs(np.abs(phases) - 1.0).max() > 1e-9:
        raise AssertionError("oracle left amplitude outside the ancilla-zero slice")
    return np.sign(phases.real)

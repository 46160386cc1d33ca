"""Backtracking engines (DPLL, dncPPSZ), PPSZ-proper, and tree instrumentation.

The generic framework is the chNo/ch1/ch2 triple over partial assignments;
`ch_no`, `ch1`, `ch2` are the restriction-based reference implementations and
the incremental `_EngineState` used by the solvers is tested to generate the
identical tree.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .formula import (
    UNSET,
    CnfFormula,
    PartialAssignment,
    Predicate,
    SImplication,
    evaluate_predicate,
    pure_literal_rule,
    restrict,
    s_implied_over_clauses,
    unit_rule,
)

GAMMA_3 = 0.38  # PPSZ guess-fraction constant for 3-SAT

DPLL = "dpll"
DNCPPSZ = "dncppsz"


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    # dncPPSZ/ppszProper are one-sided: no solution within the guess budget.
    NOT_FOUND = "not-found"


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


@dataclass(frozen=True)
class EngineConfig:
    kind: str = DPLL
    reduction_rules: tuple[str, ...] = ("unit", "pureLiteral")
    s: int = 1
    permutation: tuple[int, ...] | None = None
    guess_budget: int | None = None
    rng_seed: int | None = None

    def validated(self, formula: CnfFormula) -> "EngineConfig":
        n = formula.num_vars
        if self.kind not in (DPLL, DNCPPSZ):
            raise ValueError(f"unknown engine kind {self.kind!r}")
        perm = self.permutation
        if self.kind == DNCPPSZ:
            if perm is None:
                perm = tuple(range(1, n + 1))
            if sorted(perm) != list(range(1, n + 1)):
                raise ValueError("permutation must be a bijection on 1..n")
            budget = self.guess_budget if self.guess_budget is not None else n
            if budget > n or budget < 0:
                raise ValueError("guess budget must lie in 0..n")
        else:
            budget = None
        for rule in self.reduction_rules:
            if rule not in ("unit", "pureLiteral", "sImplication"):
                raise ValueError(f"unknown reduction rule {rule!r}")
        return EngineConfig(self.kind, self.reduction_rules, self.s, perm,
                            budget, self.rng_seed)


@dataclass
class SearchTreeStats:
    size: int = 0
    height: int = 0
    max_branching: int = 0
    leaf_count: int = 0
    sat_leaves: int = 0
    effective_size: int = 0

    def as_record(self) -> dict:
        return {"T": self.size, "height": self.height, "br": self.max_branching,
                "K": self.leaf_count, "satLeaves": self.sat_leaves,
                "Tprime": self.effective_size}


@dataclass
class SearchTree:
    """Preorder-indexed tree snapshot: parent links, edge labels, marked flags.
    Vertex 0 is the root; the engines record it, the decomposition and the
    walk read it."""

    num_vars: int
    parents: list[int]
    edges: list[tuple[int, int] | None]   # (var, value) set on the edge from parent
    depths: list[int]
    marked: list[bool]
    depth_bound: int | None = None        # the walk's n; None means num_vars

    def __post_init__(self):
        if self.depth_bound is None:
            self.depth_bound = self.num_vars

    @classmethod
    def from_search_tree(cls, tree: "SearchTree", depth_bound: int) -> "SearchTree":
        """The same tree (lists shared, not copied) with another depth bound."""
        return dataclasses.replace(tree, depth_bound=depth_bound)

    @property
    def size(self) -> int:
        return len(self.parents)

    @cached_property
    def children(self) -> list[list[int]]:
        """Child ids per vertex. Built on first read, so the engine, which
        appends to the lists, must have finished the tree by then."""
        kids: list[list[int]] = [[] for _ in range(self.size)]
        for v, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(v)
        return kids

    def degree(self, vertex: int) -> int:
        d = len(self.children[vertex])
        return d if vertex == 0 else d + 1

    def subtree(self, root: int) -> tuple["SearchTree", list[int]]:
        """Subtree rooted at `root`; returns it plus old-vertex ids."""
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        remap = {old: new for new, old in enumerate(order)}
        parents = [-1] + [remap[self.parents[v]] for v in order[1:]]
        base = self.depths[root]
        depths = [self.depths[v] - base for v in order]
        marked = [self.marked[v] for v in order]
        edges = [None] + [self.edges[v] for v in order[1:]]
        return (SearchTree(self.num_vars, parents, edges, depths, marked,
                           max(1, max(depths))), order)

    def assignment_pairs(self, vertex: int) -> dict[int, int]:
        """The (var, value) pairs set on the path from the root to `vertex`."""
        pairs = {}
        v = vertex
        while v >= 0:
            edge = self.edges[v]
            if edge is not None:
                pairs[edge[0]] = edge[1]
            v = self.parents[v]
        return pairs

    def assignment_of(self, vertex: int) -> PartialAssignment:
        return PartialAssignment.of(self.num_vars, self.assignment_pairs(vertex))

    def to_json(self) -> str:
        return json.dumps({
            "numVars": self.num_vars,
            "parents": self.parents,
            "edges": [list(e) if e else None for e in self.edges],
            "depths": self.depths,
            "marked": [int(m) for m in self.marked],
            "depthBound": self.depth_bound,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchTree":
        data = json.loads(text)
        return cls(data["numVars"], list(data["parents"]),
                   [tuple(e) if e else None for e in data["edges"]],
                   list(data["depths"]), [bool(m) for m in data["marked"]],
                   data["depthBound"])


# ---------------------------------------------------------------------------
# Reference child functions (restriction-based, used by tests and small runs)

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
                if assignment.value(var) != UNSET:
                    continue
                verdict = s_implied_over_clauses(restricted, var, config.s)
                if verdict == SImplication.FORCED_TRUE:
                    hit = (var, 1)
                elif verdict == SImplication.FORCED_FALSE:
                    hit = (var, 0)
                elif verdict == SImplication.CONTRADICTION:
                    hit = (var, 1)  # Alg. 2 order: the positive test fires first
                if hit:
                    break
        if hit:
            return hit
    return None


def _next_perm_var(assignment: PartialAssignment, config: EngineConfig) -> int | None:
    for var in config.permutation:
        if assignment.value(var) == UNSET:
            return var
    return None


def _dnc_force(formula: CnfFormula, assignment: PartialAssignment, var: int,
               s: int) -> tuple[int, int] | None:
    restricted = restrict(formula, assignment).clauses
    verdict = s_implied_over_clauses(restricted, var, s)
    if verdict in (SImplication.FORCED_TRUE, SImplication.CONTRADICTION):
        return (var, 1)
    if verdict == SImplication.FORCED_FALSE:
        return (var, 0)
    return None


def ch_no(node: TreeNode, formula: CnfFormula, config: EngineConfig) -> ChildCount:
    """Number of children: 0 (leaf), 1 (forced), or 2 (guessed)."""
    config = config.validated(formula)
    if evaluate_predicate(formula, node.assignment) != Predicate.UNDETERMINED:
        return ChildCount.ZERO_LEAF
    if config.kind == DPLL:
        if _forced_dpll(formula, node.assignment, config):
            return ChildCount.ONE_CHILD
        return ChildCount.TWO_CHILDREN
    var = _next_perm_var(node.assignment, config)
    if var is None:
        return ChildCount.ZERO_LEAF
    if _dnc_force(formula, node.assignment, var, config.s):
        return ChildCount.ONE_CHILD
    if node.guess_count >= config.guess_budget:
        return ChildCount.ZERO_LEAF  # out of guesses
    return ChildCount.TWO_CHILDREN


def ch1(node: TreeNode, formula: CnfFormula, config: EngineConfig) -> TreeNode:
    """The only child of a forced node."""
    config = config.validated(formula)
    if ch_no(node, formula, config) != ChildCount.ONE_CHILD:
        raise ValueError("ch1 called on a node that is not forced")
    if config.kind == DPLL:
        var, value = _forced_dpll(formula, node.assignment, config)
    else:
        var = _next_perm_var(node.assignment, config)
        var, value = _dnc_force(formula, node.assignment, var, config.s)
    return TreeNode(node.assignment.assign(var, value), node.depth + 1,
                    node.guess_count)


def branch_variable(node: TreeNode, formula: CnfFormula, config: EngineConfig) -> int:
    config = config.validated(formula)
    if config.kind == DPLL:
        for var in range(1, formula.num_vars + 1):
            if node.assignment.value(var) == UNSET:
                return var
        raise ValueError("no free variable to branch on")
    return _next_perm_var(node.assignment, config)


def ch2(node: TreeNode, formula: CnfFormula, config: EngineConfig, b: int) -> TreeNode:
    """Child b in {0, 1} of a guessed node."""
    if b not in (0, 1):
        raise ValueError("branch value must be 0 or 1")
    config = config.validated(formula)
    if ch_no(node, formula, config) != ChildCount.TWO_CHILDREN:
        raise ValueError("ch2 called on a node that is not guessed")
    var = branch_variable(node, formula, config)
    return TreeNode(node.assignment.assign(var, b), node.depth + 1,
                    node.guess_count + 1)


# ---------------------------------------------------------------------------
# Incremental engine

class _EngineState:
    """Trail-based restriction bookkeeping for fast tree traversal."""

    def __init__(self, formula: CnfFormula, config: EngineConfig):
        self.formula = formula
        self.config = config
        n = formula.num_vars
        self.values = [UNSET] * (n + 1)   # 1-indexed
        clauses = formula.clauses
        self.clause_lits = clauses
        self.n_unassigned = [len(c) for c in clauses]
        self.n_true = [0] * len(clauses)
        self.alive_count = len(clauses)
        self.contra_count = 0
        self.occ_pos: list[list[int]] = [[] for _ in range(n + 1)]
        self.occ_neg: list[list[int]] = [[] for _ in range(n + 1)]
        self.alive_pos = [0] * (n + 1)
        self.alive_neg = [0] * (n + 1)
        for ci, clause in enumerate(clauses):
            for lit in clause:
                if lit > 0:
                    self.occ_pos[lit].append(ci)
                    self.alive_pos[lit] += 1
                else:
                    self.occ_neg[-lit].append(ci)
                    self.alive_neg[-lit] += 1
        self.unit_set = {ci for ci, c in enumerate(clauses) if len(c) == 1}
        self.pure_heap: list[int] = []
        for var in range(1, n + 1):
            if self.alive_pos[var] == 0 or self.alive_neg[var] == 0:
                heapq.heappush(self.pure_heap, var)
        self.trail: list[tuple[int, int]] = []
        self.num_assigned = 0

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
                self.unit_set.discard(ci)
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
                if self.n_unassigned[ci] == 1:
                    self.unit_set.add(ci)
                elif self.n_unassigned[ci] == 0:
                    self.unit_set.discard(ci)
                    self.contra_count += 1

    def undo(self) -> None:
        var, value = self.trail.pop()
        true_occ = self.occ_pos[var] if value else self.occ_neg[var]
        false_occ = self.occ_neg[var] if value else self.occ_pos[var]
        for ci in false_occ:
            if self.n_true[ci] == 0:
                if self.n_unassigned[ci] == 0:
                    self.contra_count -= 1
                elif self.n_unassigned[ci] == 1:
                    self.unit_set.discard(ci)
            self.n_unassigned[ci] += 1
            if self.n_true[ci] == 0 and self.n_unassigned[ci] == 1:
                self.unit_set.add(ci)
        for ci in true_occ:
            self.n_true[ci] -= 1
            if self.n_true[ci] == 0:  # clause revives
                self.alive_count += 1
                for lit in self.clause_lits[ci]:
                    v = abs(lit)
                    if lit > 0:
                        self.alive_pos[v] += 1
                    else:
                        self.alive_neg[v] += 1
                if self.n_unassigned[ci] == 1:
                    self.unit_set.add(ci)
        self.values[var] = UNSET
        self.num_assigned -= 1
        if self.alive_pos[var] == 0 or self.alive_neg[var] == 0:
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

    def find_first_free(self) -> int | None:
        for var in range(1, self.formula.num_vars + 1):
            if self.values[var] == UNSET:
                return var
        return None

    def restricted_clauses(self) -> list[tuple[int, ...]]:
        out = []
        for ci, clause in enumerate(self.clause_lits):
            if self.n_true[ci] == 0:
                out.append(tuple(l for l in clause
                                 if self.values[abs(l)] == UNSET))
        return out

    def s_implication(self, var: int, s: int) -> SImplication:
        if s == 1:
            found_true = any(self.n_true[ci] == 0 and self.n_unassigned[ci] == 1
                             for ci in self.occ_pos[var])
            found_false = any(self.n_true[ci] == 0 and self.n_unassigned[ci] == 1
                              for ci in self.occ_neg[var])
            if found_true and found_false:
                return SImplication.CONTRADICTION
            if found_true:
                return SImplication.FORCED_TRUE
            if found_false:
                return SImplication.FORCED_FALSE
            return SImplication.FREE
        return s_implied_over_clauses(self.restricted_clauses(), var, s)

    def forced_dpll(self, rules: tuple[str, ...], s: int) -> tuple[int, int] | None:
        for rule in rules:
            if rule == "unit":
                hit = self.find_unit()
            elif rule == "pureLiteral":
                hit = self.find_pure()
            else:
                hit = None
                for var in range(1, self.formula.num_vars + 1):
                    if self.values[var] != UNSET:
                        continue
                    verdict = self.s_implication(var, s)
                    if verdict == SImplication.FORCED_TRUE:
                        hit = (var, 1)
                    elif verdict == SImplication.FORCED_FALSE:
                        hit = (var, 0)
                    elif verdict == SImplication.CONTRADICTION:
                        hit = (var, 1)
                    if hit:
                        break
            if hit:
                return hit
        return None

    def next_perm_free(self) -> int | None:
        for var in self.config.permutation:
            if self.values[var] == UNSET:
                return var
        return None


@dataclass
class SolveResult:
    verdict: Verdict
    model: tuple[int, ...] | None
    stats: SearchTreeStats
    tree: SearchTree | None = None


def _search(formula: CnfFormula, config: EngineConfig, *, exhaustive: bool,
            collect_tree: bool) -> SolveResult:
    config = config.validated(formula)
    state = _EngineState(formula, config)
    stats = SearchTreeStats()
    tree = SearchTree(formula.num_vars, [], [], [], []) if collect_tree else None
    model: tuple[int, ...] | None = None
    first_sat_at: int | None = None
    dnc = config.kind == DNCPPSZ

    # Frames: ("enter", parent_id, guesses, branchings, edge)
    #         ("assign", var, value, parent_id, guesses, branchings)
    #         ("undo",)
    stack: list[tuple] = [("enter", -1, 0, 0, None)]
    stop = False
    while stack and not stop:
        frame = stack.pop()
        op = frame[0]
        if op == "undo":
            state.undo()
            continue
        if op == "assign":
            _, var, value, parent_id, guesses, branchings = frame
            state.assign(var, value)
            stack.append(("undo",))
            frame = ("enter", parent_id, guesses, branchings, (var, value))
        _, parent_id, guesses, branchings, edge = frame

        node_id = stats.size
        stats.size += 1
        depth = state.num_assigned
        stats.height = max(stats.height, depth)
        if tree is not None:
            tree.parents.append(parent_id)
            tree.edges.append(edge)
            tree.depths.append(depth)
            tree.marked.append(False)

        # Predicate first.
        if state.contra_count > 0:
            is_leaf, is_sat = True, False
        elif state.alive_count == 0:
            is_leaf, is_sat = True, True
        else:
            is_leaf, is_sat = False, False
            if dnc:
                var = state.next_perm_free()
                if var is None:
                    is_leaf = True  # all variables assigned, predicate decides
                    is_sat = state.contra_count == 0 and state.alive_count == 0
                else:
                    verdict = state.s_implication(var, config.s)
                    if verdict == SImplication.FREE:
                        if guesses >= config.guess_budget:
                            is_leaf = True  # out of guesses
                        else:
                            stack.append(("assign", var, 1, node_id, guesses + 1,
                                          branchings + 1))
                            stack.append(("assign", var, 0, node_id, guesses + 1,
                                          branchings + 1))
                    else:
                        value = 0 if verdict == SImplication.FORCED_FALSE else 1
                        stack.append(("assign", var, value, node_id, guesses,
                                      branchings))
            else:
                hit = state.forced_dpll(config.reduction_rules, config.s)
                if hit is not None:
                    stack.append(("assign", hit[0], hit[1], node_id, guesses,
                                  branchings))
                else:
                    var = state.find_first_free()
                    if var is None:
                        is_leaf = True
                        is_sat = state.alive_count == 0
                    else:
                        stack.append(("assign", var, 1, node_id, guesses + 1,
                                      branchings + 1))
                        stack.append(("assign", var, 0, node_id, guesses + 1,
                                      branchings + 1))

        if is_leaf:
            stats.leaf_count += 1
            stats.max_branching = max(stats.max_branching, branchings)
            if is_sat:
                stats.sat_leaves += 1
                if tree is not None:
                    tree.marked[node_id] = True
                if first_sat_at is None:
                    first_sat_at = stats.size
                    model = tuple(state.values[1:])
                    if not exhaustive:
                        stop = True

    stats.effective_size = first_sat_at if first_sat_at is not None else stats.size
    if model is not None:
        verdict = Verdict.SAT
    else:
        verdict = Verdict.NOT_FOUND if dnc else Verdict.UNSAT
    return SolveResult(verdict, model, stats, tree)


def dpll_solve(formula: CnfFormula, config: EngineConfig | None = None,
               collect_tree: bool = False) -> SolveResult:
    """Depth-first DPLL, branch 0 before 1; stops at the first solution."""
    config = config or EngineConfig(kind=DPLL)
    if config.kind != DPLL:
        raise ValueError("dpll_solve requires a dpll config")
    return _search(formula, config, exhaustive=False, collect_tree=collect_tree)


def dnc_ppsz_solve(formula: CnfFormula, config: EngineConfig,
                   collect_tree: bool = False) -> SolveResult:
    """PPSZ tree search for one permutation, truncated at the guess budget."""
    if config.kind != DNCPPSZ:
        raise ValueError("dnc_ppsz_solve requires a dncppsz config")
    return _search(formula, config, exhaustive=False, collect_tree=collect_tree)


def tree_stats(formula: CnfFormula, config: EngineConfig | None = None,
               collect_tree: bool = False) -> SolveResult:
    """Exhaustive traversal: full stats plus the online effective size."""
    config = config or EngineConfig(kind=DPLL)
    return _search(formula, config, exhaustive=True, collect_tree=collect_tree)


def ppsz_budget(num_vars: int, epsilon: float, gamma: float = GAMMA_3) -> int:
    return min(num_vars, math.ceil((gamma + epsilon) * num_vars))


@dataclass
class PpszProperResult:
    verdict: Verdict
    model: tuple[int, ...] | None
    rounds_used: int
    budget: int
    seed: int | None


def ppsz_proper(formula: CnfFormula, s: int, epsilon: float, max_rounds: int,
                seed: int | None, gamma: float = GAMMA_3) -> PpszProperResult:
    """Repeat dncPPSZ over fresh uniform permutations with the gamma_k budget."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    n = formula.num_vars
    budget = ppsz_budget(n, epsilon, gamma)
    rng = random.Random(seed)
    for round_idx in range(1, max_rounds + 1):
        perm = tuple(rng.sample(range(1, n + 1), n))
        config = EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",),
                              s=s, permutation=perm, guess_budget=budget,
                              rng_seed=seed)
        result = dnc_ppsz_solve(formula, config)
        if result.verdict == Verdict.SAT:
            return PpszProperResult(Verdict.SAT, result.model, round_idx, budget, seed)
    return PpszProperResult(Verdict.NOT_FOUND, None, max_rounds, budget, seed)


def min_guesses_to_solution(formula: CnfFormula, permutation: tuple[int, ...],
                            s: int = 1) -> int | None:
    """Minimum guesses over all root-to-solution paths for this ordering."""
    config = EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",), s=s,
                          permutation=permutation,
                          guess_budget=formula.num_vars).validated(formula)
    state = _EngineState(formula, config)
    best: list[int | None] = [None]

    def walk(guesses: int) -> None:
        if best[0] is not None and guesses >= best[0]:
            return
        if state.contra_count > 0:
            return
        if state.alive_count == 0:
            best[0] = guesses
            return
        var = state.next_perm_free()
        if var is None:
            return
        verdict = state.s_implication(var, s)
        if verdict == SImplication.FREE:
            for value in (0, 1):
                state.assign(var, value)
                walk(guesses + 1)
                state.undo()
        else:
            value = 0 if verdict == SImplication.FORCED_FALSE else 1
            state.assign(var, value)
            walk(guesses)
            state.undo()

    walk(0)
    return best[0]


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


def max_branching_over_paths(tree: SearchTree) -> int:
    """Independent path walker: max two-child nodes on any root-to-leaf path."""
    kids = tree.children
    best = 0
    stack = [(0, 0)]
    while stack:
        vertex, branchings = stack.pop()
        children = kids[vertex]
        if not children:
            best = max(best, branchings)
            continue
        bump = 1 if len(children) == 2 else 0
        for child in children:
            stack.append((child, branchings + bump))
    return best

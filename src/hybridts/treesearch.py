"""Backtracking engines (DPLL, dncPPSZ), PPSZ-proper, and tree instrumentation.

Every tree is built from one child rule over partial assignments, the paper's
chNo/ch1/ch2 triple. A node whose predicate is decided is a leaf. Otherwise
the rule takes the engine's next variable and forces it when it can: DPLL by
its reduction rules in order, dncPPSZ by s-implication of the next variable
of its permutation. An s-implication verdict sets the value
`SImplication.forced` names, the positive literal first on a contradiction
(the paper's Alg. 2). A variable that is not forced is guessed, 0 before 1;
dncPPSZ makes a leaf instead once the guesses reach its budget.

`ch_no`, `ch1` and `ch2` are the restriction-based reference of the rule.
`_EngineState.decide` is the incremental one that the solvers run, and it is
tested to generate the identical tree.

The engines number a tree's vertices in depth-first preorder, so the subtree
of vertex v is the id range [v, v + size(v)).
"""

from __future__ import annotations

import copy
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
    s_implication,
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
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        for rule in self.reduction_rules:
            if rule not in ("unit", "pureLiteral", "sImplication"):
                raise ValueError(f"unknown reduction rule {rule!r}")
        return EngineConfig(self.kind, self.reduction_rules, self.s, perm, budget)


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
    """Tree snapshot: parent links, edge labels, marked flags. Vertex 0 is the
    root; the engines record it, the decomposition and the walk read it.
    Every parent precedes its children. In depth-first preorder, which the
    engines and `from_json` guarantee, the subtree of v is the id range
    [v, v + sizes[v]). The shape fields `sizes`, `heights` and `branchings`
    give each vertex's subtree its vertex count, its height and its
    branching number (the most two-child vertices on a path down)."""

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
        """The same tree with another depth bound: a shallow copy, so the
        lists and the cached `children` and shape are shared."""
        same = copy.copy(tree)
        same.depth_bound = depth_bound
        return same

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

    @cached_property
    def _shape(self) -> tuple[list[int], list[int], list[int]]:
        """(sizes, heights, branchings) from one leaf-to-root pass. Built on
        first read, like `children`."""
        parents = self.parents
        t = self.size
        sizes, heights, branchings, kids = [1] * t, [0] * t, [0] * t, [0] * t
        for v in range(t - 1, 0, -1):  # every child of v is done: it has a larger id
            p = parents[v]
            if not 0 <= p < v:
                raise ValueError(f"vertex {v} has parent {p}: the tree is not in preorder")
            kids[p] += 1
            sizes[p] += sizes[v]
            if heights[v] >= heights[p]:
                heights[p] = heights[v] + 1
            branchings[v] += kids[v] == 2
            if branchings[v] > branchings[p]:
                branchings[p] = branchings[v]
        if t:
            branchings[0] += kids[0] == 2
        return sizes, heights, branchings

    sizes = property(lambda self: self._shape[0])
    heights = property(lambda self: self._shape[1])
    branchings = property(lambda self: self._shape[2])

    def subtree(self, root: int) -> tuple["SearchTree", range]:
        """Subtree rooted at `root`, relabelled by -root; returns it plus its
        old ids, the preorder range [root, root + sizes[root])."""
        end = root + self.sizes[root]
        parents = [-1]
        for u in range(root + 1, end):
            p = self.parents[u]
            if not root <= p < u:
                raise ValueError(f"vertex {u} has parent {p}: the tree is not in preorder")
            parents.append(p - root)
        base = self.depths[root]
        depths = [d - base for d in self.depths[root:end]]
        return (SearchTree(self.num_vars, parents, [None] + self.edges[root + 1:end],
                           depths, self.marked[root:end], max(1, self.heights[root])),
                range(root, end))

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
        parents = list(data["parents"])
        for name in ("edges", "depths", "marked"):
            if len(data[name]) != len(parents):
                raise ValueError(f"{name} has {len(data[name])} entries for "
                                 f"{len(parents)} vertices")
        depths = list(data["depths"])
        path: list[int] = []   # root to vertex c - 1: where c's parent must lie
        for c, p in enumerate(parents):
            while path and path[-1] != p:
                path.pop()
            if (p == -1) != (c == 0) or (c > 0 and not path):
                raise ValueError(f"vertex {c} has parent {p}: the tree is not in preorder")
            expected = depths[p] + 1 if c else 0
            if depths[c] != expected:
                raise ValueError(f"vertex {c} has depth {depths[c]}, expected {expected}")
            path.append(c)
        return cls(data["numVars"], parents,
                   [tuple(e) if e else None for e in data["edges"]],
                   depths, [bool(m) for m in data["marked"]], data["depthBound"])


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


# ---------------------------------------------------------------------------
# Incremental engine

class _EngineState:
    """Trail-based restriction bookkeeping for fast tree traversal."""

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
    # DPLL has no budget: at a node with a free variable its guesses are < n.
    budget = formula.num_vars if config.guess_budget is None else config.guess_budget

    # Frames: (var, value, parent_id, guesses) assigns var and enters that
    # child (var is None at the root); None undoes the last assignment.
    stack: list[tuple | None] = [(None, None, -1, 0)]
    while stack:
        frame = stack.pop()
        if frame is None:
            state.undo()
            continue
        var, value, parent_id, guesses = frame
        if var is not None:
            state.assign(var, value)
            stack.append(None)

        node_id = stats.size
        stats.size += 1
        depth = state.num_assigned
        stats.height = max(stats.height, depth)
        if tree is not None:
            tree.parents.append(parent_id)
            tree.edges.append(None if var is None else (var, value))
            tree.depths.append(depth)
            tree.marked.append(False)

        # Predicate first, then the child rule.
        is_sat = state.contra_count == 0 and state.alive_count == 0
        choice = None if state.contra_count or is_sat else state.decide()
        if choice is not None and choice[1] is None and guesses >= budget:
            choice = None  # out of guesses
        if choice is not None:
            var, value = choice
            if value is None:
                stack.append((var, 1, node_id, guesses + 1))
                stack.append((var, 0, node_id, guesses + 1))
            else:
                stack.append((var, value, node_id, guesses))
            continue

        # A leaf: every guess on the path is a two-child node.
        stats.leaf_count += 1
        stats.max_branching = max(stats.max_branching, guesses)
        if is_sat:
            stats.sat_leaves += 1
            if tree is not None:
                tree.marked[node_id] = True
            if first_sat_at is None:
                first_sat_at = stats.size
                model = tuple(state.values[1:])
                if not exhaustive:
                    break

    stats.effective_size = first_sat_at if first_sat_at is not None else stats.size
    if model is not None:
        verdict = Verdict.SAT
    else:
        verdict = Verdict.UNSAT if config.kind == DPLL else Verdict.NOT_FOUND
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
                              s=s, permutation=perm, guess_budget=budget)
        result = dnc_ppsz_solve(formula, config)
        if result.verdict == Verdict.SAT:
            return PpszProperResult(Verdict.SAT, result.model, round_idx, budget, seed)
    return PpszProperResult(Verdict.NOT_FOUND, None, max_rounds, budget, seed)


def min_guesses_to_solution(formula: CnfFormula, permutation: tuple[int, ...],
                            s: int = 1) -> int | None:
    """Minimum guesses over all root-to-solution paths for this ordering: the
    least budget at which dncPPSZ finds a model, None when none does."""
    for budget in range(formula.num_vars + 1):
        config = EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",), s=s,
                              permutation=permutation, guess_budget=budget)
        if dnc_ppsz_solve(formula, config).verdict == Verdict.SAT:
            return budget
    return None


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

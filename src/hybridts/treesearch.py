"""Backtracking engines (DPLL, dncPPSZ), PPSZ-proper, and tree instrumentation.

Every tree is built by one child rule, `_EngineState.decide`: the paper's
chNo/ch1/ch2 triple, read off a restriction of F that a trail of assignments
keeps up to date. A node whose search predicate is decided is a leaf.
Otherwise the rule takes the engine's next variable and forces it when it
can: DPLL by its reduction rules in order, dncPPSZ by s-implication of the
next variable of its permutation. An s-implication verdict sets the value
`SImplication.forced` names, the positive literal first on a contradiction
(the paper's Alg. 2). A variable that is not forced is guessed, 0 before 1;
dncPPSZ makes a leaf instead once the guesses reach its budget. The tests
hold the engine's trees, node by node, to chNo/ch1/ch2 written over
restrictions computed afresh at every node.

The restriction lives in Python-int bitmasks, one bit per clause or per
variable: the satisfied clauses, the clauses at each count of false literals,
the free variables. An assignment is a few big-int operations and its undo
restores the masks the trail saved, so neither visits a clause. The unit
clauses, the next free variable and the s-implication verdicts for s <= 2 are
read off that state. The s = 2 verdict rests on a pair lemma: two nonempty
restricted clauses, one of them holding `var`, force a literal l of `var` (no
model of the two sets l false) only as the unit (l), as (l ∨ x) with (¬x), or
as (l ∨ x) with (l ∨ ¬x). Setting l false must empty a clause or leave two
complementary units, and a clause with three or more unset literals keeps
two; the one unsatisfiable pair, (l) with (¬l), forces both polarities. So
only the units and binaries decide, and no subset is enumerated. The general kernel
`formula.s_implication` serves s >= 3. `_search` reads the state through
`contradicted` and `satisfied`, so the tests can swap in the per-clause
counting engine it replaced and compare whole searches.

The engines number a tree's vertices in depth-first preorder, so the subtree
of vertex v is the id range [v, v + size(v)).
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .formula import UNSET, CnfFormula, SImplication, s_implication

GAMMA_3 = 0.38  # PPSZ guess-fraction constant for 3-SAT

DPLL = "dpll"
DNCPPSZ = "dncppsz"


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    # dncPPSZ/ppszProper are one-sided: no solution within the guess budget.
    NOT_FOUND = "not-found"


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
    branching number (the most two-child vertices on a path down). `depths`,
    each vertex's distance from the root, is derived from `parents` too."""

    num_vars: int
    parents: list[int]
    edges: list[tuple[int, int] | None]   # (var, value) set on the edge from parent
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
    def depths(self) -> list[int]:
        """Each vertex's distance from the root. Built on first read, like `children`."""
        depths = [0] * self.size
        for v in range(1, self.size):
            p = self.parents[v]
            if not 0 <= p < v:
                raise ValueError(f"vertex {v} has parent {p}: the tree is not in preorder")
            depths[v] = depths[p] + 1
        return depths

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
        return (SearchTree(self.num_vars, parents, [None] + self.edges[root + 1:end],
                           self.marked[root:end], max(1, self.heights[root])),
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

    def to_json(self) -> str:
        return json.dumps({
            "numVars": self.num_vars,
            "parents": self.parents,
            "edges": [list(e) if e else None for e in self.edges],
            "marked": [int(m) for m in self.marked],
            "depthBound": self.depth_bound,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchTree":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("tree JSON must be an object")
        fields = ("numVars", "parents", "edges", "marked", "depthBound")
        for name in data:
            if name not in fields:
                raise ValueError(f"tree JSON has an unknown field {name!r}")
        for name in fields:
            if name not in data:
                raise ValueError(f"tree JSON has no {name!r} field")
        n = data["numVars"]
        if type(n) is not int:
            raise ValueError(f"numVars must be an integer, got {n!r}")
        # The walk weights the root's children by sqrt(depth bound); null
        # means num_vars, as in the constructor.
        bound = n if data["depthBound"] is None else data["depthBound"]
        if type(bound) is not int:
            raise ValueError(f"depthBound must be an integer or null, got {bound!r}")
        if bound < 1:
            raise ValueError(f"depthBound must be at least 1, got {bound}")
        if n < 1:
            raise ValueError(f"numVars must be at least 1, got {n}")
        parents, edges, marked = data["parents"], data["edges"], data["marked"]
        for name, column in (("parents", parents), ("edges", edges), ("marked", marked)):
            if type(column) is not list:
                raise ValueError(f"{name} must be a list, got {column!r}")
            if len(column) != len(parents):
                raise ValueError(f"{name} has {len(column)} entries for "
                                 f"{len(parents)} vertices")
        if not parents:
            raise ValueError("the tree has no root: parents is empty")
        path: list[int] = []   # root to vertex c - 1: where c's parent must lie
        for c, (p, edge, m) in enumerate(zip(parents, edges, marked)):
            if type(p) is not int:
                raise ValueError(f"parents entry {c} must be an integer, got {p!r}")
            while path and path[-1] != p:
                path.pop()
            if (p == -1) != (c == 0) or (c > 0 and not path):
                raise ValueError(f"vertex {c} has parent {p}: the tree is not in preorder")
            path.append(c)
            if c == 0 and edge is not None:
                raise ValueError(f"edges entry 0 (the root's) must be null, got {edge!r}")
            if edge is not None and not (
                    type(edge) is list and len(edge) == 2 and all(type(x) is int for x in edge)
                    and 1 <= edge[0] <= n and edge[1] in (0, 1)):
                raise ValueError(f"edges entry {c} must be null or [var, value] with var in "
                                 f"1..{n} and value 0 or 1, got {edge!r}")
            if type(m) not in (bool, int) or m not in (0, 1):
                raise ValueError(f"marked entry {c} must be 0, 1, false or true, got {m!r}")
        return cls(n, parents, [None if e is None else tuple(e) for e in edges],
                   [bool(m) for m in marked], data["depthBound"])


# ---------------------------------------------------------------------------
# Incremental engine

class _EngineState:
    """The restriction of F under the engine's trail of assignments, held in
    Python-int bitmasks, so that a step costs a few big-int operations.

    Bit ci of a clause mask stands for clause ci:
    - `pos[v]` and `neg[v]` are the clauses that hold v and ¬v;
    - `sat` is the satisfied clauses;
    - `levels[k - 1]`, for k = 1..K with K the longest clause length (at
      least 3), is the clauses with at least k false literals, where a clause
      of length L counts K − L more. So `levels[-1]` is the contradicted
      clauses, `levels[-2]` less those and `sat` the unit ones, and
      `levels[-3]` less `sat` the live clauses with at most two unset
      literals. Setting a literal false lifts the clauses x that hold it one
      level: level k gains level k − 1 & x, and level 1 gains x.

    Bit r of a variable mask stands for the engine's r-th variable (`order`):
    - `free` is the unset variables;
    - `maybe_pure`, kept for DPLL's pure-literal rule alone, holds every free
      pure variable and maybe some that are not. Satisfying a clause can make
      its variables pure, so setting a literal true adds the variables it
      shares a clause with (`touch`); `find_pure` drops the candidates it
      refutes.

    `assign` pushes the masks it replaces onto the trail and `undo` pops them
    back, so neither loops over clauses.

    `s_implication` reads the s = 1 verdict off the unit clauses that hold
    `var`, and the s = 2 verdict off those and the binaries, by the module's
    pair lemma: for each literal l of `var`, a unit (l), or a binary (l ∨ x)
    with a unit (¬x) or a binary (l ∨ ¬x). Only s >= 3 calls the kernel,
    with the clause index `occ` that its first call builds.
    """

    def __init__(self, formula: CnfFormula, config: EngineConfig):
        self.config = config
        n = formula.num_vars
        self.values = [UNSET] * (n + 1)   # 1-indexed
        # Variables in the order the engine takes them.
        self.order = config.permutation if config.kind == DNCPPSZ else range(1, n + 1)
        rank_bit = [0] * (n + 1)
        for r, var in enumerate(self.order):
            rank_bit[var] = 1 << r
        self.rank_bit = rank_bit
        clauses = formula.clauses
        self.clause_lits = clauses
        self.pos = [0] * (n + 1)
        self.neg = [0] * (n + 1)
        top = max(formula.max_clause_size, 3)
        levels = [0] * top
        self.clause_vars = []
        for ci, clause in enumerate(clauses):
            bit = 1 << ci
            near = 0
            for lit in clause:
                if lit > 0:
                    self.pos[lit] |= bit
                else:
                    self.neg[-lit] |= bit
                near |= rank_bit[abs(lit)]
            self.clause_vars.append(near)
            for k in range(top - len(clause)):
                levels[k] |= bit
        self.levels = levels
        self.all_clauses = (1 << len(clauses)) - 1
        self.sat = 0
        self.free = (1 << n) - 1
        # The pure-literal candidates are kept (else 0) only for the DPLL
        # rule that reads them; dncPPSZ forces by s-implication.
        self.track_pure = config.kind == DPLL and "pureLiteral" in config.reduction_rules
        self.maybe_pure = 0
        if self.track_pure:
            self.touch_pos = [0] * (n + 1)
            self.touch_neg = [0] * (n + 1)
            for clause, near in zip(clauses, self.clause_vars):
                for lit in clause:
                    if lit > 0:
                        self.touch_pos[lit] |= near
                    else:
                        self.touch_neg[-lit] |= near
            for var in self.order:
                if not self.pos[var] or not self.neg[var]:
                    self.maybe_pure |= rank_bit[var]
        self.trail: list[tuple[int, int, list[int], int, int]] = []
        self.num_assigned = 0

    def assign(self, var: int, value: int) -> None:
        self.trail.append((var, self.sat, self.levels, self.free, self.maybe_pure))
        self.values[var] = value
        self.num_assigned += 1
        if value:
            self.sat |= self.pos[var]
            false = self.neg[var]
        else:
            self.sat |= self.neg[var]
            false = self.pos[var]
        lifted = []
        below = false
        for level in self.levels:
            lifted.append(level | below)
            below = level & false
        self.levels = lifted
        self.free ^= self.rank_bit[var]
        if self.track_pure:
            self.maybe_pure |= (self.touch_pos if value else self.touch_neg)[var]

    def undo(self) -> None:
        var, self.sat, self.levels, self.free, self.maybe_pure = self.trail.pop()
        self.values[var] = UNSET
        self.num_assigned -= 1

    # -- the search predicate ----------------------------------------------

    def contradicted(self) -> bool:
        return self.levels[-1] != 0

    def satisfied(self) -> bool:
        return self.sat == self.all_clauses

    # -- rule lookups ------------------------------------------------------

    def unit_clauses(self) -> int:
        """The clauses that are neither satisfied nor contradicted and have
        one unset literal."""
        return self.levels[-2] & ~(self.levels[-1] | self.sat)

    def find_unit(self) -> tuple[int, int] | None:
        """The unset literal of a unit clause: its variable the engine's
        first, from the lowest clause on a tie."""
        units = self.unit_clauses()
        if not units:
            return None
        unit_vars = 0
        rest = units
        while rest:
            low = rest & -rest
            rest ^= low
            unit_vars |= self.clause_vars[low.bit_length() - 1]
        unit_vars &= self.free   # each unit clause's one unset variable
        var = self.order[(unit_vars & -unit_vars).bit_length() - 1]
        first = units & (self.pos[var] | self.neg[var])
        return var, 1 if first & -first & self.pos[var] else 0

    def find_pure(self) -> tuple[int, int] | None:
        """The first free variable with no live clause of one sign: true
        unless only its negative literal is live."""
        candidates = self.maybe_pure & self.free
        live = ~self.sat
        while candidates:
            low = candidates & -candidates
            var = self.order[low.bit_length() - 1]
            if not self.neg[var] & live:
                value = 1
            elif not self.pos[var] & live:
                value = 0
            else:
                candidates ^= low
                continue
            # The candidates before it are refuted. A variable that is not
            # free gets its bit back, when it is freed, from the trail.
            self.maybe_pure &= -low
            return var, value
        self.maybe_pure = 0
        return None

    def restricted(self, ci: int) -> tuple[int, ...] | None:
        """Clause ci restricted to its unset literals; None once satisfied."""
        if self.sat >> ci & 1:
            return None
        values = self.values
        return tuple(l for l in self.clause_lits[ci] if values[abs(l)] == UNSET)

    @cached_property
    def occ(self) -> list[list[int]]:
        """The ids of the clauses that hold each variable: the s >= 3 kernel's
        index, built on its first call."""
        occ: list[list[int]] = [[] for _ in self.values]
        for ci, clause in enumerate(self.clause_lits):
            for lit in clause:
                occ[abs(lit)].append(ci)
        return occ

    def s_implication(self, var: int, s: int) -> SImplication:
        if s > 2:
            return s_implication(var, s, self.occ.__getitem__, self.restricted)
        units = self.unit_clauses()
        if s == 1:
            # The one-clause subsets: a unit clause whose unset literal is var.
            return SImplication.of(bool(units & self.pos[var]), bool(units & self.neg[var]))
        # The pair lemma: only the live clauses with at most two unset
        # literals force, and at an undecided node none of them is empty.
        short = self.levels[-3] & ~self.sat
        return SImplication.of(self._pair_forces(var, self.pos[var], units, short),
                               self._pair_forces(-var, self.neg[var], units, short))

    def _pair_forces(self, lit: int, holds: int, units: int, short: int) -> bool:
        """Whether a subset of at most two restricted clauses forces `lit`,
        `holds` being the clauses that hold it: the unit (lit), or a binary
        (lit ∨ x) with the unit (¬x) or with the binary (lit ∨ ¬x)."""
        if units & holds:
            return True
        pairs = short & holds   # no unit holds lit: these are binaries
        partners = units | pairs
        values = self.values
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            for x in self.clause_lits[low.bit_length() - 1]:
                if x != lit and values[abs(x)] == UNSET:
                    break
            if partners & (self.neg[x] if x > 0 else self.pos[-x]):
                return True
        return False

    def forced_dpll(self) -> tuple[int, int] | None:
        """The first hit of the DPLL reduction rules, in their order."""
        for rule in self.config.reduction_rules:
            if rule == "unit":
                hit = self.find_unit()
            elif rule == "pureLiteral":
                hit = self.find_pure()
            else:  # sImplication: the lowest forced variable
                hit = None
                free = self.free
                while free:
                    low = free & -free
                    var = self.order[low.bit_length() - 1]
                    value = self.s_implication(var, self.config.s).forced
                    if value is not None:
                        hit = (var, value)
                        break
                    free ^= low
            if hit:
                return hit
        return None

    def next_free(self) -> int | None:
        """The engine's next unset variable: lowest for DPLL, first in the
        permutation for dncPPSZ."""
        free = self.free
        return self.order[(free & -free).bit_length() - 1] if free else None

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
    tree = SearchTree(formula.num_vars, [], [], []) if collect_tree else None
    model: tuple[int, ...] | None = None
    first_sat_at: int | None = None
    # DPLL has no budget: at a node with a free variable its guesses are < n.
    budget = formula.num_vars if config.guess_budget is None else config.guess_budget

    # Frames: (var, value, parent_id, guesses) assigns var and enters that
    # child (var is None at the root); None undoes the last assignment.
    stack: list[tuple | None] = [(None, None, -1, 0)]
    pop, push = stack.pop, stack.append
    assign, undo = state.assign, state.undo
    size = height = 0
    while stack:
        frame = pop()
        if frame is None:
            undo()
            continue
        var, value, parent_id, guesses = frame
        if var is not None:
            assign(var, value)
            push(None)

        node_id = size
        size += 1
        if state.num_assigned > height:
            height = state.num_assigned
        if tree is not None:
            tree.parents.append(parent_id)
            tree.edges.append(None if var is None else (var, value))
            tree.marked.append(False)

        # The search predicate first: a contradicted or satisfied node is a
        # leaf. Then the child rule.
        is_sat = state.satisfied()
        choice = None if is_sat or state.contradicted() else state.decide()
        if choice is not None:
            var, value = choice
            if value is not None:
                push((var, value, node_id, guesses))
                continue
            if guesses < budget:
                push((var, 1, node_id, guesses + 1))
                push((var, 0, node_id, guesses + 1))
                continue
            # Out of guesses: a leaf.

        # A leaf: every guess on the path is a two-child node.
        stats.leaf_count += 1
        stats.max_branching = max(stats.max_branching, guesses)
        if is_sat:
            stats.sat_leaves += 1
            if tree is not None:
                tree.marked[node_id] = True
            if first_sat_at is None:
                first_sat_at = size
                model = tuple(state.values[1:])
                if not exhaustive:
                    break

    stats.size, stats.height = size, height
    stats.effective_size = first_sat_at if first_sat_at is not None else size
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

"""Backtracking engines (DPLL, dncPPSZ), PPSZ-proper, and tree instrumentation.

Every tree is built by one child rule, applied in `_EngineState.chain`: the
paper's chNo/ch1/ch2 triple, read off a restriction of F that a trail of
assignments keeps up to date. A node whose search predicate is decided is a
leaf. Otherwise the rule takes the engine's next variable and forces it when
it can: DPLL by its reduction rules in order, dncPPSZ by s-implication of the
next variable of its permutation. An s-implication verdict sets the value
`SImplication.forced` names, the positive literal first on a contradiction
(the paper's Alg. 2). A variable that is not forced is guessed, 0 before 1;
dncPPSZ makes a leaf instead once the guesses reach its budget. The tests
hold the engine's trees, node by node, to chNo/ch1/ch2 written over
restrictions computed afresh at every node.

The restriction lives in Python-int bitmasks, one bit per clause or per
variable: the satisfied clauses, the clauses at each count of false literals,
the free variables. An assignment is a few big-int operations that visit no
clause. The unit clauses, the next free variable and the s-implication
verdicts for s <= 2 are read off that state. The s = 2 verdict rests on a
pair lemma: two nonempty restricted clauses, one of them holding `var`, force
a literal l of `var` (no model of the two sets l false) only as the unit (l),
as (l ∨ x) with (¬x), or as (l ∨ x) with (l ∨ ¬x). Setting l false must
empty a clause or leave two complementary units, and a clause with three or
more unset literals keeps two; the one unsatisfiable pair, (l) with (¬l),
forces both polarities. So only the units and binaries decide, and no subset
is enumerated. The general kernel `formula.s_implication` serves s >= 3.

Most vertices are forced (86% of DPLL's on planted 3-CNF at n = 40), so the
search moves one forced chain at a time. `chain` enters a vertex and every
forced child below it in one call, with the masks in locals, and returns
the variable to guess at the chain's last vertex, or None at a leaf. DPLL's
unit rule reads a mask of the unit clauses' variables, which each
assignment extends by the clauses it turns unit, so no vertex scans every
unit clause. The trail keeps each vertex's masks, and a search frame
carries the trail depth of its parent, so `restore` backtracks to that
depth with one snapshot. `_search` reads the state through `chain`,
`restore`, `satisfied`, `trail` and `values`, so the tests can swap in the
per-clause counting engine it replaced and compare whole searches.

The engines number a tree's vertices in depth-first preorder, so the subtree
of vertex v is the id range [v, v + size(v)).
"""

from __future__ import annotations

import copy
import json
import math
import operator
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
    - `unit_vars`, kept for DPLL's unit rule alone, holds the variables of
      the clauses that are unit at the root or turned unit on the path. A
      clause turns unit only when an assignment sets one of its last two
      unset literals false, so an assignment adds the variables of
      `levels[-3] & false & ~(levels[-2] | sat)`, the clauses it turns unit.
      Such a clause's variable that is still free is its one unset variable,
      and the clause stays unit while that variable is free, since no other
      assignment touches it. So `unit_vars & free` is exactly the unset
      variables of the unit clauses, and the rule refutes no candidate;
    - `maybe_pure`, kept for DPLL's pure-literal rule alone, holds every free
      pure variable and maybe some that are not. Satisfying a clause can make
      its variables pure, so setting a literal true adds the variables it
      shares a clause with (`touch`); `find_pure` drops the candidates it
      refutes, and a variable that is not free gets its bit back from the
      trail when it is freed.

    `chain` enters a vertex and every forced child below it in one call. The
    masks stay in locals along the chain and are written back when it ends,
    and before a rule that is a method reads them. DPLL's unit rule (the
    first variable of `unit_vars & free`) and dncPPSZ's s = 1 verdict are
    read inline; the pure-literal rule `find_pure`, DPLL's s-implication
    rule `find_implied` and the s >= 2 verdicts are methods. Each assignment
    pushes the masks it replaces onto the trail, so `restore` takes the
    state back to any depth of the path with one snapshot.

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
        # DPLL's rules in order, None for the unit rule that `chain` reads
        # inline; None for dncPPSZ, which forces by s-implication.
        methods = {"unit": None, "pureLiteral": type(self).find_pure,
                   "sImplication": type(self).find_implied}
        rules = config.reduction_rules if config.kind == DPLL else ()
        self.dpll_rules = tuple(map(methods.get, rules)) if config.kind == DPLL else None
        # The variable masks of the DPLL rules are kept (else 0) only for the
        # rules that read them.
        self.track_unit = "unit" in rules
        self.unit_vars = 0
        if self.track_unit:
            units = levels[-2] & ~levels[-1]
            while units:
                low = units & -units
                units ^= low
                self.unit_vars |= self.clause_vars[low.bit_length() - 1]
        self.touch = None   # (touch_neg, touch_pos), indexed by the value set
        self.maybe_pure = 0
        if "pureLiteral" in rules:
            touch_pos = [0] * (n + 1)
            touch_neg = [0] * (n + 1)
            for clause, near in zip(clauses, self.clause_vars):
                for lit in clause:
                    if lit > 0:
                        touch_pos[lit] |= near
                    else:
                        touch_neg[-lit] |= near
            self.touch = (touch_neg, touch_pos)
            for var in self.order:
                if not self.pos[var] or not self.neg[var]:
                    self.maybe_pure |= rank_bit[var]
        # Before each assignment: (var, value, sat, levels, free, unit_vars,
        # maybe_pure), the masks of the vertex it leaves.
        self.trail: list[tuple[int, int, int, list[int], int, int, int]] = []

    def chain(self, var: int | None, value: int | None) -> int | None:
        """Enter the child var = value of the current vertex (var None enters
        the current vertex itself, the root), then every forced child below
        it. Returns the variable to guess at the chain's last vertex, or None
        when that vertex is a leaf."""
        values, order, pos, neg = self.values, self.order, self.pos, self.neg
        rank_bit, clause_vars = self.rank_bit, self.clause_vars
        push = self.trail.append
        all_clauses, rules, touch = self.all_clauses, self.dpll_rules, self.touch
        track_unit, s = self.track_unit, self.config.s
        sat, levels, free = self.sat, self.levels, self.free
        unit_vars, maybe_pure = self.unit_vars, self.maybe_pure
        three = len(levels) == 3
        while True:
            if var is not None:
                push((var, value, sat, levels, free, unit_vars, maybe_pure))
                values[var] = value
                if value:
                    sat |= pos[var]
                    false = neg[var]
                else:
                    sat |= neg[var]
                    false = pos[var]
                if track_unit:
                    # The live clauses with two unset literals, one now false.
                    fresh = levels[-3] & false & ~(levels[-2] | sat)
                    while fresh:
                        low = fresh & -fresh
                        fresh ^= low
                        unit_vars |= clause_vars[low.bit_length() - 1]
                if three:   # K <= 3, the common case, unrolled
                    l1, l2, l3 = levels
                    levels = [l1 | false, l2 | l1 & false, l3 | l2 & false]
                else:
                    lifted = []
                    below = false
                    for level in levels:
                        lifted.append(level | below)
                        below = level & false
                    levels = lifted
                free ^= rank_bit[var]
                if touch is not None:
                    maybe_pure |= touch[value][var]

            # The search predicate: a contradicted or satisfied vertex is a
            # leaf. An undecided one has a free variable, since a full
            # assignment satisfies or contradicts every clause.
            if sat == all_clauses or levels[-1]:
                var = None
                break
            # The child rule.
            value = None
            if rules is None:
                # dncPPSZ: the next variable of the permutation, forced by
                # s-implication.
                var = order[(free & -free).bit_length() - 1]
                if s == 1:   # a unit clause whose unset literal is var
                    units = levels[-2] & ~sat
                    value = 1 if units & pos[var] else 0 if units & neg[var] else None
                else:
                    self.sat, self.levels = sat, levels
                    value = self.s_implication(var, s).forced
            else:
                for rule in rules:
                    if rule is None:
                        # The unit rule: the first unit variable, its
                        # literal's sign from its lowest unit clause.
                        candidates = unit_vars & free
                        if candidates:
                            var = order[(candidates & -candidates).bit_length() - 1]
                            hit = levels[-2] & ~sat & (pos[var] | neg[var])
                            value = 1 if hit & -hit & pos[var] else 0
                    else:
                        self.sat, self.levels, self.free = sat, levels, free
                        self.maybe_pure = maybe_pure
                        hit = rule(self)
                        maybe_pure = self.maybe_pure
                        if hit is not None:
                            var, value = hit
                    if value is not None:
                        break
                else:   # no rule fires: guess the lowest free variable
                    var = order[(free & -free).bit_length() - 1]
            if value is None:
                break
        self.sat, self.levels, self.free = sat, levels, free
        self.unit_vars, self.maybe_pure = unit_vars, maybe_pure
        return var

    def restore(self, depth: int) -> None:
        """Back to the vertex at trail depth `depth` on the current path."""
        trail, values = self.trail, self.values
        (_, _, self.sat, self.levels, self.free, self.unit_vars,
         self.maybe_pure) = trail[depth]
        for entry in trail[depth:]:
            values[entry[0]] = UNSET
        del trail[depth:]

    # -- the search predicate ----------------------------------------------

    def satisfied(self) -> bool:
        return self.sat == self.all_clauses

    # -- rule lookups ------------------------------------------------------

    def unit_clauses(self) -> int:
        """The clauses that are neither satisfied nor contradicted and have
        one unset literal."""
        return self.levels[-2] & ~(self.levels[-1] | self.sat)

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
            self.maybe_pure &= -low   # the candidates before it are refuted
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

    def find_implied(self) -> tuple[int, int] | None:
        """DPLL's s-implication rule: the lowest free variable that
        s-implication forces, and the value it sets."""
        free = self.free
        while free:
            low = free & -free
            var = self.order[low.bit_length() - 1]
            value = self.s_implication(var, self.config.s).forced
            if value is not None:
                return var, value
            free ^= low
        return None


@dataclass
class SolveResult:
    verdict: Verdict
    model: tuple[int, ...] | None
    stats: SearchTreeStats
    tree: SearchTree | None = None


_edge = operator.itemgetter(0, 1)   # a trail entry's (var, value)


def _search(formula: CnfFormula, config: EngineConfig, *, exhaustive: bool,
            collect_tree: bool) -> SolveResult:
    config = config.validated(formula)
    state = _EngineState(formula, config)
    stats = SearchTreeStats()
    parents: list[int] = []
    edges: list[tuple[int, int] | None] = []
    sat_leaves: list[int] = []
    model: tuple[int, ...] | None = None
    first_sat_at: int | None = None
    # DPLL has no budget: at a node with a free variable its guesses are < n.
    budget = formula.num_vars if config.guess_budget is None else config.guess_budget

    # Frames: (var, value, parent_id, guesses, depth) enters the child
    # var = value of the vertex at trail depth `depth`, and its forced chain
    # (var is None at the root).
    stack: list[tuple] = [(None, None, -1, 0, 0)]
    pop, push = stack.pop, stack.append
    trail = state.trail
    chain, restore, satisfied = state.chain, state.restore, state.satisfied
    size = height = 0
    while stack:
        var, value, parent_id, guesses, depth = pop()
        if len(trail) > depth:
            restore(depth)
        guess = chain(var, value)
        # The chain's vertices: ids first..size - 1, each the child of the
        # one before, at depths depth + 1..len(trail) (from depth at the root).
        first = size
        end = len(trail)
        size += end - depth + (var is None)
        if end > height:
            height = end
        if collect_tree:
            parents.append(parent_id)
            parents.extend(range(first, size - 1))
            if var is None:
                edges.append(None)
            edges.extend(map(_edge, trail[depth:]))
        if guess is not None:
            if guesses < budget:
                push((guess, 1, size - 1, guesses + 1, end))
                push((guess, 0, size - 1, guesses + 1, end))
                continue
            # Out of guesses: a leaf.

        # A leaf: every guess on the path is a two-child node.
        stats.leaf_count += 1
        if guesses > stats.max_branching:
            stats.max_branching = guesses
        if satisfied():
            sat_leaves.append(size - 1)
            if first_sat_at is None:
                first_sat_at = size
                model = tuple(state.values[1:])
                if not exhaustive:
                    break

    stats.size, stats.height = size, height
    stats.sat_leaves = len(sat_leaves)
    stats.effective_size = first_sat_at if first_sat_at is not None else size
    tree = None
    if collect_tree:
        marked = [False] * size
        for v in sat_leaves:
            marked[v] = True
        tree = SearchTree(formula.num_vars, parents, edges, marked)
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

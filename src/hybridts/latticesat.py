"""Lattice SAT: plaquette-constraint instances, validation, CNF export in
row-major order, and the polynomial 3-SAT reduction.

Reduction layout, in 0-based cells, for the padded 3-CNF with n variables
and L clauses, each clause sorted by variable (v1 < v2 < v3):
- variable v is a vertical wire on column 3(v - 1), rows 0..4L;
- clause l owns rows y = 4l + 2 and y + 1: wire f runs along row y from the
  column right of v1 to the column left of v2, and wire g along row y + 1
  from the column left of v2 to the column left of v3;
- f crosses the variables strictly between v1 and v2 on row y, and g the
  variables v2..v3 - 1 on row y + 1. At a crossing of row r and column c the
  clause wire's cell in column c + 1 moves up to row r - 1 and the variable
  wire's cell in row r moves right to column c + 1, so the two links cross
  on the diagonals of plaquette (r - 1, c) (the figure's crossing gadget).
  Wires 3 columns and 4 rows apart leave every crossing its own cells.
Consecutive cells of a wire are equal (two 2-corner constraints). Clause l
adds (l1 v f_first), the 3-corner junction (-f_last v l2 v g_first) and
(-g_last v l3), with l1 and l2 read on the wires of v1 and v2 at row y and
l3 on the wire of v3 at row y + 1: -l1 -> f, f & -l2 -> g and g -> l3 give
the clause.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formula import CnfFormula
from .generators import pad_to_3cnf
from .treesearch import EngineConfig, Verdict, dpll_solve

Cell = tuple[int, int]


@dataclass(frozen=True)
class Corner:
    row: int
    col: int
    positive: bool


@dataclass(frozen=True)
class PlaquetteConstraint:
    prow: int
    pcol: int
    corners: tuple[Corner, ...]


@dataclass(frozen=True)
class LatticeInstance:
    grid_side: int
    constraints: tuple[PlaquetteConstraint, ...]

    @property
    def num_vars(self) -> int:
        return self.grid_side * self.grid_side


def validate_lattice(inst: LatticeInstance) -> tuple[bool, list[str]]:
    """Structural invariants plus the square-fit check; returns violations."""
    violations: list[str] = []
    side = inst.grid_side
    if side < 2:
        violations.append("grid side must be at least 2")
    has_three = False
    for idx, con in enumerate(inst.constraints):
        if not (0 <= con.prow <= side - 2 and 0 <= con.pcol <= side - 2):
            violations.append(f"constraint {idx}: plaquette outside the grid")
            continue
        if not 2 <= len(con.corners) <= 3:
            violations.append(f"constraint {idx}: needs 2 or 3 corners")
        cells = set()
        plaquette_cells = {(con.prow + dr, con.pcol + dc)
                           for dr in (0, 1) for dc in (0, 1)}
        for corner in con.corners:
            cell = (corner.row, corner.col)
            if cell not in plaquette_cells:
                violations.append(
                    f"constraint {idx}: corner {cell} off its plaquette")
            if cell in cells:
                violations.append(f"constraint {idx}: duplicate corner {cell}")
            cells.add(cell)
            if not (0 <= corner.row < side and 0 <= corner.col < side):
                violations.append(f"constraint {idx}: corner {cell} outside the square")
        if len(con.corners) == 3:
            has_three = True
    if inst.constraints and not has_three:
        violations.append("no constraint uses 3 corners")
    return (not violations, violations)


def cell_var(cell: Cell, side: int) -> int:
    return cell[0] * side + cell[1] + 1


def lattice_to_cnf(inst: LatticeInstance) -> CnfFormula:
    """One clause per plaquette constraint, variables in row-major order;
    the resulting index width is at most gridSide + 1."""
    ok, violations = validate_lattice(inst)
    if not ok:
        raise ValueError("invalid lattice instance: " + "; ".join(violations))
    side = inst.grid_side
    clauses = []
    for con in inst.constraints:
        clause = []
        for corner in con.corners:
            var = cell_var((corner.row, corner.col), side)
            clause.append(var if corner.positive else -var)
        clauses.append(clause)
    return CnfFormula.from_clauses(side * side, clauses)


def random_lattice_instance(seed: int, grid_side: int,
                            density: float) -> LatticeInstance:
    """Seeded random instance; every output validates."""
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if grid_side < 2:
        raise ValueError("grid side must be at least 2")
    rng = random.Random(seed)
    corners_of = lambda p, q: [(p, q), (p, q + 1), (p + 1, q), (p + 1, q + 1)]
    constraints = []
    for p in range(grid_side - 1):
        for q in range(grid_side - 1):
            if rng.random() >= density:
                continue
            size = rng.choice((2, 3))
            chosen = rng.sample(corners_of(p, q), size)
            corners = tuple(Corner(r, c, rng.random() < 0.5) for r, c in chosen)
            constraints.append(PlaquetteConstraint(p, q, corners))
    if not constraints or not any(len(c.corners) == 3 for c in constraints):
        p = q = 0
        chosen = corners_of(p, q)[:3]
        corners = tuple(Corner(r, c, rng.random() < 0.5) for r, c in chosen)
        constraints.append(PlaquetteConstraint(p, q, corners))
    return LatticeInstance(grid_side, tuple(constraints))


# ---------------------------------------------------------------------------
# 3-SAT -> Lattice SAT reduction


@dataclass
class ReductionArtifacts:
    placement: dict[tuple[int, int], Cell]        # (orig var, clause) -> cell
    crossings: list[Cell]
    grid_side: int


def _constraint(*corners: tuple[Cell, bool]) -> PlaquetteConstraint:
    """The constraint on the plaquette whose top-left cell has the least row
    and the least column of the corners."""
    return PlaquetteConstraint(min(r for (r, _), _ in corners),
                               min(c for (_, c), _ in corners),
                               tuple(Corner(r, c, positive) for (r, c), positive in corners))


def reduce_3sat_to_lattice(formula: CnfFormula) -> tuple[LatticeInstance, ReductionArtifacts]:
    """Appendix-style reduction; clauses with fewer than 3 literals are padded
    (model-preserving) first."""
    if any(len(c) > 3 for c in formula.clauses):
        raise ValueError("input must be 3-CNF")
    if not formula.clauses:
        raise ValueError("reduction needs at least one clause")
    padded = pad_to_3cnf(formula)
    n, big_l = padded.num_vars, padded.num_clauses
    col = lambda var: 3 * (var - 1)
    clauses = [sorted(clause, key=abs) for clause in padded.clauses]
    crossings = []
    for l, (l1, l2, l3) in enumerate(clauses):
        v1, v2, v3 = abs(l1), abs(l2), abs(l3)
        crossings += [(4 * l + 2, col(v)) for v in range(v1 + 1, v2)]
        crossings += [(4 * l + 3, col(v)) for v in range(v2, v3)]
    jogs = set(crossings)

    def clause_wire(row: int, first: int, last: int) -> list[Cell]:
        # Right after a crossed column the wire runs one row up.
        return [(row - ((row, c - 1) in jogs), c) for c in range(first, last + 1)]

    var_wires = {var: [(r, col(var) + ((r, col(var)) in jogs)) for r in range(4 * big_l + 1)]
                 for var in range(1, n + 1)}
    wires = list(var_wires.values())
    constraints = []
    for l, (l1, l2, l3) in enumerate(clauses):
        y = 4 * l + 2
        w1, w2, w3 = (var_wires[abs(lit)] for lit in (l1, l2, l3))
        f = clause_wire(y, w1[y][1] + 1, w2[y][1] - 1)
        g = clause_wire(y + 1, w2[y][1] - 1, w3[y + 1][1] - 1)
        wires += [f, g]
        constraints += [_constraint((w1[y], l1 > 0), (f[0], True)),
                        _constraint((f[-1], False), (w2[y], l2 > 0), (g[0], True)),
                        _constraint((g[-1], False), (w3[y + 1], l3 > 0))]
    for wire in wires:
        for a, b in zip(wire, wire[1:]):
            constraints += [_constraint((a, False), (b, True)),
                            _constraint((a, True), (b, False))]
    cells = [cell for wire in wires for cell in wire]
    if len(set(cells)) != len(cells):
        raise AssertionError("reduction wires claim a cell twice")
    side = max(max(cell) for cell in cells) + 2

    inst = LatticeInstance(side, tuple(constraints))
    ok, violations = validate_lattice(inst)
    if not ok:
        raise AssertionError("reduction emitted an invalid instance: "
                             + "; ".join(violations))
    placement = {(var, l): var_wires[var][4 * l + 2]
                 for var in range(1, formula.num_vars + 1) for l in range(big_l)}
    return inst, ReductionArtifacts(placement, crossings, side)


def equisat_check(formula: CnfFormula, inst: LatticeInstance) -> dict:
    """Compare DPLL verdicts of the source formula and the lattice CNF."""
    source = dpll_solve(formula, EngineConfig())
    reduced = dpll_solve(lattice_to_cnf(inst), EngineConfig())
    agree = (source.verdict == Verdict.SAT) == (reduced.verdict == Verdict.SAT)
    return {"agree": agree,
            "source": source.verdict.value,
            "reduced": reduced.verdict.value}


"""Lattice SAT: plaquette-constraint instances, validation, CNF export in
row-major order, and the polynomial 3-SAT reduction.

Reduction layout: per-clause variable copies sit on even cells of the main
diagonal (odd diagonal cells interpolate the copy chains), each clause routes
two horizontal chains (rows of its first two copies) and two vertical chains
(columns of its second and third copies) to three-corner junction plaquettes
carrying the split clauses (l1 v l2 v t), (l2 v l3 v -t'), (-t v t'). With
that layout the only overlaps are interior horizontal-x-vertical crossings,
removed by a deterministic sweep that inserts one row and one column per
crossing and jogs both chains through the fresh cells (the figure's crossing
gadget); equality chains broken by an insertion are re-spliced through free
cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
    overlap_log: list[dict]
    grid_side: int


class _Builder:
    def __init__(self):
        self.next_id = 0
        self.pos: dict[int, Cell] = {}
        self.adj: dict[int, set[int]] = {}
        self.imp_edges: list[list[int]] = []      # (u, v) meaning (-u or v)
        self.junctions: list[dict] = []
        self.overlap_log: list[dict] = []

    # -- construction ------------------------------------------------------

    def var(self, cell: Cell) -> int:
        vid = self.next_id
        self.next_id += 1
        self.pos[vid] = cell
        self.adj[vid] = set()
        return vid

    def eq(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove_eq(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    def claims(self) -> dict[Cell, list[int]]:
        out: dict[Cell, list[int]] = {}
        for vid, cell in self.pos.items():
            out.setdefault(cell, []).append(vid)
        return out

    # -- insertion & repair --------------------------------------------------

    def shift(self, axis: int, at: int) -> None:
        """Insert an empty row (axis 0) or column (axis 1) at index `at`."""
        for vid, cell in list(self.pos.items()):
            if cell[axis] >= at:
                new = list(cell)
                new[axis] += 1
                self.pos[vid] = tuple(new)

    def _junction_spans(self, axis: int, at: int) -> bool:
        for junc in self.junctions:
            cells = [self.pos[junc["a"]], self.pos[junc["z"]], self.pos[junc["t"]]]
            lo = min(c[axis] for c in cells)
            hi = max(c[axis] for c in cells)
            if lo < at <= hi:
                return True
        return False

    def _splice_cell(self, taken: set[Cell], a: Cell, b: Cell) -> Cell | None:
        """A free cell adjacent to one endpoint that shrinks the gap in the
        (Chebyshev, L1) lexicographic order; repeated passes walk arbitrary
        gaps closed without cycling."""
        gap = (max(abs(a[0] - b[0]), abs(a[1] - b[1])),
               abs(a[0] - b[0]) + abs(a[1] - b[1]))
        best = None
        for base, other in ((a, b), (b, a)):
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    cell = (base[0] + dr, base[1] + dc)
                    if cell in (a, b) or cell in taken or cell[0] < 0 or cell[1] < 0:
                        continue
                    dist = (max(abs(cell[0] - other[0]), abs(cell[1] - other[1])),
                            abs(cell[0] - other[0]) + abs(cell[1] - other[1]))
                    if dist < gap:
                        key = (dist, cell)
                        if best is None or key < best:
                            best = key
        return best[1] if best else None

    def _relieve(self, a: Cell, b: Cell) -> None:
        """Free up splice room by inserting a junction-safe row or column
        strictly between the two endpoints."""
        for axis in (0, 1):
            lo, hi = sorted((a[axis], b[axis]))
            if hi - lo < 2:
                continue
            for at in range(lo + 1, hi + 1):
                if not self._junction_spans(axis, at):
                    self.shift(axis, at)
                    return
        raise AssertionError(f"cannot relieve congestion between {a} and {b}")

    def _broken_links(self) -> list[tuple[Cell, tuple]]:
        out = []
        for u in self.adj:
            for v in self.adj[u]:
                if u >= v:
                    continue
                a, b = self.pos[u], self.pos[v]
                if max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1:
                    out.append((min(a, b), ("eq", u, v)))
        for i, (u, v) in enumerate(self.imp_edges):
            a, b = self.pos[u], self.pos[v]
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1:
                out.append((min(a, b), ("imp", i)))
        out.sort()
        return out

    def repair(self) -> None:
        """Re-splice links broken by insertions, sweeping left to right so a
        band of parallel chains cascades into the fresh cells; a row/column is
        inserted only when a whole pass makes no progress."""
        for _ in range(512):
            broken = self._broken_links()
            if not broken:
                return
            taken = set(self.claims())
            progress = False
            for _key, link in broken:
                if link[0] == "eq":
                    _, u, v = link
                else:
                    u, v = self.imp_edges[link[1]]
                a, b = self.pos[u], self.pos[v]
                if max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= 1:
                    continue
                mid = self._splice_cell(taken, a, b)
                if mid is None:
                    continue
                w = self.var(mid)
                taken.add(mid)
                progress = True
                if link[0] == "eq":
                    self.remove_eq(u, v)
                    self.eq(u, w)
                    self.eq(w, v)
                else:
                    # (-u or v) becomes (-w or v) with w equality-chained to u.
                    self.eq(u, w)
                    self.imp_edges[link[1]][0] = w
            if not progress:
                link = broken[0][1]
                if link[0] == "eq":
                    a, b = self.pos[link[1]], self.pos[link[2]]
                else:
                    u, v = self.imp_edges[link[1]]
                    a, b = self.pos[u], self.pos[v]
                self._relieve(a, b)
        raise AssertionError("edge repair did not converge")

    # -- crossing sweep ------------------------------------------------------

    def _row_straddles(self, vid: int, cell: Cell) -> bool:
        """True when the chain passes this cell vertically (neighbors strictly
        above and below). Gadget reroutes never disturb this property of a
        vertical run, while a horizontal run's neighbors stay on its row or
        one fresh row above it."""
        if len(self.adj[vid]) != 2:
            return False
        a, b = (self.pos[n] for n in self.adj[vid])
        rows = sorted((a[0], b[0]))
        return rows[0] < cell[0] < rows[1]

    def resolve_crossings(self) -> None:
        for _ in range(4 * len(self.pos) + 64):
            conflicts = {cell: vids for cell, vids in self.claims().items()
                         if len(vids) > 1}
            if not conflicts:
                return
            cell = min(conflicts)
            vids = conflicts[cell]
            if len(vids) != 2:
                raise AssertionError(f"{len(vids)} claimants at {cell}")
            a, b = vids
            straddles = [v for v in vids if self._row_straddles(v, cell)]
            if len(straddles) != 1:
                raise AssertionError(f"cannot orient the overlap at {cell}")
            h_vid = a if straddles[0] == b else b
            self._apply_crossing_gadget(cell, h_vid)
            self.repair()
        raise AssertionError("crossing sweep did not terminate")

    def _apply_crossing_gadget(self, cell: Cell, h_vid: int) -> None:
        """Insert a fresh row above and a fresh column beside the crossing;
        the horizontal chain jogs through the two fresh cells in the new row
        while the vertical chain keeps the crossing cell, re-entering it
        diagonally through a repair splice."""
        r, c = cell
        if self._junction_spans(0, r):
            raise AssertionError("row insertion would split a junction plaquette")
        self.shift(0, r)                     # fresh row r; the crossing is now (r+1, .)
        if not self._junction_spans(1, c):
            self.shift(1, c)                 # fresh column c; crossing at (r+1, c+1)
            fresh_col = c
            h_cells = ((r, c), (r, c + 1))
        else:
            if self._junction_spans(1, c + 1):
                raise AssertionError("no junction-safe column insertion side")
            self.shift(1, c + 1)             # fresh column c+1; crossing stays (r+1, c)
            fresh_col = c + 1
            h_cells = ((r, c), (r, c + 1))
        taken = set(self.claims())
        for fresh in h_cells:
            if fresh in taken:
                raise AssertionError(f"gadget cell {fresh} is not free")
        h_left, h_right = sorted(self.adj[h_vid], key=lambda n: self.pos[n][1])
        self.pos[h_vid] = h_cells[0]
        u2 = self.var(h_cells[1])
        self.remove_eq(h_vid, h_right)
        self.eq(h_vid, u2)
        self.eq(u2, h_right)
        self.overlap_log.append({"cell": [r, c], "freshRow": r,
                                 "freshCol": fresh_col})


def _shared_plaquette(cells: list[Cell], side: int) -> Cell:
    rmax = max(c[0] for c in cells)
    rmin = min(c[0] for c in cells)
    cmax = max(c[1] for c in cells)
    cmin = min(c[1] for c in cells)
    for p in range(max(rmax - 1, 0), rmin + 1):
        for q in range(max(cmax - 1, 0), cmin + 1):
            if p <= side - 2 and q <= side - 2:
                return (p, q)
    raise AssertionError(f"cells {cells} share no plaquette")


def reduce_3sat_to_lattice(formula: CnfFormula) -> tuple[LatticeInstance, ReductionArtifacts]:
    """Appendix-style reduction; clauses with fewer than 3 literals are padded
    (model-preserving) first."""
    if any(len(c) > 3 for c in formula.clauses):
        raise ValueError("input must be 3-CNF")
    if not formula.clauses:
        raise ValueError("reduction needs at least one clause")
    padded = pad_to_3cnf(formula)
    n, clauses = padded.num_vars, padded.clauses
    big_l = len(clauses)
    builder = _Builder()

    def dpos(var: int, clause_idx: int) -> int:
        return 2 * ((var - 1) * big_l + clause_idx)

    copies: dict[tuple[int, int], int] = {}
    for var in range(1, n + 1):
        prev = None
        for l in range(big_l):
            d = dpos(var, l)
            vid = builder.var((d, d))
            copies[(var, l)] = vid
            if prev is not None:
                inter = builder.var((d - 1, d - 1))
                builder.eq(prev, inter)
                builder.eq(inter, vid)
            prev = vid

    def chain(start_vid: int, cells: list[Cell]) -> int:
        cur = start_vid
        for cell in cells:
            nxt = builder.var(cell)
            builder.eq(cur, nxt)
            cur = nxt
        return cur

    for l, clause in enumerate(clauses):
        lits = sorted(clause, key=abs)
        (v1, p1), (v2, p2), (v3, p3) = [(abs(t), t > 0) for t in lits]
        d1, d2, d3 = dpos(v1, l), dpos(v2, l), dpos(v3, l)

        y_cells = [(d1, c) for c in range(d1 + 1, d2 + 1)]
        y_last = chain(copies[(v1, l)], y_cells)
        z_cells = [(rr, d2) for rr in range(d2 - 1, d1, -1)]
        z_top = chain(copies[(v2, l)], z_cells)
        t_vid = builder.var((d1, d2 + 1))
        builder.junctions.append({"a": y_last, "a_pol": p1, "z": z_top,
                                  "z_pol": p2, "t": t_vid, "t_pol": True})

        yp_cells = [(d2, c) for c in range(d2 + 1, d3 + 1)]
        yp_last = chain(copies[(v2, l)], yp_cells)
        zp_cells = [(rr, d3) for rr in range(d3 - 1, d2, -1)]
        zp_top = chain(copies[(v3, l)], zp_cells)
        tp_vid = builder.var((d2, d3 + 1))
        builder.junctions.append({"a": yp_last, "a_pol": p2, "z": zp_top,
                                  "z_pol": p3, "t": tp_vid, "t_pol": False})

        # t-chain from t to a neighbor of t': right along row d1, down col d3+1.
        route = [(d1, c) for c in range(d2 + 2, d3 + 2)]
        route += [(rr, d3 + 1) for rr in range(d1 + 1, d2)]
        t_end = chain(t_vid, route)
        builder.imp_edges.append([t_end, tp_vid])

    builder.resolve_crossings()

    side = max(max(r, c) for r, c in builder.pos.values()) + 2

    constraints: list[PlaquetteConstraint] = []

    def two_corner(u: int, u_pol: bool, v: int, v_pol: bool) -> None:
        cu, cv = builder.pos[u], builder.pos[v]
        p, q = _shared_plaquette([cu, cv], side)
        constraints.append(PlaquetteConstraint(p, q, (
            Corner(cu[0], cu[1], u_pol), Corner(cv[0], cv[1], v_pol))))

    seen = set()
    for u in builder.adj:
        for v in builder.adj[u]:
            if (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            two_corner(u, False, v, True)   # (-u or v)
            two_corner(u, True, v, False)   # (u or -v)
    for u, v in builder.imp_edges:
        two_corner(u, False, v, True)       # (-u or v)
    for junc in builder.junctions:
        cells = [builder.pos[junc["a"]], builder.pos[junc["z"]], builder.pos[junc["t"]]]
        p, q = _shared_plaquette(cells, side)
        constraints.append(PlaquetteConstraint(p, q, (
            Corner(cells[0][0], cells[0][1], junc["a_pol"]),
            Corner(cells[1][0], cells[1][1], junc["z_pol"]),
            Corner(cells[2][0], cells[2][1], junc["t_pol"]))))

    inst = LatticeInstance(side, tuple(constraints))
    ok, violations = validate_lattice(inst)
    if not ok:
        raise AssertionError("reduction emitted an invalid instance: "
                             + "; ".join(violations))
    placement = {(var, l): builder.pos[vid] for (var, l), vid in copies.items()
                 if var <= formula.num_vars}
    artifacts = ReductionArtifacts(placement, builder.overlap_log, side)
    return inst, artifacts


def equisat_check(formula: CnfFormula, inst: LatticeInstance) -> dict:
    """Compare DPLL verdicts of the source formula and the lattice CNF."""
    source = dpll_solve(formula, EngineConfig())
    reduced = dpll_solve(lattice_to_cnf(inst), EngineConfig())
    agree = (source.verdict == Verdict.SAT) == (reduced.verdict == Verdict.SAT)
    return {"agree": agree,
            "source": source.verdict.value,
            "reduced": reduced.verdict.value}


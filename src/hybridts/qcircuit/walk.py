"""Reversible walk-operator components with qubit accounting.

Vertex encoding: two wires per variable, a set bit and a value bit (value 0
for unset variables), so a vertex register takes 2n wires and the assembled
star-preparation operator stays within 4n + O(log n) wires.

Every component is a compute / copy-out / uncompute sandwich built from
multi-controlled X gates (plus dense preparation blocks in the star builder);
scans over variables or (variable, clause) pairs use a freezing counter: the
counter advances only while nothing has fired, so the pair (counter, check
bit) identifies the firing step and the whole scan uncomputes by reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..formula import CnfFormula
from .core import Circuit, append_increment


@dataclass
class WalkComponent:
    name: str
    circuit: Circuit
    vertex_wires: tuple[int, ...]
    outputs: dict[str, tuple[int, ...]]
    scratch_wires: tuple[int, ...]

    @property
    def num_wires(self) -> int:
        return self.circuit.num_wires


def set_wire(var: int) -> int:
    return 2 * (var - 1)


def val_wire(var: int) -> int:
    return 2 * (var - 1) + 1


def encode_vertex(pairs: dict[int, int], num_vars: int, width: int) -> int:
    """Basis index with the vertex register loaded (other wires zero)."""
    idx = 0
    for var, value in pairs.items():
        idx |= 1 << (width - 1 - set_wire(var))
        if value:
            idx |= 1 << (width - 1 - val_wire(var))
    return idx


def read_wires(index: int, width: int, wires) -> int:
    out = 0
    for w in wires:
        out = (out << 1) | ((index >> (width - 1 - w)) & 1)
    return out


def _reg_pattern(wires: tuple[int, ...], value: int) -> tuple[tuple[int, int], ...]:
    k = len(wires)
    return tuple((wires[pos], (value >> (k - 1 - pos)) & 1) for pos in range(k))


def _literal_false_controls(clause) -> tuple[tuple[int, int], ...]:
    out = []
    for lit in clause:
        v = abs(lit)
        out.append((set_wire(v), 1))
        out.append((val_wire(v), 0 if lit > 0 else 1))
    return tuple(out)


def _literal_true_controls(lit: int) -> tuple[tuple[int, int], ...]:
    v = abs(lit)
    return ((set_wire(v), 1), (val_wire(v), 1 if lit > 0 else 0))


def _alive_counting_program(circ: Circuit, formula: CnfFormula,
                            counter: tuple[int, ...], t_bits: tuple[int, ...],
                            a_bit: int, literal_filter=None) -> None:
    """Count not-yet-satisfied clauses (optionally only those containing a
    given literal) into `counter`, restoring the per-clause scratch."""
    for clause in formula.clauses:
        if literal_filter is not None and literal_filter not in clause:
            continue
        used = []
        for pos, lit in enumerate(clause):
            circ.x(t_bits[pos], _literal_true_controls(lit))
            used.append(t_bits[pos])
        circ.x(a_bit, tuple((t, 0) for t in used))
        append_increment(circ, counter, ((a_bit, 1),))
        circ.x(a_bit, tuple((t, 0) for t in used))
        for pos in range(len(clause) - 1, -1, -1):
            circ.x(t_bits[pos], _literal_true_controls(clause[pos]))


def build_v_leaf(formula: CnfFormula) -> WalkComponent:
    """b = 1 iff the restriction is decided: every clause satisfied, or some
    clause fully assigned with all literals false."""
    n, m = formula.num_vars, formula.num_clauses
    k = formula.max_clause_size
    wa = max(1, m.bit_length())
    base = 2 * n
    b = base
    ca = tuple(range(base + 1, base + 1 + wa))
    cc = tuple(range(base + 1 + wa, base + 1 + 2 * wa))
    z1 = base + 1 + 2 * wa
    z2 = z1 + 1
    t_bits = tuple(range(z2 + 1, z2 + 1 + k))
    a_bit = z2 + 1 + k
    circ = Circuit(a_bit + 1)

    compute = Circuit(circ.num_wires)
    _alive_counting_program(compute, formula, ca, t_bits, a_bit)
    for clause in formula.clauses:
        append_increment(compute, cc, _literal_false_controls(clause))
    compute.x(z1, tuple((w, 0) for w in ca))
    compute.x(z2, tuple((w, 0) for w in cc))

    circ.extend(compute)
    circ.x(b)
    circ.x(b, ((z1, 0), (z2, 1)))     # b = z1 or (not z2)
    circ.extend(compute.inverse())
    scratch = ca + cc + (z1, z2) + t_bits + (a_bit,)
    return WalkComponent("V_leaf", circ, tuple(range(2 * n)), {"b": (b,)}, scratch)


def build_v_marked(formula: CnfFormula) -> WalkComponent:
    """b = 1 iff the restriction is the empty formula (all clauses satisfied)."""
    n, m = formula.num_vars, formula.num_clauses
    k = formula.max_clause_size
    wa = max(1, m.bit_length())
    base = 2 * n
    b = base
    ca = tuple(range(base + 1, base + 1 + wa))
    t_bits = tuple(range(base + 1 + wa, base + 1 + wa + k))
    a_bit = base + 1 + wa + k
    circ = Circuit(a_bit + 1)
    compute = Circuit(circ.num_wires)
    _alive_counting_program(compute, formula, ca, t_bits, a_bit)
    circ.extend(compute)
    circ.x(b, tuple((w, 0) for w in ca))
    circ.extend(compute.inverse())
    scratch = ca + t_bits + (a_bit,)
    return WalkComponent("V_marked", circ, tuple(range(2 * n)), {"b": (b,)}, scratch)


def _unit_steps(formula: CnfFormula) -> list[tuple[int, int, int]]:
    steps = []
    for var in range(1, formula.num_vars + 1):
        for ci, clause in enumerate(formula.clauses):
            for lit in clause:
                if abs(lit) == var:
                    steps.append((var, ci, 1 if lit > 0 else 0))
                    break
    return steps


def build_v_unit(formula: CnfFormula) -> WalkComponent:
    """First unit clause by (variable index, clause order): outputs the
    variable index, the forcing sign, and a found flag."""
    n = formula.num_vars
    steps = _unit_steps(formula)
    ws = max(1, n.bit_length())
    wc = max(1, len(steps).bit_length())
    base = 2 * n
    out_j = tuple(range(base, base + ws))
    out_s = base + ws
    out_found = base + ws + 1
    sc = tuple(range(base + ws + 2, base + ws + 2 + wc))
    chk = base + ws + 2 + wc
    circ = Circuit(chk + 1)

    compute = Circuit(circ.num_wires)
    for i, (var, ci, sign) in enumerate(steps):
        clause = formula.clauses[ci]
        others = tuple(l for l in clause if abs(l) != var)
        controls = _reg_pattern(sc, i) + ((set_wire(var), 0),)
        controls += _literal_false_controls(others)
        compute.x(chk, controls)
        append_increment(compute, sc, ((chk, 0),))

    circ.extend(compute)
    for i, (var, ci, sign) in enumerate(steps):
        controls = _reg_pattern(sc, i) + ((chk, 1),)
        for pos in range(ws):
            if (var >> (ws - 1 - pos)) & 1:
                circ.x(out_j[pos], controls)
        if sign:
            circ.x(out_s, controls)
        circ.x(out_found, controls)
    circ.extend(compute.inverse())
    scratch = sc + (chk,)
    return WalkComponent("V_unit", circ, tuple(range(2 * n)),
                         {"j": out_j, "s": (out_s,), "found": (out_found,)}, scratch)


def build_v_pure(formula: CnfFormula) -> WalkComponent:
    """First pure (or disappeared) variable: index, assigned sign, found flag.

    Sign 1 covers positive-only and disappeared variables (assigned true);
    sign 0 covers negative-only ones.
    """
    n = formula.num_vars
    k = formula.max_clause_size
    dmax = 1
    for var in range(1, n + 1):
        pos_deg = sum(1 for c in formula.clauses if var in c)
        neg_deg = sum(1 for c in formula.clauses if -var in c)
        dmax = max(dmax, pos_deg, neg_deg)
    ws = max(1, n.bit_length())
    wd = max(1, dmax.bit_length())
    wv = max(1, (n + 1).bit_length())
    base = 2 * n
    out_j = tuple(range(base, base + ws))
    out_s = base + ws
    out_found = base + ws + 1
    vc = tuple(range(base + ws + 2, base + ws + 2 + wv))
    chk_a = base + ws + 2 + wv
    chk_b = chk_a + 1
    cp = tuple(range(chk_b + 1, chk_b + 1 + wd))
    cm = tuple(range(chk_b + 1 + wd, chk_b + 1 + 2 * wd))
    t_bits = tuple(range(chk_b + 1 + 2 * wd, chk_b + 1 + 2 * wd + k))
    a_bit = chk_b + 1 + 2 * wd + k
    circ = Circuit(a_bit + 1)

    compute = Circuit(circ.num_wires)
    for var in range(1, n + 1):
        block = Circuit(circ.num_wires)
        _alive_counting_program(block, formula, cp, t_bits, a_bit, literal_filter=var)
        _alive_counting_program(block, formula, cm, t_bits, a_bit, literal_filter=-var)
        compute.extend(block)
        guard = _reg_pattern(vc, var - 1) + ((set_wire(var), 0),)
        compute.x(chk_a, guard + tuple((w, 0) for w in cm))
        compute.x(chk_b, guard + tuple((w, 0) for w in cp))
        compute.x(chk_b, guard + tuple((w, 0) for w in cp) + tuple((w, 0) for w in cm))
        append_increment(compute, vc, ((chk_a, 0), (chk_b, 0)))
        compute.extend(block.inverse())

    circ.extend(compute)
    for var in range(1, n + 1):
        for flag, with_sign in ((chk_a, True), (chk_b, False)):
            controls = _reg_pattern(vc, var - 1) + ((flag, 1),)
            for pos in range(ws):
                if (var >> (ws - 1 - pos)) & 1:
                    circ.x(out_j[pos], controls)
            if with_sign:
                circ.x(out_s, controls)
            circ.x(out_found, controls)
    circ.extend(compute.inverse())
    scratch = vc + (chk_a, chk_b) + cp + cm + t_bits + (a_bit,)
    return WalkComponent("V_pure", circ, tuple(range(2 * n)),
                         {"j": out_j, "s": (out_s,), "found": (out_found,)}, scratch)


def build_v_next(num_vars: int) -> WalkComponent:
    """|x>|0>|j>|b> -> |x>|x[x_j := b]>|j>|b>: copy, then pattern-set the
    addressed variable."""
    n = num_vars
    ws = max(1, n.bit_length())
    child = tuple(range(2 * n, 4 * n))
    j_reg = tuple(range(4 * n, 4 * n + ws))
    b_wire = 4 * n + ws
    circ = Circuit(b_wire + 1)
    for w in range(2 * n):
        circ.x(child[w], ((w, 1),))
    for var in range(1, n + 1):
        pattern = _reg_pattern(j_reg, var)
        circ.x(child[set_wire(var)], pattern)
        circ.x(child[val_wire(var)], pattern + ((b_wire, 1),))
    return WalkComponent("V_next", circ, tuple(range(2 * n)),
                         {"child": child, "j": j_reg, "b": (b_wire,)}, ())


def _scan_first_free(circ: Circuit, n: int, fc: tuple[int, ...], fchk: int,
                     out_j: tuple[int, ...], out_found: int) -> None:
    compute = Circuit(circ.num_wires)
    for var in range(1, n + 1):
        compute.x(fchk, _reg_pattern(fc, var - 1) + ((set_wire(var), 0),))
        append_increment(compute, fc, ((fchk, 0),))
    circ.extend(compute)
    ws = len(out_j)
    for var in range(1, n + 1):
        controls = _reg_pattern(fc, var - 1) + ((fchk, 1),)
        for pos in range(ws):
            if (var >> (ws - 1 - pos)) & 1:
                circ.x(out_j[pos], controls)
        circ.x(out_found, controls)
    circ.extend(compute.inverse())


def _prep_block(first_column: np.ndarray) -> np.ndarray:
    """Unitary 4x4 block with the given (normalized) first column."""
    col = np.asarray(first_column, dtype=complex)
    col = col / np.linalg.norm(col)
    basis = [col]
    for e in np.eye(4, dtype=complex):
        v = e.copy()
        for b in basis:
            v -= (b.conj() @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
        if len(basis) == 4:
            break
    return np.column_stack(basis)


def build_v_a_static(formula: CnfFormula, depth_bound: int | None = None,
                     include_leaf_detector: bool = True) -> WalkComponent:
    """Executable star-preparation U_A for the static branching rule (every
    non-leaf vertex branches on its first free variable).

    Output on a non-leaf basis vertex x: (sum over the vertex and its two
    children of |x>|child>) with the root weighting, index register
    disentangled back to zero. The disentangler reads the which-child
    information out of the child register (branch variable set/value bits).

    With include_leaf_detector=False the leaf bit stays zero (callers promise
    non-leaf inputs); this keeps the wire count low enough for statevector
    verification on superpositions.
    """
    n = formula.num_vars
    nn = depth_bound if depth_bound is not None else n
    leaf = build_v_leaf(formula) if include_leaf_detector else None
    ws = max(1, n.bit_length())
    wv = max(1, (n + 1).bit_length())

    child = tuple(range(2 * n, 4 * n))
    hi, lo = 4 * n, 4 * n + 1
    b = 4 * n + 2
    isroot = 4 * n + 3
    bv = tuple(range(4 * n + 4, 4 * n + 4 + ws))
    bfound = 4 * n + 4 + ws
    fc = tuple(range(bfound + 1, bfound + 1 + wv))
    fchk = bfound + 1 + wv
    scratch_base = fchk + 1
    leaf_scratch = len(leaf.scratch_wires) if leaf else 0
    width = scratch_base + leaf_scratch
    circ = Circuit(width)

    # Leaf bit: reuse the leaf program rebased onto this wire plan.
    if leaf:
        leaf_map = {w: w for w in range(2 * n)}
        leaf_map[leaf.outputs["b"][0]] = b
        for pos, w in enumerate(leaf.scratch_wires):
            leaf_map[w] = scratch_base + pos
        leaf_program = _rebase(leaf.circuit, leaf_map, width)
    else:
        leaf_program = Circuit(width)

    circ.extend(leaf_program)
    circ.x(isroot, tuple((set_wire(v), 0) for v in range(1, n + 1)))
    _scan_first_free(circ, n, fc, fchk, bv, bfound)

    # Star preparation on the index qutrit (wires hi, lo).
    uniform = _prep_block(np.array([1.0, 1.0, 1.0, 0.0]))
    root_amp = np.array([1.0, math.sqrt(nn), math.sqrt(nn), 0.0])
    rooted = _prep_block(root_amp)
    circ.unitary((hi, lo), uniform, ((b, 0), (isroot, 0)))
    circ.unitary((hi, lo), rooted, ((b, 0), (isroot, 1)))

    # Controlled V_i: copy the vertex, then set the branch variable.
    for hi_bit, lo_bit, value in ((0, 0, None), (0, 1, 0), (1, 0, 1)):
        gate_ctrl = ((b, 0), (hi, hi_bit), (lo, lo_bit))
        for w in range(2 * n):
            circ.x(child[w], gate_ctrl + ((w, 1),))
        if value is None:
            continue
        for var in range(1, n + 1):
            pattern = gate_ctrl + _reg_pattern(bv, var)
            circ.x(child[set_wire(var)], pattern)
            if value == 1:
                circ.x(child[val_wire(var)], pattern)

    # V_C: erase the index from the child content (set/value of the branch var).
    for var in range(1, n + 1):
        pattern = _reg_pattern(bv, var)
        circ.x(lo, ((b, 0),) + pattern
               + ((child[set_wire(var)], 1), (child[val_wire(var)], 0)))
        circ.x(hi, ((b, 0),) + pattern
               + ((child[set_wire(var)], 1), (child[val_wire(var)], 1)))

    # Restore the classical helpers.
    _scan_first_free(circ, n, fc, fchk, bv, bfound)
    circ.x(isroot, tuple((set_wire(v), 0) for v in range(1, n + 1)))
    circ.extend(leaf_program.inverse())

    scratch = (b, isroot) + bv + (bfound,) + fc + (fchk,) \
        + tuple(range(scratch_base, width))
    return WalkComponent("V_A", circ, tuple(range(2 * n)),
                         {"child": child, "index": (hi, lo)}, scratch)


def _rebase(circuit: Circuit, wire_map: dict[int, int], new_width: int) -> Circuit:
    """The circuit's gates on relabeled wires; a UNITARY keeps its block."""
    out = Circuit(new_width)
    for gate in circuit.gates:
        targets = tuple(wire_map[w] for w in gate.targets)
        controls = tuple((wire_map[w], bit) for w, bit in gate.controls)
        out._check(targets, controls)
        out.gates.append(replace(gate, targets=targets, controls=controls))
    return out


def assembled_r_a_wires(formula: CnfFormula) -> dict:
    """Wire accounting for the full DPLL-rule R_A assembly: two vertex
    registers, the index qutrit, the reduction-rule outputs and the shared
    scan scratch. Everything beyond 4n is logarithmic in n."""
    n = formula.num_vars
    leaf = build_v_leaf(formula)
    marked = build_v_marked(formula)
    unit = build_v_unit(formula)
    pure = build_v_pure(formula)
    ws = max(1, n.bit_length())
    shared_scratch = max(len(leaf.scratch_wires), len(marked.scratch_wires),
                         len(unit.scratch_wires), len(pure.scratch_wires))
    outputs = (
        2                   # leaf + marked bits
        + (ws + 2) * 2      # unit and pure outputs (j, s, found)
        + (ws + 1)          # first-free outputs
        + ws + 2            # branch-variable register, value bit, forced flag
    )
    index = 2
    total = 4 * n + index + 1 + outputs + shared_scratch  # +1 root detector
    return {
        "n": n,
        "vertexRegisters": 4 * n,
        "index": index,
        "outputs": outputs + 1,
        "sharedScratch": shared_scratch,
        "total": total,
        "overhead": total - 4 * n,
    }


def build_walk_components(formula: CnfFormula) -> dict:
    """All reversible components plus the R_A wire accounting."""
    return {
        "V_leaf": build_v_leaf(formula),
        "V_marked": build_v_marked(formula),
        "V_unit": build_v_unit(formula),
        "V_pure": build_v_pure(formula),
        "V_next": build_v_next(formula.num_vars),
        "V_A": build_v_a_static(formula),
        "R_A": assembled_r_a_wires(formula),
    }


def walk_cost_report(formula: CnfFormula) -> dict:
    from .oracles import oracle_cost_report

    n = formula.num_vars
    r_a = assembled_r_a_wires(formula)
    report = oracle_cost_report(formula)
    report.update({
        "walkOperatorWires": r_a["total"],
        "walkOverhead": r_a["overhead"],
        "bound4nPlusW": f"4*{n} + w, w = {r_a['total'] - 4 * n}",
    })
    return report

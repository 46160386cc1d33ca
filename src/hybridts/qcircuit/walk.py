"""Reversible star preparation V_A of the backtracking walk, with the leaf
detector V_leaf that it composes.

Vertex encoding: two wires per variable, a set bit and a value bit (value 0
for unset variables), so a vertex register takes 2n wires. V_A holds a vertex
and a child register, 4n wires, plus logarithmic scratch. On a formula with
n variables, m clauses and widest clause k it has

    4n + k + 9 + n.bit_length() + (n + 1).bit_length() + 2 * max(1, m.bit_length())

wires: 64 at n = 8, 80 at n = 12 and 100 at n = 16 on random 3-CNF at clause
ratio 4.26.

Each component is a compute / copy-out / uncompute sandwich built from
multi-controlled X gates (plus V_A's dense star-preparation blocks). V_A
finds the first free variable with a freezing-counter scan, `_first_hit`:
the counter advances only while nothing has fired, so the pair (counter,
check bit) identifies the firing step and the whole scan uncomputes by
reversal. `_Wires` is the one wire plan: each builder takes its registers
from it in order, vertex register first.
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


class _Wires:
    """Sequential wire plan: each call hands out the next unused wires."""

    def __init__(self) -> None:
        self.count = 0

    def reg(self, size: int) -> tuple[int, ...]:
        out = tuple(range(self.count, self.count + size))
        self.count += size
        return out

    def bit(self) -> int:
        return self.reg(1)[0]


def set_wire(var: int) -> int:
    return 2 * (var - 1)


def val_wire(var: int) -> int:
    return 2 * (var - 1) + 1


def encode_vertex(pairs: dict[int, int], num_vars: int, width: int) -> int:
    """Basis index with the vertex register loaded (other wires zero)."""
    idx = 0
    for var, value in pairs.items():
        if not 1 <= var <= num_vars:
            raise ValueError(f"variable {var} outside 1..{num_vars}")
        if value not in (0, 1):
            raise ValueError(f"variable {var} has value {value!r}, not 0 or 1")
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


def _literal_true_controls(lit: int) -> tuple[tuple[int, int], ...]:
    v = abs(lit)
    return ((set_wire(v), 1), (val_wire(v), 1 if lit > 0 else 0))


def _literal_false_controls(clause) -> tuple[tuple[int, int], ...]:
    return tuple(c for lit in clause for c in _literal_true_controls(-lit))


def _first_hit(circ: Circuit, hits, counter: tuple[int, ...], check: int,
               out_j: tuple[int, ...], out_found: int) -> None:
    """Freezing-counter scan over `hits`, a list of (condition controls, var)
    in scan order: write the var of the first hit whose condition holds, with
    found = 1, then restore the counter and check bit."""
    compute = Circuit(circ.num_wires)
    for step, (condition, _) in enumerate(hits):
        compute.x(check, _reg_pattern(counter, step) + condition)
        append_increment(compute, counter, ((check, 0),))
    circ.extend(compute)
    for step, (_, var) in enumerate(hits):
        controls = _reg_pattern(counter, step) + ((check, 1),)
        for wire, bit in _reg_pattern(out_j, var):
            if bit:
                circ.x(wire, controls)
        circ.x(out_found, controls)
    circ.extend(compute.inverse())


def _alive_counting_program(circ: Circuit, formula: CnfFormula,
                            counter: tuple[int, ...], t_bits: tuple[int, ...],
                            a_bit: int) -> None:
    """Count not-yet-satisfied clauses into `counter`, restoring the
    per-clause scratch."""
    for clause in formula.clauses:
        used = t_bits[:len(clause)]
        for pos, lit in enumerate(clause):
            circ.x(t_bits[pos], _literal_true_controls(lit))
        circ.x(a_bit, tuple((t, 0) for t in used))
        append_increment(circ, counter, ((a_bit, 1),))
        circ.x(a_bit, tuple((t, 0) for t in used))
        for pos in range(len(clause) - 1, -1, -1):
            circ.x(t_bits[pos], _literal_true_controls(clause[pos]))


def build_v_leaf(formula: CnfFormula) -> WalkComponent:
    """b = 1 iff the restriction is decided: every clause satisfied, or some
    clause fully assigned with all literals false."""
    wa = max(1, formula.num_clauses.bit_length())
    wires = _Wires()
    vertex = wires.reg(2 * formula.num_vars)
    b = wires.bit()
    ca, cc = wires.reg(wa), wires.reg(wa)
    z1, z2 = wires.bit(), wires.bit()
    t_bits = wires.reg(formula.max_clause_size)
    a_bit = wires.bit()
    circ = Circuit(wires.count)

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
    return WalkComponent("V_leaf", circ, vertex, {"b": (b,)}, scratch)


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


def build_v_a_static(formula: CnfFormula, depth_bound: int | None = None) -> WalkComponent:
    """Executable star-preparation U_A for the static branching rule (every
    non-leaf vertex branches on its first free variable).

    Output on a non-leaf basis vertex x: (sum over the vertex and its two
    children of |x>|child>) with the root weighting, index register
    disentangled back to zero; a leaf maps to itself. The disentangler reads
    the which-child information out of the child register (branch variable
    set/value bits).
    """
    if depth_bound is not None and depth_bound < 1:
        raise ValueError(f"depth_bound must be at least 1, got {depth_bound}")
    n = formula.num_vars
    nn = depth_bound if depth_bound is not None else n
    leaf = build_v_leaf(formula)
    wires = _Wires()
    vertex, child = wires.reg(2 * n), wires.reg(2 * n)
    hi, lo = wires.reg(2)
    b, isroot = wires.bit(), wires.bit()
    bv = wires.reg(max(1, n.bit_length()))
    bfound = wires.bit()
    fc = wires.reg(max(1, (n + 1).bit_length()))
    fchk = wires.bit()
    leaf_scratch = wires.reg(len(leaf.scratch_wires))
    width = wires.count
    circ = Circuit(width)

    # Leaf bit: reuse the leaf program rebased onto this wire plan.
    leaf_map = dict(zip(leaf.vertex_wires + leaf.outputs["b"] + leaf.scratch_wires,
                        vertex + (b,) + leaf_scratch))
    leaf_program = _rebase(leaf.circuit, leaf_map, width)

    first_free = [(((set_wire(var), 0),), var) for var in range(1, n + 1)]
    circ.extend(leaf_program)
    circ.x(isroot, tuple((set_wire(v), 0) for v in range(1, n + 1)))
    _first_hit(circ, first_free, fc, fchk, bv, bfound)

    # Star preparation on the index qutrit (wires hi, lo).
    uniform = _prep_block(np.array([1.0, 1.0, 1.0, 0.0]))
    root_amp = np.array([1.0, math.sqrt(nn), math.sqrt(nn), 0.0])
    rooted = _prep_block(root_amp)
    circ.unitary((hi, lo), uniform, ((b, 0), (isroot, 0)))
    circ.unitary((hi, lo), rooted, ((b, 0), (isroot, 1)))

    # Controlled V_i: copy the vertex, then set the branch variable.
    for hi_bit, lo_bit, value in ((0, 0, None), (0, 1, 0), (1, 0, 1)):
        gate_ctrl = ((b, 0), (hi, hi_bit), (lo, lo_bit))
        for w, c in zip(vertex, child):
            circ.x(c, gate_ctrl + ((w, 1),))
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
    _first_hit(circ, first_free, fc, fchk, bv, bfound)
    circ.x(isroot, tuple((set_wire(v), 0) for v in range(1, n + 1)))
    circ.extend(leaf_program.inverse())

    scratch = (b, isroot) + bv + (bfound,) + fc + (fchk,) + leaf_scratch
    return WalkComponent("V_A", circ, vertex,
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

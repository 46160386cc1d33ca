"""Dense statevector simulation of reversible and quantum gate circuits.

A phase-permutation gate maps each basis state to a phased basis state: X,
REFLECT0, and UNITARY with a diagonal block, with any controls. One
kernel, `_map_basis`, sends basis indices through a run of such gates.
`simulate` maps all 2^W indices through each maximal run once per call and
applies the run as one gather; `trace_basis` and `ancilla_audit` map only the
inputs they are given. Uncontrolled H acts through a reshape of the state.
Controlled H and non-diagonal UNITARY write in place into `_control_view`,
the amplitudes whose controls hold as a view of the state.

Wire convention: wire 0 is the most significant bit of the basis index, so a
basis state reads left-to-right as wires 0..W-1. Gates carry optional control
lists of (wire, required-bit) pairs; negative controls are (wire, 0).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .. import config

SQRT1_2 = 1.0 / math.sqrt(2.0)

X_KIND = "x"
H_KIND = "h"
UNITARY_KIND = "unitary"
REFLECT0_KIND = "reflect0"

_CLASSICAL_KINDS = {X_KIND, REFLECT0_KIND}


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    block: np.ndarray | None = field(default=None)

    def inverse(self) -> "Gate":
        if self.kind == UNITARY_KIND:
            return Gate(UNITARY_KIND, self.targets, self.controls,
                        block=self.block.conj().T)
        return self  # x, h, reflect0 are self-inverse


class Circuit:
    def __init__(self, num_wires: int):
        if num_wires < 1:
            raise ValueError("a circuit needs at least one wire")
        self.num_wires = num_wires
        self.gates: list[Gate] = []

    # -- construction helpers ------------------------------------------------

    def _check(self, wires, controls):
        used = set()
        for w, bit in [(w, 0) for w in wires] + list(controls):
            if not 0 <= w < self.num_wires:
                raise ValueError(f"wire {w} out of range")
            if w in used:
                raise ValueError(f"wire {w} used twice in one gate")
            if bit not in (0, 1):
                raise ValueError(f"control bit {bit!r} on wire {w} is not 0 or 1")
            used.add(w)

    def x(self, target: int, controls=()):
        controls = tuple(controls)
        self._check([target], controls)
        self.gates.append(Gate(X_KIND, (target,), controls))
        return self

    def h(self, target: int, controls=()):
        controls = tuple(controls)
        self._check([target], controls)
        self.gates.append(Gate(H_KIND, (target,), controls))
        return self

    def unitary(self, targets, block: np.ndarray, controls=()):
        targets = tuple(targets)
        controls = tuple(controls)
        self._check(targets, controls)
        dim = 2 ** len(targets)
        block = np.asarray(block, dtype=complex)
        if block.shape != (dim, dim):
            raise ValueError("block shape does not match the target count")
        if np.abs(block @ block.conj().T - np.eye(dim)).max() > 1e-12:
            raise ValueError("controlled-unitary block is not unitary")
        self.gates.append(Gate(UNITARY_KIND, targets, controls, block=block))
        return self

    def reflect0(self, targets, controls=()):
        targets = tuple(targets)
        controls = tuple(controls)
        self._check(targets, controls)
        self.gates.append(Gate(REFLECT0_KIND, targets, controls))
        return self

    def extend(self, other: "Circuit"):
        if other.num_wires > self.num_wires:
            raise ValueError("cannot extend with a wider circuit")
        self.gates.extend(other.gates)
        return self

    def inverse(self) -> "Circuit":
        inv = Circuit(self.num_wires)
        inv.gates = [g.inverse() for g in reversed(self.gates)]
        return inv


def _is_phase_permutation(gate: Gate) -> bool:
    """True when the gate maps each basis state to a phased basis state: X,
    REFLECT0, and a UNITARY whose block has no nonzero off-diagonal entry,
    with any controls."""
    if gate.kind == UNITARY_KIND:
        block = gate.block
        return not np.count_nonzero(block - np.diag(np.diag(block)))
    return gate.kind in _CLASSICAL_KINDS


def is_classical(circuit: Circuit) -> bool:
    """True when every gate maps basis states to (phased) basis states."""
    return all(_is_phase_permutation(g) for g in circuit.gates)


def _wire_bit(circuit_width: int, wire: int) -> int:
    return 1 << (circuit_width - 1 - wire)


def _control_masks(width: int, controls) -> tuple[int, int]:
    cmask = cwant = 0
    for wire, want in controls:
        bit = _wire_bit(width, wire)
        cmask |= bit
        if want:
            cwant |= bit
    return cmask, cwant


def _basis_array(width: int, indices) -> np.ndarray:
    """Basis indices as int64, or as Python ints past 62 wires."""
    indices = list(indices)
    if not all(0 <= b < 2 ** width for b in indices):
        raise ValueError("basis input out of range")
    return np.array(indices, dtype=np.int64 if width < 63 else object)


def _map_basis(gates, width: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Send basis indices through a gate sequence: returns the output indices
    and their phases (None when every phase is 1). A gate that is not a
    phase permutation is the identity where its controls fail and raises
    ValueError where they hold."""
    idx = idx.copy()
    phase = None
    for gate in gates:
        cmask, cwant = _control_masks(width, gate.controls)
        live = (idx & cmask) == cwant if cmask else None
        if not _is_phase_permutation(gate):
            if live is None or live.any():
                raise ValueError(f"gate kind {gate.kind!r} breaks the classical trace")
            continue
        shifts = [width - 1 - w for w in gate.targets]
        if gate.kind == X_KIND:
            idx ^= 1 << shifts[0] if live is None else live.astype(idx.dtype) * (1 << shifts[0])
            continue
        if gate.kind == REFLECT0_KIND:
            hit = (idx & sum(1 << sh for sh in shifts)) == 0
            factor = np.where(hit if live is None else hit & live, -1.0 + 0j, 1.0 + 0j)
        else:
            k = len(shifts)
            value = 0
            for pos, sh in enumerate(shifts):
                value = value | ((idx >> sh) & 1) << (k - 1 - pos)
            factor = np.diag(gate.block)[value.astype(np.int64)]
            if live is not None:
                factor = np.where(live, factor, 1.0 + 0j)
        phase = factor if phase is None else phase * factor
    return idx, phase


def _compile_run(gates, width: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Invert a phase-permutation run into a gather: new = state[src] * phase."""
    out, phase = _map_basis(gates, width, idx)
    src = np.empty_like(idx)
    src[out] = idx
    if phase is None or np.all(phase == 1):
        return src, None
    gathered = np.empty(idx.size, dtype=complex)
    gathered[out] = phase
    return src, gathered


def _split_runs(gates) -> list:
    """Maximal runs of phase-permutation gates, as tuples, between the other
    gates, kept as they are."""
    parts: list = []
    for phased, group in itertools.groupby(gates, _is_phase_permutation):
        parts.extend([tuple(group)] if phased else group)
    return parts


@dataclass
class TraceResult:
    """Basis-state image of one input through a classical-reversible circuit."""

    input_index: int
    output_index: int
    phase: complex


def trace_basis(circuit: Circuit, basis_input: int) -> TraceResult:
    width = circuit.num_wires
    out, phase = _map_basis(circuit.gates, width, _basis_array(width, [basis_input]))
    return TraceResult(basis_input, int(out[0]),
                       1.0 + 0.0j if phase is None else complex(phase[0]))


def simulate(circuit: Circuit, basis_input: int | None = None,
             state: np.ndarray | None = None) -> np.ndarray:
    """Exact amplitude evolution. Each maximal run of phase-permutation gates
    is mapped over all basis indices and applied as one gather; a run that
    recurs with the same Gate objects (as Circuit.extend repeats them) is
    mapped once per call. A basis input through a classical circuit is traced
    on its own index."""
    width = circuit.num_wires
    dim = 2 ** width
    if dim > config.CIRCUIT_DIM_CAP:
        raise ValueError(f"statevector dimension 2^{width} exceeds the cap")
    if state is not None and basis_input is not None:
        raise ValueError("give either a basis input or a state, not both")
    if state is None:
        start = 0 if basis_input is None else basis_input
        if not 0 <= start < dim:
            raise ValueError("basis input out of range")
        state = np.zeros(dim, dtype=complex)
        if is_classical(circuit):
            trace = trace_basis(circuit, start)
            state[trace.output_index] = trace.phase
            return state
        state[start] = 1.0
    else:
        state = np.asarray(state, dtype=complex).copy()
        if state.shape != (dim,):
            raise ValueError("initial state has the wrong dimension")
        norm = np.linalg.norm(state)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError("initial state is not normalized")

    parts = _split_runs(circuit.gates)
    # A compiled run is kept only while a later occurrence of it remains.
    pending = Counter(tuple(map(id, p)) for p in parts if isinstance(p, tuple))
    compiled: dict[tuple[int, ...], tuple] = {}
    idx = np.arange(dim, dtype=np.int64)
    for part in parts:
        if isinstance(part, Gate):
            state = _apply_gate(state, part, width)
            continue
        key = tuple(map(id, part))
        pending[key] -= 1
        src, phase = compiled.pop(key) if key in compiled else _compile_run(part, width, idx)
        if pending[key]:
            compiled[key] = (src, phase)
        state = state[src] if phase is None else state[src] * phase
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise AssertionError("statevector norm drifted")
    return state


def _control_view(state: np.ndarray, width: int, gate: Gate) -> np.ndarray:
    """The amplitudes whose controls hold, as a view of the state with one
    axis per run of other wires, in wire order, then one axis per target, in
    gate order. Indexing the control axes by their bits keeps it a view, so
    writes to it update the state."""
    shape: list[int] = []
    axis: dict[int, int] = {}
    start = 0
    for wire in sorted([*(w for w, _ in gate.controls), *gate.targets, width]):
        if wire > start:            # a run of untouched wires is one axis
            shape.append(2 ** (wire - start))
        if wire < width:
            axis[wire] = len(shape)
            shape.append(2)
        start = wire + 1
    c, k, ndim = len(gate.controls), len(gate.targets), len(shape)
    tensor = np.moveaxis(state.reshape(shape),
                         [axis[w] for w, _ in gate.controls] + [axis[w] for w in gate.targets],
                         [*range(c), *range(ndim - k, ndim)])
    return tensor[tuple(int(bit) for _, bit in gate.controls)]   # a bool would add an axis


def _apply_gate(state: np.ndarray, gate: Gate, width: int) -> np.ndarray:
    """Apply one H or UNITARY gate to a C-contiguous statevector that the
    caller owns.

    Uncontrolled H is a butterfly over a reshape of the state into a new
    array. Every other gate writes into the state through `_control_view`:
    controlled H as the same butterfly on the target axis, and UNITARY as one
    matmul, rows @ block.T, whose rows run over the other wires in ascending
    order and whose columns are the target patterns, first target most
    significant."""
    if gate.kind == H_KIND and not gate.controls:
        halves = state.reshape(2 ** gate.targets[0], 2, -1)
        a, b = halves[:, 0], halves[:, 1]
        out = np.empty_like(halves)
        out[:, 0] = (a + b) * SQRT1_2
        out[:, 1] = (a - b) * SQRT1_2
        return out.reshape(-1)
    if gate.kind not in (H_KIND, UNITARY_KIND):
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    view = _control_view(state, width, gate)
    if gate.kind == H_KIND:
        a, b = view[..., 0], view[..., 1]
        a[...], b[...] = (a + b) * SQRT1_2, (a - b) * SQRT1_2
    else:
        rows = view.reshape(-1, 2 ** len(gate.targets))
        view[...] = (rows @ gate.block.T).reshape(view.shape)
    return state


def append_increment(circuit: Circuit, register, controls=(), step: int = 1):
    """Ripple increment of a register (wires MSB first) as a multi-controlled-X
    cascade; step=-1 appends the inverse cascade."""
    register = tuple(register)
    controls = tuple(controls)
    k = len(register)
    gates = []
    for pos in range(k):
        # Flip bit `pos` (MSB first) when all less-significant bits are 1.
        lower = [(w, 1) for w in register[pos + 1:]]
        gates.append((register[pos], tuple(lower) + controls))
    if step == -1:
        gates.reverse()
    elif step != 1:
        raise ValueError("step must be +1 or -1")
    for target, ctrls in gates:
        circuit.x(target, ctrls)
    return circuit


def ancilla_audit(circuit: Circuit, inputs, wires) -> bool:
    """Check that the given wires return to their input values on every
    listed basis input (restoration contract for oracle ancillas)."""
    width = circuit.num_wires
    mask = 0
    for w in wires:
        mask |= _wire_bit(width, w)
    basis = _basis_array(width, inputs)
    out, _ = _map_basis(circuit.gates, width, basis)
    return bool(np.all((out & mask) == (basis & mask)))


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

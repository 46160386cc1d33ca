"""Dense statevector simulation of reversible and quantum gate circuits.

A phase-permutation gate maps each basis state to a phased basis state: X,
REFLECT0, and UNITARY with a diagonal block, with any controls. One kernel,
`_map_planes`, sends a set of basis states through a run of such gates on
bit planes: wire w's plane is an integer whose bit s is wire w of state s. X
is an XOR with the AND of its control planes; REFLECT0 and a diagonal block
of ±1 entries flip bits of a sign plane; any other diagonal block unpacks its
target bits and multiplies its factors in gate order. The output indices are
assembled once, at the end. `simulate` maps all 2^W states through each
maximal run once per call and applies the run as one gather; `trace_basis`
maps only the input it is given.

Each maximal run of uncontrolled H gates is applied gate by gate between two
buffers that swap roles. Controlled H and non-diagonal UNITARY write in place
into `_control_view`, the amplitudes whose controls hold as a view of the
state. A basis input starts as a real state and stays real through H gates,
permutations and ±1 phases; the first complex phase or UNITARY makes it
complex, and `simulate` always returns complex amplitudes.

Wire convention: wire 0 is the most significant bit of the basis index, so a
basis state reads left-to-right as wires 0..W-1. Gates carry optional control
lists of (wire, required-bit) pairs; negative controls are (wire, 0).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

SQRT1_2 = 1.0 / math.sqrt(2.0)
# Largest statevector `simulate` allocates: 2^24 complex amplitudes, 256 MB.
CIRCUIT_DIM_CAP = 2 ** 24

X_KIND = "x"
H_KIND = "h"
UNITARY_KIND = "unitary"
REFLECT0_KIND = "reflect0"

_CLASSICAL_KINDS = {X_KIND, REFLECT0_KIND}

# The runs `simulate` groups gates into: gates that map each basis state to a
# phased basis state, uncontrolled H gates, and every other gate.
_PERMUTE, _H_RUN, _DENSE = "permute", "h", "dense"


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    block: np.ndarray | None = field(default=None)
    # The run the gate joins, set once when it is built: _PERMUTE for X,
    # REFLECT0, and a UNITARY whose block has no nonzero off-diagonal entry,
    # with any controls; _H_RUN for an uncontrolled H; _DENSE otherwise.
    run: str = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind == UNITARY_KIND:
            block = self.block
            permutes = not np.count_nonzero(block - np.diag(np.diag(block)))
        else:
            permutes = self.kind in _CLASSICAL_KINDS
        plain_h = self.kind == H_KIND and not self.controls
        object.__setattr__(self, "run", _PERMUTE if permutes else _H_RUN if plain_h else _DENSE)

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


def is_classical(circuit: Circuit) -> bool:
    """True when every gate maps basis states to (phased) basis states."""
    return all(g.run == _PERMUTE for g in circuit.gates)


def _index_planes(width: int) -> list[int]:
    """Bit planes of the basis states 0 .. 2^width - 1, in order."""
    planes, n = [], 1
    for _ in range(width):          # a new wire 0 doubles the states
        planes = [((1 << n) - 1) << n] + [p | p << n for p in planes]
        n *= 2
    return planes


def _basis_planes(width: int, indices) -> tuple[list[int], int]:
    """Bit planes of the given basis indices, and their count."""
    indices = [int(b) for b in indices]
    if not all(0 <= b < 2 ** width for b in indices):
        raise ValueError("basis input out of range")
    nbytes = -(-width // 8)
    raw = np.frombuffer(b"".join(b.to_bytes(nbytes, "big") for b in indices), np.uint8)
    bits = np.unpackbits(raw.reshape(len(indices), nbytes), axis=1)[:, nbytes * 8 - width:]
    rows = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows], len(indices)


def _unpack(planes, n: int) -> np.ndarray:
    """The low n bits of each plane, one uint8 row per plane."""
    nbytes = -(-n // 8)
    raw = np.frombuffer(b"".join(p.to_bytes(nbytes, "little") for p in planes), np.uint8)
    return np.unpackbits(raw.reshape(len(planes), nbytes), axis=1, count=n,
                         bitorder="little")


def _indices(planes, n: int) -> np.ndarray:
    """Basis indices of the n states held in bit planes: int64, or Python
    ints past 62 wires."""
    wide = len(planes) > 62
    out = np.zeros(n, dtype=object if wide else np.int64)
    for plane in planes:            # one at a time: a row is n bytes
        row = _unpack([plane], n)[0]
        out <<= 1
        out |= row.astype(object) if wide else row
    return out


def _sign_patterns(gate: Gate):
    """The target patterns (first target most significant) whose phase is -1,
    when every phase of a phase-permutation gate is ±1; None otherwise."""
    if gate.kind == REFLECT0_KIND:
        return (0,)
    diag = np.diag(gate.block)
    if not np.all((diag == 1) | (diag == -1)):
        return None
    return np.flatnonzero(diag == -1).tolist()


def _map_planes(gates, planes: list[int], n: int) -> tuple[list[int], np.ndarray | None]:
    """Send n basis states, held as bit planes, through a gate sequence:
    returns the output planes and the phases (None when every phase is 1;
    real when every phase is ±1). A gate that is not a phase permutation is
    the identity where its controls fail and raises ValueError where they
    hold."""
    full = (1 << n) - 1
    planes = list(planes)
    comp = [full ^ p for p in planes]         # complement planes, for 0-controls
    sign = 0                                  # states with an odd count of -1 phases
    phase = None                              # other diagonal factors, in gate order
    for gate in gates:
        live = full
        for wire, bit in gate.controls:
            live &= planes[wire] if bit else comp[wire]
        if gate.run != _PERMUTE:
            if live:
                raise ValueError(f"gate kind {gate.kind!r} breaks the classical trace")
            continue
        if gate.kind == X_KIND:
            target = gate.targets[0]
            planes[target] ^= live
            comp[target] ^= live
            continue
        k = len(gate.targets)
        patterns = _sign_patterns(gate)
        if patterns is not None:
            for pattern in patterns:
                hit = live
                for pos, wire in enumerate(gate.targets):
                    hit &= planes[wire] if pattern >> (k - 1 - pos) & 1 else comp[wire]
                sign ^= hit
            continue
        # Index a table of 2^k ones then the diagonal by the live bit and the
        # target bits: the factor is 1 where the controls fail.
        value = np.zeros(n, dtype=np.intp)
        for row in _unpack([live, *(planes[w] for w in gate.targets)], n):
            value = value << 1 | row
        table = np.concatenate([np.ones(2 ** k, dtype=complex), np.diag(gate.block)])
        factor = table[value]
        phase = factor if phase is None else phase * factor
    if sign:
        signs = 1.0 - 2.0 * _unpack([sign], n)[0]
        phase = signs if phase is None else phase * signs
    elif phase is not None and np.all(phase == 1):
        phase = None
    return planes, phase


def _compile_run(gates, width: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Invert a phase-permutation run into a gather: new = state[src] * phase."""
    dim = 2 ** width
    planes, phase = _map_planes(gates, _index_planes(width), dim)
    out = _indices(planes, dim)
    src = np.empty(dim, dtype=np.int64)
    src[out] = np.arange(dim)
    if phase is None:
        return src, None
    gathered = np.empty_like(phase)
    gathered[out] = phase
    return src, gathered


def _split_runs(gates) -> list[tuple[str, tuple[Gate, ...]]]:
    """Maximal runs of gates of one run kind, as (kind, gates)."""
    return [(kind, tuple(run)) for kind, run in itertools.groupby(gates, attrgetter("run"))]


@dataclass
class TraceResult:
    """Basis-state image of one input through a classical-reversible circuit."""

    input_index: int
    output_index: int
    phase: complex


def trace_basis(circuit: Circuit, basis_input: int) -> TraceResult:
    planes, n = _basis_planes(circuit.num_wires, [basis_input])
    out, phase = _map_planes(circuit.gates, planes, n)
    return TraceResult(basis_input, int(_indices(out, n)[0]),
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
    if dim > CIRCUIT_DIM_CAP:
        raise ValueError(f"statevector dimension 2^{width} exceeds the cap")
    if state is not None and basis_input is not None:
        raise ValueError("give either a basis input or a state, not both")
    if state is None:
        start = 0 if basis_input is None else basis_input
        if not 0 <= start < dim:
            raise ValueError("basis input out of range")
        if is_classical(circuit):
            trace = trace_basis(circuit, start)
            state = np.zeros(dim, dtype=complex)
            state[trace.output_index] = trace.phase
            return state
        state = np.zeros(dim)
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
    # Gates compare by identity, so a run is its own key.
    pending = Counter(run for kind, run in parts if kind == _PERMUTE)
    compiled: dict[tuple[Gate, ...], tuple] = {}
    for kind, run in parts:
        if kind == _H_RUN:
            state = _apply_h_run(state, run)
            continue
        if kind == _DENSE:
            for gate in run:
                state = _apply_gate(state, gate, width)
            continue
        pending[run] -= 1
        src, phase = compiled.pop(run) if run in compiled else _compile_run(run, width)
        if pending[run]:
            compiled[run] = (src, phase)
        state = state[src] if phase is None else state[src] * phase
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise AssertionError("statevector norm drifted")
    return state.astype(complex, copy=False)


def _apply_h_run(state: np.ndarray, run) -> np.ndarray:
    """Apply uncontrolled H gates in order, each as the butterfly
    (a ± b) * SQRT1_2 from one buffer into the other; the caller owns the
    state, which becomes one of the two buffers. A complex state is read as
    its float64 (real, imag) pairs, which scale by a real factor alone."""
    spare = np.empty_like(state)
    for gate in run:
        halves = state.view(np.float64).reshape(2 ** gate.targets[0], 2, -1)
        out = spare.view(np.float64)
        pair = out.reshape(halves.shape)
        np.add(halves[:, 0], halves[:, 1], out=pair[:, 0])
        np.subtract(halves[:, 0], halves[:, 1], out=pair[:, 1])
        np.multiply(out, SQRT1_2, out=out)
        state, spare = spare, state
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
    """Apply one controlled H or one UNITARY gate to a C-contiguous
    statevector that the caller owns, writing through `_control_view`:
    controlled H as the butterfly on the target axis, and UNITARY as one
    matmul, rows @ block.T, whose rows run over the other wires in ascending
    order and whose columns are the target patterns, first target most
    significant. A UNITARY makes a real state complex first."""
    if gate.kind == UNITARY_KIND:
        state = state.astype(complex, copy=False)
    elif gate.kind != H_KIND:
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

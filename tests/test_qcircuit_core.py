import random
import weakref

import numpy as np
import pytest

from hybridts.generators import unique_sat_3cnf
from hybridts.qcircuit import core
from hybridts.qcircuit.core import (
    SQRT1_2,
    Circuit,
    append_increment,
    is_classical,
    simulate,
    trace_basis,
)
from hybridts.qcircuit.oracles import grover_circuit
from hybridts.qcircuit.qpe import qpe_p0_formula
from reference import ancilla_audit, export_text, qpe_counter_circuit


# ---------------------------------------------------------------------------
# Gate-by-gate reference: every gate is a masked update of the whole state.
# simulate compiles runs of X, REFLECT0 and diagonal UNITARY gates on bit
# planes into one gather, applies runs of uncontrolled H between two buffers,
# keeps a basis input real until a complex gate, and writes controlled H and
# UNITARY into a view of the state; this applies each gate on its own, in
# complex arithmetic, through index masks over all 2^W basis states.

def wire_bit(width, wire):
    return 1 << (width - 1 - wire)


def control_masks(width, controls):
    cmask = cwant = 0
    for wire, want in controls:
        cmask |= wire_bit(width, wire)
        cwant |= wire_bit(width, wire) if want else 0
    return cmask, cwant


def oracle_apply(state, gate, width, idx):
    cmask, cwant = control_masks(width, gate.controls)
    sel = (idx & cmask) == cwant if cmask else None

    if gate.kind == "x":
        bit = wire_bit(width, gate.targets[0])
        flipped = idx ^ bit
        if sel is None:
            return state[flipped]
        out = state.copy()
        out[sel] = state[flipped[sel]]
        return out

    if gate.kind == "h":
        bit = wire_bit(width, gate.targets[0])
        low = (idx & bit) == 0
        base = low if sel is None else (low & sel)
        i0 = idx[base]
        i1 = i0 | bit
        out = state.copy()
        a, b = state[i0], state[i1]
        out[i0] = (a + b) * SQRT1_2
        out[i1] = (a - b) * SQRT1_2
        return out

    if gate.kind == "reflect0":
        tmask = 0
        for wire in gate.targets:
            tmask |= wire_bit(width, wire)
        zero = (idx & tmask) == 0
        if sel is not None:
            zero &= sel
        out = state.copy()
        out[zero] = -out[zero]
        return out

    assert gate.kind == "unitary"
    k = len(gate.targets)
    tbits = [wire_bit(width, w) for w in gate.targets]
    base = (idx & sum(tbits)) == 0
    bases = idx[base if sel is None else base & sel]
    patterns = [sum(b for pos, b in enumerate(tbits) if (j >> (k - 1 - pos)) & 1)
                for j in range(2 ** k)]
    rows = np.stack([state[bases | pb] for pb in patterns], axis=1)
    new_rows = rows @ gate.block.T
    out = state.copy()
    for j, pb in enumerate(patterns):
        out[bases | pb] = new_rows[:, j]
    return out


def oracle_simulate(circuit, basis_input=None, state=None):
    width = circuit.num_wires
    idx = np.arange(2 ** width, dtype=np.int64)
    if state is None:
        state = np.zeros(2 ** width, dtype=complex)
        state[basis_input or 0] = 1.0
    else:
        state = np.asarray(state, dtype=complex).copy()
    for gate in circuit.gates:
        state = oracle_apply(state, gate, width, idx)
    return state


def oracle_trace(circuit, basis):
    """One basis input gate by gate as a Python int: (output index, phase)."""
    width = circuit.num_wires
    phase = 1 + 0j
    for gate in circuit.gates:
        if any((basis >> (width - 1 - w) & 1) != bit for w, bit in gate.controls):
            continue
        pattern = 0
        for w in gate.targets:
            pattern = pattern << 1 | basis >> (width - 1 - w) & 1
        if gate.kind == "x":
            basis ^= wire_bit(width, gate.targets[0])
        elif gate.kind == "reflect0":
            phase *= -1 if pattern == 0 else 1
        else:
            assert gate.kind == "unitary"
            phase *= gate.block[pattern, pattern]
    return basis, phase


def random_controls(rng, w, used):
    pool = [u for u in range(w) if u not in used]
    return tuple((u, rng.randint(0, 1))
                 for u in rng.sample(pool, k=rng.randint(0, min(2, len(pool)))))


def random_block(rng, gen, w, complex_phases, classical):
    """A circuit fragment of every gate kind simulate distinguishes, and of
    increment cascades."""
    kinds = ["x", "inc", "reflect0", "diag"] + ([] if classical else ["h", "unitary"])
    block = Circuit(w)
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(kinds)
        if kind in ("x", "h"):
            t = rng.randrange(w)
            getattr(block, kind)(t, random_controls(rng, w, {t}))
        elif kind == "inc":
            reg = tuple(rng.sample(range(w), k=rng.randint(1, w)))
            append_increment(block, reg, random_controls(rng, w, set(reg)),
                             step=rng.choice((1, -1)))
        elif kind == "reflect0":
            ts = tuple(rng.sample(range(w), k=rng.randint(1, w)))
            block.reflect0(ts, random_controls(rng, w, set(ts)))
        else:
            ts = tuple(rng.sample(range(w), k=rng.randint(1, min(2, w))))
            dim = 2 ** len(ts)
            if kind == "unitary":
                z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
                u, _ = np.linalg.qr(z)
            elif complex_phases:
                u = np.diag(np.exp(1j * gen.uniform(0, 2 * np.pi, size=dim)))
            else:
                u = np.diag(gen.choice((-1.0, 1.0), size=dim))
            block.unitary(ts, u, random_controls(rng, w, set(ts)))
    return block


def random_circuit(rng, gen, w, complex_phases=False, classical=False):
    """Fragments repeated through extend, so runs recur with the same Gate
    objects, interleaved with single gates."""
    blocks = [random_block(rng, gen, w, complex_phases, classical)
              for _ in range(rng.randint(1, 3))]
    circ = Circuit(w)
    for _ in range(rng.randint(2, 6)):
        circ.extend(rng.choice(blocks))
        if not classical and rng.random() < 0.7:
            circ.h(rng.randrange(w))
    return circ


def test_x_and_h_basics():
    c = Circuit(1)
    c.x(0)
    assert abs(simulate(c)[1] - 1) < 1e-12

    c = Circuit(1)
    c.h(0)
    c.h(0)
    assert abs(simulate(c)[0] - 1) < 1e-12


def test_controls_and_polarity():
    c = Circuit(2)
    c.x(1, ((0, 1),))          # cnot
    assert trace_basis(c, 0b10).output_index == 0b11
    assert trace_basis(c, 0b00).output_index == 0b00

    c = Circuit(2)
    c.x(1, ((0, 0),))          # negative control
    assert trace_basis(c, 0b00).output_index == 0b01


def test_toffoli_multi_control():
    c = Circuit(4)
    c.x(3, ((0, 1), (1, 1), (2, 0)))
    assert trace_basis(c, 0b1100).output_index == 0b1101
    assert trace_basis(c, 0b1110).output_index == 0b1110


def test_reflect0_phase():
    c = Circuit(2)
    c.reflect0((0, 1))
    assert trace_basis(c, 0).phase == -1
    assert trace_basis(c, 1).phase == 1
    state = simulate(c, basis_input=0)
    assert state[0] == -1


def test_random_circuit_inverse_is_identity():
    rng = random.Random(41)
    gen = np.random.default_rng(41)
    for trial in range(12):
        w = rng.randint(2, 5)
        circ = Circuit(w)
        for _ in range(10):
            kind = rng.choice(["x", "h", "mcx", "inc", "reflect0", "unitary"])
            t = rng.randrange(w)
            if kind == "x":
                circ.x(t)
            elif kind == "h":
                circ.h(t)
            elif kind == "mcx":
                pool = [i for i in range(w) if i != t]
                ctrls = tuple((u, rng.randint(0, 1))
                              for u in rng.sample(pool, k=min(2, len(pool))))
                circ.x(t, ctrls)
            elif kind == "inc":
                append_increment(circ, rng.sample(range(w), k=rng.randint(1, w)))
            elif kind == "reflect0":
                circ.reflect0((t,))
            else:
                z = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
                q, _ = np.linalg.qr(z)
                circ.unitary((t,), q)
        full = Circuit(w)
        full.extend(circ)
        full.extend(circ.inverse())
        init = gen.normal(size=2 ** w) + 1j * gen.normal(size=2 ** w)
        init /= np.linalg.norm(init)
        out = simulate(full, state=init)
        assert np.abs(out - init).max() < 1e-9


def test_ripple_incrementer_matches_primitive():
    # The cascade adds step mod 2^k to the register, read most significant
    # wire first, where every control holds, and touches no other wire.
    rng = random.Random(43)
    for _ in range(60):
        w = rng.randint(1, 6)
        reg = rng.sample(range(w), k=rng.randint(1, w))
        pool = [u for u in range(w) if u not in reg]
        controls = tuple((u, rng.randint(0, 1))
                         for u in rng.sample(pool, k=rng.randint(0, len(pool))))
        k = len(reg)
        for step in (1, -1):
            c = Circuit(w)
            append_increment(c, reg, controls, step=step)
            assert len(c.gates) == k
            for basis in range(2 ** w):
                bits = [(basis >> (w - 1 - u)) & 1 for u in range(w)]
                value = sum(bits[u] << (k - 1 - pos) for pos, u in enumerate(reg))
                if all(bits[u] == want for u, want in controls):
                    value = (value + step) % 2 ** k
                tr = trace_basis(c, basis)
                got = [(tr.output_index >> (w - 1 - u)) & 1 for u in range(w)]
                assert sum(got[u] << (k - 1 - pos) for pos, u in enumerate(reg)) == value
                assert [got[u] for u in pool] == [bits[u] for u in pool]
                assert tr.phase == 1
    with pytest.raises(ValueError, match="step must be"):
        append_increment(Circuit(2), (0, 1), step=2)


def test_controlled_increment():
    c = Circuit(3)
    append_increment(c, (1, 2), controls=((0, 1),))
    assert trace_basis(c, 0b100).output_index == 0b101
    assert trace_basis(c, 0b000).output_index == 0b000


def test_trace_fast_path_matches_dense():
    rng = random.Random(42)
    for _ in range(10):
        w = rng.randint(2, 5)
        circ = Circuit(w)
        for _ in range(8):
            t = rng.randrange(w)
            choice = rng.random()
            if choice < 0.5:
                circ.x(t)
            elif choice < 0.8:
                append_increment(circ, rng.sample(range(w), k=2) if w >= 2 else (t,))
            else:
                circ.reflect0((t,))
        assert is_classical(circ)
        basis = rng.randrange(2 ** w)
        tr = trace_basis(circ, basis)
        dense = simulate(circ, basis_input=basis)
        assert dense[tr.output_index] == tr.phase


def test_trace_rejects_live_quantum_gates():
    c = Circuit(2)
    c.h(0)
    with pytest.raises(ValueError):
        trace_basis(c, 0)
    # A controlled quantum gate whose controls fail is the identity.
    c = Circuit(2)
    c.h(1, ((0, 1),))
    assert trace_basis(c, 0b00).output_index == 0


def test_ancilla_audit():
    c = Circuit(3)
    c.x(2, ((0, 1),))
    c.x(1, ((2, 1),))
    c.x(2, ((0, 1),))       # uncompute
    assert ancilla_audit(c, range(4), wires=(2,))
    broken = Circuit(3)
    broken.x(2, ((0, 1),))
    assert not ancilla_audit(broken, [0b100], wires=(2,))


def test_export_text():
    c = Circuit(3)
    c.x(0)
    c.h(1)
    c.x(2, ((0, 1), (1, 0)))
    append_increment(c, (1, 2), ((0, 0),), step=-1)
    c.unitary((0,), np.eye(2))
    assert export_text(c) == (
        "wires 3\n"
        "x 0\n"
        "h 1\n"
        "x 2 ctrl 0+ 1-\n"
        "x 2 ctrl 0-\n"           # decrement: the low bit flips first,
        "x 1 ctrl 2+ 0-\n"        # then the high bit borrows where it became 1
        "unitary 0 block b0\n")


def test_norm_validation():
    c = Circuit(2)
    with pytest.raises(ValueError):
        simulate(c, state=np.array([1.0, 1.0, 0.0, 0.0]))
    c.h(0)
    for bad in (-1, 4, 7):
        with pytest.raises(ValueError, match="basis input out of range"):
            simulate(c, basis_input=bad)
    with pytest.raises(ValueError):
        c.unitary((0,), np.array([[1, 1], [0, 1]], dtype=complex))


@pytest.mark.parametrize("complex_phases", [False, True])
def test_simulate_equals_gate_by_gate_oracle(complex_phases):
    rng = random.Random(71 + complex_phases)
    gen = np.random.default_rng(71 + complex_phases)
    for _ in range(60):
        w = rng.randint(1, 6)
        circ = random_circuit(rng, gen, w, complex_phases)
        init = gen.normal(size=2 ** w) + 1j * gen.normal(size=2 ** w)
        init /= np.linalg.norm(init)
        basis = rng.randrange(2 ** w)
        pairs = [(simulate(circ, state=init), oracle_simulate(circ, state=init)),
                 (simulate(circ, basis_input=basis), oracle_simulate(circ, basis))]
        for got, want in pairs:
            if complex_phases:
                assert np.abs(got - want).max() < 1e-12
            else:
                assert np.array_equal(got, want)


def test_single_dense_gate_equals_oracle_exactly():
    # Targets in any order and any spacing, controls of either polarity on
    # any other wires: the control view must pick the oracle's rows and
    # columns, so the products agree bit for bit.
    rng = random.Random(74)
    gen = np.random.default_rng(74)
    for _ in range(300):
        w = rng.randint(1, 10)
        kind = rng.choice(("h", "unitary"))
        targets = rng.sample(range(w), k=1 if kind == "h" else rng.randint(1, min(3, w)))
        pool = [u for u in range(w) if u not in targets]
        controls = [(u, rng.randint(0, 1))
                    for u in rng.sample(pool, k=rng.randint(0, min(3, len(pool))))]
        circ = Circuit(w)
        if kind == "h":
            circ.h(targets[0], controls)
        else:
            dim = 2 ** len(targets)
            z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
            circ.unitary(targets, np.linalg.qr(z)[0], controls)
        init = gen.normal(size=2 ** w) + 1j * gen.normal(size=2 ** w)
        init /= np.linalg.norm(init)
        assert np.array_equal(simulate(circ, state=init), oracle_simulate(circ, state=init))


@pytest.mark.parametrize("bit", [2, -1, None, "1"])
def test_control_bit_must_be_0_or_1(bit):
    c = Circuit(2)
    with pytest.raises(ValueError, match=f"control bit {bit!r} on wire 0 is not 0 or 1"):
        c.x(1, [(0, bit)])
    assert not c.gates
    # A bool bit is a bit: True controls like 1.
    c.h(1, [(0, True)])
    assert np.array_equal(simulate(c, basis_input=0b00), [1, 0, 0, 0])
    assert np.array_equal(simulate(c, basis_input=0b10), [0, 0, SQRT1_2, SQRT1_2])


def test_compiled_maps_live_only_while_their_run_recurs(monkeypatch):
    rng = random.Random(73)
    gen = np.random.default_rng(73)
    block = random_block(rng, gen, 4, False, classical=True)
    circ = Circuit(4)
    for _ in range(5):
        circ.h(0)
        circ.extend(block)
    for wire in range(4):         # distinct runs, as in a QPE counter circuit
        circ.h(0)
        circ.x(wire)
    compiled, maps, alive = [], [], []
    real = core._compile_run

    def spy(gates, *args):
        alive.append(sum(ref() is not None for ref in maps))
        compiled.append(gates)
        src, phase = real(gates, *args)
        maps.append(weakref.ref(src))
        return src, phase

    monkeypatch.setattr(core, "_compile_run", spy)
    assert np.array_equal(simulate(circ), oracle_simulate(circ))
    assert compiled == [tuple(block.gates)] + [(g,) for g in circ.gates[-7::2]]
    # Only the map just applied is still referenced when the next is built.
    assert max(alive) == 1


def test_trace_and_audit_equal_oracle_on_every_basis_input():
    rng = random.Random(72)
    gen = np.random.default_rng(72)
    for trial in range(40):
        w = rng.randint(1, 5)
        complex_phases = trial % 2 == 1
        circ = random_circuit(rng, gen, w, complex_phases, classical=True)
        assert is_classical(circ)
        images = []
        for basis in range(2 ** w):
            want = oracle_simulate(circ, basis)
            tr = trace_basis(circ, basis)
            assert np.count_nonzero(want) == 1
            if complex_phases:
                assert abs(want[tr.output_index] - tr.phase) < 1e-12
            else:
                assert want[tr.output_index] == tr.phase
            images.append(int(np.flatnonzero(want)[0]))
        for wires in ([], [0], list(range(w)), rng.sample(range(w), k=rng.randint(1, w))):
            bits = sum(1 << (w - 1 - u) for u in wires)
            inputs = rng.sample(range(2 ** w), k=rng.randint(1, 2 ** w))
            restored = all(images[b] & bits == b & bits for b in inputs)
            assert ancilla_audit(circ, inputs, wires) == restored


def test_trace_past_62_wires():
    # Basis indices of a wide circuit exceed int64; the trace must not wrap.
    w = 70
    c = Circuit(w)
    c.x(0)
    append_increment(c, range(1, w), ((0, 1),))
    c.x(w - 1, ((0, 1), (2, 0)))
    c.reflect0((1, 2), ((w - 1, 1),))
    for basis, out, phase in [(7, (1 << 69) | 9, -1),
                              (2 ** w - 1, 2 ** 69 - 1, 1),
                              (2 ** 69 - 1, (1 << 69) | 1, -1)]:  # register wraps
        tr = trace_basis(c, basis)
        assert (tr.output_index, tr.phase) == (out, phase)
    assert ancilla_audit(c, [7, 2 ** w - 1], [1])
    assert not ancilla_audit(c, [7], [0])
    with pytest.raises(ValueError, match="basis input out of range"):
        trace_basis(c, 2 ** w)


@pytest.mark.parametrize("want", [0, 1])
def test_controlled_x_past_63_bits(want):
    # Wire 0 of 70 is bit 2^69, past int64: the controlled flip must grow
    # the Python int, not overflow a fixed-width product.
    w = 70
    for target, control in ((0, 5), (5, 0)):
        c = Circuit(w)
        c.x(target, ((control, want),))
        tbit, cbit = 1 << (w - 1 - target), 1 << (w - 1 - control)
        for basis in (0, 7, cbit | 3, tbit | cbit, 2 ** w - 1):
            hit = bool(basis & cbit) == bool(want)
            assert trace_basis(c, basis).output_index == (basis ^ tbit if hit else basis)
            assert ancilla_audit(c, [basis], [target]) == (not hit)
            assert ancilla_audit(c, [basis], [control])


@pytest.mark.parametrize("complex_phases", [False, True])
def test_simulate_equals_oracle_at_widths_1_to_14(complex_phases):
    # Widths on both sides of 64 basis states (one uint64 word of states).
    rng = random.Random(75 + complex_phases)
    gen = np.random.default_rng(75 + complex_phases)
    for w in range(1, 15):
        for classical in (True, False):
            circ = random_circuit(rng, gen, w, complex_phases, classical)
            init = gen.normal(size=2 ** w) + 1j * gen.normal(size=2 ** w)
            init /= np.linalg.norm(init)
            got, want = simulate(circ, state=init), oracle_simulate(circ, state=init)
            if complex_phases:
                assert np.abs(got - want).max() < 1e-12
            else:
                assert np.array_equal(got, want)


@pytest.mark.parametrize("complex_phases", [False, True])
def test_trace_and_audit_equal_oracle_at_63_to_70_wires(complex_phases):
    rng = random.Random(77 + complex_phases)
    gen = np.random.default_rng(77 + complex_phases)
    for w in range(63, 71):
        circ = random_circuit(rng, gen, w, complex_phases, classical=True)
        inputs = [0, 2 ** w - 1, *(rng.getrandbits(w) for _ in range(6))]
        images = []
        for basis in inputs:
            out, phase = oracle_trace(circ, basis)
            tr = trace_basis(circ, basis)
            assert tr.output_index == out
            if complex_phases:
                assert abs(tr.phase - phase) < 1e-12
            else:
                assert tr.phase == phase
            images.append(out)
        for wires in ([], [0], [w - 1], rng.sample(range(w), k=rng.randint(1, w))):
            bits = sum(wire_bit(w, u) for u in wires)
            restored = all(image & bits == b & bits for b, image in zip(inputs, images))
            assert ancilla_audit(circ, inputs, wires) == restored


def test_real_state_path_equals_complex_path(monkeypatch):
    # A basis input runs as a real state until its first complex phase or
    # UNITARY; the same input given as a complex vector runs complex
    # throughout. Only the signs of zeros may differ.
    seen = []
    h_run = core._apply_h_run

    def spy(state, run):
        seen.append(state.dtype)
        return h_run(state, run)

    monkeypatch.setattr(core, "_apply_h_run", spy)
    rng = random.Random(76)
    gen = np.random.default_rng(76)
    for trial in range(60):
        w = rng.randint(1, 8)
        circ = random_circuit(rng, gen, w, complex_phases=trial % 2 == 1)
        basis = rng.randrange(2 ** w)
        vector = np.zeros(2 ** w, dtype=complex)
        vector[basis] = 1
        init = vector.copy()
        got = simulate(circ, basis_input=basis)
        assert got.dtype == np.complex128
        assert np.array_equal(got, simulate(circ, state=init))
        assert np.array_equal(init, vector) and init.dtype == vector.dtype
    assert np.float64 in seen and np.complex128 in seen
    # H, X and ±1 phases keep a Grover circuit real to the end.
    seen.clear()
    circ, _ = grover_circuit(unique_sat_3cnf(random.Random(4), 5, 12), 3, "naive")
    assert np.array_equal(simulate(circ), oracle_simulate(circ))
    assert seen and set(seen) == {np.dtype(np.float64)}


def test_simulate_leaves_the_initial_state_unchanged():
    rng = random.Random(78)
    gen = np.random.default_rng(78)
    for _ in range(20):
        w = rng.randint(1, 6)
        circ = random_circuit(rng, gen, w, complex_phases=True)
        init = gen.normal(size=2 ** w) + 1j * gen.normal(size=2 ** w)
        init /= np.linalg.norm(init)
        kept = init.copy()
        simulate(circ, state=init)
        assert np.array_equal(init, kept)


def test_grover_diffusion_and_qpe_increment_compile_once(monkeypatch):
    compiled = []
    real = core._compile_run

    def spy(gates, *args):
        compiled.append(gates)
        return real(gates, *args)

    monkeypatch.setattr(core, "_compile_run", spy)
    iterations = 4
    circ, orc = grover_circuit(unique_sat_3cnf(random.Random(5), 5, 12), iterations, "counter")
    reflections = [g for g in circ.gates if g.kind == "reflect0"]
    assert len(reflections) == iterations and len(set(map(id, reflections))) == 1
    simulate(circ)
    # The counter oracle is one run; the diffusion's reflection is another.
    assert compiled == [tuple(orc.circuit.gates), (reflections[0],)]

    compiled.clear()
    t = 6
    hadamard = np.array([[1, 1], [1, -1]]) * SQRT1_2
    u = hadamard @ np.diag(np.exp(2j * np.pi * np.array([0.3, 0.7]))) @ hadamard
    p0_prime, _ = qpe_counter_circuit(u, hadamard[:, 0], t)
    assert abs(p0_prime - qpe_p0_formula(0.3, t)) < 1e-9
    assert len(compiled) == 1
    assert [g.kind for g in compiled[0]] == ["x"] * t.bit_length()

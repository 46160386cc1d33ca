"""Zero-phase detection circuits: the t-ancilla Hadamard sandwich and the
counter-based variant whose zero-counter probability equals p0 exactly.

The counter counts 0..t and therefore needs bit_length(t) wires; the stated
ceil(log t) underallocates at powers of two (the counter would wrap back to
zero after t increments, breaking the equality).
"""

from __future__ import annotations

import numpy as np

from .core import Circuit, append_increment, simulate


def _check_eigenstate(u: np.ndarray, eigenstate: np.ndarray, tol: float = 1e-8) -> complex:
    u = np.asarray(u, dtype=complex)
    psi = np.asarray(eigenstate, dtype=complex)
    if u.shape[0] != u.shape[1] or u.shape[0] != psi.shape[0]:
        raise ValueError("operator and eigenstate dimensions disagree")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("eigenstate is not normalized")
    lam = complex(psi.conj() @ (u @ psi))
    if np.linalg.norm(u @ psi - lam * psi) > tol:
        raise ValueError("input vector is not an eigenvector of the unitary")
    return lam


def _u_wires(u: np.ndarray) -> int:
    m = int(np.log2(u.shape[0]))
    if 2 ** m != u.shape[0]:
        raise ValueError("unitary dimension is not a power of two")
    return m


def qpe_standard(u: np.ndarray, eigenstate: np.ndarray, t: int) -> float:
    """Probability that all t estimate bits read zero: |alpha_0|^2 with
    alpha_0 = 2^-t * prod_j (1 + e^(2 pi i 2^j theta))."""
    _check_eigenstate(u, eigenstate)
    return qpe_zero_probability(u, eigenstate, t)


def qpe_counter(u: np.ndarray, eigenstate: np.ndarray, t: int) -> tuple[float, int]:
    """Counter variant: one reused estimate ancilla plus a counter of
    bit_length(t) wires; returns (p0', ancilla wire count)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_eigenstate(u, eigenstate)
    m = _u_wires(u)
    p = t.bit_length()
    circ = Circuit(1 + p + m)
    a = 0
    counter = tuple(range(1, 1 + p))
    targets = tuple(range(1 + p, 1 + p + m))
    power = np.asarray(u, dtype=complex)
    for _ in range(t):
        circ.h(a)
        circ.unitary(targets, power, ((a, 1),))
        circ.h(a)
        append_increment(circ, counter, ((a, 1),))
        power = power @ power
    init = np.kron(_basis(2 ** (1 + p), 0), np.asarray(eigenstate, dtype=complex))
    state = simulate(circ, state=init)
    probs = np.abs(state.reshape(2, 2 ** p, 2 ** m)) ** 2
    p0_prime = float(probs[:, 0, :].sum())
    return p0_prime, 1 + p


def qpe_zero_probability(u: np.ndarray, state: np.ndarray, t: int) -> float:
    """All-zero-estimate probability of the Hadamard-sandwich circuit on an
    arbitrary (not necessarily eigen-) input state; used for dual-path checks
    against the spectral window mass of walk operators."""
    if t < 1:
        raise ValueError("t must be >= 1")
    m = _u_wires(u)
    circ = Circuit(t + m)
    targets = tuple(range(t, t + m))
    for j in range(t):
        circ.h(j)
    power = np.asarray(u, dtype=complex)
    for j in range(t):
        circ.unitary(targets, power, ((j, 1),))
        power = power @ power
    for j in range(t):
        circ.h(j)
    init = np.kron(_basis(2 ** t, 0), np.asarray(state, dtype=complex))
    final = simulate(circ, state=init)
    amps = final.reshape(2 ** t, 2 ** m)
    return float(np.sum(np.abs(amps[0]) ** 2))


def qpe_p0_formula(theta: float, t: int) -> float:
    """Closed form: p0 = prod_(j<t) cos^2(pi 2^j theta)."""
    out = 1.0
    for j in range(t):
        out *= np.cos(np.pi * (2 ** j) * theta) ** 2
    return float(out)


def _basis(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v

"""Zero-phase detection by phase estimation, from the spectral product.

The test reads one number: the probability that all t estimate bits of phase
estimation read 0. The all-zero amplitude of the estimate register is

    2^-t * prod_(j<t) (I + U^(2^j)) psi,

so t steps of v <- (v + P v) / 2, P <- P @ P give it on 2^m amplitudes, where
the circuit holds 2^(t+m). The counter variant (one reused estimate ancilla
and a counter of bit_length(t) wires) has the same zero-counter probability:
the counter stays at 0 only while the ancilla reads 0 after every round. Its
width comes from that wire plan; the counter counts 0..t, so ceil(log t)
wires would wrap back to zero at powers of two.

Both circuits, the Hadamard sandwich and the counter with its increment
cascade, live in `tests/reference.py` as the oracle that this product is
compared with.
"""

from __future__ import annotations

import numpy as np


def _checked(u: np.ndarray, state: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=complex)
    psi = np.asarray(state, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be a square matrix, got shape {u.shape}")
    dim = u.shape[0]
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"unitary dimension {dim} is not a power of two")
    if psi.shape != (dim,):
        raise ValueError(f"state has shape {psi.shape}, but the unitary has dimension {dim}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return u, psi


def _check_eigenstate(u: np.ndarray, eigenstate: np.ndarray, t: int) -> None:
    u, psi = _checked(u, eigenstate, t)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("eigenstate is not normalized")
    lam = complex(psi.conj() @ (u @ psi))
    if np.linalg.norm(u @ psi - lam * psi) > 1e-8:
        raise ValueError("input vector is not an eigenvector of the unitary")


def qpe_standard(u: np.ndarray, eigenstate: np.ndarray, t: int) -> float:
    """Probability that all t estimate bits read zero: |alpha_0|^2 with
    alpha_0 = 2^-t * prod_j (1 + e^(2 pi i 2^j theta))."""
    _check_eigenstate(u, eigenstate, t)
    return qpe_zero_probability(u, eigenstate, t)


def qpe_counter(u: np.ndarray, eigenstate: np.ndarray, t: int) -> tuple[float, int]:
    """Counter variant: one reused estimate ancilla plus a counter of
    bit_length(t) wires; returns (p0', ancilla wire count)."""
    return qpe_standard(u, eigenstate, t), 1 + t.bit_length()


def qpe_zero_probability(u: np.ndarray, state: np.ndarray, t: int) -> float:
    """All-zero-estimate probability of t-bit phase estimation on an
    arbitrary (not necessarily eigen-) input state; used for dual-path checks
    against the spectral window mass of walk operators."""
    power, v = _checked(u, state, t)
    for _ in range(t):
        v = (v + power @ v) / 2
        power = power @ power
    return float(np.vdot(v, v).real)


def qpe_p0_formula(theta: float, t: int) -> float:
    """Closed form: p0 = prod_(j<t) cos^2(pi 2^j theta)."""
    out = 1.0
    for j in range(t):
        out *= np.cos(np.pi * (2 ** j) * theta) ** 2
    return float(out)

import math

import numpy as np
import pytest

from hybridts.qcircuit.qpe import (
    qpe_counter,
    qpe_p0_formula,
    qpe_standard,
    qpe_zero_probability,
)
from hybridts.qwalk import build_walk_operator
from hybridts.treesearch import SearchTree


def random_unitary(rng, m):
    dim = 2 ** m
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def eigenpair(rng, u):
    vals, vecs = np.linalg.eig(u)
    pick = int(rng.integers(0, u.shape[0]))
    psi = vecs[:, pick] / np.linalg.norm(vecs[:, pick])
    theta = float(np.angle(vals[pick]) / (2 * math.pi))
    return psi, theta


def test_theta_zero_gives_p0_one():
    u = np.eye(2, dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    assert qpe_standard(u, psi, 3) == pytest.approx(1.0)
    p0p, anc = qpe_counter(u, psi, 3)
    assert p0p == pytest.approx(1.0)
    assert anc == 1 + (3).bit_length()


def test_theta_half_t1_gives_zero():
    u = np.diag([np.exp(1j * math.pi), 1.0])
    psi = np.array([1, 0], dtype=complex)
    assert qpe_standard(u, psi, 1) == pytest.approx(0.0, abs=1e-12)
    assert qpe_counter(u, psi, 1)[0] == pytest.approx(0.0, abs=1e-12)


def test_product_formula_random_theta():
    rng = np.random.default_rng(61)
    for _ in range(20):
        u = random_unitary(rng, int(rng.integers(1, 3)))
        psi, theta = eigenpair(rng, u)
        for t in (1, 2, 3, 4):
            assert qpe_standard(u, psi, t) == pytest.approx(
                qpe_p0_formula(theta, t), abs=1e-8)


def test_p0_equals_p0_prime_including_power_of_two_t():
    rng = np.random.default_rng(62)
    worst = 0.0
    for _ in range(25):
        u = random_unitary(rng, int(rng.integers(1, 3)))
        psi, _ = eigenpair(rng, u)
        for t in (1, 2, 3, 4, 5, 6):
            p0 = qpe_standard(u, psi, t)
            p0p, anc = qpe_counter(u, psi, t)
            worst = max(worst, abs(p0 - p0p))
            # counter from 0 to t: bit_length(t) wires plus the estimate wire
            assert anc == 1 + t.bit_length()
    assert worst <= 1e-9


def test_counter_wire_count_matches_ceil_log_off_powers():
    # Away from powers of two bit_length(t) == ceil(log2 t).
    for t in (3, 5, 6, 7):
        assert t.bit_length() == math.ceil(math.log2(t))


def test_eigenstate_validation():
    rng = np.random.default_rng(63)
    u = random_unitary(rng, 1)
    bad = np.array([1.0, 0.0], dtype=complex)
    vals, vecs = np.linalg.eig(u)
    if np.linalg.norm(u @ bad - (bad.conj() @ u @ bad) * bad) > 1e-8:
        with pytest.raises(ValueError):
            qpe_standard(u, bad, 2)
    with pytest.raises(ValueError):
        qpe_standard(u, np.array([2.0, 0.0], dtype=complex), 2)


def test_dual_path_against_walk_spectrum():
    # 4-vertex walk tree: the circuit's all-zero-estimate probability on |r>
    # equals the spectral sum of window masses under the product formula.
    tree = SearchTree(2, [-1, 0, 1, 1], [None] * 4, [0, 1, 2, 2],
                      [False, False, True, False], 2)
    op = build_walk_operator(tree)
    profile = op.phase_profile()
    root = np.zeros(4)
    root[0] = 1.0
    for t in (2, 4, 6):
        circuit = qpe_zero_probability(op.product, root, t)
        spectral = sum(mass * qpe_p0_formula(phase / (2 * math.pi), t)
                       for phase, mass in profile)
        assert abs(circuit - spectral) < 1e-6

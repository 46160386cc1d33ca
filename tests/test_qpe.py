import math
import random

import numpy as np
import pytest

from hybridts.generators import random_kcnf
from hybridts.qcircuit.qpe import (
    qpe_counter,
    qpe_p0_formula,
    qpe_standard,
    qpe_zero_probability,
)
from hybridts.treesearch import DNCPPSZ, DPLL, EngineConfig, SearchTree, tree_stats
from reference import qpe_counter_circuit, qpe_sandwich_zero_probability
from test_qwalk import oracle_reflections, schur_profile


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
            p0p, anc = qpe_counter_circuit(u, psi, t)
            worst = max(worst, abs(p0 - p0p))
            # counter from 0 to t: bit_length(t) wires plus the estimate wire
            assert anc == qpe_counter(u, psi, t)[1] == 1 + t.bit_length()
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


def random_state(rng, m):
    z = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
    return z / np.linalg.norm(z)


def test_product_equals_both_circuit_oracles():
    # The product sums the circuits' terms in another order: equal within
    # 1e-12, not bit for bit. t runs past 1, 2, 4 and 8, where the counter
    # gains a wire.
    rng = np.random.default_rng(64)
    worst = 0.0
    for m in (1, 3, 5):
        u = random_unitary(rng, m)
        psi, _ = eigenpair(rng, u)
        state = random_state(rng, m)
        for t in range(1, 12):
            p0, anc = qpe_counter(u, psi, t)
            sandwich = qpe_sandwich_zero_probability(u, psi, t)
            counter, counter_anc = qpe_counter_circuit(u, psi, t)
            assert anc == counter_anc == 1 + t.bit_length()
            assert qpe_standard(u, psi, t) == p0
            worst = max(worst, abs(p0 - sandwich), abs(p0 - counter))
            p = qpe_zero_probability(u, state, t)
            worst = max(worst, abs(p - qpe_sandwich_zero_probability(u, state, t)),
                        abs(p - qpe_counter_circuit(u, state, t)[0]))
    assert worst <= 1e-12


@pytest.mark.parametrize("u, state, t, message", [
    (np.eye(2)[:1], [1, 0], 2, r"unitary must be a square matrix, got shape \(1, 2\)"),
    (np.ones(4), [1, 0], 2, r"unitary must be a square matrix, got shape \(4,\)"),
    (np.eye(3), [1, 0, 0], 2, "unitary dimension 3 is not a power of two"),
    (np.eye(4), [1, 0], 2, r"state has shape \(2,\), but the unitary has dimension 4"),
    (np.eye(2), [[1, 0]], 2, r"state has shape \(1, 2\), but the unitary has dimension 2"),
    (np.eye(2), [1, 0], 0, "t must be >= 1, got 0"),
])
def test_dimension_errors_are_loud(u, state, t, message):
    for call in (qpe_zero_probability, qpe_standard, qpe_counter):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(u, np.asarray(state, dtype=complex), t)


def engine_trees(count=20, max_size=200):
    rng = random.Random(65)
    configs = (EngineConfig(kind=DPLL),
               EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",), s=1))
    trees = []
    while len(trees) < count:
        n = rng.randint(6, 10)
        f = random_kcnf(rng, n, round(4.26 * n))
        tree = tree_stats(f, configs[len(trees) % 2], collect_tree=True).tree
        if tree.size <= max_size:
            trees.append(tree)
    return trees


def spectral_p0(profile, t):
    return sum(mass * qpe_p0_formula(phase / (2 * math.pi), t) for phase, mass in profile)


def test_dual_path_against_walk_spectrum():
    # The product's all-zero-estimate probability on |r> equals the spectral
    # sum of window masses under the product formula, with the masses from
    # the real Schur form of W. W is padded with the identity to a power of
    # two; the padding carries no root mass.
    small = SearchTree(2, [-1, 0, 1, 1], [None] * 4, [False, False, True, False], 2)
    trees = engine_trees()
    assert any(any(tree.marked) for tree in trees)
    assert not all(any(tree.marked) for tree in trees)
    for tree in [small] + trees:
        r_a, r_b = oracle_reflections(tree)
        w = r_b @ r_a
        profile = schur_profile(w)
        dim = 1 << (tree.size - 1).bit_length()
        padded = np.eye(dim)
        padded[:tree.size, :tree.size] = w
        root = np.zeros(dim)
        root[0] = 1.0
        for t in (2, 4, 6, 8):
            assert abs(qpe_zero_probability(padded, root, t) - spectral_p0(profile, t)) < 1e-9

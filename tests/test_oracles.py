import math
import random

import numpy as np
import pytest

from hybridts.formula import CnfFormula
from hybridts.generators import (
    brute_force_count,
    random_kcnf,
    truth_table,
    unique_sat_3cnf,
)
from hybridts.qcircuit.core import Circuit, append_increment, simulate
from hybridts.qcircuit.oracles import (
    build_oracle,
    clause_oracle_counter,
    clause_oracle_naive,
    closed_form_success,
    grover_angle,
    grover_circuit,
    grover_search,
    optimal_iterations,
)
import reference
from reference import brute_force_models, oracle_phases
from test_qcircuit_core import oracle_simulate

F = CnfFormula.from_clauses


def test_single_clause_truth_table():
    # (-x or -y or z) on input (1,1,0): clause false, so the input is unmarked.
    f = F(3, [[-1, -2, 3]])
    for kind in ("naive", "counter"):
        phases = oracle_phases(build_oracle(f, kind))
        idx = 0b110  # x=1, y=1, z=0 on wires 0,1,2
        assert phases[idx] == 1.0
        truth = truth_table(f)
        assert np.array_equal(phases < 0, truth)


def test_oracle_phase_exhaustive_both_variants():
    rng = random.Random(51)
    for _ in range(12):
        n = rng.randint(3, 6)
        f = random_kcnf(rng, n, rng.randint(1, 8))
        want = np.where(truth_table(f), -1.0, 1.0)
        for kind in ("naive", "counter"):
            phases = oracle_phases(build_oracle(f, kind))
            assert np.abs(phases - want).max() < 1e-9


def test_oracle_ancillas_restored():
    # oracle_phases already asserts all amplitude mass returns to the
    # ancilla-zero slice; run it on a formula with interacting clauses.
    f = F(4, [[1, 2, 3], [-1, -2, 4], [2, -3, -4]])
    for kind in ("naive", "counter"):
        oracle_phases(build_oracle(f, kind))


def test_wire_counts():
    f = F(4, [[1, 2, 3], [2, 3, 4], [-1, -4]])
    naive = clause_oracle_naive(f)
    counter = clause_oracle_counter(f)
    assert naive.num_wires == 4 + 3 + 2            # n + m + 2
    assert counter.num_wires == 4 + 2 + 1          # n + floor(log 3) + 2


@pytest.mark.parametrize("num_vars", [0, 2])
def test_unique_sat_3cnf_needs_three_variables(num_vars):
    with pytest.raises(ValueError, match="need at least k variables"):
        unique_sat_3cnf(random.Random(1), num_vars, 4)


def test_incrementer_width_cost():
    c = Circuit(3)
    append_increment(c, (0, 1, 2))
    assert c.num_wires == 3
    assert len(c.gates) == 3                       # one X per register wire


def test_grover_single_solution_n2():
    f = F(2, [[1], [2]])
    res = grover_search(f, 1)
    assert abs(res.success_probability - 1.0) < 1e-9
    theta = grover_angle(2, 1)
    assert abs(closed_form_success(1, theta) - 1.0) < 1e-12
    assert res.assignment == (1, 1)


def test_grover_all_solutions_zero_iterations():
    # M = 2^n: theta = pi/2 and the closed form is 1 at zero iterations; the
    # uniform state already measures a solution with certainty.
    theta = grover_angle(3, 8)
    assert closed_form_success(0, theta) == pytest.approx(1.0)
    # Generic zero-iteration law: success = M / 2^n.
    f = F(3, [[1, 2, 3]])
    res = grover_search(f, 0)
    assert res.success_probability == pytest.approx(7 / 8)


def test_grover_closed_form_random():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randint(3, 7)
        f = random_kcnf(rng, n, rng.randint(2, 10))
        m = brute_force_count(f)
        if m == 0:
            continue
        k = min(optimal_iterations(n, m), 8)
        res = grover_search(f, k)
        theta = grover_angle(n, m)
        assert abs(res.success_probability - closed_form_success(k, theta)) < 1e-6


def test_grover_counter_oracle_large_n():
    rng = random.Random(53)
    f = random_kcnf(rng, 10, 24)
    m = brute_force_count(f)
    res = grover_search(f, 2, oracle="counter")
    theta = grover_angle(10, m)
    assert abs(res.success_probability - closed_form_success(2, theta)) < 1e-6
    assert res.num_wires == 10 + 24 .bit_length() + 1


def test_optimal_iteration_count():
    assert optimal_iterations(2, 1) == 1
    assert optimal_iterations(4, 16) == 0
    assert optimal_iterations(4, 0) == math.ceil(math.pi / 4 * 4)


def test_grover_equals_gate_by_gate_oracle():
    rng = random.Random(54)
    for _ in range(8):
        n = rng.randint(3, 6)
        f = random_kcnf(rng, n, rng.randint(1, 9))
        for kind in ("naive", "counter"):
            circ, _ = grover_circuit(f, rng.randint(0, 3), kind)
            assert np.array_equal(simulate(circ), oracle_simulate(circ))


def test_qpe_circuits_equal_gate_by_gate_oracle(monkeypatch):
    gen = np.random.default_rng(55)
    cases = []
    for m, t in ((1, 1), (1, 4), (2, 3), (2, 5), (3, 2)):
        z = gen.normal(size=(2 ** m, 2 ** m)) + 1j * gen.normal(size=(2 ** m, 2 ** m))
        u, _ = np.linalg.qr(z)
        _, vecs = np.linalg.eig(u)
        psi = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        state = gen.normal(size=2 ** m) + 1j * gen.normal(size=2 ** m)
        cases.append((u, psi, state / np.linalg.norm(state), t))
    # A diagonal U makes its controlled powers phase permutations.
    cases.append((np.diag(np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.85]))),
                  np.array([0, 0, 1, 0], dtype=complex), np.full(4, 0.5, dtype=complex), 3))

    def run_all():
        return [(reference.qpe_counter_circuit(u, psi, t)[0],
                 reference.qpe_sandwich_zero_probability(u, state, t))
                for u, psi, state, t in cases]

    fast = run_all()
    monkeypatch.setattr(reference, "simulate", oracle_simulate)
    for got, want in zip(fast, run_all()):
        assert np.abs(np.subtract(got, want)).max() < 1e-12


def test_grover_counter_oracle_16_wires():
    rng = random.Random(56)
    f = unique_sat_3cnf(rng, 10, 30)
    iterations = optimal_iterations(10, 1)
    res = grover_search(f, iterations, oracle="counter")
    assert res.num_wires == 16
    theta = grover_angle(10, 1)
    assert abs(res.success_probability - closed_form_success(iterations, theta)) < 1e-9
    assert res.assignment in brute_force_models(f)

import random

import pytest

from hybridts.formula import CnfFormula, index_width
from hybridts.generators import (
    brute_force_satisfiable,
    pad_to_3cnf,
    random_kcnf,
    truth_table,
)
from hybridts.latticesat import (
    Corner,
    LatticeInstance,
    PlaquetteConstraint,
    ReductionArtifacts,
    cell_var,
    equisat_check,
    lattice_to_cnf,
    random_lattice_instance,
    reduce_3sat_to_lattice,
    validate_lattice,
)
from hybridts.treesearch import EngineConfig, Verdict, dpll_solve
from reference import PartialAssignment, Predicate, evaluate_predicate, locality_check

F = CnfFormula.from_clauses


def copy_chain_values(model: tuple[int, ...], inst_side: int,
                      artifacts: ReductionArtifacts, num_vars: int,
                      num_clauses_padded: int) -> dict[int, set[int]]:
    """Values taken by all copies of each original variable in a model."""
    out: dict[int, set[int]] = {}
    for (var, _l), cell in artifacts.placement.items():
        if var > num_vars:
            continue
        idx = cell_var(cell, inst_side) - 1
        out.setdefault(var, set()).add(model[idx])
    return out


def mixed_width_cnf(rng: random.Random) -> CnfFormula:
    """Random CNF over n 3..7 with 1..8 clauses of 1..3 distinct variables,
    so that the reduction pads the short ones."""
    n = rng.randint(3, 7)
    clauses = []
    for _ in range(rng.randint(1, 8)):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, 3))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return F(n, clauses)


def test_validate_examples():
    good = LatticeInstance(2, (PlaquetteConstraint(0, 0, (
        Corner(0, 0, True), Corner(0, 1, False), Corner(1, 0, True))),))
    ok, violations = validate_lattice(good)
    assert ok and not violations

    off_plaquette = LatticeInstance(3, (PlaquetteConstraint(0, 0, (
        Corner(0, 0, True), Corner(2, 2, False), Corner(1, 0, True))),))
    ok, violations = validate_lattice(off_plaquette)
    assert not ok and any("off its plaquette" in v for v in violations)

    no_three = LatticeInstance(2, (PlaquetteConstraint(0, 0, (
        Corner(0, 0, True), Corner(1, 1, False))),))
    ok, violations = validate_lattice(no_three)
    assert not ok


def test_lattice_to_cnf_row_major():
    inst = LatticeInstance(3, (PlaquetteConstraint(0, 0, (
        Corner(0, 0, True), Corner(1, 0, False), Corner(0, 1, True))),))
    cnf = lattice_to_cnf(inst)
    assert cnf.num_vars == 9
    assert cnf.clauses == ((1, 2, -4),)
    assert index_width(cnf) <= inst.grid_side + 1


def test_lattice_to_cnf_horizontal_pairs_width_one():
    cons = []
    for q in range(2):
        cons.append(PlaquetteConstraint(0, q, (
            Corner(0, q, True), Corner(0, q + 1, False))))
    cons.append(PlaquetteConstraint(1, 0, (
        Corner(1, 0, True), Corner(1, 1, True), Corner(2, 0, True))))
    inst = LatticeInstance(3, tuple(cons))
    cnf = lattice_to_cnf(inst)
    widths = [max(abs(l) for l in c) - min(abs(l) for l in c)
              for c in cnf.clauses if len(c) >= 2]
    assert 1 in widths


def test_random_lattice_instance():
    inst = random_lattice_instance(3, 6, 0.5)
    assert validate_lattice(inst)[0]
    assert inst == random_lattice_instance(3, 6, 0.5)

    dense = random_lattice_instance(1, 5, 1.0)
    assert len(dense.constraints) == 16   # every plaquette constrained

    cnf = lattice_to_cnf(inst)
    assert index_width(cnf) <= inst.grid_side + 1
    assert locality_check(cnf, inst.grid_side + 1, 30, seed=1)["ok"]


def test_reduce_single_clause():
    f = F(3, [[1, 2, 3]])
    inst, artifacts = reduce_3sat_to_lattice(f)
    assert validate_lattice(inst)[0]
    assert equisat_check(f, inst)["agree"]
    assert artifacts.grid_side == inst.grid_side
    assert (1, 0) in artifacts.placement


def test_reduce_unsat_pair():
    f = F(1, [[1], [-1]])
    inst, _ = reduce_3sat_to_lattice(f)
    check = equisat_check(f, inst)
    assert check["agree"] and check["reduced"] == "unsat"


def test_reduce_random_equisat():
    rng = random.Random(91)
    formulas = [random_kcnf(rng, rng.randint(3, 7), rng.randint(2, 7)) for _ in range(12)]
    formulas += [mixed_width_cnf(rng) for _ in range(30)]
    for f in formulas:
        inst, artifacts = reduce_3sat_to_lattice(f)
        assert validate_lattice(inst)[0]
        cnf = lattice_to_cnf(inst)
        assert index_width(cnf) <= inst.grid_side + 1
        check = equisat_check(f, inst)
        assert check["agree"]
        assert (check["source"] == "sat") == brute_force_satisfiable(f)


def test_reduction_is_deterministic_and_polynomial():
    rng = random.Random(92)
    f = random_kcnf(rng, 5, 6)
    inst1, _ = reduce_3sat_to_lattice(f)
    inst2, _ = reduce_3sat_to_lattice(f)
    assert inst1 == inst2
    padded = pad_to_3cnf(f)
    # grid side <= c * n * L for a small measured constant
    assert inst1.grid_side <= 6 * padded.num_vars * len(padded.clauses)
    # Variable wires are 3 columns apart and clauses 4 rows apart.
    assert inst1.grid_side <= max(4 * len(padded.clauses), 3 * padded.num_vars) + 2


def test_copy_chain_soundness():
    rng = random.Random(93)
    formulas = [random_kcnf(rng, rng.randint(3, 6), rng.randint(2, 6)) for _ in range(8)]
    formulas += [mixed_width_cnf(rng) for _ in range(22)]
    done = 0
    for f in formulas:
        inst, artifacts = reduce_3sat_to_lattice(f)
        result = dpll_solve(lattice_to_cnf(inst), EngineConfig())
        assert (result.verdict == Verdict.SAT) == brute_force_satisfiable(f)
        if result.verdict != Verdict.SAT:
            continue
        values = copy_chain_values(result.model, inst.grid_side, artifacts,
                                   f.num_vars, 0)
        assert all(len(v) == 1 for v in values.values())
        assignment = {var: vals.pop() for var, vals in values.items()}
        a = PartialAssignment.of(f.num_vars, assignment)
        assert evaluate_predicate(f, a) == Predicate.SATISFIED
        done += 1
    assert done >= 20


def test_corrupted_instance_negative_control():
    # Dropping an equality plaquette can only loosen the reduced instance;
    # the checker must report whatever the solver finds, faithfully.
    f = F(1, [[1], [-1]])     # unsat source
    inst, _ = reduce_3sat_to_lattice(f)
    two_corner = [i for i, c in enumerate(inst.constraints)
                  if len(c.corners) == 2]
    corrupted = LatticeInstance(inst.grid_side, tuple(
        c for i, c in enumerate(inst.constraints) if i != two_corner[0]))
    verdict = dpll_solve(lattice_to_cnf(corrupted), EngineConfig()).verdict
    check = equisat_check(f, corrupted)
    assert check["reduced"] == verdict.value
    assert check["agree"] == (verdict != Verdict.SAT)


def test_reduce_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reduce_3sat_to_lattice(F(4, [[1, 2, 3, 4]]))
    with pytest.raises(ValueError):
        reduce_3sat_to_lattice(CnfFormula.from_clauses(1, []))


def test_pad_to_3cnf_preserves_models():
    rng = random.Random(94)
    for _ in range(20):
        f = random_kcnf(rng, rng.randint(2, 5), rng.randint(1, 6), k=2)
        padded = pad_to_3cnf(f)
        assert all(len(c) == 3 for c in padded.clauses)
        assert brute_force_satisfiable(f) == brute_force_satisfiable(padded)
        # Model counts over the original variables are preserved exactly.
        originals = truth_table(f).sum()
        lifted = truth_table(padded).reshape(
            2 ** f.num_vars, -1).sum(axis=1).astype(bool).sum() \
            if padded.num_vars > f.num_vars else truth_table(padded).sum()
        assert bool(originals) == bool(lifted)

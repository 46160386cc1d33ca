import random

import pytest

from hybridts.formula import (
    UNSET,
    CnfFormula,
    PartialAssignment,
    Predicate,
    SImplication,
    evaluate_predicate,
    index_width,
    parse_dimacs,
    pure_literal_rule,
    restrict,
    s_implied,
    s_implied_over_clauses,
    serialize_dimacs,
    unit_rule,
)
from hybridts.generators import brute_force_satisfiable, random_kcnf


def F(n, clauses):
    return CnfFormula.from_clauses(n, clauses)


def A(n, pairs=None):
    return PartialAssignment.of(n, pairs or {})


def test_restrict_satisfied_clause_dropped():
    assert restrict(F(2, [[1, 2]]), A(2, {1: 1})).is_empty


def test_restrict_removes_false_literal():
    assert restrict(F(2, [[1, 2]]), A(2, {1: 0})).clauses == ((2,),)


def test_restrict_preserves_empty_clause():
    restricted = restrict(F(1, [[1], [-1]]), A(1, {1: 1}))
    assert restricted.has_empty_clause


def test_restrict_dimension_mismatch():
    with pytest.raises(ValueError):
        restrict(F(2, [[1, 2]]), A(3))


def test_predicate_examples():
    assert evaluate_predicate(F(1, [[1]]), A(1, {1: 1})) == Predicate.SATISFIED
    assert evaluate_predicate(F(1, [[1]]), A(1, {1: 0})) == Predicate.CONTRADICTION
    assert evaluate_predicate(F(2, [[1, 2]]), A(2)) == Predicate.UNDETERMINED


def test_full_assignment_always_decides():
    rng = random.Random(1)
    for _ in range(60):
        f = random_kcnf(rng, rng.randint(3, 8), rng.randint(2, 20))
        full = PartialAssignment(tuple(rng.randint(0, 1) for _ in range(f.num_vars)))
        assert evaluate_predicate(f, full) != Predicate.UNDETERMINED


def test_unit_rule_examples():
    assert unit_rule(F(3, [[2], [1, 3]]), A(3)) == (2, 1)
    assert unit_rule(F(2, [[1, 2]]), A(2, {1: 0})) == (2, 1)
    assert unit_rule(F(2, [[1, 2]]), A(2)) is None


def test_unit_rule_rejects_contradiction():
    with pytest.raises(ValueError):
        unit_rule(F(1, [[1], [-1]]), A(1, {1: 1}))


def test_pure_literal_examples():
    assert pure_literal_rule(F(2, [[1, 2], [1, -2]]), A(2)) == (1, 1)
    # x2 disappeared after the clause is dropped: assigned true.
    assert pure_literal_rule(F(2, [[1, 2]]), A(2, {1: 1})) == (2, 1)
    assert pure_literal_rule(F(2, [[1, 2], [-1, -2]]), A(2)) is None


def test_s_implied_examples():
    assert s_implied(F(1, [[-1]]), A(1), 1, 1) == SImplication.FORCED_FALSE
    assert s_implied(F(3, [[1, 3], [1, -3]]), A(3), 1, 2) == SImplication.FORCED_TRUE
    assert s_implied(F(2, [[1, 2]]), A(2), 1, 1) == SImplication.FREE


def test_s_implied_contradiction_signal():
    f = F(1, [[1], [-1]])
    assert s_implied(f, A(1), 1, 2) == SImplication.CONTRADICTION


def test_s_implied_s1_matches_unit_rule():
    rng = random.Random(3)
    for _ in range(80):
        f = random_kcnf(rng, rng.randint(3, 7), rng.randint(2, 15))
        a = A(f.num_vars)
        hit = unit_rule(f, a)
        for var in range(1, f.num_vars + 1):
            verdict = s_implied(f, a, var, 1)
            forced = verdict in (SImplication.FORCED_TRUE, SImplication.FORCED_FALSE)
            unit_here = hit is not None and any(
                len(c) == 1 and abs(c[0]) == var for c in f.clauses)
            assert forced == unit_here


def test_s_implied_monotone_in_s_on_satisfiable_restrictions():
    rng = random.Random(4)
    for _ in range(40):
        f = random_kcnf(rng, rng.randint(3, 6), rng.randint(2, 10))
        if not brute_force_satisfiable(f):
            continue
        a = A(f.num_vars)
        for var in range(1, f.num_vars + 1):
            v1 = s_implied(f, a, var, 1)
            v2 = s_implied(f, a, var, 2)
            if v1 in (SImplication.FORCED_TRUE, SImplication.FORCED_FALSE):
                assert v2 == v1


def test_connected_pool_agrees_on_forcing():
    rng = random.Random(5)
    for _ in range(60):
        f = random_kcnf(rng, rng.randint(3, 6), rng.randint(2, 8))
        if not brute_force_satisfiable(f):
            continue
        a = A(f.num_vars)
        clauses = restrict(f, a).clauses
        for var in range(1, f.num_vars + 1):
            assert s_implied(f, a, var, 2) == s_implied_over_clauses(clauses, var, 2)


def test_restrict_monotone_composition():
    rng = random.Random(6)
    for _ in range(60):
        f = random_kcnf(rng, 6, rng.randint(2, 14))
        vars_a = {1: rng.randint(0, 1), 3: rng.randint(0, 1)}
        vars_b = {2: rng.randint(0, 1), 5: rng.randint(0, 1)}
        joined = restrict(f, A(6, {**vars_a, **vars_b}))
        step = restrict(restrict(f, A(6, vars_a)), A(6, vars_b))
        assert joined.clauses == step.clauses


def test_index_width_examples():
    assert index_width(F(5, [[1, 3, 5]])) == 4
    assert index_width(F(3, [[1, 2], [2, 3]])) == 1
    assert index_width(F(2, [[1], [2]])) == 0


def test_index_width_3x3_lattice_row_major():
    # Plaquette corners in a 3x3 grid: the largest gap is side + 1 = 4.
    clauses = []
    for p in range(2):
        for q in range(2):
            corners = [p * 3 + q + 1, p * 3 + q + 2, (p + 1) * 3 + q + 1,
                       (p + 1) * 3 + q + 2]
            clauses.append(corners[:3])
            clauses.append([corners[0], corners[3]])
    f = F(9, clauses)
    assert index_width(f) == 4


def test_index_width_monotone_under_restriction():
    rng = random.Random(7)
    for _ in range(60):
        f = random_kcnf(rng, 8, rng.randint(2, 20))
        pairs = {v: rng.randint(0, 1) for v in rng.sample(range(1, 9), 3)}
        assert index_width(restrict(f, A(8, pairs))) <= index_width(f)


def test_dimacs_round_trip():
    f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert f.clauses == ((1, -2),)
    text = "p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"
    f2 = parse_dimacs(text)
    assert serialize_dimacs(f2) == text
    assert parse_dimacs(serialize_dimacs(f2)).clauses == f2.clauses


def test_dimacs_errors():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ValueError, match="declares 2 clauses, found 1"):
        parse_dimacs("p cnf 2 2\n1 -2 0\n")
    with pytest.raises(ValueError, match="not terminated"):
        parse_dimacs("p cnf 2 1\n1 -2\n")
    with pytest.raises(ValueError, match="'x1'"):
        parse_dimacs("p cnf 2 1\nx1 -2 0\n")


def test_dimacs_satlib_trailer_ends_input():
    f = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n")
    assert f.clauses == ((1, -2, 3), (-1, 2))
    with pytest.raises(ValueError, match="declares 3 clauses, found 2"):
        parse_dimacs("p cnf 3 3\n1 -2 3 0\n-1 2 0\n%\n0\n")
    with pytest.raises(ValueError, match="not terminated"):
        parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2\n%\n0\n")


def test_normalization_drops_duplicates_and_tautologies():
    f = F(3, [[1, 1, 2], [1, -1, 3], [2, 1]])
    assert f.clauses == ((1, 2),)
    assert f.max_clause_size == 2

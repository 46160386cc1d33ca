import itertools
import random
from typing import Iterator, Sequence

import pytest

from hybridts import formula, sia, treesearch
from hybridts.formula import (
    UNSET,
    CnfFormula,
    SImplication,
    index_width,
    parse_dimacs,
    s_implication,
    serialize_dimacs,
)
from hybridts.generators import brute_force_satisfiable, random_kcnf
from reference import (
    CountingEngineState,
    PartialAssignment,
    Predicate,
    bounded_width_cnf,
    evaluate_predicate,
    lit_satisfied,
    pure_literal_rule,
    reference_assignment,
    restrict,
    s_implied_over_clauses,
    siac_run,
    unit_rule,
)


def F(n, clauses):
    return CnfFormula.from_clauses(n, clauses)


def A(n, pairs=None):
    return PartialAssignment.of(n, pairs or {})


# ---------------------------------------------------------------------------
# Oracle: the itertools s-implication that the bitmask kernel replaced, kept
# as it was (the connected-pool entry renamed to *_oracle), with the engine's
# and SIA's old restricted-clause builders.

def _subset_agreement(clauses: Sequence[tuple[int, ...]], var: int) -> str:
    """Classify a sub-formula: 'unsat', 'true', 'false', or 'none'.

    'true'/'false' mean every satisfying assignment of the sub-formula sets
    var accordingly (var must occur in it for a non-vacuous verdict).
    """
    vars_g = sorted({abs(l) for c in clauses for l in c})
    sat_true = sat_false = False
    any_sat = False
    for bits in itertools.product((0, 1), repeat=len(vars_g)):
        values = dict(zip(vars_g, bits))
        if all(any(lit_satisfied(l, values[abs(l)]) for l in c) for c in clauses):
            any_sat = True
            if var in values:
                if values[var]:
                    sat_true = True
                else:
                    sat_false = True
            else:
                sat_true = sat_false = True
            if sat_true and sat_false:
                return "none"
    if not any_sat:
        return "unsat"
    if sat_true:
        return "true"
    if sat_false:
        return "false"
    return "none"


def s_implied(formula: CnfFormula, assignment: PartialAssignment, var: int,
              s: int) -> SImplication:
    """Exhaustive s-implication over all <=s clause subsets of the restriction.

    forcedTrue/forcedFalse when some sub-formula of at most s clauses forces
    the variable; CONTRADICTION when both polarities are forced or some
    sub-formula is unsatisfiable (the restriction is then unsatisfiable).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if assignment.value(var) != UNSET:
        raise ValueError(f"variable {var} is already assigned")
    restricted = restrict(formula, assignment)
    found_true = found_false = False
    clauses = restricted.clauses
    for size in range(1, s + 1):
        for combo in itertools.combinations(range(len(clauses)), size):
            verdict = _subset_agreement([clauses[i] for i in combo], var)
            if verdict == "unsat":
                return SImplication.CONTRADICTION
            found_true |= verdict == "true"
            found_false |= verdict == "false"
            if found_true and found_false:
                return SImplication.CONTRADICTION
    if found_true:
        return SImplication.FORCED_TRUE
    if found_false:
        return SImplication.FORCED_FALSE
    return SImplication.FREE


def _connected_subsets(clauses: Sequence[tuple[int, ...]], var: int,
                       s: int) -> Iterator[tuple[int, ...]]:
    """Subsets of <=s clause indices, connected through shared variables and
    containing at least one clause with var. Unconnected clauses cannot
    non-vacuously influence the forcing of var."""
    seeds = [i for i, c in enumerate(clauses) if any(abs(l) == var for l in c)]
    by_var: dict[int, list[int]] = {}
    for i, c in enumerate(clauses):
        for l in c:
            by_var.setdefault(abs(l), []).append(i)
    seen: set[frozenset[int]] = set()

    def expand(current: frozenset[int], frontier_vars: set[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(sorted(current))
        if len(current) == s:
            return
        candidates = {j for v in frontier_vars for j in by_var.get(v, ()) if j not in current}
        for j in sorted(candidates):
            nxt = current | {j}
            if nxt in seen:
                continue
            seen.add(nxt)
            yield from expand(nxt, frontier_vars | {abs(l) for l in clauses[j]})

    for i in seeds:
        start = frozenset([i])
        if start in seen:
            continue
        seen.add(start)
        yield from expand(start, {abs(l) for l in clauses[i]})


def s_implied_over_clauses_oracle(clauses: Sequence[tuple[int, ...]], var: int,
                           s: int) -> SImplication:
    """Connected-pool s-implication used by the engines and SIA blocks.

    Same verdicts as s_implied for non-vacuous forcing; vacuous contradictions
    from unconnected unsatisfiable sub-formulas are left to the predicate.
    """
    found_true = found_false = False
    for combo in _connected_subsets(clauses, var, s):
        verdict = _subset_agreement([clauses[i] for i in combo], var)
        if verdict == "unsat":
            return SImplication.CONTRADICTION
        found_true |= verdict == "true"
        found_false |= verdict == "false"
        if found_true and found_false:
            return SImplication.CONTRADICTION
    if found_true:
        return SImplication.FORCED_TRUE
    if found_false:
        return SImplication.FORCED_FALSE
    return SImplication.FREE


class OracleEngineState(CountingEngineState):
    """The engine with its old s-implication: a full restricted-clause list
    per query and the itertools pool."""

    def restricted_clauses(self) -> list[tuple[int, ...]]:
        out = []
        for ci, clause in enumerate(self.clause_lits):
            if self.n_true[ci] == 0:
                out.append(tuple(l for l in clause
                                 if self.values[abs(l)] == UNSET))
        return out

    def s_implication(self, var: int, s: int) -> SImplication:
        if s == 1:
            found_true = any(self.n_true[ci] == 0 and self.n_unassigned[ci] == 1
                             for ci in self.occ_pos[var])
            found_false = any(self.n_true[ci] == 0 and self.n_unassigned[ci] == 1
                              for ci in self.occ_neg[var])
            if found_true and found_false:
                return SImplication.CONTRADICTION
            if found_true:
                return SImplication.FORCED_TRUE
            if found_false:
                return SImplication.FORCED_FALSE
            return SImplication.FREE
        return s_implied_over_clauses_oracle(self.restricted_clauses(), var, s)


class OracleSiaCore(sia._SiaCore):
    """SIA with its old s-implication: a scan of every clause per variable
    and the itertools pool."""

    def window_clauses(self, window: dict[int, int], var: int) -> list[tuple[int, ...]]:
        """Restricted clauses containing a variable >= var, computed from the
        window alone (sound for index width <= w)."""
        out = []
        for lo, hi, clause in self.spans:
            if hi < var:
                continue
            stripped = []
            alive = True
            for lit in clause:
                v = abs(lit)
                if v >= var:
                    stripped.append(lit)
                    continue
                if v not in window:
                    raise ValueError(
                        f"variable {v} outside the w-window while deciding {var}; "
                        "index width exceeds w")
                if (lit > 0) == bool(window[v]):
                    alive = False
                    break
            if alive:
                out.append(tuple(stripped))
        return out

    def implication(self, window: dict[int, int], var: int) -> SImplication:
        return s_implied_over_clauses_oracle(self.window_clauses(window, var), var, self.s)


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
    # The same verdicts from the kernel.
    assert s_implied_over_clauses(F(1, [[-1]]).clauses, 1, 1) == SImplication.FORCED_FALSE
    assert (s_implied_over_clauses(F(3, [[1, 3], [1, -3]]).clauses, 1, 2)
            == SImplication.FORCED_TRUE)
    assert s_implied_over_clauses(F(2, [[1, 2]]).clauses, 1, 1) == SImplication.FREE


def test_s_implied_contradiction_signal():
    f = F(1, [[1], [-1]])
    assert s_implied(f, A(1), 1, 2) == SImplication.CONTRADICTION
    assert s_implied_over_clauses(f.clauses, 1, 2) == SImplication.CONTRADICTION


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
            kernel = s_implied_over_clauses(f.clauses, var, 1)
            assert (kernel in (SImplication.FORCED_TRUE, SImplication.FORCED_FALSE)) == unit_here


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
            k1 = s_implied_over_clauses(f.clauses, var, 1)
            k2 = s_implied_over_clauses(f.clauses, var, 2)
            if k1 in (SImplication.FORCED_TRUE, SImplication.FORCED_FALSE):
                assert k2 == k1


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


def _random_restriction(rng):
    """A formula over 3..7 variables with clauses of width 1..3, under a
    random partial assignment: some restrictions are unsatisfiable and some
    already hold an empty clause."""
    n = rng.randint(3, 7)
    clauses = [[rng.choice((1, -1)) * v
                for v in rng.sample(range(1, n + 1), rng.choice((1, 2, 2, 3, 3, 3)))]
               for _ in range(rng.randint(1, 3 * n))]
    pairs = {v: rng.randint(0, 1)
             for v in rng.sample(range(1, n + 1), rng.randint(0, n - 1))}
    return F(n, clauses), pairs


def test_kernel_matches_oracle_on_random_restrictions():
    rng = random.Random(21)
    verdicts = set()
    unsat = contradicted = 0
    for _ in range(150):
        f, pairs = _random_restriction(rng)
        restricted = restrict(f, A(f.num_vars, pairs))
        unsat += not brute_force_satisfiable(restricted)
        contradicted += restricted.has_empty_clause
        for var in range(1, f.num_vars + 1):
            if var in pairs:
                continue
            for s in (1, 2, 3):
                want = s_implied_over_clauses_oracle(restricted.clauses, var, s)
                assert s_implied_over_clauses(restricted.clauses, var, s) == want
                verdicts.add(want)
    assert verdicts == set(SImplication)
    assert unsat > contradicted > 0


def test_kernel_one_clause_layer():
    # Clause ids listed under variable 1, each as the caller restricts it.
    def verdict(restricted, s=1):
        return s_implication(1, s, lambda v: list(restricted) if v == 1 else [],
                             restricted.get)

    assert verdict({0: (1,), 1: (1, 2)}) == SImplication.FORCED_TRUE
    assert verdict({0: (-1,), 1: None}) == SImplication.FORCED_FALSE
    assert verdict({0: (1,), 1: (-1,)}) == SImplication.CONTRADICTION
    assert verdict({0: (1, 2), 1: None}) == SImplication.FREE
    assert verdict({0: (1, 2), 1: (-1,)}, 2) == SImplication.FORCED_FALSE


def test_kernel_matches_oracle_on_split_tables(monkeypatch):
    # Subsets over more than _TABLE_VARS variables are decided one table per
    # value of the variables past it; a tiny limit makes every subset split.
    monkeypatch.setattr(formula, "_TABLE_VARS", 1)
    rng = random.Random(26)
    verdicts = set()
    for _ in range(80):
        f, pairs = _random_restriction(rng)
        clauses = restrict(f, A(f.num_vars, pairs)).clauses
        for var in set(range(1, f.num_vars + 1)) - set(pairs):
            for s in (2, 3):
                want = s_implied_over_clauses_oracle(clauses, var, s)
                assert s_implied_over_clauses(clauses, var, s) == want
                verdicts.add(want)
    assert verdicts == set(SImplication)


def test_kernel_on_wide_clauses():
    # 8-CNF at s=2 reaches subsets of 15 variables, past one table.
    rng = random.Random(27)
    for _ in range(4):
        f = random_kcnf(rng, 16, 24, k=8)
        for var in (10, 13, 16):
            assert (s_implied_over_clauses(f.clauses, var, 2)
                    == s_implied_over_clauses_oracle(f.clauses, var, 2))
    # Two 40-literal clauses span 79 variables: free by the Kraft screen.
    wide = F(80, [list(range(1, 41)), [1] + [-v for v in range(41, 80)]])
    assert s_implied_over_clauses(wide.clauses, 1, 2) == SImplication.FREE


def test_kraft_screen_skips_the_table_only_below_one(monkeypatch):
    tables = []
    build = formula._columns

    def columns(k):
        tables.append(k)
        return build(k)

    monkeypatch.setattr(formula, "_columns", columns)
    # Under 1 = 1: [(-2, 3)], sum 1/4. Under 1 = 0: [(2,), (-2, 3)], sum 3/4.
    # Both below 1, so both models exist and no table is built.
    assert s_implied_over_clauses([(1, 2), (-2, 3)], 1, 2) == SImplication.FREE
    assert tables == []
    # Under 1 = 0: [(2,), (-2,)] sums to exactly 1, so the screen does not
    # decide, and the table finds 1 forced true.
    assert s_implied_over_clauses([(1, 2), (1, -2)], 1, 2) == SImplication.FORCED_TRUE
    assert tables == [2]


def test_engine_verdicts_equal_oracle_on_random_states():
    rng = random.Random(22)
    for _ in range(60):
        f, pairs = _random_restriction(rng)
        s = rng.choice((1, 2, 3))
        config = treesearch.EngineConfig(kind=treesearch.DNCPPSZ,
                                         reduction_rules=("sImplication",),
                                         s=s).validated(f)
        state = treesearch._EngineState(f, config)
        oracle = OracleEngineState(f, config)
        extra = rng.choice([v for v in range(1, f.num_vars + 1) if v not in pairs])
        for var, value in [*pairs.items(), (extra, rng.randint(0, 1))]:
            state.assign(var, value)
            oracle.assign(var, value)
        state.undo()   # the last assignment is taken back again
        oracle.undo()
        for var in range(1, f.num_vars + 1):
            if var not in pairs:
                assert state.s_implication(var, s) == oracle.s_implication(var, s)


def test_sia_window_verdicts_equal_oracle():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 12)
        w = rng.randint(1, min(4, n))
        f = bounded_width_cnf(rng, n, w, rng.randint(1, 3 * n))
        s = rng.choice((1, 2, 3))
        var = rng.randint(1, n)
        window = {v: rng.randint(0, 1) for v in range(max(1, var - w), var)}
        assert (sia._SiaCore(f, s, w).implication(window, var)
                == OracleSiaCore(f, s, w).implication(window, var))
    with pytest.raises(ValueError, match="index width exceeds w"):
        sia._SiaCore(F(6, [[1, 6], [5, 6]]), 1, 2).implication({5: 0}, 6)


def _engine_outcomes(cases, ppsz_cases):
    out = []
    for f, config in cases:
        tree = treesearch.tree_stats(f, config, collect_tree=True)
        solve = treesearch._search(f, config, exhaustive=False, collect_tree=False)
        out.append((tree.verdict, tree.model, tree.stats.as_record(), tree.tree.to_json(),
                    solve.verdict, solve.model, solve.stats.as_record()))
    for f, seed in ppsz_cases:
        r = treesearch.ppsz_proper(f, 2, 0.1, 3, seed)
        out.append((r.verdict, r.model, r.rounds_used, r.budget))
    return out


def test_engine_results_equal_oracle_engine(monkeypatch):
    rng = random.Random(24)
    cases = []
    for s, n_max in [(2, 9)] * 20 + [(3, 6)] * 10:
        n = rng.randint(4, n_max)
        f = random_kcnf(rng, n, round(rng.uniform(2.0, 7.0) * n))
        cases.append((f, treesearch.EngineConfig(
            kind=treesearch.DNCPPSZ, reduction_rules=("sImplication",), s=s,
            permutation=tuple(rng.sample(range(1, n + 1), n)),
            guess_budget=rng.randint(0, n))))
        if s == 2 and n <= 7:
            cases.append((f, treesearch.EngineConfig(
                kind=treesearch.DPLL, reduction_rules=("unit", "sImplication"), s=s)))
    ppsz_cases = [(random_kcnf(rng, 9, 38), rng.randrange(2 ** 31)) for _ in range(6)]
    got = _engine_outcomes(cases, ppsz_cases)
    assert {r[0] for r in got[:len(cases)]} == {treesearch.Verdict.SAT,
                                                treesearch.Verdict.UNSAT,
                                                treesearch.Verdict.NOT_FOUND}
    monkeypatch.setattr(treesearch, "_EngineState", OracleEngineState)
    assert _engine_outcomes(cases, ppsz_cases) == got


def _sia_outcomes(cases):
    out = []
    for f, advice, w, s in cases:
        reversible, trace = sia.siar_execute(f, advice, w, s)
        composed, assignment = siac_run(f, advice, w, s)
        out.append((sia.sia_reference(f, advice, s), reference_assignment(f, advice, s),
                    reversible, trace.siab_calls, trace.peak_live_intermediate,
                    trace.restored, composed, assignment))
    return out


def test_sia_results_equal_oracle_core(monkeypatch):
    rng = random.Random(25)
    cases = []
    for _ in range(60):
        n = rng.randint(2, 12)
        w = rng.randint(1, min(4, n))
        f = bounded_width_cnf(rng, n, w, rng.randint(1, 3 * n))
        advice = "".join(str(rng.randint(0, 1)) for _ in range(rng.randint(0, n)))
        cases.append((f, advice, w, rng.choice((1, 2))))
    got = _sia_outcomes(cases)
    assert {r[0].kind for r in got} == {"zeroChildren", "twoChildren"}
    monkeypatch.setattr(sia, "_SiaCore", OracleSiaCore)
    assert _sia_outcomes(cases) == got


@pytest.mark.parametrize("s", [0, -1])
def test_s_below_one_is_rejected(s):
    f = F(2, [[1, 2]])
    message = f"s must be >= 1, got {s}"
    with pytest.raises(ValueError, match=message):
        s_implied_over_clauses(f.clauses, 1, s)
    with pytest.raises(ValueError, match=message):
        treesearch.EngineConfig(kind=treesearch.DNCPPSZ, reduction_rules=("sImplication",),
                                s=s).validated(f)
    with pytest.raises(ValueError, match=message):
        sia.sia_reference(f, "1", s)


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


# ---------------------------------------------------------------------------
# Oracle: the line-by-line DIMACS parser that the one-pass parser replaced,
# kept as it was.

def _parse_dimacs_lines(text: str) -> CnfFormula:
    num_vars = None
    declared = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break  # SATLIB trailer: "%" then a stray "0"
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ValueError("clause before DIMACS header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"non-integer DIMACS token {tok!r}") from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} exceeds declared {num_vars} variables")
                current.append(lit)
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if current:
        raise ValueError("last DIMACS clause is not terminated by 0")
    if declared != len(clauses):
        raise ValueError(f"DIMACS header declares {declared} clauses, "
                         f"found {len(clauses)}")
    return CnfFormula.from_clauses(num_vars, clauses)


def _random_clauses(rng: random.Random, n: int) -> list[list[int]]:
    """Clauses of one width (the vectorised path) or of widths 1-5, with
    repeated literals, tautologies and repeated clauses."""
    widths = [rng.randint(1, 5)] if rng.random() < 0.5 else range(1, 6)
    clauses = []
    for _ in range(rng.randint(1, 12)):
        clause = [rng.choice((1, -1)) * rng.randint(1, n)
                  for _ in range(rng.choice(widths))]
        if len(clause) > 1 and rng.random() < 0.15:
            clause[-1] = rng.choice((clause[0], -clause[0]))
        clauses.append(clause)
        if rng.random() < 0.1:
            clauses.append(list(clause))
    return clauses


def _literal_token(rng: random.Random, lit: int | str) -> str:
    """The literal as a token, now and then with a plus sign or leading zeros
    (twenty of them: a token too long for int64)."""
    if isinstance(lit, str):
        return lit
    r = rng.random()
    zeros = "0" if r < 0.1 else "0" * 20 if r < 0.105 else ""
    sign = "-" if lit < 0 else "+" if r < 0.05 else ""
    return sign + zeros + str(abs(lit))


def _dimacs_text(rng: random.Random, n: int, clauses: list[list[int]],
                 header: str | None = None, trailer: float = 0.2) -> str:
    """DIMACS text of the clauses, in a random layout of the accepted dialect:
    comments before and after the header, several clauses per line and
    clauses split across lines, tabs, CRLF, blank lines and, with
    probability `trailer`, the SATLIB trailer."""
    blank = lambda: rng.choice(("", "", " ", "\t", "  "))
    sep = lambda: rng.choice((" ", " ", "\t", "  ", " \t"))
    comment = lambda: blank() + "c" + rng.choice(("", " 3 -1 0", " p cnf 9 9", " café %"))
    lines = [comment() for _ in range(rng.randint(0, 2))]
    lines.append(header or blank() + sep().join(("p", "cnf", str(n), str(len(clauses)))) + blank())
    tokens = [tok for clause in clauses
              for tok in [_literal_token(rng, l) for l in clause] + ["0"]]
    line: list[str] = []
    for tok in tokens:
        line.append(tok)
        if rng.random() < 0.3:
            lines.append(blank() + sep().join(line) + blank())
            line = []
            if rng.random() < 0.1:
                lines.append(rng.choice(("", comment())))
    if line:
        lines.append(sep().join(line))
    if rng.random() < trailer:
        lines += ["%", "0", rng.choice(("", "x", "p cnf"))]
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("\n", ""))


def test_parse_dimacs_matches_line_parser():
    rng = random.Random(2024)
    texts = [_dimacs_text(rng, n, _random_clauses(rng, n))
             for n in (rng.randint(1, 12) for _ in range(600))]
    texts += [_dimacs_text(rng, n, []) for n in (1, 3, 12)]  # p cnf n 0, empty body
    for text in texts:
        f = parse_dimacs(text)
        assert f == _parse_dimacs_lines(text), text
        assert all(type(l) is int for c in f.clauses for l in c)


def _faulty_texts(rng: random.Random):
    """(expected message start, text) pairs: each text holds one fault of the
    kind the message names, in a random layout."""
    n = rng.randint(2, 9)
    clauses = _random_clauses(rng, n)
    i = rng.randrange(len(clauses))
    text = lambda cs=clauses, **kw: _dimacs_text(rng, n, cs, trailer=0, **kw)
    yield "malformed DIMACS header", text(
        header=rng.choice(("p dnf 3 1", "p cnf 3", "p cnf 3 1 1")))
    yield "clause before DIMACS header", "1 -2 0\n" + text()
    yield "missing DIMACS header", rng.choice(
        ("", "c only a comment\n", "\n\n", "%\np cnf 1 0\n"))
    bad = rng.choice(("x1", "1.5", "0x3", "one", "1e2"))
    yield "non-integer DIMACS token", text(
        clauses[:i] + [clauses[i] + [bad, "y"]] + clauses[i + 1:])
    big = rng.choice((n + 1, -(n + 2), 10 ** 20, -(2 ** 63)))
    yield "literal", text(clauses[:i] + [clauses[i] + [big, n + 5]] + clauses[i + 1:])
    yield "last DIMACS clause", text() + f"\n{rng.randint(1, n)}\n"
    yield "DIMACS header declares", text(
        header=f"p cnf {n} {len(clauses) + rng.choice((-1, 1))}")
    yield "num_vars must be", rng.choice(("p cnf 0 0\n", "p cnf 0 1\n0\n"))
    yield "empty clause", text(clauses[:i] + [[]] + clauses[i:])


def test_parse_dimacs_faults_match_line_parser():
    rng = random.Random(77)
    for _ in range(40):
        for kind, text in _faulty_texts(rng):
            with pytest.raises(ValueError) as expected:
                _parse_dimacs_lines(text)
            assert str(expected.value).startswith(kind), text
            with pytest.raises(ValueError) as got:
                parse_dimacs(text)
            assert str(got.value) == str(expected.value), text


@pytest.mark.parametrize("text, message", [
    ("p cnf x 3\n1 0\n", "malformed DIMACS header: 'p cnf x 3'"),
    ("p cnf -3 1\n1 0\n", "malformed DIMACS header: 'p cnf -3 1'"),
    ("p cnf 3 -1\n", "malformed DIMACS header: 'p cnf 3 -1'"),
    ("p cnf 3 1\n1 2 0\np cnf 2 2\n-1 0\n", "duplicate DIMACS header"),
    ("p cnf 20 1\n1_0 0\n", "non-integer DIMACS token '1_0'"),
    ("p cnf 3 1\n\u0661 0\n", "non-integer DIMACS token '\u0661'"),
    ("p cnf 3 1\n1\xa02 0\n", "non-integer DIMACS token '1\\xa02'"),
    ("p cnf 3 1\n1 -2- 0\n", "non-integer DIMACS token '-2-'"),
    ("p cnf 3 1\n1-2 0\n", "non-integer DIMACS token '1-2'"),
    ("p cnf 3 1\n1 % 0\n", "non-integer DIMACS token '%'"),
    ("p cnf 3 1\n1 +-2 0\n", "non-integer DIMACS token '+-2'"),
    ("p cnf 3 1\n1 - 2 0\n", "non-integer DIMACS token '-'"),
    ("p cnf 3 1\n1 2 0 -\n", "non-integer DIMACS token '-'"),
])
def test_parse_dimacs_strict_header_and_tokens(text, message):
    with pytest.raises(ValueError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message


def test_parse_dimacs_long_literals_are_exact():
    f = parse_dimacs("p cnf 3 1\n-0000000000000000000003 +00000000000000000000001 0\n")
    assert f.clauses == ((1, -3),)
    with pytest.raises(ValueError, match="^literal -9223372036854775809 exceeds"):
        parse_dimacs("p cnf 3 1\n1 -9223372036854775809 0\n")


def test_normalization_drops_duplicates_and_tautologies():
    f = F(3, [[1, 1, 2], [1, -1, 3], [2, 1]])
    assert f.clauses == ((1, 2),)
    assert f.max_clause_size == 2

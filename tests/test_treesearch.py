import collections
import itertools
import json
import random
import re

import pytest

from hybridts import treesearch
from hybridts.formula import UNSET, CnfFormula, SImplication, s_implication
from hybridts.generators import brute_force_satisfiable, random_kcnf, unique_sat_3cnf
from hybridts.latticesat import lattice_to_cnf, reduce_3sat_to_lattice
from hybridts.treesearch import (
    DNCPPSZ,
    DPLL,
    EngineConfig,
    SearchTree,
    Verdict,
    dnc_ppsz_solve,
    dpll_solve,
    ppsz_budget,
    ppsz_proper,
    tree_stats,
)
from reference import (
    ChildCount,
    CountingEngineState,
    PartialAssignment,
    Predicate,
    TreeNode,
    ch1,
    ch2,
    ch_no,
    engine_state_at,
    estimate_permutation_guess_bound,
    evaluate_predicate,
    find_unit,
    min_guesses_to_solution,
    reference_nodes,
    unit_variables,
)

F = CnfFormula.from_clauses


def dnc_config(f, s=1, budget=None, perm=None):
    return EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",), s=s,
                        permutation=perm, guess_budget=budget).validated(f)


def complete_tree_formula(n):
    # Every full clause: unsatisfiable and undecided on every partial
    # assignment, so the no-rule tree is the complete binary tree.
    clauses = [[(v if b else -v) for v, b in zip(range(1, n + 1), bits)]
               for bits in itertools.product((0, 1), repeat=n)]
    return F(n, clauses)


def comb_formula(n):
    return F(n, [[v] for v in range(1, n + 1)])


def engine_tree_nodes(f, config):
    tree = tree_stats(f, config, collect_tree=True).tree
    return [PartialAssignment.of(f.num_vars, tree.assignment_pairs(v)).values
            for v in range(tree.size)]


def reference_tree_nodes(f, config):
    return [node.assignment.values for node, _ in reference_nodes(f, config)]


def test_ch_no_examples():
    cfg = EngineConfig(kind=DPLL, reduction_rules=("unit",))
    assert ch_no(TreeNode.root(1), F(1, [[1]]), cfg) == ChildCount.ONE_CHILD
    assert ch_no(TreeNode.root(2), F(2, [[1, 2]]), cfg) == ChildCount.TWO_CHILDREN
    assert ch_no(TreeNode.root(2), F(2, [[1, 2]]),
                 dnc_config(F(2, [[1, 2]]), budget=0)) == ChildCount.ZERO_LEAF


def test_ch1_ch2_examples():
    cfg = EngineConfig(kind=DPLL, reduction_rules=("unit",))
    child = ch1(TreeNode.root(1), F(1, [[1]]), cfg)
    assert child.assignment.value(1) == 1

    child = ch2(TreeNode.root(2), F(2, [[1, 2]]), cfg, 0)
    assert child.assignment.value(1) == 0 and child.guess_count == 1

    f = F(2, [[-2], [1, 2]])
    c1 = ch1(TreeNode.root(2), f, cfg)
    assert c1.assignment.value(2) == 0
    c2 = ch1(c1, f, cfg)
    assert c2.assignment.value(1) == 1


def test_ch_errors_when_kind_disagrees():
    cfg = EngineConfig(kind=DPLL, reduction_rules=("unit",))
    with pytest.raises(ValueError):
        ch1(TreeNode.root(2), F(2, [[1, 2]]), cfg)
    with pytest.raises(ValueError):
        ch2(TreeNode.root(1), F(1, [[1]]), cfg, 0)


def test_engine_tree_equals_reference_tree():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, 7)
        f = random_kcnf(rng, n, rng.randint(3, 20))
        cfg = EngineConfig(kind=DPLL)
        assert engine_tree_nodes(f, cfg) == reference_tree_nodes(f, cfg)
    for _ in range(25):
        n = rng.randint(3, 7)
        f = random_kcnf(rng, n, rng.randint(3, 20))
        cfg = dnc_config(f, s=rng.choice((1, 2)),
                         budget=rng.randint(0, n),
                         perm=tuple(rng.sample(range(1, n + 1), n)))
        assert engine_tree_nodes(f, cfg) == reference_tree_nodes(f, cfg)


def _search_outcomes(cases):
    out = []
    for f, config, searches in cases:
        for exhaustive in searches:
            r = treesearch._search(f, config, exhaustive=exhaustive, collect_tree=True)
            out.append((r.verdict, r.model, r.stats.as_record(), r.tree.to_json()))
    return out


def test_mask_engine_equals_counting_engine(monkeypatch):
    # The clause-bitmask restriction against the per-clause counters it
    # replaced: the same searches, node for node.
    rng = random.Random(26)
    dpll_rules = [(), ("unit",), ("pureLiteral", "unit"), EngineConfig().reduction_rules]
    both = (True, False)
    cases = []
    for _ in range(40):
        n = rng.randint(3, 10)
        clauses = []
        for _ in range(round(rng.uniform(1.0, 6.0) * n)):
            picked = rng.sample(range(1, n + 1), min(rng.randint(1, 5), n))
            clauses.append([v if rng.random() < 0.5 else -v for v in picked])
        f = F(n, clauses)
        for rules in dpll_rules:
            cases.append((f, EngineConfig(kind=DPLL, reduction_rules=rules), both))
        if n <= 7:
            cases.append((f, EngineConfig(kind=DPLL, reduction_rules=("unit", "sImplication"),
                                          s=2), both))
        for s in (1, 2, 3):
            cases.append((f, dnc_config(f, s=s, budget=rng.randint(0, n),
                                        perm=tuple(rng.sample(range(1, n + 1), n))), both))
    # Pre-spaced lattice CNFs, 196-324 variables, with the rule orders that
    # keep DPLL's trees on them small: without both rules they blow up.
    for n, m in ((4, 3), (4, 4), (5, 4)):
        inst, _ = reduce_3sat_to_lattice(random_kcnf(rng, n, m))
        lattice = lattice_to_cnf(inst)
        cases += [(lattice, EngineConfig(kind=DPLL, reduction_rules=rules), both)
                  for rules in dpll_rules[2:]]
    got = _search_outcomes(cases)
    assert {r[0] for r in got} == {Verdict.SAT, Verdict.UNSAT, Verdict.NOT_FOUND}
    monkeypatch.setattr(treesearch, "_EngineState", CountingEngineState)
    assert _search_outcomes(cases) == got


def _mixed_width_formula(rng, n, width):
    # Mostly clauses of the top width, so that shorter ones are padded when
    # it is 4 or 5; a width-1 clause is a unit clause at the root.
    clauses = []
    for _ in range(round(rng.uniform(1.0, 5.0) * n)):
        k = width if rng.random() < 0.7 else rng.randint(1, width)
        picked = rng.sample(range(1, n + 1), min(k, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in picked])
    return F(n, clauses)


def test_unit_variables_equal_the_full_scan_at_every_node(monkeypatch):
    # At each vertex that a DPLL search leaves for a child, `chain` pushes the
    # vertex's masks and the child's (var, value) onto the trail. There the
    # free bits of `unit_vars` must be the variables of the unit clauses, as
    # `unit_variables` scans them, and a unit move must be `find_unit`'s.
    seen = collections.Counter()

    class Trail(list):
        def __init__(self, state):
            super().__init__()
            self.state = state

        def append(self, entry):
            self.state.check(entry)
            super().append(entry)

    class Watched(treesearch._EngineState):
        def __init__(self, formula, config):
            super().__init__(formula, config)
            self.trail = Trail(self)
            self.pure_hit = None

        def find_pure(self):
            self.pure_hit = super().find_pure()
            return self.pure_hit

        def check(self, entry):
            var, value, sat, levels, free, unit_vars, _ = entry
            pure_hit, self.pure_hit = self.pure_hit, None
            assert unit_vars & free == unit_variables(self, sat, levels, free)
            if self.config.reduction_rules.index("unit") > 0 and pure_hit is not None:
                return   # the pure-literal rule fired before the unit rule ran
            scan = find_unit(self, sat, levels, free)
            if scan is None:
                seen["no unit"] += 1
            else:
                assert (var, value) == scan
                seen["unit"] += 1
                seen["unit at the root"] += not self.trail
            seen[max(map(len, self.clause_lits)), self.config.reduction_rules] += 1

    monkeypatch.setattr(treesearch, "_EngineState", Watched)
    rng = random.Random(29)
    orders = [("unit",), EngineConfig().reduction_rules, ("pureLiteral", "unit")]
    for _ in range(60):
        n = rng.randint(3, 10)
        f = _mixed_width_formula(rng, n, rng.randint(1, 5))
        configs = [EngineConfig(kind=DPLL, reduction_rules=rules) for rules in orders]
        if n <= 7:
            configs.append(EngineConfig(kind=DPLL, reduction_rules=("unit", "sImplication"), s=2))
        for config in configs:
            tree_stats(f, config)
            dpll_solve(f, config)
    assert seen["unit"] and seen["no unit"] and seen["unit at the root"]
    for width in range(1, 6):
        for rules in [*orders, ("unit", "sImplication")]:
            assert seen[width, rules], (width, rules)


def test_restore_after_forced_chains_equals_a_fresh_state():
    # Down a random path of chains, several of them multi-step, then back to
    # each depth of it: the restriction's masks and `values` equal those of a
    # fresh state that assigns the same prefix, and the DPLL rules' variable
    # masks are the ones the vertex had when the path left it.
    rng = random.Random(30)
    long_chains = 0
    for _ in range(60):
        n = rng.randint(3, 10)
        f = _mixed_width_formula(rng, n, rng.randint(1, 5))
        for rules in (EngineConfig().reduction_rules, ("unit",), ("pureLiteral", "unit")):
            state = treesearch._EngineState(f, EngineConfig(kind=DPLL, reduction_rules=rules)
                                            .validated(f))
            guess = state.chain(None, None)
            long_chains += len(state.trail) > 1
            while guess is not None:
                depth = len(state.trail)
                guess = state.chain(guess, rng.randint(0, 1))
                long_chains += len(state.trail) > depth + 1
            path = list(state.trail)
            for depth in sorted(rng.sample(range(len(path)), min(3, len(path))), reverse=True):
                state.restore(depth)
                fresh = engine_state_at(f, [entry[:2] for entry in path[:depth]])
                assert len(state.trail) == depth and state.values == fresh.values
                assert (state.sat, state.levels, state.free) == (fresh.sat, fresh.levels,
                                                                 fresh.free)
                assert (state.unit_vars, state.maybe_pure) == path[depth][5:]
    assert long_chains > 100


def test_engine_leaves_a_formula_with_an_empty_clause_at_the_root():
    # The restriction holds an empty clause, so the root is contradicted, as
    # the reference predicate says.
    f = CnfFormula.from_clauses(2, [[1, 2], []], allow_empty_clause=True)
    for config in (EngineConfig(kind=DPLL), dnc_config(f)):
        r = tree_stats(f, config, collect_tree=True)
        assert r.tree.parents == [-1] and r.model is None
    assert evaluate_predicate(f, PartialAssignment.empty(2)) == Predicate.CONTRADICTION


def test_s2_verdict_from_masks_equals_the_kernel_at_every_node(monkeypatch):
    # The s = 2 verdict read off the masks against the general kernel, called
    # with the engine's own clause index and restriction, at every node of
    # dncPPSZ and DPLL searches. A verdict comes through a pair when the unit
    # clauses alone (s = 1) give another one, or, for FREE, when some
    # restricted binary holds the variable.
    mask_rule = treesearch._EngineState.s_implication
    seen = set()
    widths = set()

    def checked(self, var, s):
        verdict = mask_rule(self, var, s)
        if s == 2:
            assert verdict == s_implication(var, 2, self.occ.__getitem__, self.restricted)
            if verdict == SImplication.FREE:
                through_pair = any(len(self.restricted(ci) or ()) == 2 for ci in self.occ[var])
            else:
                through_pair = mask_rule(self, var, 1) != verdict
            seen.add((verdict, through_pair))
            widths.add(max(map(len, self.clause_lits)))
        return verdict

    monkeypatch.setattr(treesearch._EngineState, "s_implication", checked)
    rng = random.Random(27)
    for _ in range(100):
        # Mostly clauses of the top width, at a density that keeps the trees
        # from closing at the root.
        n = rng.randint(4, 12)
        width = rng.randint(1, 5)
        clauses = []
        for _ in range(round(rng.uniform(0.5, 1.0) * 2 ** (width - 1) * n)):
            k = width if rng.random() < 0.8 else rng.randint(1, width)
            picked = rng.sample(range(1, n + 1), min(k, n))
            clauses.append([v if rng.random() < 0.5 else -v for v in picked])
        f = F(n, clauses)
        for budget in (rng.randint(0, n), n):
            tree_stats(f, dnc_config(f, s=2, budget=budget,
                                     perm=tuple(rng.sample(range(1, n + 1), n))))
        if n <= 8:
            tree_stats(f, EngineConfig(kind=DPLL, reduction_rules=("unit", "sImplication"), s=2))
    assert {verdict for verdict, through_pair in seen if through_pair} == set(SImplication)
    assert {1, 2, 4, 5} <= widths


def _s2_verdict(f, assignments, var):
    state = engine_state_at(f, assignments)
    verdict = state.s_implication(var, 2)
    assert verdict == s_implication(var, 2, state.occ.__getitem__, state.restricted)
    return verdict


@pytest.mark.parametrize("clauses, assignments, expected", [
    # The unit (l), restricted from a longer clause.
    ([[1, 2, 3]], [(2, 0), (3, 0)], SImplication.FORCED_TRUE),
    ([[-1, 2], [2, 3]], [(2, 0)], SImplication.FORCED_FALSE),
    # (l ∨ x) with the unit (¬x), in either polarity of var.
    ([[1, 2], [-2]], [], SImplication.FORCED_TRUE),
    ([[-1, -2], [2, 3]], [(3, 0)], SImplication.FORCED_FALSE),
    # (l ∨ x) with (l ∨ ¬x).
    ([[1, 2], [1, -2]], [], SImplication.FORCED_TRUE),
    ([[-1, 3, 4], [-1, -3]], [(4, 0)], SImplication.FORCED_FALSE),
    # Both polarities through pairs: a contradiction.
    ([[1, 2], [1, -2], [-1, 3], [-1, -3]], [], SImplication.CONTRADICTION),
    ([[1, 2], [-2], [-1, 3, 4], [-1, -3]], [(4, 0)], SImplication.CONTRADICTION),
    # A ternary takes no part: (l ∨ x ∨ y) with (¬x) leaves l free.
    ([[1, 2, 3], [-2]], [], SImplication.FREE),
    # Pairs that force nothing: (l ∨ x) with (¬l ∨ ¬x), (l ∨ x) with (¬x ∨ y).
    ([[1, 2], [-1, -2]], [], SImplication.FREE),
    ([[1, 2], [-2, 3]], [], SImplication.FREE),
    # A satisfied clause takes no part.
    ([[1, 2], [-2, 3]], [(3, 1)], SImplication.FREE),
    # Width 4: (l ∨ x) is binary from the start, by its two padded false
    # literals, and (¬x) is restricted from a ternary.
    ([[1, 2], [-2, 3, 4], [-1, 3, 5], [2, 3, 4, 5]], [(3, 0), (4, 0)],
     SImplication.FORCED_TRUE),
    # Width 4: (l ∨ x) and (l ∨ ¬x) restricted from longer clauses, and two
    # ternaries that are not yet binary.
    ([[1, 2, 3, 4], [1, -2, 5]], [(3, 0), (4, 0), (5, 0)], SImplication.FORCED_TRUE),
    ([[1, 2, 3, 4], [1, -2, 3, 5]], [(4, 0), (5, 0)], SImplication.FREE),
])
def test_s2_verdict_on_each_shape_of_the_pair_lemma(clauses, assignments, expected):
    f = F(5, clauses)
    assert _s2_verdict(f, assignments, 1) == expected


def test_dpll_examples():
    r = dpll_solve(F(1, [[1], [-1]]))
    assert r.verdict == Verdict.UNSAT
    assert r.stats.effective_size == r.stats.size

    r = dpll_solve(F(2, [[1, 2], [-1, 2]]))
    assert r.verdict == Verdict.SAT
    assert r.model[1] == 1  # x2 = 1 in any model


def test_dpll_matches_brute_force():
    rng = random.Random(12)
    for _ in range(120):
        f = random_kcnf(rng, rng.randint(3, 10), rng.randint(3, 40))
        r = dpll_solve(f)
        assert (r.verdict == Verdict.SAT) == brute_force_satisfiable(f)
        if r.verdict == Verdict.SAT:
            full = PartialAssignment(r.model)
            assert evaluate_predicate(f, full) == Predicate.SATISFIED


def test_dnc_budget_semantics():
    f = F(1, [[1]])
    assert dnc_ppsz_solve(f, dnc_config(f, budget=0)).verdict == Verdict.SAT
    f2 = F(2, [[1, 2]])
    assert dnc_ppsz_solve(f2, dnc_config(f2, budget=0)).verdict == Verdict.NOT_FOUND


def test_dnc_planted_budget_boundary():
    # Plant a unique solution reachable with exactly g guesses.
    rng = random.Random(13)
    for _ in range(20):
        f = unique_sat_3cnf(rng, 8, 30)
        perm = tuple(range(1, 9))
        g = min_guesses_to_solution(f, perm, s=1)
        assert g is not None
        found = dnc_ppsz_solve(f, dnc_config(f, budget=g, perm=perm))
        assert found.verdict == Verdict.SAT
        if g > 0:
            short = dnc_ppsz_solve(f, dnc_config(f, budget=g - 1, perm=perm))
            assert short.verdict == Verdict.NOT_FOUND


def reference_min_guesses(f, perm, s):
    # The least guess count over satisfied leaves of the full-budget tree,
    # walked with the restriction-based child rule. A satisfied node is a leaf.
    config = dnc_config(f, s=s, budget=f.num_vars, perm=perm)
    return min((node.guess_count for node, predicate in reference_nodes(f, config)
                if predicate == Predicate.SATISFIED), default=None)


def test_min_guesses_matches_reference_walker():
    rng = random.Random(20)
    results = []
    for _ in range(120):
        n = rng.randint(3, 8)
        # 3-clauses plus a few unit and 2-clauses, so some orderings need no guess.
        clauses = [c for k, m in ((3, round(rng.uniform(1.0, 5.0) * n)),
                                  (2, rng.randint(0, n)), (1, rng.randint(0, 2)))
                   for c in random_kcnf(rng, n, m, k).clauses]
        f = F(n, clauses)
        perm = tuple(rng.sample(range(1, n + 1), n))
        s = rng.choice((1, 2))
        got = min_guesses_to_solution(f, perm, s)
        assert got == reference_min_guesses(f, perm, s)
        results.append(got)
    assert {None, 0, 1, 2} <= set(results)


def budget_loop_min_guesses(f, perm, s):
    # One dncPPSZ solve per budget, 0 up: the least that finds a model.
    for budget in range(f.num_vars + 1):
        config = dnc_config(f, s=s, budget=budget, perm=perm)
        if dnc_ppsz_solve(f, config).verdict == Verdict.SAT:
            return budget
    return None


def test_min_guesses_equals_the_budget_loop():
    rng = random.Random(21)
    results = []
    for _ in range(60):
        n = rng.randint(5, 13)
        f = random_kcnf(rng, n, round(rng.uniform(2.0, 5.0) * n))
        perm = tuple(rng.sample(range(1, n + 1), n))
        s = rng.choice((1, 2))
        got = min_guesses_to_solution(f, perm, s)
        assert got == budget_loop_min_guesses(f, perm, s)
        results.append(got)
    assert None in results and len(set(results)) >= 4


def test_dnc_full_budget_matches_dpll_verdict():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(3, 9)
        f = random_kcnf(rng, n, rng.randint(3, 30))
        r1 = dpll_solve(f, EngineConfig(kind=DPLL, reduction_rules=("unit",)))
        r2 = dnc_ppsz_solve(f, dnc_config(f, budget=n))
        assert (r1.verdict == Verdict.SAT) == (r2.verdict == Verdict.SAT)


def test_tree_stats_complete_tree():
    res = tree_stats(complete_tree_formula(4),
                     EngineConfig(kind=DPLL, reduction_rules=()))
    assert res.stats.size == 31
    assert res.stats.max_branching == 4
    assert res.stats.leaf_count == 16
    assert res.stats.height == 4


def test_tree_stats_comb_pattern():
    # One branch per level, one side closing immediately: 2*levels - 1
    # vertices with levels = n + 1 under the no-rule engine.
    n = 6
    res = tree_stats(comb_formula(n), EngineConfig(kind=DPLL, reduction_rules=()))
    assert res.stats.size == 2 * (n + 1) - 1
    assert res.stats.max_branching == n


def test_effective_size_properties():
    rng = random.Random(15)
    for _ in range(60):
        f = random_kcnf(rng, rng.randint(3, 8), rng.randint(3, 25))
        res = tree_stats(f, EngineConfig(kind=DPLL))
        assert res.stats.effective_size <= res.stats.size
        if res.verdict != Verdict.SAT:
            assert res.stats.effective_size == res.stats.size


def max_branching_over_paths(tree: SearchTree) -> int:
    """Independent path walker: max two-child nodes on any root-to-leaf path."""
    kids = tree.children
    best = 0
    stack = [(0, 0)]
    while stack:
        vertex, branchings = stack.pop()
        children = kids[vertex]
        if not children:
            best = max(best, branchings)
            continue
        bump = 1 if len(children) == 2 else 0
        for child in children:
            stack.append((child, branchings + bump))
    return best


def test_branching_number_cross_checked_by_path_walker():
    rng = random.Random(16)
    for _ in range(60):
        f = random_kcnf(rng, rng.randint(3, 8), rng.randint(2, 20))
        res = tree_stats(f, EngineConfig(kind=DPLL), collect_tree=True)
        assert max_branching_over_paths(res.tree) == res.stats.max_branching
        # The tree's one shape pass agrees with the walker and the engine.
        tree = res.tree
        assert tree.branchings[0] == res.stats.max_branching
        assert (tree.sizes[0], tree.heights[0]) == (res.stats.size, res.stats.height)


def test_dnc_tree_size_bound():
    # T <= (n+1) * 2^budget (the branching-specification argument).
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(3, 9)
        f = random_kcnf(rng, n, rng.randint(2, 25))
        budget = rng.randint(0, n)
        res = tree_stats(f, dnc_config(f, budget=budget))
        assert res.stats.size <= (n + 1) * 2 ** budget


def test_ppsz_proper_examples():
    f_unsat = F(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    r = ppsz_proper(f_unsat, s=1, epsilon=0.12, max_rounds=5, seed=1)
    assert r.verdict == Verdict.NOT_FOUND and r.rounds_used == 5

    rng = random.Random(18)
    f = unique_sat_3cnf(rng, 8, 30)
    r = ppsz_proper(f, s=1, epsilon=1.0, max_rounds=1, seed=2)  # budget = n
    assert r.verdict == Verdict.SAT and r.rounds_used == 1


def test_ppsz_budget_formula():
    assert ppsz_budget(10, 0.12) == 5   # ceil(0.5 * 10)
    assert ppsz_budget(12, 0.12) == 6


def test_guess_bound_examples():
    forced = F(3, [[1], [2], [3]])
    rep = estimate_permutation_guess_bound(forced, 8, seed=3, threshold=0)
    assert set(rep["minGuesses"]) == {0}
    assert rep["fractionExceeding"] == 0.0

    single = F(2, [[1, 2]])
    rep = estimate_permutation_guess_bound(single, 8, seed=4, threshold=0)
    assert set(rep["minGuesses"]) == {1}
    assert rep["fractionExceeding"] == 1.0

    with pytest.raises(ValueError):
        estimate_permutation_guess_bound(F(1, [[1], [-1]]), 4, seed=5)


def test_guess_bound_distribution_fixture():
    rng = random.Random(19)
    f = unique_sat_3cnf(rng, 9, 34)
    rep = estimate_permutation_guess_bound(f, 30, seed=6)
    assert len(rep["minGuesses"]) == 30
    assert all(0 <= g <= 9 for g in rep["minGuesses"])
    assert rep["rng"] == "random.Random"


def test_search_tree_json_round_trip():
    f = F(2, [[1, 2]])
    res = tree_stats(f, EngineConfig(kind=DPLL), collect_tree=True)
    back = SearchTree.from_json(res.tree.to_json())
    assert back.parents == res.tree.parents
    assert back.marked == res.tree.marked
    assert back.edges == res.tree.edges
    assert back.depth_bound == res.tree.depth_bound
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(3, 8)
        f = random_kcnf(rng, n, rng.randint(3, 25))
        for cfg in (EngineConfig(kind=DPLL), dnc_config(f, budget=rng.randint(0, n))):
            tree = tree_stats(f, cfg, collect_tree=True).tree
            assert SearchTree.from_json(tree.to_json()).to_json() == tree.to_json()


def test_dnc_ignores_dpll_rules_and_keeps_no_pure_literal_counters(monkeypatch):
    # dncPPSZ forces by s-implication alone, whatever rules its config names.
    rng = random.Random(22)
    cases = []
    for _ in range(20):
        n = rng.randint(3, 8)
        f = random_kcnf(rng, n, rng.randint(3, 25))
        perm = tuple(rng.sample(range(1, n + 1), n))
        budget = rng.randint(0, n)
        default_rules = EngineConfig(kind=DNCPPSZ, permutation=perm, guess_budget=budget)
        assert default_rules.reduction_rules == ("unit", "pureLiteral")
        plain = dnc_config(f, budget=budget, perm=perm)
        assert (tree_stats(f, default_rules, collect_tree=True).tree.to_json()
                == tree_stats(f, plain, collect_tree=True).tree.to_json())
        cases.append((f, default_rules))
    f = F(3, [[1, 2], [-2, 3]])
    dpll = treesearch._EngineState(f, EngineConfig(kind=DPLL).validated(f))
    state = treesearch._EngineState(f, EngineConfig(kind=DNCPPSZ).validated(f))
    assert state.touch is None and not state.track_unit
    # 1 = 1 satisfies [1, 2], so 2 is pure: DPLL's pure-literal rule sets it.
    assert dpll.chain(1, 1) is None and dpll.values == [UNSET, 1, 0, UNSET]
    assert state.chain(1, 1) == 2 and state.maybe_pure == 0
    # 2 = 1 leaves [-2, 3] unit: dncPPSZ forces 3 by s-implication, and keeps
    # no unit candidates for DPLL's unit rule.
    assert state.chain(2, 1) is None and state.values == [UNSET, 1, 1, 1]
    assert state.unit_vars == state.maybe_pure == 0

    def consulted(self):
        raise AssertionError("dncPPSZ consulted a DPLL rule")

    monkeypatch.setattr(treesearch._EngineState, "find_pure", consulted)
    monkeypatch.setattr(treesearch._EngineState, "find_implied", consulted)
    for f, config in cases:
        tree_stats(f, config)


def test_search_tree_json_requires_preorder():
    # Out of preorder, a subtree need not be the id range that
    # SearchTree.subtree reads.
    good = {"numVars": 3, "parents": [-1, 0, 1, 2], "edges": [None, [1, 0], [2, 1], [3, 0]],
            "marked": [False] * 4, "depthBound": 3}
    assert SearchTree.from_json(json.dumps(good)).parents == [-1, 0, 1, 2]
    for parents in ([-1, 2, 0, 1], [0, -1, 1, 1], [-1, 0, 2, 1], [-1, -1, 1, 2],
                    # Parents precede children, but subtree(1) is {1, 3}.
                    [-1, 0, 0, 1]):
        bad = dict(good, parents=parents)
        with pytest.raises(ValueError, match="not in preorder"):
            SearchTree.from_json(json.dumps(bad))


JSON_TREE = {"numVars": 2, "parents": [-1, 0, 0], "edges": [None, [1, 0], [1, 1]],
             "marked": [False, False, True], "depthBound": 2}


@pytest.mark.parametrize("field, value, message", [
    ("marked", [False, False], "marked has 2 entries for 3 vertices"),
    ("edges", [None, [1, 0]], "edges has 2 entries for 3 vertices"),
    ("depthBound", 0, "depthBound must be at least 1, got 0"),
    ("depthBound", -3, "depthBound must be at least 1, got -3"),
    ("depthBound", "3", "depthBound must be an integer or null, got '3'"),
    ("depthBound", 1.5, "depthBound must be an integer or null, got 1.5"),
    ("numVars", "x", "numVars must be an integer, got 'x'"),
    ("marked", [False, "no", True], "marked entry 1 must be 0, 1, false or true, got 'no'"),
    ("parents", [-1, "0", 0], "parents entry 1 must be an integer, got '0'"),
    ("edges", [None, [1, 7], [1, 1]], "edges entry 1 must be null or [var, value] with "
                                      "var in 1..2 and value 0 or 1, got [1, 7]"),
    ("edges", [None, [1, 0], [9, 1]], "edges entry 2 must be null or [var, value] with "
                                      "var in 1..2 and value 0 or 1, got [9, 1]"),
    ("edges", [None, "ab", [1, 1]], "edges entry 1 must be null or [var, value] with "
                                    "var in 1..2 and value 0 or 1, got 'ab'"),
    ("edges", [[1, 0], [1, 0], [1, 1]],
     "edges entry 0 (the root's) must be null, got [1, 0]"),
    ("depths", [0, 1, 1], "tree JSON has an unknown field 'depths'"),
    ("parents", {"0": -1}, "parents must be a list, got {'0': -1}"),
    ("numVars", -5, "numVars must be at least 1, got -5"),
    ("numVars", 0, "numVars must be at least 1, got 0"),
])
def test_search_tree_json_rejects_malformed_fields(field, value, message):
    assert SearchTree.from_json(json.dumps(JSON_TREE)).assignment_pairs(2) == {1: 1}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SearchTree.from_json(json.dumps(dict(JSON_TREE, **{field: value})))


@pytest.mark.parametrize("text", ["[]", "5", "null", '"tree"'])
def test_search_tree_json_must_be_an_object(text):
    with pytest.raises(ValueError, match="^tree JSON must be an object$"):
        SearchTree.from_json(text)


@pytest.mark.parametrize("num_vars", [0, -2])
def test_search_tree_json_checks_a_null_depth_bound_as_num_vars(num_vars):
    # A null depthBound means numVars, which must then be at least 1 too.
    assert SearchTree.from_json(json.dumps(dict(JSON_TREE, depthBound=None))).depth_bound == 2
    with pytest.raises(ValueError, match=f"^depthBound must be at least 1, got {num_vars}$"):
        SearchTree.from_json(json.dumps(dict(JSON_TREE, depthBound=None, numVars=num_vars)))


@pytest.mark.parametrize("field", list(JSON_TREE))
def test_search_tree_json_names_a_missing_field(field):
    partial = {name: value for name, value in JSON_TREE.items() if name != field}
    with pytest.raises(ValueError, match=f"^tree JSON has no '{field}' field$"):
        SearchTree.from_json(json.dumps(partial))


def test_search_tree_json_requires_a_root():
    # A tree with no vertices has no root for the walk or the decomposition.
    empty = dict(JSON_TREE, parents=[], edges=[], marked=[])
    with pytest.raises(ValueError, match="^the tree has no root: parents is empty$"):
        SearchTree.from_json(json.dumps(empty))

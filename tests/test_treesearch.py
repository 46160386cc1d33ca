import itertools
import json
import random

import pytest

from hybridts import treesearch
from hybridts.formula import (
    CnfFormula,
    PartialAssignment,
    Predicate,
    evaluate_predicate,
)
from hybridts.generators import (
    brute_force_models,
    brute_force_satisfiable,
    random_kcnf,
    unique_sat_3cnf,
)
from hybridts.treesearch import (
    DNCPPSZ,
    DPLL,
    ChildCount,
    EngineConfig,
    SearchTree,
    TreeNode,
    Verdict,
    ch1,
    ch2,
    ch_no,
    dnc_ppsz_solve,
    dpll_solve,
    estimate_permutation_guess_bound,
    min_guesses_to_solution,
    ppsz_budget,
    ppsz_proper,
    tree_stats,
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


def reference_tree_nodes(f, config):
    config = config.validated(f)
    nodes = []

    def walk(node):
        nodes.append(node.assignment.values)
        kind = ch_no(node, f, config)
        if kind == ChildCount.ONE_CHILD:
            walk(ch1(node, f, config))
        elif kind == ChildCount.TWO_CHILDREN:
            walk(ch2(node, f, config, 0))
            walk(ch2(node, f, config, 1))

    walk(TreeNode.root(f.num_vars))
    return nodes


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
        ref = reference_tree_nodes(f, cfg)
        res = tree_stats(f, cfg, collect_tree=True)
        got = [res.tree.assignment_of(v).values for v in range(res.tree.size)]
        assert got == ref
    for _ in range(25):
        n = rng.randint(3, 7)
        f = random_kcnf(rng, n, rng.randint(3, 20))
        cfg = dnc_config(f, s=rng.choice((1, 2)),
                         budget=rng.randint(0, n),
                         perm=tuple(rng.sample(range(1, n + 1), n)))
        ref = reference_tree_nodes(f, cfg)
        res = tree_stats(f, cfg, collect_tree=True)
        got = [res.tree.assignment_of(v).values for v in range(res.tree.size)]
        assert got == ref


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
    # walked with the restriction-based child rule.
    config = dnc_config(f, s=s, budget=f.num_vars, perm=perm)
    counts = []

    def walk(node):
        kind = ch_no(node, f, config)
        if kind == ChildCount.ONE_CHILD:
            walk(ch1(node, f, config))
        elif kind == ChildCount.TWO_CHILDREN:
            walk(ch2(node, f, config, 0))
            walk(ch2(node, f, config, 1))
        elif evaluate_predicate(f, node.assignment) == Predicate.SATISFIED:
            counts.append(node.guess_count)

    walk(TreeNode.root(f.num_vars))
    return min(counts, default=None)


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


def test_dnc_ignores_dpll_rules_and_keeps_no_pure_literal_counters():
    # dncPPSZ forces by s-implication alone, whatever rules its config names.
    rng = random.Random(22)
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
    f = F(3, [[1, 2], [-2, 3]])
    state = treesearch._EngineState(f, EngineConfig(kind=DNCPPSZ).validated(f))
    counters = (list(state.alive_pos), list(state.alive_neg), list(state.pure_heap))
    state.assign(1, 1)   # satisfies [1, 2]: DPLL would drop 2 from alive_pos
    assert not state.track_pure
    assert (state.alive_pos, state.alive_neg, state.pure_heap) == counters
    state.assign(2, 1)   # leaves [-2, 3] unit: DPLL's unit rule would list it
    assert not state.track_unit and not state.unit_set


def test_search_tree_json_requires_preorder():
    # Out of preorder, a subtree need not be the id range that
    # SearchTree.subtree reads.
    good = {"numVars": 3, "parents": [-1, 0, 1, 2], "edges": [None, [1, 0], [2, 1], [3, 0]],
            "depths": [0, 1, 2, 3], "marked": [False] * 4, "depthBound": 3}
    assert SearchTree.from_json(json.dumps(good)).parents == [-1, 0, 1, 2]
    for parents, depths in (([-1, 2, 0, 1], [0, 2, 1, 3]), ([0, -1, 1, 1], [1, 0, 2, 2]),
                            ([-1, 0, 2, 1], [0, 1, 2, 3]), ([-1, -1, 1, 2], [0, 0, 1, 2]),
                            # Parents precede children, but subtree(1) is {1, 3}.
                            ([-1, 0, 0, 1], [0, 1, 1, 2])):
        bad = dict(good, parents=parents, depths=depths)
        with pytest.raises(ValueError, match="not in preorder"):
            SearchTree.from_json(json.dumps(bad))


@pytest.mark.parametrize("field, value, message", [
    ("marked", [False, False], "marked has 2 entries for 3 vertices"),
    ("edges", [None, [1, 0]], "edges has 2 entries for 3 vertices"),
    ("depths", [0, 1, 1, 2], "depths has 4 entries for 3 vertices"),
    ("depths", [0, 1, 5], "vertex 2 has depth 5, expected 1"),
    ("depths", [1, 2, 2], "vertex 0 has depth 1, expected 0"),
])
def test_search_tree_json_rejects_malformed_fields(field, value, message):
    good = {"numVars": 2, "parents": [-1, 0, 0], "edges": [None, [1, 0], [1, 1]],
            "depths": [0, 1, 1], "marked": [False, False, True], "depthBound": 2}
    assert SearchTree.from_json(json.dumps(good)).assignment_pairs(2) == {1: 1}
    with pytest.raises(ValueError, match=f"^{message}$"):
        SearchTree.from_json(json.dumps(dict(good, **{field: value})))

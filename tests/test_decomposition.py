import itertools
import math
import random

import pytest

from hybridts.decomposition import (
    MEASURE_BRANCHING,
    MEASURE_HEIGHT,
    CostModel,
    CutSubtree,
    TreeDecomposition,
    check_metatheorem_conditions,
    decompose,
    fit_uniform_hybrid_exponent,
    hybrid_query_count,
    leaves_bound_check,
    predicted_exponent,
    sia_region_feasible,
    tree_size_estimation_cost,
    uniform_density_scan,
    uniform_family_decomposition,
)
from hybridts.formula import CnfFormula
from hybridts.generators import random_kcnf
from hybridts.qwalk import find_marked
from hybridts.treesearch import DNCPPSZ, EngineConfig, SearchTree, tree_stats


def complete_tree(height):
    parents, depths = [-1], [0]
    frontier = [0]
    for d in range(1, height + 1):
        nxt = []
        for p in frontier:
            for _ in range(2):
                parents.append(p)
                depths.append(d)
                nxt.append(len(parents) - 1)
        frontier = nxt
    marked = [False] * len(parents)
    return SearchTree(height, parents, [None] * len(parents), depths, marked)


def comb_tree(n):
    # Line of n vertices, one extra leaf on every non-final line vertex:
    # 2n - 1 vertices, n - 1 branchings.
    parents, depths = [-1], [0]
    spine = 0
    for _ in range(1, n):
        parents.append(spine)              # tooth
        depths.append(depths[spine] + 1)
        parents.append(spine)              # next spine vertex
        depths.append(depths[spine] + 1)
        spine = len(parents) - 1
    marked = [False] * len(parents)
    return SearchTree(n, parents, [None] * len(parents), depths, marked)


def chain_tree(n):
    parents = [-1] + list(range(n - 1))
    depths = list(range(n))
    return SearchTree(n, parents, [None] * n, depths, [False] * n)


def test_decompose_complete_tree_budget2():
    tree = complete_tree(4)
    d = decompose(tree, "height", 2)
    assert d.top_tree_size == 3
    assert d.num_subtrees == 4
    assert all(c.size == 7 for c in d.cutoffs)
    assert d.top_tree_size + d.subtree_total == 31


def test_decompose_degenerate_budget():
    tree = complete_tree(3)
    d = decompose(tree, "height", 10)
    assert d.top_tree_size == 0
    assert d.num_subtrees == 1
    assert d.cutoffs[0].size == tree.size


def test_decompose_comb():
    tree = comb_tree(10)
    d = decompose(tree, "height", 3)
    nontrivial = [c for c in d.cutoffs if c.size > 1]
    assert len(nontrivial) == 1
    trivial = [c for c in d.cutoffs if c.size == 1]
    assert len(trivial) >= 5   # the teeth become trivial extended entries


def test_decompose_budget_monotone():
    rng = random.Random(21)
    for _ in range(20):
        f = random_kcnf(rng, rng.randint(4, 8), rng.randint(3, 20))
        res = tree_stats(f, EngineConfig(), collect_tree=True)
        tops = [decompose(res.tree, "height", b).top_tree_size
                for b in range(0, res.stats.height + 2)]
        assert all(a >= b for a, b in zip(tops, tops[1:]))


def test_decompose_branching_measure():
    tree = complete_tree(4)
    d = decompose(tree, "branchingNumber", 2)
    assert d.top_tree_size + d.subtree_total == tree.size
    assert all(c.branching <= 2 for c in d.cutoffs)


def test_leaves_bound_examples():
    full = complete_tree(2)          # T = 7, K = 4 = (T+1)/2
    rep = leaves_bound_check(full)
    assert rep["holds"] and rep["K"] == 4 and rep["upper"] == 4.0

    path = chain_tree(9)             # K = 1, lower bound tight
    rep = leaves_bound_check(path)
    assert rep["holds"] and rep["K"] == 1 and rep["lower"] == 1.0


def test_leaves_bound_random_trees():
    rng = random.Random(22)
    for _ in range(200):
        f = random_kcnf(rng, rng.randint(3, 10), rng.randint(2, 30))
        res = tree_stats(f, EngineConfig(), collect_tree=True)
        assert leaves_bound_check(res.tree)["holds"]


def test_hybrid_query_count_examples():
    decomp = TreeDecomposition(31, 3, [CutSubtree(-1, 7, 2, 2, count=4)], 4,
                               "height", 2)
    sqrt_cost = hybrid_query_count(decomp, CostModel(phi="sqrt"))
    assert abs(sqrt_cost - (3 + 4 * math.sqrt(7))) < 1e-12
    assert abs(sqrt_cost - 13.583) < 1e-3
    classical = hybrid_query_count(decomp, CostModel(phi="classical"))
    assert classical == 31.0


def test_hybrid_query_sqrt_below_classical():
    rng = random.Random(23)
    for _ in range(20):
        f = random_kcnf(rng, rng.randint(4, 8), rng.randint(3, 16))
        res = tree_stats(f, EngineConfig(), collect_tree=True)
        d = decompose(res.tree, "height", 2)
        assert hybrid_query_count(d, CostModel(phi="sqrt")) <= \
            hybrid_query_count(d, CostModel(phi="classical"))


def test_complete_tree_chain_matches_exponent():
    # Uniform complete tree, gamma = 1/2: the cost chain lands on 2^(0.75 n).
    for n in (16, 20, 24):
        decomp = uniform_family_decomposition(n, 1.0, 0.5)
        cost = hybrid_query_count(decomp, CostModel(phi="sqrt"))
        assert abs(math.log2(cost) / n - 0.75) < 0.07


def test_worst_case_averaging_for_concave_phi():
    # With total and J fixed, equal subtree sizes maximize sum(sqrt).
    total, j = 64, 4
    equal = j * math.sqrt(total / j)
    rng = random.Random(24)
    for _ in range(200):
        cuts = sorted(rng.sample(range(1, total), j - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        assert sum(math.sqrt(p) for p in parts) <= equal + 1e-9


def test_metatheorem_conditions():
    # Degenerate complete-tree series: average subtree exponent ~ lambda = 1.
    series = [(n, uniform_family_decomposition(n, 1.0, 1.0))
              for n in range(12, 26, 2)]
    report = check_metatheorem_conditions(series, 1.0, 0.5)
    assert abs(report["condition1"]["fittedExponent"] - 1.0) <= 0.02
    # phi = sqrt halves the exponent: delta ~ 1/2.
    assert abs(report["condition2"]["fittedExponent"] - 0.5) <= 0.02

    # Counterexample family: one big subtree, the other leaves are trivial;
    # the extended average is Theta(1) and condition 1 fails.
    def counterexample(n):
        h = n // 2
        big = CutSubtree(-1, 2 ** (h + 1) - 1, h, h)
        trivial = CutSubtree(-1, 1, 0, 0, count=2 ** h - 1)
        total = (2 ** (h + 1) - 1) + (2 ** h - 1) + (2 ** (h + 1) - 1)
        return TreeDecomposition(total, 2 ** (h + 1) - 1, [big, trivial],
                                 2 ** h, "height", h)

    series = [(n, counterexample(n)) for n in range(12, 26, 2)]
    report = check_metatheorem_conditions(series, 1.0, 0.5)
    assert abs(report["condition1"]["fittedExponent"]) <= 0.1
    assert not report["condition1"]["ok"]

    with pytest.raises(ValueError):
        check_metatheorem_conditions(series[:2], 1.0, 0.5)


def test_uniform_density_scan():
    tree = complete_tree(8)
    rep = uniform_density_scan(tree, 0.5)
    assert rep["minDensity"] > 0.95
    assert rep["fractionExponential"] == 1.0

    comb = comb_tree(24)
    rep = uniform_density_scan(comb, 0.5)
    assert rep["maxDensity"] < 0.5
    assert rep["fractionExponential"] == 0.0

    # Planted dense bottom inside a sparse chain.
    chain = chain_tree(12)
    parents = list(chain.parents)
    depths = list(chain.depths)
    frontier = [len(parents) - 1]
    for d in range(6):
        nxt = []
        for p in frontier:
            for _ in range(2):
                parents.append(p)
                depths.append(depths[p] + 1)
                nxt.append(len(parents) - 1)
        frontier = nxt
    mixed = SearchTree(18, parents, [None] * len(parents), depths,
                       [False] * len(parents))
    rep = uniform_density_scan(mixed, 0.3, density_threshold=0.8)
    assert rep["fractionExponential"] > 0.0

    # Branching-level variant sees the full tree as dense.
    rep = uniform_density_scan(complete_tree(8), 0.5, measure="branchingNumber")
    assert rep["count"] > 0 and rep["minDensity"] > 0.9

    with pytest.raises(ValueError, match="unknown effective-size measure 'heigth'"):
        uniform_density_scan(chain_tree(5), 0.5, measure="heigth")


def test_predicted_exponent_examples():
    assert predicted_exponent(1, 1) == 0.5
    assert predicted_exponent(0, 1) == 1.0
    assert predicted_exponent(0.5, 1) == 0.75
    with pytest.raises(ValueError):
        predicted_exponent(1.5, 1)


def test_sia_region_examples():
    beta, zeta = sia_region_feasible(0.5, 0.5, 0.01)
    assert zeta * math.log2(1 / zeta) <= (1 - beta - 0.01) * 0.5
    assert beta * 0.5 < 2 * 0.5 * zeta

    zetas = [sia_region_feasible(k / 100, 0.5, 0.01)[1]
             for k in range(5, 101, 5)]
    assert all(a <= b for a, b in zip(zetas, zetas[1:]))

    with pytest.raises(ValueError):
        sia_region_feasible(0.0, 0.5, 0.01)


def test_tree_size_estimation_cost():
    assert tree_size_estimation_cost(1, 9) == 27.0
    assert tree_size_estimation_cost(100, 4) == 4 ** 1.5 * 10
    # Crossover against the classical T': solve n^1.5 sqrt(T') = T'.
    n = 16
    crossover = n ** 3
    assert tree_size_estimation_cost(crossover, n) == pytest.approx(crossover)
    assert tree_size_estimation_cost(crossover * 4, n) < crossover * 4
    with pytest.raises(ValueError):
        tree_size_estimation_cost(0, 4)


def test_fit_uniform_hybrid_exponent_matrix():
    ns = list(range(16, 29))
    for lam in (0.5, 0.8, 1.0):
        for kp in (0.25, 0.5):
            fit = fit_uniform_hybrid_exponent(lam, kp, ns)
            assert abs(fit["error"]) <= 0.05


def test_reconstitution_on_engine_trees():
    rng = random.Random(25)
    for _ in range(30):
        f = random_kcnf(rng, rng.randint(4, 9), rng.randint(3, 25))
        res = tree_stats(f, EngineConfig(), collect_tree=True)
        for budget in (1, 2, 3):
            d = decompose(res.tree, "height", budget)
            assert d.top_tree_size + d.subtree_total == res.tree.size


def test_cutoff_subtrees_match_the_decomposition():
    rng = random.Random(26)
    dnc = EngineConfig(kind="dncppsz", reduction_rules=("sImplication",), s=1)
    checked = 0
    for _ in range(20):
        n = rng.randint(4, 9)
        f = random_kcnf(rng, n, rng.randint(n, 4 * n))
        for config in (EngineConfig(), dnc):
            tree = tree_stats(f, config, collect_tree=True).tree
            assert tree.depth_bound == n
            for c in decompose(tree, "height", n // 2).cutoffs:
                sub, order = tree.subtree(c.root)
                assert sub.size == c.size
                assert max(sub.depths) == c.height
                assert sub.depth_bound == max(1, c.height)
                assert sub.marked == [tree.marked[v] for v in order]
                assert sub.edges == [None] + [tree.edges[v] for v in order[1:]]
                above = tree.assignment_pairs(c.root)
                for new, old in enumerate(order):
                    joined = {**above, **sub.assignment_pairs(new)}
                    assert joined == tree.assignment_pairs(old)
                checked += 1
    assert checked >= 200


def test_measure_monotonicity_guard():
    metrics_ok = complete_tree(3)
    decompose(metrics_ok, "height", 1)
    with pytest.raises(ValueError):
        decompose(metrics_ok, "weirdMeasure", 1)


# Reference walkers: a depth-first subtree copy and a stack walk of the top
# tree over child lists, which the preorder ranges and the measure read-off
# replace.

def oracle_subtree(tree: SearchTree, root: int) -> tuple[SearchTree, list[int]]:
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(tree.children[v]))
    remap = {old: new for new, old in enumerate(order)}
    parents = [-1] + [remap[tree.parents[v]] for v in order[1:]]
    base = tree.depths[root]
    depths = [tree.depths[v] - base for v in order]
    marked = [tree.marked[v] for v in order]
    edges = [None] + [tree.edges[v] for v in order[1:]]
    return (SearchTree(tree.num_vars, parents, edges, depths, marked,
                       max(1, max(depths))), order)


def oracle_decompose(tree: SearchTree, measure: str, budget: float) -> TreeDecomposition:
    kids = tree.children
    n = tree.size
    sizes, heights, brs = [1] * n, [0] * n, [0] * n
    for v in range(n - 1, -1, -1):
        if kids[v]:
            sizes[v] = 1 + sum(sizes[c] for c in kids[v])
            heights[v] = 1 + max(heights[c] for c in kids[v])
            brs[v] = max(brs[c] for c in kids[v]) + (len(kids[v]) == 2)
    values = heights if measure == MEASURE_HEIGHT else brs
    cutoffs = []
    top_size = free_top_leaves = 0
    if values[0] <= budget:
        cutoffs.append(CutSubtree(0, sizes[0], heights[0], brs[0]))
    else:
        stack = [0]
        while stack:
            v = stack.pop()
            top_size += 1
            for c in kids[v]:
                if values[c] <= budget:
                    cutoffs.append(CutSubtree(c, sizes[c], heights[c], brs[c]))
                else:
                    stack.append(c)
            free_top_leaves += not kids[v]
        cutoffs.sort(key=lambda c: c.root)
    return TreeDecomposition(n, top_size, cutoffs,
                             sum(c.count for c in cutoffs) + 2 * free_top_leaves,
                             measure, budget)


def budgets(n):
    return (-1, 0, 1, n // 2, n, n + 5, 2.5)


def test_preorder_ranges_match_the_walkers():
    rng = random.Random(27)
    trees = 0
    for _ in range(70):
        n = rng.randint(3, 9)
        f = random_kcnf(rng, n, rng.randint(n, 5 * n))
        perm = tuple(rng.sample(range(1, n + 1), n))
        configs = [EngineConfig()] + [
            EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",), s=s,
                         permutation=perm, guess_budget=rng.randint(0, n))
            for s in (1, 2)]
        for config in configs:
            tree = tree_stats(f, config, collect_tree=True).tree
            for v in range(tree.size):
                sub, ids = tree.subtree(v)
                ref, order = oracle_subtree(tree, v)
                assert sub == ref and list(ids) == order
            for measure in (MEASURE_HEIGHT, MEASURE_BRANCHING):
                for budget in budgets(n):
                    assert (decompose(tree, measure, budget)
                            == oracle_decompose(tree, measure, budget))
            trees += 1
    assert trees >= 200


def test_breadth_first_tree_has_no_subtree_ranges():
    # Complete depth-3 tree numbered breadth-first; its last leaf is marked.
    tree = complete_tree(3)
    tree.marked[-1] = True
    for call in (lambda: tree.subtree(1), lambda: find_marked(tree, seed=5)):
        with pytest.raises(ValueError, match="vertex 2 has parent 0: the tree is not in preorder"):
            call()
    # Parents still precede children, which is all the decomposition needs.
    for measure in (MEASURE_HEIGHT, MEASURE_BRANCHING):
        for budget in budgets(3):
            assert decompose(tree, measure, budget) == oracle_decompose(tree, measure, budget)

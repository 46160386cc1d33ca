import math
import random

import numpy as np
import pytest

from hybridts import config
from hybridts.formula import (
    CnfFormula,
    PartialAssignment,
    Predicate,
    evaluate_predicate,
)
from hybridts.generators import random_kcnf
from hybridts.qwalk import (
    DETECTION_BETA,
    WalkTree,
    build_diffusion,
    build_walk_operator,
    detect_marked,
    detection_trials,
    find_marked,
    phase_mass_at_zero,
)
from hybridts.treesearch import EngineConfig, SearchTree, tree_stats


def walk_tree(parents, depths, marked, depth_bound):
    return SearchTree(depth_bound, parents, [None] * len(parents), depths, marked,
                      depth_bound)


def two_node_marked():
    return walk_tree([-1, 0], [0, 1], [False, True], 1)


def dpll_walk_tree(f, rules=("unit", "pureLiteral")):
    res = tree_stats(f, EngineConfig(kind="dpll", reduction_rules=rules),
                     collect_tree=True)
    return res, WalkTree.from_search_tree(res.tree, depth_bound=f.num_vars)


def test_diffusion_examples():
    tree = walk_tree([-1, 0, 0, 1], [0, 1, 1, 2], [False, False, True, False], 3)
    # Unmarked leaf: reflection about the vertex itself.
    spec = build_diffusion(tree, 3)
    assert spec["type"] == "reflection" and spec["star"] == [3]
    # Marked vertex: identity block.
    assert build_diffusion(tree, 2)["type"] == "identity"
    # Root with 2 children at depth bound 3: amplitudes (1, sqrt3, sqrt3)/sqrt7.
    spec = build_diffusion(tree, 0)
    want = np.array([1, math.sqrt(3), math.sqrt(3)]) / math.sqrt(7)
    assert np.allclose(spec["amplitudes"], want)


def test_two_node_closed_form():
    op = build_walk_operator(two_node_marked())
    assert op.unitarity_residual() < 1e-12
    assert abs(op.mass_at_zero() - 0.5) < 1e-12
    det = detect_marked(two_node_marked(), delta=0.1, seed=0)
    assert det.per_trial_phase_mass[0] >= 0.5 - 1e-9


def test_walk_operator_reflections_square_to_identity():
    rng = random.Random(31)
    for _ in range(15):
        f = random_kcnf(rng, rng.randint(3, 7), rng.randint(3, 18))
        _, tree = dpll_walk_tree(f)
        op = build_walk_operator(tree)
        eye = np.eye(op.dimension)
        assert np.abs(op.r_a @ op.r_a - eye).max() < 1e-10
        assert np.abs(op.r_b @ op.r_b - eye).max() < 1e-10
        assert op.r_b[0, 0] == 1.0  # R_B fixes the root


def test_marked_columns_are_identity():
    res, tree = dpll_walk_tree(CnfFormula.from_clauses(2, [[1, 2]]))
    op = build_walk_operator(tree)
    for v in range(tree.size):
        if tree.marked[v]:
            target = op.r_a if tree.depths[v] % 2 == 0 else op.r_b
            col = np.zeros(tree.size)
            col[v] = 1.0
            assert np.allclose(target[:, v], col)


def test_phase_mass_examples():
    op = build_walk_operator(two_node_marked())
    assert phase_mass_at_zero(op, 1e-9) == pytest.approx(0.5)
    # The -1 eigenphase lies far outside any small window.
    assert phase_mass_at_zero(op, 3.0) + 0 == pytest.approx(0.5)
    assert phase_mass_at_zero(op, 3.2) == pytest.approx(1.0)

    # Root itself an eigenvector of phase 0 (degenerate marked root: the
    # diffusion is the identity): the full mass sits at zero phase.
    trivial = walk_tree([-1], [0], [True], 1)
    op = build_walk_operator(trivial)
    assert phase_mass_at_zero(op, 1e-9) == pytest.approx(1.0)
    # An unmarked childless root reflects about itself: phase pi, zero mass
    # in any small window.
    unmarked = build_walk_operator(walk_tree([-1], [0], [False], 1))
    assert phase_mass_at_zero(unmarked, 1.0) == pytest.approx(0.0)


def test_marked_trees_have_zero_phase_root_overlap():
    rng = random.Random(32)
    seen_marked = 0
    for _ in range(25):
        f = random_kcnf(rng, rng.randint(3, 8), rng.randint(3, 25))
        res, tree = dpll_walk_tree(f)
        if tree.marked[0] or tree.size > 500:
            continue
        op = build_walk_operator(tree)
        mass = op.mass_at_zero()
        n = max(1, tree.depth_bound)
        window = DETECTION_BETA / math.sqrt(tree.size * n)
        if res.stats.sat_leaves:
            seen_marked += 1
            assert mass >= 0.5 - 1e-9
        else:
            assert op.mass_in_window(window) <= 0.25
    assert seen_marked >= 5


def test_detection_matches_ground_truth():
    rng = random.Random(33)
    errors = trials = 0
    for i in range(20):
        f = random_kcnf(rng, rng.randint(3, 8), rng.randint(3, 25))
        res, tree = dpll_walk_tree(f)
        if tree.marked[0] or tree.size > 500:
            continue
        op = build_walk_operator(tree)
        truth = res.stats.sat_leaves > 0
        for rep in range(10):
            det = detect_marked(tree, delta=0.1, seed=1000 * i + rep, op=op)
            trials += 1
            errors += det.marked != truth
    assert trials >= 100
    assert errors / trials <= 0.1


def test_detection_result_fields():
    det = detect_marked(two_node_marked(), delta=0.1, seed=7)
    assert det.trials == detection_trials(0.1)
    assert det.trials >= 16
    assert det.acceptances <= det.trials
    assert len(det.per_trial_phase_mass) == det.trials


def test_find_marked_end_to_end():
    rng = random.Random(34)
    checked = 0
    for i in range(12):
        n = rng.randint(3, 7)
        f = random_kcnf(rng, n, rng.randint(3, 18))
        res, tree = dpll_walk_tree(f)
        if tree.marked[0]:
            continue
        v = find_marked(tree, delta=0.1, seed=i)
        if res.stats.sat_leaves:
            assert v is not None and tree.marked[v]
            a = PartialAssignment.of(n, tree.assignment_pairs(v))
            assert evaluate_predicate(f, a) == Predicate.SATISFIED
        else:
            assert v is None
        checked += 1
    assert checked >= 8


def test_find_marked_last_leaf_no_order_bias():
    # Complete depth-3 tree whose only marked vertex is the last leaf.
    parents = [-1]
    depths = [0]
    frontier = [0]
    for d in range(1, 4):
        nxt = []
        for p in frontier:
            for _ in range(2):
                parents.append(p)
                depths.append(d)
                nxt.append(len(parents) - 1)
        frontier = nxt
    marked = [False] * len(parents)
    marked[-1] = True
    tree = walk_tree(parents, depths, marked, 3)
    v = find_marked(tree, delta=0.1, seed=5)
    assert v == len(parents) - 1


def test_dimension_cap():
    big = walk_tree(list(range(-1, 9)), list(range(10)), [False] * 10, 9)
    with pytest.raises(ValueError):
        build_walk_operator(big, dim_cap=5)


def test_dim_cap_env_must_parse(monkeypatch):
    monkeypatch.setenv("HYBRIDTS_DIM_CAP", "4k")
    with pytest.raises(ValueError, match="HYBRIDTS_DIM_CAP .*'4k'"):
        config.walk_dim_cap()


def test_walk_tree_json_round_trip():
    res, tree = dpll_walk_tree(CnfFormula.from_clauses(3, [[1, 2, 3]]))
    back = WalkTree.from_json(tree.to_json())
    assert back.parents == tree.parents
    assert back.marked == tree.marked
    assert back.edges == tree.edges
    assert back.depth_bound == tree.depth_bound

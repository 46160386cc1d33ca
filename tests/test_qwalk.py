import math
import random

import numpy as np
import pytest
import scipy.linalg

from hybridts import config, qwalk
from hybridts.decomposition import decompose
from hybridts.formula import (
    CnfFormula,
    PartialAssignment,
    Predicate,
    evaluate_predicate,
)
from hybridts.generators import random_kcnf
from hybridts.qwalk import (
    DETECTION_BETA,
    WalkOperator,
    WalkTree,
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


# Reference implementations: per-vertex star assembly and the real Schur
# decomposition of W = R_B R_A, which the library's vectorised assembly and
# symmetric eigensolve replace.

def oracle_diffusion(tree: SearchTree, vertex: int) -> dict:
    """Identity for marked vertices, otherwise the reflection about the star
    state (root weighted by sqrt(n))."""
    if tree.marked[vertex]:
        return {"type": "identity", "vertex": vertex}
    kids = tree.children[vertex]
    star = [vertex] + kids
    if vertex == 0:
        n = tree.depth_bound
        amps = np.array([1.0] + [math.sqrt(n)] * len(kids))
        amps /= math.sqrt(1 + len(kids) * n)
    else:
        amps = np.full(len(star), 1.0 / math.sqrt(tree.degree(vertex)))
    return {"type": "reflection", "vertex": vertex, "star": star,
            "amplitudes": amps}


def oracle_reflections(tree: SearchTree) -> tuple[np.ndarray, np.ndarray]:
    t = tree.size
    r_a = np.eye(t)
    r_b = np.eye(t)
    for vertex in range(t):
        spec = oracle_diffusion(tree, vertex)
        if spec["type"] == "identity":
            continue
        target = r_a if tree.depths[vertex] % 2 == 0 else r_b
        star = spec["star"]
        psi = spec["amplitudes"]
        target[np.ix_(star, star)] -= 2.0 * np.outer(psi, psi)
    return r_a, r_b


def schur_profile(w: np.ndarray, root: int = 0) -> list[tuple[float, float]]:
    """(|phase|, root mass) per real Schur block of w."""
    t_mat, q = scipy.linalg.schur(w, output="real")
    dim = w.shape[0]
    profile = []
    i = 0
    while i < dim:
        if i + 1 < dim and abs(t_mat[i + 1, i]) > 1e-10:
            # standardized 2x2 block: complex pair cos(theta) +/- i sin(theta)
            cos_t = 0.5 * (t_mat[i, i] + t_mat[i + 1, i + 1])
            sin_sq = -t_mat[i, i + 1] * t_mat[i + 1, i]
            sin_t = math.sqrt(max(sin_sq, 0.0))
            phase = abs(math.atan2(sin_t, cos_t))
            mass = float(q[root, i] ** 2 + q[root, i + 1] ** 2)
            profile.append((phase, mass))
            i += 2
        else:
            phase = 0.0 if t_mat[i, i] > 0 else math.pi
            profile.append((phase, float(q[root, i] ** 2)))
            i += 1
    return profile


class SchurOperator(WalkOperator):
    """Per-vertex assembly and window masses from the Schur profile."""

    def __init__(self, tree: SearchTree):
        super().__init__(tree, *oracle_reflections(tree))
        self.profile = schur_profile(self.product)

    def mass_in_window(self, precision: float) -> float:
        return sum(mass for phase, mass in self.profile if phase < precision)


def walk_corpus(seed=41, formulas=12):
    """DPLL and dncPPSZ (s=1) whole trees, their cut-offs at height n // 2,
    and the subtree of every vertex, without marked roots."""
    rng = random.Random(seed)
    dnc = EngineConfig(kind="dncppsz", reduction_rules=("sImplication",), s=1)
    trees = []
    for _ in range(formulas):
        n = rng.randint(4, 10)
        f = random_kcnf(rng, n, rng.randint(2 * n, 5 * n))
        for engine in (EngineConfig(), dnc):
            tree = tree_stats(f, engine, collect_tree=True).tree
            trees.append(tree)
            trees += [tree.subtree(c.root)[0]
                      for c in decompose(tree, "height", n // 2).cutoffs]
            trees += [tree.subtree(v)[0] for v in range(1, tree.size)]
    return [t for t in trees if not t.marked[0]]


def test_diffusion_examples():
    tree = walk_tree([-1, 0, 0, 1], [0, 1, 1, 2], [False, False, True, False], 3)
    op = build_walk_operator(tree)
    # Unmarked leaf 3 (depth 2, R_A): reflection about the vertex itself.
    assert op.r_a[3, 3] == -1.0
    assert not op.r_a[3, :3].any() and not op.r_a[:3, 3].any()
    # Marked vertex 2 (depth 1, R_B): identity column.
    assert np.array_equal(op.r_b[:, 2], [0.0, 0.0, 1.0, 0.0])
    # Root with 2 children at depth bound 3: amplitudes (1, sqrt3, sqrt3)/sqrt7.
    psi = np.array([1, math.sqrt(3), math.sqrt(3)]) / math.sqrt(7)
    assert np.allclose(op.r_a[:3, :3], np.eye(3) - 2 * np.outer(psi, psi))
    # Vertex 1 (depth 1, R_B) with child 3: amplitudes (1, 1)/sqrt2.
    star = np.ix_([1, 3], [1, 3])
    assert np.allclose(op.r_b[star], [[0.0, -1.0], [-1.0, 0.0]])
    assert op.r_b[0, 0] == 1.0
    # The reference assembly agrees with the hand values too.
    spec = oracle_diffusion(tree, 0)
    assert spec["star"] == [0, 1, 2] and np.allclose(spec["amplitudes"], psi)
    assert oracle_diffusion(tree, 2)["type"] == "identity"


def random_walk_trees(seed=43, count=300):
    """Random shapes and marks, marked inner vertices included."""
    rng = random.Random(seed)
    trees = []
    for _ in range(count):
        parents, depths = [-1], [0]
        for v in range(1, rng.randint(1, 30)):
            parents.append(rng.randrange(v))
            depths.append(depths[parents[-1]] + 1)
        marked = [rng.random() < 0.2 for _ in parents]
        trees.append(walk_tree(parents, depths, marked, rng.randint(1, 6)))
    return trees


def test_vectorised_assembly_equals_per_vertex_oracle():
    corpus = walk_corpus() + random_walk_trees()
    assert len(corpus) >= 1500
    for tree in corpus:
        op = build_walk_operator(tree)
        r_a, r_b = oracle_reflections(tree)
        assert op.r_a.tobytes() == r_a.tobytes()  # bit for bit
        assert op.r_b.tobytes() == r_b.tobytes()


def test_window_mass_equals_schur_oracle():
    corpus = walk_corpus()
    for tree in corpus:
        op = build_walk_operator(tree)
        oracle = SchurOperator(tree)
        precision = DETECTION_BETA / math.sqrt(tree.size * max(1, tree.depth_bound))
        for p in (precision, 1e-9, 0.5, 3.2):
            assert abs(op.mass_in_window(p) - oracle.mass_in_window(p)) < 1e-12


def test_detection_and_search_equal_schur_oracle(monkeypatch):
    corpus = walk_corpus(seed=42, formulas=6)
    searched = [tree for tree in corpus if tree.size >= 16]
    verdicts = [detect_marked(tree, seed=i).verdict for i, tree in enumerate(corpus)]
    found = [find_marked(tree, seed=i) for i, tree in enumerate(searched)]
    assert len(searched) >= 40
    assert any(v is not None for v in found) and None in found
    monkeypatch.setattr(qwalk, "build_walk_operator", SchurOperator)
    assert verdicts == [detect_marked(tree, seed=i).verdict
                        for i, tree in enumerate(corpus)]
    assert found == [find_marked(tree, seed=i) for i, tree in enumerate(searched)]


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

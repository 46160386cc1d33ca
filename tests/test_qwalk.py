import math
import random
import re

import numpy as np
import pytest
import scipy.linalg

from hybridts import qwalk
from hybridts.decomposition import decompose
from hybridts.formula import CnfFormula
from hybridts.generators import random_kcnf
from hybridts.qwalk import (
    DETECTION_BETA,
    WalkTree,
    build_walk_operator,
    detect_marked,
    detection_trials,
    find_marked,
)
from hybridts.treesearch import EngineConfig, SearchTree, tree_stats
from reference import PartialAssignment, Predicate, evaluate_predicate


def walk_tree(parents, marked, depth_bound):
    return SearchTree(depth_bound, parents, [None] * len(parents), marked, depth_bound)


def two_node_marked():
    return walk_tree([-1, 0], [False, True], 1)


def dpll_walk_tree(f, rules=("unit", "pureLiteral")):
    res = tree_stats(f, EngineConfig(kind="dpll", reduction_rules=rules),
                     collect_tree=True)
    return res, WalkTree.from_search_tree(res.tree, depth_bound=f.num_vars)


# Reference implementations: per-vertex star assembly and the real Schur
# decomposition of W = R_B R_A, which the library's range pass replaces.

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
        amps = np.full(len(star), 1.0 / math.sqrt(len(star)))  # the degree
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


class SchurOperator:
    """Per-vertex assembly and window masses from the Schur profile."""

    def __init__(self, tree: SearchTree):
        r_a, r_b = oracle_reflections(tree)
        self.tree = tree
        self.product = r_b @ r_a
        self.profile = schur_profile(self.product)

    def mass_in_window(self, precision: float) -> float:
        return sum(mass for phase, mass in self.profile if phase < precision)


def eigh_window_count(w: np.ndarray, precision: float) -> int:
    """Eigenvalues of (W + W^T)/2 for nonzero phases inside the window: W is
    real orthogonal, so each plane of phases +-phi shows as a double
    eigenvalue cos(phi). Nonzero phases sit far above 1e-10 in 1 - cos (see
    the star-overlap test)."""
    lam = np.linalg.eigvalsh(0.5 * (w + w.T))
    gap = max(2.0 * math.sin(0.5 * precision) ** 2, qwalk.WINDOW_FLOOR)
    return int(np.count_nonzero((1.0 - lam < gap) & (1.0 - lam > 1e-10)))


def window_error(t: int, n: int, precision: float) -> str:
    """The library's message for a window that holds a nonzero phase."""
    return (f"the walk on T = {t} vertices with n = {n} has a nonzero phase "
            f"inside the window of precision {precision!r}")


class WindowOracle(SchurOperator):
    """The Schur oracle held to the library's contract: it refuses a
    precision outside (0, pi], and a window where eigh counts a nonzero phase."""

    def mass_in_window(self, precision: float) -> float:
        if not 0.0 < precision <= math.pi:
            raise ValueError(f"precision must lie in (0, pi], got {precision!r}")
        if eigh_window_count(self.product, precision):
            raise ValueError(window_error(self.tree.size, max(1, self.tree.depth_bound),
                                          precision))
        return super().mass_in_window(precision)


def oracle_find_marked(tree: SearchTree, delta: float = 0.1,
                       seed: int | None = None) -> int | None:
    """The copy-based descent: detection on a copy of each visited subtree,
    which the library's range pass replaces."""
    detection_trials(delta)
    rng = random.Random(seed)

    def detect_at(vertex: int) -> bool:
        return tree.marked[vertex] or detect_marked(
            tree.subtree(vertex)[0], delta, seed=rng.randrange(2 ** 30)).marked

    for _ in range(qwalk.FIND_RETRIES):
        if not detect_at(0):
            return None
        vertex = 0
        while vertex is not None and not tree.marked[vertex]:
            vertex = next((c for c in tree.children[vertex] if detect_at(c)), None)
        if vertex is not None:
            return vertex
    return None


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
    tree = walk_tree([-1, 0, 0, 1], [False, False, True, False], 3)
    r_a, r_b = oracle_reflections(tree)
    # Unmarked leaf 3 (depth 2, R_A): reflection about the vertex itself.
    assert r_a[3, 3] == -1.0
    assert not r_a[3, :3].any() and not r_a[:3, 3].any()
    # Marked vertex 2 (depth 1, R_B): identity column.
    assert np.array_equal(r_b[:, 2], [0.0, 0.0, 1.0, 0.0])
    # Root with 2 children at depth bound 3: amplitudes (1, sqrt3, sqrt3)/sqrt7.
    psi = np.array([1, math.sqrt(3), math.sqrt(3)]) / math.sqrt(7)
    assert np.allclose(r_a[:3, :3], np.eye(3) - 2 * np.outer(psi, psi))
    # Vertex 1 (depth 1, R_B) with child 3: amplitudes (1, 1)/sqrt2.
    star = np.ix_([1, 3], [1, 3])
    assert np.allclose(r_b[star], [[0.0, -1.0], [-1.0, 0.0]])
    assert r_b[0, 0] == 1.0
    spec = oracle_diffusion(tree, 0)
    assert spec["star"] == [0, 1, 2] and np.allclose(spec["amplitudes"], psi)
    assert oracle_diffusion(tree, 2)["type"] == "identity"


def random_walk_trees(seed=43, count=300):
    """Random shapes and marks, marked inner vertices included."""
    rng = random.Random(seed)
    trees = []
    for _ in range(count):
        parents = [-1] + [rng.randrange(v) for v in range(1, rng.randint(1, 30))]
        marked = [rng.random() < 0.2 for _ in parents]
        trees.append(walk_tree(parents, marked, rng.randint(1, 6)))
    return trees


def detection_precision(tree):
    return DETECTION_BETA / math.sqrt(tree.size * max(1, tree.depth_bound))


def windows(tree):
    """The detection window, widened 10x and 100x, and fixed windows from
    below eigh's resolution to past pi."""
    precision = detection_precision(tree)
    return (precision, 10 * precision, 100 * precision,
            1e-9, 0.05, 0.3, 0.5, 1.0, 3.2)


def test_window_mass_equals_schur_oracle():
    # Where eigh counts no nonzero phase in the window, the range pass gives
    # the Schur mass; where it counts one, or past pi, the library refuses.
    corpus = walk_corpus() + random_walk_trees()
    refused = 0
    for tree in corpus:
        op = build_walk_operator(tree)
        oracle = SchurOperator(tree)
        for p in windows(tree):
            if p > math.pi:
                with pytest.raises(ValueError, match=r"^precision must lie in \(0, pi\]"):
                    op.mass_in_window(p)
            elif eigh_window_count(oracle.product, p):
                error = window_error(tree.size, tree.depth_bound, p)
                with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                    op.mass_in_window(p)
                refused += 1
            else:
                assert abs(op.mass_in_window(p) - oracle.mass_in_window(p)) < 1e-12
    assert refused >= 100


def test_certificate_count_equals_eigh_count():
    # Each singular value of D in the window is one plane of W with phases
    # +-phi, which (W + W^T)/2 shows as a double eigenvalue cos(phi).
    corpus = walk_corpus() + random_walk_trees()
    fired = [0] * 8
    for tree in corpus:
        r_a, r_b = oracle_reflections(tree)
        w = r_b @ r_a
        for i, p in enumerate(windows(tree)[:-1]):
            gap = max(2.0 * math.sin(0.5 * p) ** 2, qwalk.WINDOW_FLOOR)
            x = math.sqrt(1.0 - 0.5 * gap)
            _, inside = qwalk._window_pass(tree, 0, tree.depth_bound, x)
            assert 2 * inside == eigh_window_count(w, p)
            fired[i] += inside > 0
    # The widened windows (10x, 100x, 0.3, 0.5, 1.0) hold nonzero phases,
    # which the library refuses; the detection window never does.
    assert fired[0] == 0
    assert min(fired[1], fired[2], *fired[5:]) >= 100


def test_detection_leaves_the_dense_operator_unbuilt():
    # Detection reads the range pass alone, and at its precision eigh counts
    # no nonzero phase, so it equals detection on the Schur oracle.
    corpus = walk_corpus() + random_walk_trees()
    for i, tree in enumerate(corpus):
        det = detect_marked(tree, seed=i)
        oracle = SchurOperator(tree)
        assert eigh_window_count(oracle.product, det.precision) == 0
        ref = detect_marked(tree, seed=i, op=oracle)
        assert det.verdict == ref.verdict and det.precision == ref.precision
        assert abs(det.per_trial_phase_mass[0] - ref.per_trial_phase_mass[0]) < 1e-12
    # A wide window that eigh finds a nonzero phase in is refused, not answered.
    wide = next(tree for tree in corpus
                if eigh_window_count(SchurOperator(tree).product, 1.0))
    error = window_error(wide.size, wide.depth_bound, 1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        build_walk_operator(wide).mass_in_window(1.0)


def star_matrices(tree):
    """Psi_A, Psi_B: the unit star vectors of even and odd depth as columns."""
    cols = {0: [], 1: []}
    for vertex in range(tree.size):
        spec = oracle_diffusion(tree, vertex)
        if spec["type"] == "reflection":
            col = np.zeros(tree.size)
            col[spec["star"]] = spec["amplitudes"]
            cols[tree.depths[vertex] % 2].append(col)
    return tuple(np.array(cols[parity]).reshape(-1, tree.size).T for parity in (0, 1))


def test_star_overlap_stays_below_one():
    # The root and every child of a marked vertex lie in one star only, so
    # range(Psi_A) and range(Psi_B) meet in 0 and sigma = 1 never occurs.
    for tree in walk_corpus() + random_walk_trees():
        psi_a, psi_b = star_matrices(tree)
        d = psi_a.T @ psi_b
        if d.size:
            assert np.linalg.svd(d, compute_uv=False).max() < 1 - 1e-9


@pytest.mark.parametrize("parents, depths, n", [
    ([-1, 0], [0, 1], 2),
    ([-1, 0, 0], [0, 1, 1], 1),
    ([-1, 0, 1, 0, 1], [0, 1, 2, 1, 2], 3),
    ([-1, 0, 1, 2, 2, 1, 0], [0, 1, 2, 3, 3, 2, 1], 5),
])
def test_certificate_counts_an_exact_zero_pivot(parents, depths, n):
    # At x = sqrt(2/3) the pivot of the root comes out 0.0 in the first two
    # trees, where a singular value of D sits exactly on x and counts as at
    # or above it. In the third, vertex 1's pivot is 0.0 and pairs with the
    # root; the one singular value above x is 0.965. In the fourth, vertex
    # 2's pivot is 0.0 and pairs with vertex 1, not with the root, so an
    # already-paired pivot must be neither counted again nor passed up.
    tree = walk_tree(parents, [False] * len(parents), n)
    assert tree.depths == depths
    x = math.sqrt(2 / 3)
    psi_a, psi_b = star_matrices(tree)
    sigma = np.linalg.svd(psi_a.T @ psi_b, compute_uv=False)
    assert np.count_nonzero(sigma > x - 1e-12) == 1
    assert qwalk._window_pass(tree, 0, n, x) == (0.0, 1)


@pytest.mark.parametrize("n, depth", [(1, 1), (3, 1), (3, 3), (5, 2), (2, 6)])
def test_closed_form_single_marked_vertex(n, depth):
    # A path to the marked vertex at `depth`, with an unmarked dead end hung
    # on every path vertex: the dead ends carry no current.
    parents = [-1]
    for d in range(1, depth + 1):
        path_vertex = len(parents) - 1 if d == 1 else len(parents) - 2
        parents += [path_vertex, path_vertex]
    marked = [False] * len(parents)
    marked[-2] = True
    tree = walk_tree(parents, marked, n)
    assert tree.depths[-2] == depth
    expected = n / (n + depth)
    assert build_walk_operator(tree).mass_in_window(1e-9) == pytest.approx(expected, abs=1e-12)
    assert SchurOperator(tree).mass_in_window(1e-9) == pytest.approx(expected, abs=1e-12)


def test_closed_form_two_marked_leaves():
    # Root 0 with marked leaf 1 (depth 1) and vertex 2, whose child 3 has
    # the marked leaf 4 (depth 3); leaf 5 under 2 is a dead end. Resistances
    # 1 and 3 in parallel: C(root) = 1 + 1/3 = 4/3, G = 3 * 4/3 = 4, and the
    # phase-0 root mass is G / (G + 1) = 4/5.
    tree = walk_tree([-1, 0, 0, 2, 3, 2], [False, True, False, False, True, False], 3)
    op = build_walk_operator(tree)
    assert op.mass_in_window(1e-9) == pytest.approx(0.8, abs=1e-12)
    assert SchurOperator(tree).mass_in_window(1e-9) == pytest.approx(0.8, abs=1e-12)
    assert op.mass_in_window(detection_precision(tree)) == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("kwargs, name", [
    ({"trials": 0}, "trials"), ({"trials": -3}, "trials"),
    ({"delta": 0.0}, "delta"), ({"delta": 1.0}, "delta"), ({"delta": 1.5}, "delta"),
    ({"delta": -0.1}, "delta"), ({"delta": float("nan")}, "delta"),
])
def test_detection_rejects_bad_trials_and_delta(kwargs, name):
    unmarked = walk_tree([-1, 0], [False, False], 1)
    for tree in (unmarked, two_node_marked(), walk_tree([-1], [True], 1)):
        with pytest.raises(ValueError, match=name):
            detect_marked(tree, seed=0, **kwargs)
        if name == "delta":
            with pytest.raises(ValueError, match=name):
                find_marked(tree, delta=kwargs["delta"], seed=0)


def test_detection_and_search_equal_schur_oracle(monkeypatch):
    corpus = walk_corpus(seed=42, formulas=6)
    searched = [tree for tree in corpus if tree.size >= 16]
    verdicts = [detect_marked(tree, seed=i).verdict for i, tree in enumerate(corpus)]
    found = [find_marked(tree, seed=i) for i, tree in enumerate(searched)]
    assert len(searched) >= 40
    assert any(v is not None for v in found) and None in found
    monkeypatch.setattr(qwalk, "WalkOperator", SchurOperator)
    assert verdicts == [detect_marked(tree, seed=i).verdict
                        for i, tree in enumerate(corpus)]
    # find_marked builds no operator, so the oracle descent carries Schur.
    assert found == [oracle_find_marked(tree, seed=i) for i, tree in enumerate(searched)]


def engine_trees(seed=44, formulas=25):
    """Whole DPLL and dncPPSZ (s = 1, 2) trees with random guess budgets."""
    rng = random.Random(seed)
    trees = []
    for _ in range(formulas):
        n = rng.randint(4, 12)
        f = random_kcnf(rng, n, rng.randint(2 * n, 5 * n))
        perm = tuple(rng.sample(range(1, n + 1), n))
        configs = [EngineConfig()] + [
            EngineConfig(kind="dncppsz", reduction_rules=("sImplication",), s=s,
                         permutation=perm, guess_budget=rng.randint(n // 2, n))
            for s in (1, 2)]
        trees += [tree_stats(f, c, collect_tree=True).tree for c in configs]
    return trees


def test_find_marked_equals_copy_based_oracle():
    corpus = walk_corpus() + random_walk_trees()
    assert len(corpus) == 1819
    trees = corpus + engine_trees()

    def outcome(search, tree, seed):
        # Random shapes need not be in preorder: then both must refuse alike.
        try:
            return search(tree, seed=seed)
        except ValueError as exc:
            return str(exc)

    found = [outcome(find_marked, tree, i) for i, tree in enumerate(trees)]
    assert found == [outcome(oracle_find_marked, tree, i) for i, tree in enumerate(trees)]
    assert sum(isinstance(v, int) for v in found) >= 600
    assert None in found and any(isinstance(v, str) for v in found)


@pytest.mark.parametrize("beta", [2.0, 50.0])
def test_find_marked_dense_fallback_equals_copy_based_oracle(beta, monkeypatch):
    # Windows this wide hold nonzero phases (beta 2) or pass pi (beta 50).
    # find_marked then refuses where the copy-based descent on the Schur
    # oracle, held to the same contract, refuses, with the same message, and
    # finds the same vertex elsewhere.
    trees = [tree for tree in walk_corpus(seed=42, formulas=6) if tree.size <= 40][::5]
    monkeypatch.setattr(qwalk, "DETECTION_BETA", beta)

    def outcome(search, tree, seed):
        try:
            return search(tree, seed=seed)
        except ValueError as exc:
            return str(exc)

    found = [outcome(find_marked, tree, i) for i, tree in enumerate(trees)]
    # find_marked builds no operator, so the oracle descent carries the oracle.
    monkeypatch.setattr(qwalk, "WalkOperator", WindowOracle)
    assert found == [outcome(oracle_find_marked, tree, i) for i, tree in enumerate(trees)]
    refused = [v for v in found if isinstance(v, str)]
    expected = "nonzero phase" if beta == 2.0 else "precision must lie"
    assert len(refused) >= 10 and all(expected in v for v in refused)
    if beta == 2.0:  # narrow enough that some descents still end at a marked vertex
        assert any(isinstance(v, int) for v in found)


def test_find_marked_runs_above_the_dimension_cap():
    # 4096 vertices was the old dense operator's cap; the range pass has none.
    rng = random.Random(45)
    n = 24
    f = random_kcnf(rng, n, 90)
    dnc = EngineConfig(kind="dncppsz", reduction_rules=("sImplication",), s=1)
    res = tree_stats(f, dnc, collect_tree=True)
    tree = res.tree
    assert tree.size > 4096 and res.stats.sat_leaves
    assert detect_marked(tree, seed=3).marked
    v = find_marked(tree, seed=3)
    assert v is not None and tree.marked[v]
    a = PartialAssignment.of(n, tree.assignment_pairs(v))
    assert evaluate_predicate(f, a) == Predicate.SATISFIED


def test_two_node_closed_form():
    eye = np.eye(2)
    assert max(np.abs(r.T @ r - eye).max()
               for r in oracle_reflections(two_node_marked())) < 1e-12
    assert abs(build_walk_operator(two_node_marked()).mass_in_window(1e-9) - 0.5) < 1e-12
    det = detect_marked(two_node_marked(), delta=0.1, seed=0)
    assert det.per_trial_phase_mass[0] >= 0.5 - 1e-9


@pytest.mark.parametrize("depth_bound", [0, -3])
def test_detect_marked_reads_one_depth_bound(depth_bound):
    # `from_json` refuses such a bound; built directly, the walk operator
    # reads n = max(1, depth_bound), the n of detection's precision, and so
    # detection agrees with find_marked and with the oracle at n = 1.
    tree = SearchTree(1, [-1, 0], [None, (1, 1)], [False, True], depth_bound)
    assert find_marked(tree, seed=0) == 1
    det = detect_marked(tree, seed=0)
    assert det.marked
    assert det.per_trial_phase_mass[0] == pytest.approx(0.5, abs=1e-12)
    mass = build_walk_operator(tree).mass_in_window(1e-9)
    assert mass == pytest.approx(0.5, abs=1e-12)
    assert abs(mass - SchurOperator(two_node_marked()).mass_in_window(1e-9)) < 1e-12


def test_walk_operator_reflections_square_to_identity():
    rng = random.Random(31)
    for _ in range(15):
        f = random_kcnf(rng, rng.randint(3, 7), rng.randint(3, 18))
        _, tree = dpll_walk_tree(f)
        r_a, r_b = oracle_reflections(tree)
        eye = np.eye(tree.size)
        assert np.abs(r_a @ r_a - eye).max() < 1e-10
        assert np.abs(r_b @ r_b - eye).max() < 1e-10
        assert r_b[0, 0] == 1.0  # R_B fixes the root


def test_marked_columns_are_identity():
    res, tree = dpll_walk_tree(CnfFormula.from_clauses(2, [[1, 2]]))
    r_a, r_b = oracle_reflections(tree)
    for v in range(tree.size):
        if tree.marked[v]:
            target = r_a if tree.depths[v] % 2 == 0 else r_b
            col = np.zeros(tree.size)
            col[v] = 1.0
            assert np.allclose(target[:, v], col)


def test_phase_mass_examples():
    op = build_walk_operator(two_node_marked())
    assert op.mass_in_window(1e-9) == pytest.approx(0.5)
    # The -1 eigenphase lies far outside any small window.
    assert op.mass_in_window(3.0) + 0 == pytest.approx(0.5)
    # At and just below pi the window holds the phase-0 plane, not the pi one.
    for p in (math.pi, math.pi - 1e-8):
        assert op.mass_in_window(p) == pytest.approx(0.5)
    # Past pi, 1 - cos is not monotone and every phase lies in the window.
    for p in (3.2, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=r"^precision must lie in \(0, pi\], got "):
            op.mass_in_window(p)
    # A path with a dead end: eigh counts one plane of nonzero phase +-0.53
    # in the window of precision 1.0, which the range pass cannot weigh.
    tree = walk_tree([-1, 0, 1, 0, 1], [False] * 5, 3)
    assert eigh_window_count(SchurOperator(tree).product, 1.0) == 2
    with pytest.raises(ValueError, match="^the walk on T = 5 vertices with n = 3 has a "
                                         "nonzero phase inside the window of precision 1.0$"):
        build_walk_operator(tree).mass_in_window(1.0)
    assert build_walk_operator(tree).mass_in_window(0.5) == 0.0

    # Root itself an eigenvector of phase 0 (degenerate marked root: the
    # diffusion is the identity): the full mass sits at zero phase.
    trivial = walk_tree([-1], [True], 1)
    op = build_walk_operator(trivial)
    assert op.mass_in_window(1e-9) == pytest.approx(1.0)
    # An unmarked childless root reflects about itself: phase pi, zero mass
    # in any small window.
    unmarked = build_walk_operator(walk_tree([-1], [False], 1))
    assert unmarked.mass_in_window(1.0) == pytest.approx(0.0)


def test_marked_trees_have_zero_phase_root_overlap():
    rng = random.Random(32)
    seen_marked = 0
    for _ in range(25):
        f = random_kcnf(rng, rng.randint(3, 8), rng.randint(3, 25))
        res, tree = dpll_walk_tree(f)
        if tree.marked[0] or tree.size > 500:
            continue
        op = build_walk_operator(tree)
        mass = op.mass_in_window(1e-9)
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
    # Complete depth-3 tree in preorder whose only marked vertex is the last leaf.
    parents = []

    def grow(parent, depth):
        parents.append(parent)
        if depth < 3:
            vertex = len(parents) - 1
            grow(vertex, depth + 1)
            grow(vertex, depth + 1)

    grow(-1, 0)
    marked = [False] * len(parents)
    marked[-1] = True
    tree = walk_tree(parents, marked, 3)
    v = find_marked(tree, delta=0.1, seed=5)
    assert v == len(parents) - 1


def test_window_pass_requires_preorder():
    # Vertex 1's parent is vertex 2: the leaf-to-root pass would read it
    # before its child, so it refuses instead of answering.
    tree = walk_tree([-1, 2, 0], [False, True, False], 2)
    with pytest.raises(ValueError, match="vertex 1 has parent 2: .* not in preorder"):
        build_walk_operator(tree).mass_in_window(1e-9)


def test_walk_tree_json_round_trip():
    res, tree = dpll_walk_tree(CnfFormula.from_clauses(3, [[1, 2, 3]]))
    back = WalkTree.from_json(tree.to_json())
    assert back.parents == tree.parents
    assert back.marked == tree.marked
    assert back.edges == tree.edges
    assert back.depth_bound == tree.depth_bound

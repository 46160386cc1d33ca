"""Simulation of the quantum backtracking walk in the vertex basis.

W = R_B R_A, where R_A (R_B) reflects about the disjoint stars of unmarked
even (odd) depth. Detection on the subtree of v reads the root's spectral
mass inside the phase-estimation window from one leaf-to-root pass over the
preorder range of v, with no copy: the phase-0 mass has a closed form in the
effective conductance to the marked set, and an inertia count on the star
overlap forest certifies that no nonzero phase lies in the window. The pass
reads the phase-0 mass alone, so a window that holds a nonzero phase, or a
precision outside (0, pi], raises a ValueError that names T, n and the
precision. Per-trial acceptances are drawn from the window mass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .treesearch import SearchTree

# Detection constants; the source construction leaves them unspecified.
# gamma: K = ceil(gamma * ln(1/delta)) trials; 81 at delta = 0.1. A tree
# whose only marked vertex sits at depth l has per-trial acceptance
# n / (n + l), which is 1/2 for a solution at full depth l = n; K = 81 puts
# the binomial miss rate at 0.013 per call, which keeps 50-repetition
# empirical failure rates comfortably under 0.1.
DETECTION_GAMMA = 35.0
# beta: phase-window scale beta/sqrt(T*n); calibrated over {0.1..1.0} on the
# walk test corpus and frozen (see calibration test).
DETECTION_BETA = 0.3
# Floor on a window's 1 - cos(precision), a few ulp of 1.0 (cos(1e-9) already
# rounds to 1.0): it keeps the pass's threshold cos(precision / 2) below 1,
# and every narrower window reads as this one.
WINDOW_FLOOR = 64 * math.ulp(1.0)
# Descents find_marked starts before it gives up: a false positive can end
# one at an unmarked vertex where no child is detected.
FIND_RETRIES = 3


# Kept because the benchmark's hybrid-walk workload (benchmark/workloads.py)
# calls WalkTree.from_search_tree.
WalkTree = SearchTree


@dataclass
class WalkOperator:
    tree: SearchTree

    def mass_in_window(self, precision: float) -> float:
        """Root mass on |phase| < precision with n = max(1, depth_bound) (see
        `_mass_in_window`)."""
        return _mass_in_window(self.tree, 0, max(1, self.tree.depth_bound), precision)


def _mass_in_window(tree: SearchTree, root: int, n: int, precision: float) -> float:
    """Root mass on |phase| < precision in the walk on the subtree of `root`
    with depth bound n, read as 1 - cos(phase) < 1 - cos(precision) with that
    bound floored at WINDOW_FLOOR. The closed-form phase-0 mass is the answer;
    a nonzero phase inside the window, or a precision outside (0, pi], where
    1 - cos is not monotone, raises a ValueError."""
    if not 0.0 < precision <= math.pi:
        raise ValueError(f"precision must lie in (0, pi], got {precision!r}")
    # |phase| < precision exactly when sigma > cos(precision / 2).
    threshold = min(math.cos(0.5 * precision), math.sqrt(1.0 - 0.5 * WINDOW_FLOOR))
    mass, inside = _window_pass(tree, root, n, threshold)
    if inside:
        t = tree.sizes[root] if root else tree.size
        raise ValueError(f"the walk on T = {t} vertices with n = {n} has a nonzero "
                         f"phase inside the window of precision {precision!r}")
    return mass


def _window_pass(tree: SearchTree, root: int, n: int, x: float) -> tuple[float, int]:
    """(phase-0 root mass, count of singular values of D = Psi_A^T Psi_B at
    or above x) for the walk on the subtree of `root` with depth bound n, from
    one leaf-to-root pass over its preorder range [root, root + sizes[root]);
    every parent in the range but the root's must lie inside it.

    Mass: with a unit resistor on each edge and the marked vertices grounded,
    C(v) is the conductance from v down, and the mass is G / (G + 1),
    G = n C(root) (the root star weights its children by sqrt(n)).

    Count: every eigenvalue of (W + W^T)/2 other than +-1 is 2 sigma^2 - 1,
    where +-sigma are the eigenvalues of M = [[0, D], [D^T, 0]], a forest on
    the unmarked vertices with weight child_amp[p] * own_amp[c] on edge
    (p, c). sigma = 1 never occurs: the root and the children of marked
    vertices lie in one star only. LDL^T of M - xI, d(v) = -x - sum w^2 / d(c),
    has as many pivots >= 0 as M has eigenvalues >= x (Sylvester's law of
    inertia). A zero pivot pairs with its parent, which turns negative and
    leaves its own parent (Jacobs and Trevisan, Linear Algebra Appl. 2011)."""
    t = tree.sizes[root] if root else tree.size   # the whole tree needs no shape pass
    # Ids relative to the range: vertex root + c is c here.
    parents = [p - root for p in tree.parents[root:root + t]]
    marked = tree.marked[root:root + t]
    kids = [0] * t
    for c in range(1, t):
        p = parents[c]
        if not 0 <= p < c:
            raise ValueError(f"vertex {c + root} has parent {p + root}: "
                             "the tree is not in preorder")
        kids[p] += 1
    # Squared star amplitudes: a child's in its parent's star, times its own.
    sq = [1.0 / (k + 1) for k in kids]
    root_sq = n / (1.0 + kids[0] * n)
    conductance = [0.0] * t
    pivot = [-x] * t
    paired = [False] * t
    inside = 0
    for c in range(t - 1, 0, -1):
        p = parents[c]
        if marked[c]:
            conductance[p] += 1.0
            continue
        conductance[p] += conductance[c] / (1.0 + conductance[c])
        if paired[c]:
            continue
        d = pivot[c]
        inside += d >= 0.0
        if marked[p]:
            continue
        if d == 0.0:
            paired[p] = True
        else:
            pivot[p] -= (root_sq if p == 0 else sq[p]) * sq[c] / d
    if marked[0]:
        return 1.0, inside
    inside += not paired[0] and pivot[0] >= 0.0
    g = n * conductance[0]
    return g / (g + 1.0), inside


# Kept because the benchmark's hybrid-walk workload (benchmark/workloads.py)
# calls build_walk_operator.
def build_walk_operator(tree: SearchTree) -> WalkOperator:
    return WalkOperator(tree)


@dataclass
class DetectionResult:
    verdict: str                 # "markedExists" | "noMarked"
    acceptances: int
    trials: int
    per_trial_phase_mass: list[float]
    precision: float

    @property
    def marked(self) -> bool:
        return self.verdict == "markedExists"


def detection_trials(delta: float) -> int:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return math.ceil(-DETECTION_GAMMA * math.log(delta))


def detect_marked(tree: SearchTree, delta: float = 0.1, trials: int | None = None,
                  seed: int | None = None,
                  op: WalkOperator | None = None) -> DetectionResult:
    """Phase-estimation detection on the whole tree, of any size, from
    `op.mass_in_window` at the precision DETECTION_BETA / sqrt(T n), n =
    max(1, depth_bound); passes on the window's ValueError."""
    k = detection_trials(delta)
    if trials is not None:
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials!r}")
        k = trials
    if tree.marked[0]:
        # The walk promise excludes a marked root; the predicate answers directly.
        return DetectionResult("markedExists", k, k, [1.0] * k, 0.0)
    if op is None:
        op = WalkOperator(tree)
    n = max(1, tree.depth_bound)
    precision = DETECTION_BETA / math.sqrt(tree.size * n)
    return _detection(op.mass_in_window(precision), k, seed, precision)


def _detection(mass: float, k: int, seed: int | None, precision: float) -> DetectionResult:
    """K trials accept with probability `mass`; marked at 3K/8 acceptances."""
    p_accept = min(1.0, mass)
    if 0.0 < p_accept < 1.0:
        rng = random.Random(seed)
        acceptances = sum(1 for _ in range(k) if rng.random() < p_accept)
    else:  # every draw in [0, 1) falls the same side; skip seeding the generator
        acceptances = k if p_accept == 1.0 else 0
    verdict = "markedExists" if 8 * acceptances >= 3 * k else "noMarked"
    return DetectionResult(verdict, acceptances, k, [p_accept] * k, precision)


def find_marked(tree: SearchTree, delta: float = 0.1,
                seed: int | None = None) -> int | None:
    """Descend from the root, following positive detection verdicts on each
    vertex's subtree: the range pass at v with T = sizes[v] and n = max(1,
    heights[v]), which copies nothing and passes on the window's ValueError.
    The tree must be in preorder (see `SearchTree`)."""
    k = detection_trials(delta)  # reject a bad delta even when the root is marked
    rng = random.Random(seed)

    def detect_at(vertex: int) -> bool:
        if tree.marked[vertex]:
            return True
        n = max(1, tree.heights[vertex])
        precision = DETECTION_BETA / math.sqrt(tree.sizes[vertex] * n)
        mass = _mass_in_window(tree, vertex, n, precision)
        return _detection(mass, k, rng.randrange(2 ** 30), precision).marked

    for _ in range(FIND_RETRIES):
        if not detect_at(0):
            return None
        vertex = 0
        while vertex is not None and not tree.marked[vertex]:
            vertex = next((c for c in tree.children[vertex] if detect_at(c)), None)
        if vertex is not None:
            return vertex
    return None

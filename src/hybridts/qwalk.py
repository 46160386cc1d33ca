"""Simulation of the quantum backtracking walk in the vertex basis.

W = R_B R_A, where R_A (R_B) reflects about the disjoint stars of unmarked
even (odd) depth. Detection on the subtree of v reads the root's spectral
mass inside the phase-estimation window from one leaf-to-root pass over the
preorder range of v, with no copy: the phase-0 mass has a closed form in the
effective conductance to the marked set, and an inertia count on the star
overlap forest certifies that no nonzero phase lies in the window. Only when
that count is not zero, or the window is wider than pi, is the T x T
operator assembled and (W + W^T)/2 eigensolved; the dimension cap applies
to that dense fallback. Per-trial acceptances are drawn from that probability.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import config
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
# Smallest 1 - cos(phase) the eigensolve resolves (eigenvalues of a norm-1
# matrix come out within a few eps; cos(1e-9) already rounds to 1.0).
WINDOW_FLOOR = 64 * np.finfo(float).eps
# Descents find_marked starts before it gives up: a false positive can end
# one at an unmarked vertex where no child is detected.
FIND_RETRIES = 3


# Kept because the benchmark's hybrid-walk workload (benchmark/workloads.py)
# calls WalkTree.from_search_tree.
WalkTree = SearchTree


@dataclass
class WalkOperator:
    tree: SearchTree
    # (R_A, R_B), assembled on first read of r_a, r_b or product.
    blocks: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _spectrum: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.tree.size

    @property
    def r_a(self) -> np.ndarray:
        return self._reflections()[0]

    @property
    def r_b(self) -> np.ndarray:
        return self._reflections()[1]

    @property
    def product(self) -> np.ndarray:
        return self.r_b @ self.r_a

    def _reflections(self) -> tuple[np.ndarray, np.ndarray]:
        if self.blocks is None:
            self.blocks = _assemble_reflections(self.tree)
        return self.blocks

    def unitarity_residual(self) -> float:
        eye = np.eye(self.dimension)
        return max(
            float(np.abs(self.r_a.T @ self.r_a - eye).max()),
            float(np.abs(self.r_b.T @ self.r_b - eye).max()),
        )

    def _root_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(cos phase, root mass) per eigenvector of (W + W^T)/2: W is real
        orthogonal, so that has eigenvalue cos(phi) on the plane of phases +-phi."""
        if self._spectrum is None:
            w = self.product
            lam, vecs = np.linalg.eigh(0.5 * (w + w.T))
            self._spectrum = (lam, vecs[0] ** 2)
        return self._spectrum

    def phase_profile(self) -> list[tuple[float, float]]:
        """(|phase|, root mass) per eigenvector of (W + W^T)/2."""
        lam, mass = self._root_spectrum()
        return list(zip(np.arccos(np.clip(lam, -1.0, 1.0)).tolist(), mass.tolist()))

    def mass_in_window(self, precision: float) -> float:
        """Root mass on |phase| < precision (see `_mass_in_window`)."""
        return _mass_in_window(self.tree, 0, self.tree.depth_bound, precision, self)


def _mass_in_window(tree: SearchTree, root: int, n: int, precision: float,
                    op: WalkOperator | None = None) -> float:
    """Root mass on |phase| < precision in the walk on the subtree of `root`
    with depth bound n, read as 1 - cos(phase) < 1 - cos(precision). The
    closed-form phase-0 mass answers unless the certificate finds a nonzero
    phase in the window; then the eigensolve of `op` (default: a copy of the
    subtree) does. Solver resolution, not a setting: a window wider than pi
    takes all the mass (1 - cos is not monotone past pi), and the bound is
    floored at WINDOW_FLOOR, so a narrower window holds phase 0."""
    gap = max(2.0 * math.sin(0.5 * precision) ** 2, WINDOW_FLOOR)
    if precision <= math.pi:
        # |phase| < precision exactly when sigma > cos(precision / 2).
        mass, inside = _window_pass(tree, root, n, math.sqrt(1.0 - 0.5 * gap))
        if not inside:
            return mass
    if op is None:
        op = build_walk_operator(tree.subtree(root)[0])
    lam, mass = op._root_spectrum()
    if precision > math.pi:
        return float(mass.sum())
    return float(mass[1.0 - lam < gap].sum())


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


def _star_reflection(centre: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """I - 2 sum psi psi^T over disjoint stars; vertex u lies in the star
    `centre[u]` (-1: none) with amplitude `amp[u]` (0 when in none)."""
    r = np.outer(2.0 * amp, amp)
    r *= np.equal.outer(centre, centre)
    return np.subtract(np.eye(len(amp)), r, out=r)


def _assemble_reflections(tree: SearchTree) -> tuple[np.ndarray, np.ndarray]:
    """R_A (R_B) reflects about the stars of unmarked even (odd) depth: a vertex
    and its children, amplitudes 1/sqrt(degree), or at the root (1, sqrt(n),
    ..., sqrt(n)) / sqrt(1 + n * children). R_B fixes the root."""
    t = tree.size
    parents = np.asarray(tree.parents)
    free = ~np.asarray(tree.marked, dtype=bool)
    even = np.asarray(tree.depths) % 2 == 0
    kids = np.bincount(parents[1:], minlength=t)
    # Star amplitudes by centre: the centre's own and each child's.
    own = 1.0 / np.sqrt(kids + 1.0)
    child = own.copy()
    norm = math.sqrt(1 + kids[0] * tree.depth_bound)
    own[0], child[0] = 1.0 / norm, math.sqrt(tree.depth_bound) / norm
    # A vertex lies in its own star and in its parent's, of opposite parity;
    # a marked vertex centres no star.
    up = np.maximum(parents, 0)
    in_up = free[up] & (parents >= 0)
    own_star, up_star = np.where(free, np.arange(t), -1), np.where(in_up, up, -1)
    own_amp, up_amp = free * own, in_up * child[up]
    r_a, r_b = (_star_reflection(np.where(sel, own_star, up_star),
                                 np.where(sel, own_amp, up_amp)) for sel in (even, ~even))
    return r_a, r_b


def build_walk_operator(tree: SearchTree, dim_cap: int | None = None) -> WalkOperator:
    """The walk on `tree`, whose dense reflections are assembled on first
    read (see `_assemble_reflections`)."""
    cap = dim_cap if dim_cap is not None else config.walk_dim_cap()
    if tree.size > cap:
        raise ValueError(f"tree size {tree.size} exceeds the dimension cap {cap}")
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
                  seed: int | None = None, beta: float = DETECTION_BETA,
                  op: WalkOperator | None = None) -> DetectionResult:
    """Phase-estimation detection on the whole tree, from the window mass at
    root 0 with n = depth_bound (see `_mass_in_window`). Without `op`,
    `build_walk_operator` holds the tree to the dimension cap."""
    k = detection_trials(delta)
    if trials is not None:
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials!r}")
        k = trials
    if tree.marked[0]:
        # The walk promise excludes a marked root; the predicate answers directly.
        return DetectionResult("markedExists", k, k, [1.0] * k, 0.0)
    if op is None:
        op = build_walk_operator(tree)
    n = max(1, tree.depth_bound)
    precision = beta / math.sqrt(tree.size * n)
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
    heights[v]). Only the dense fallback copies the subtree and is held to
    the dimension cap. The tree must be in preorder (see `SearchTree`)."""
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

"""Simulation of the quantum backtracking walk in the vertex basis.

R_A and R_B are assembled as T x T reflections over the disjoint stars of a
search tree in one vectorised pass. Detection reads the root's spectral mass
inside the phase-estimation window from one symmetric eigensolve of
(W + W^T)/2, W = R_B R_A; per-trial acceptances are drawn from that
probability.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import config
from .treesearch import SearchTree

# Detection constants; the source construction leaves them unspecified.
# gamma: K = ceil(gamma * ln(1/delta)) trials; 81 at delta = 0.1. A marked
# tree whose only solution sits at full depth has per-trial acceptance
# exactly 1/2; K = 81 puts the binomial miss rate at 0.013 per call, which
# keeps 50-repetition empirical failure rates comfortably under 0.1.
DETECTION_GAMMA = 35.0
# beta: phase-window scale beta/sqrt(T*n); calibrated over {0.1..1.0} on the
# walk test corpus and frozen (see calibration test).
DETECTION_BETA = 0.3
# Smallest 1 - cos(phase) the eigensolve resolves (eigenvalues of a norm-1
# matrix come out within a few eps; cos(1e-9) already rounds to 1.0).
WINDOW_FLOOR = 64 * np.finfo(float).eps


# Kept for callers that use the older name, such as the benchmark's
# hybrid-walk workload.
WalkTree = SearchTree


@dataclass
class WalkOperator:
    tree: SearchTree
    r_a: np.ndarray
    r_b: np.ndarray
    _spectrum: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.tree.size

    @property
    def product(self) -> np.ndarray:
        return self.r_b @ self.r_a

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
        """Root mass on |phase| < precision, read as 1 - cos(phase) <
        1 - cos(precision). Solver resolution, not a setting: a window wider
        than pi takes all the mass (1 - cos is not monotone past pi), and the
        bound is floored at WINDOW_FLOOR, so a narrower window holds phase 0."""
        lam, mass = self._root_spectrum()
        if precision > math.pi:
            return float(mass.sum())
        gap = max(2.0 * math.sin(0.5 * precision) ** 2, WINDOW_FLOOR)
        return float(mass[1.0 - lam < gap].sum())

    def mass_at_zero(self, tol: float = 1e-9) -> float:
        return self.mass_in_window(tol)


def _star_reflection(centre: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """I - 2 sum psi psi^T over disjoint stars; vertex u lies in the star
    `centre[u]` (-1: none) with amplitude `amp[u]` (0 when in none)."""
    r = np.outer(2.0 * amp, amp)
    r *= np.equal.outer(centre, centre)
    return np.subtract(np.eye(len(amp)), r, out=r)


def build_walk_operator(tree: SearchTree, dim_cap: int | None = None) -> WalkOperator:
    """R_A (R_B) reflects about the stars of unmarked even (odd) depth: a vertex
    and its children, amplitudes 1/sqrt(degree), or at the root (1, sqrt(n),
    ..., sqrt(n)) / sqrt(1 + n * children). R_B fixes the root."""
    cap = dim_cap if dim_cap is not None else config.walk_dim_cap()
    t = tree.size
    if t > cap:
        raise ValueError(f"tree size {t} exceeds the dimension cap {cap}")
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
    return WalkOperator(tree, r_a, r_b)


def phase_mass_at_zero(op: WalkOperator, precision: float) -> float:
    """Sum of |<r|eigvec>|^2 over eigenpairs with |phase| < precision; the
    ideal phase-estimation acceptance probability."""
    return op.mass_in_window(precision)


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
    return max(1, math.ceil(DETECTION_GAMMA * math.log(1.0 / delta)))


def detect_marked(tree: SearchTree, delta: float = 0.1, trials: int | None = None,
                  seed: int | None = None, beta: float = DETECTION_BETA,
                  op: WalkOperator | None = None) -> DetectionResult:
    """Phase-estimation detection: K trials accept with the exact window mass,
    marked verdict when acceptances reach 3K/8."""
    k = trials if trials is not None else detection_trials(delta)
    if tree.marked[0]:
        # The walk promise excludes a marked root; the predicate answers directly.
        return DetectionResult("markedExists", k, k, [1.0] * k, 0.0)
    if op is None:
        op = build_walk_operator(tree)
    n = max(1, tree.depth_bound)
    precision = beta / math.sqrt(tree.size * n)
    p_accept = min(1.0, op.mass_in_window(precision))
    rng = random.Random(seed)
    acceptances = sum(1 for _ in range(k) if rng.random() < p_accept)
    verdict = "markedExists" if 8 * acceptances >= 3 * k else "noMarked"
    return DetectionResult(verdict, acceptances, k, [p_accept] * k, precision)


def find_marked(tree: SearchTree, delta: float = 0.1, seed: int | None = None,
                max_retries: int = 3) -> int | None:
    """Descend from the root, following positive detection verdicts."""
    rng = random.Random(seed)
    op_cache: dict[int, WalkOperator] = {}
    sub_cache: dict[int, tuple[SearchTree, list[int]]] = {}

    def detect_at(vertex: int) -> bool:
        if tree.marked[vertex]:
            return True
        if vertex not in sub_cache:
            sub_cache[vertex] = tree.subtree(vertex)
        sub, _ = sub_cache[vertex]
        if vertex not in op_cache:
            op_cache[vertex] = build_walk_operator(sub)
        result = detect_marked(sub, delta, seed=rng.randrange(2 ** 30),
                               op=op_cache[vertex])
        return result.marked

    for _ in range(max_retries):
        if not detect_at(0):
            return None
        vertex = 0
        descended = True
        while descended:
            if tree.marked[vertex]:
                return vertex
            children = tree.children[vertex]
            if not children:
                descended = False  # inconsistent verdict, retry from the top
                break
            next_vertex = None
            for child in children:
                if detect_at(child):
                    next_vertex = child
                    break
            if next_vertex is None:
                descended = False
                break
            vertex = next_vertex
    return None

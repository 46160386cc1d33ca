"""Exact simulation of the quantum backtracking walk in the vertex basis.

The walk operators R_A and R_B are built densely over the T vertices of a
search tree; detection statistics come from the exact spectral mass of the
root vector inside the phase-estimation window, with per-trial acceptances
drawn from that probability.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


# Kept for callers that use the older name, such as the benchmark's
# hybrid-walk workload.
WalkTree = SearchTree


def build_diffusion(tree: SearchTree, vertex: int) -> dict:
    """Diffusion description: identity for marked vertices, otherwise the
    reflection about the star state (root weighted by sqrt(n))."""
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


@dataclass
class WalkOperator:
    tree: SearchTree
    r_a: np.ndarray
    r_b: np.ndarray
    _profile: list[tuple[float, float]] | None = field(default=None, repr=False)

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

    def phase_profile(self) -> list[tuple[float, float]]:
        """(|phase|, root mass) per invariant block of R_B R_A."""
        if self._profile is None:
            self._profile = _spectral_profile(self.product)
        return self._profile

    def mass_in_window(self, precision: float) -> float:
        return sum(mass for phase, mass in self.phase_profile() if phase < precision)

    def mass_at_zero(self, tol: float = 1e-9) -> float:
        return self.mass_in_window(tol)


def _spectral_profile(w: np.ndarray, root: int = 0) -> list[tuple[float, float]]:
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


def build_walk_operator(tree: SearchTree, dim_cap: int | None = None) -> WalkOperator:
    """Block-assemble R_A over even-depth stars and R_B over odd-depth stars
    (with the root fixed); both are real reflections."""
    cap = dim_cap if dim_cap is not None else config.walk_dim_cap()
    t = tree.size
    if t > cap:
        raise ValueError(f"tree size {t} exceeds the dimension cap {cap}")
    r_a = np.eye(t)
    r_b = np.eye(t)
    for vertex in range(t):
        spec = build_diffusion(tree, vertex)
        if spec["type"] == "identity":
            continue
        target = r_a if tree.depths[vertex] % 2 == 0 else r_b
        star = spec["star"]
        psi = spec["amplitudes"]
        block = np.ix_(star, star)
        target[block] -= 2.0 * np.outer(psi, psi)
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

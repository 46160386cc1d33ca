"""Search-tree decomposition analytics: budget cut-offs, leaf bounds, hybrid
query-cost prediction, density scans, exponent fits, and the feasibility
region for advice-based s-implication search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .treesearch import SearchTree

MEASURE_HEIGHT = "height"
MEASURE_BRANCHING = "branchingNumber"

PHI_SQRT = "sqrt"
PHI_GROVER_BRANCH = "groverBranch"
PHI_CLASSICAL = "classical"


@dataclass
class CutSubtree:
    root: int            # vertex id in the source tree, -1 for synthetic entries
    size: int
    height: int
    branching: int
    count: int = 1       # multiplicity, used by closed-form families


@dataclass
class TreeDecomposition:
    total_size: int
    top_tree_size: int
    cutoffs: list[CutSubtree]
    extended_j: int
    measure: str
    budget: float

    @property
    def subtree_total(self) -> int:
        return sum(c.size * c.count for c in self.cutoffs)

    @property
    def num_subtrees(self) -> int:
        return sum(c.count for c in self.cutoffs)


def decompose(tree: SearchTree, measure: str, budget: float) -> TreeDecomposition:
    """Cut at maximal runnable vertices: measure(subtree) <= budget while the
    parent's subtree exceeds it. The top tree is what remains. Parents must
    precede their children."""
    if measure not in (MEASURE_HEIGHT, MEASURE_BRANCHING):
        raise ValueError(f"unknown effective-size measure {measure!r}")
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    sizes, heights, branchings = tree.sizes, tree.heights, tree.branchings
    values = heights if measure == MEASURE_HEIGHT else branchings
    # The measure never grows from parent to child, so the top tree is every
    # vertex above budget and the cut-offs are the roots of the rest.
    cutoffs: list[CutSubtree] = []
    top_size = 0
    free_top_leaves = 0
    for v, p in enumerate(tree.parents):
        if p >= 0 and values[v] > values[p]:
            raise ValueError("measure is not monotone along root-to-leaf paths")
        if values[v] > budget:
            top_size += 1
            # A childless top-tree vertex parents no cut-off; the extended
            # bookkeeping charges it two empty trees.
            free_top_leaves += sizes[v] == 1
        elif p < 0 or values[p] > budget:
            cutoffs.append(CutSubtree(v, sizes[v], heights[v], branchings[v]))
    decomp = TreeDecomposition(
        total_size=tree.size,
        top_tree_size=top_size,
        cutoffs=cutoffs,
        extended_j=sum(c.count for c in cutoffs) + 2 * free_top_leaves,
        measure=measure,
        budget=budget,
    )
    if decomp.top_tree_size + decomp.subtree_total != tree.size:
        raise AssertionError("decomposition does not reconstitute the tree")
    return decomp


def leaves_bound_check(tree: SearchTree) -> dict:
    """Lemma bound (T/P + 1)/2 <= K <= (T+1)/2 with P = vertices on the
    longest root-to-leaf path (the chain-compression argument needs P, not
    the variable count)."""
    total = tree.size
    leaves = tree.sizes.count(1)
    path_vertices = tree.heights[0] + 1
    lower = (total / path_vertices + 1) / 2
    upper = (total + 1) / 2
    holds = lower <= leaves <= upper
    return {"holds": holds, "T": total, "K": leaves, "pathVertices": path_vertices,
            "lower": lower, "upper": upper}


@dataclass(frozen=True)
class CostModel:
    phi: str = PHI_SQRT

    def __post_init__(self):
        if self.phi not in (PHI_SQRT, PHI_CLASSICAL, PHI_GROVER_BRANCH):
            raise ValueError(f"unknown phi {self.phi!r}")

    def phi_value(self, subtree: CutSubtree) -> float:
        if self.phi == PHI_SQRT:
            return math.sqrt(subtree.size)
        if self.phi == PHI_CLASSICAL:
            return float(subtree.size)
        return 2.0 ** (subtree.branching / 2)   # PHI_GROVER_BRANCH


def hybrid_query_count(decomp: TreeDecomposition, model: CostModel) -> float:
    """T0 + sum_j phi(T_j); with phi=sqrt this is the backtracking hybrid cost."""
    return decomp.top_tree_size + sum(model.phi_value(c) * c.count
                                      for c in decomp.cutoffs)


def check_metatheorem_conditions(series: list[tuple[int, TreeDecomposition]],
                                 lam: float, delta: float,
                                 model: CostModel | None = None) -> dict:
    """Fit the average-subtree and quantum-cost exponents across a family."""
    if len(series) < 3:
        raise ValueError("need at least 3 instance sizes to fit exponents")
    model = model or CostModel()
    ns, log_avg_c, log_avg_q = [], [], []
    for n, decomp in series:
        j = max(1, decomp.extended_j)
        avg_c = decomp.subtree_total / j
        avg_q = sum(model.phi_value(c) * c.count for c in decomp.cutoffs) / j
        ns.append(n)
        log_avg_c.append(math.log2(max(avg_c, 1e-300)))
        log_avg_q.append(math.log2(max(avg_q, 1e-300)))
    fit_c = np.polyfit(ns, log_avg_c, 1)
    fit_q = np.polyfit(ns, log_avg_q, 1)
    res_c = np.asarray(log_avg_c) - np.polyval(fit_c, ns)
    res_q = np.asarray(log_avg_q) - np.polyval(fit_q, ns)
    return {
        "condition1": {"fittedExponent": float(fit_c[0]), "target": lam,
                       "residuals": [float(r) for r in res_c],
                       "ok": abs(float(fit_c[0]) - lam) <= 0.05},
        "condition2": {"fittedExponent": float(fit_q[0]),
                       "target": lam * (1 - delta),
                       "residuals": [float(r) for r in res_q],
                       "ok": abs(float(fit_q[0]) - lam * (1 - delta)) <= 0.05},
        "condition3": "holds structurally; every per-query operation here is polynomial time",
    }


def uniform_density_scan(tree: SearchTree, eta: float, n: int | None = None,
                         measure: str = MEASURE_HEIGHT,
                         density_threshold: float = 0.5) -> dict:
    """Densities log2(size)/(eta*n) over sub-trees at the eta*n scale."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if measure not in (MEASURE_HEIGHT, MEASURE_BRANCHING):
        raise ValueError(f"unknown effective-size measure {measure!r}")
    if n is None:
        n = tree.heights[0]
    scale = eta * n
    if scale <= 0:
        raise ValueError("scale eta*n must be positive")
    densities = []
    for v in range(tree.size):
        if measure == MEASURE_HEIGHT:
            eligible = tree.depths[v] <= n - scale and tree.heights[v] >= scale
        else:
            eligible = tree.branchings[v] >= scale
        if eligible:
            densities.append(math.log2(tree.sizes[v]) / scale)
    if not densities:
        return {"minDensity": None, "maxDensity": None, "fractionExponential": 0.0,
                "count": 0}
    frac = sum(1 for d in densities if d >= density_threshold) / len(densities)
    return {"minDensity": min(densities), "maxDensity": max(densities),
            "fractionExponential": frac, "count": len(densities)}


def predicted_exponent(kappa_prime: float, lam: float) -> float:
    """Exponent of the hybrid run-time 2^((1 - kappa'/2) * lambda * n)."""
    if not 0 <= kappa_prime <= 1:
        raise ValueError("kappa' must lie in [0, 1]")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return (1 - kappa_prime / 2) * lam


def sia_region_feasible(kappa: float, c: float, epsilon: float,
                        grid: float = 1e-3) -> tuple[float, float] | None:
    """Find (beta, zeta) with zeta*log2(1/zeta) <= (1-beta-eps)*kappa and
    beta*kappa < 2*c*zeta, by the two-step search: fix beta', maximize zeta,
    then shrink beta."""
    if kappa <= 0 or c <= 0 or epsilon <= 0:
        raise ValueError("kappa, c, epsilon must be positive")
    start = int((1.0 / math.e) / grid)  # shrink zeta inside the increasing regime
    for beta_prime in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01):
        bound = (1 - beta_prime - epsilon) * kappa
        if bound <= 0:
            continue
        zeta = None
        for k in range(start, 0, -1):
            z = k * grid
            if z * math.log2(1.0 / z) <= bound:
                zeta = z
                break
        if zeta is None:
            continue
        beta_cap = min(beta_prime, 2 * c * zeta / kappa)
        k_beta = math.ceil(beta_cap / grid) - 1
        if k_beta < 1:
            continue
        beta = k_beta * grid
        if (zeta * math.log2(1.0 / zeta) <= (1 - beta - epsilon) * kappa
                and beta * kappa < 2 * c * zeta):
            return (beta, zeta)
    return None


def tree_size_estimation_cost(effective_size: float, n: int) -> float:
    """Query-cost model n^(3/2) * sqrt(T') for online tree-size estimation."""
    if effective_size < 1:
        raise ValueError("effective size must be >= 1")
    return n ** 1.5 * math.sqrt(effective_size)


# ---------------------------------------------------------------------------
# Closed-form uniform families (sizes as exact integers; the trees themselves
# are far too large to materialize at n = 16..28).

def _branch_count(depth: int, lam: Fraction) -> int:
    return int(lam * depth)  # floor for positive Fraction


def uniform_family_decomposition(n: int, lam: float, kappa_prime: float) -> TreeDecomposition:
    """Height-budget decomposition of the density-lambda uniform tree."""
    lam_f = Fraction(lam).limit_denominator(1000)
    kp_f = Fraction(kappa_prime).limit_denominator(1000)
    cut_depth = n - int(kp_f * n)
    t0 = sum(2 ** _branch_count(d, lam_f) for d in range(cut_depth))
    count = 2 ** _branch_count(cut_depth, lam_f)
    base = _branch_count(cut_depth, lam_f)
    sub_size = sum(2 ** (_branch_count(d, lam_f) - base) for d in range(cut_depth, n + 1))
    sub_br = _branch_count(n, lam_f) - base
    total = t0 + count * sub_size
    cut = CutSubtree(root=-1, size=sub_size, height=n - cut_depth,
                     branching=sub_br, count=count)
    return TreeDecomposition(total_size=total, top_tree_size=t0, cutoffs=[cut],
                             extended_j=count, measure=MEASURE_HEIGHT,
                             budget=kappa_prime * n)


def fit_uniform_hybrid_exponent(lam: float, kappa_prime: float,
                                ns: list[int], model: CostModel | None = None) -> dict:
    """Least-squares slope of log2(T_H) against n over the uniform family."""
    expected = predicted_exponent(kappa_prime, lam)
    if len(set(ns)) < 2:
        raise ValueError(f"a fit needs at least 2 sizes n, got {sorted(set(ns))}")
    if min(ns) < 1:
        raise ValueError(f"sizes n must be at least 1, got {min(ns)}")
    model = model or CostModel(phi=PHI_SQRT)
    log_th = []
    for n in ns:
        decomp = uniform_family_decomposition(n, lam, kappa_prime)
        log_th.append(math.log2(hybrid_query_count(decomp, model)))
    fit = np.polyfit(ns, log_th, 1)
    return {"lambda": lam, "kappaPrime": kappa_prime, "ns": list(ns),
            "log2TH": [float(v) for v in log_th],
            "fittedExponent": float(fit[0]), "expectedExponent": expected,
            "error": float(fit[0]) - expected}

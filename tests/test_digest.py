"""One SHA-256 over the walk stack's outputs on a fixed seeded corpus.

The corpus is 150 random 3-CNF formulas, n 4..14, each searched by DPLL with
its default rules, DPLL with unit propagation only, dncPPSZ (s = 1) with a
random permutation and guess budget, and dncPPSZ (s = 2) with the same
permutation and budget. The digest covers each engine tree, read
from its fields and not through `to_json`, whose format may change: its
shape, its decomposition under both measures, the subtree copy at every
cut-off, and walk detection and search. A change that keeps the stack's
behaviour keeps the digest. Floats enter as `float.hex`, so it holds them
bit for bit.
"""

import hashlib
import random

from hybridts import qwalk
from hybridts.decomposition import MEASURE_BRANCHING, MEASURE_HEIGHT, decompose
from hybridts.generators import random_kcnf
from hybridts.treesearch import DNCPPSZ, EngineConfig, tree_stats

DIGEST = "b22c22fd5fa99899d0aa844eea757698e372e21f7f0ac84988c421b4e1c4f45f"


def engine_configs(rng: random.Random, n: int) -> list[EngineConfig]:
    perm = tuple(rng.sample(range(1, n + 1), n))
    budget = rng.randint(0, n)
    return [EngineConfig(), EngineConfig(reduction_rules=("unit",))] + [
        EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",), s=s,
                     permutation=perm, guess_budget=budget) for s in (1, 2)]


def tree_record(tree) -> tuple:
    return (tree.num_vars, tree.parents, tree.edges, tree.marked, tree.depth_bound,
            tree.depths, tree.sizes, tree.heights, tree.branchings)


def detection_record(det) -> tuple:
    return (det.verdict, det.acceptances, det.trials,
            [p.hex() for p in det.per_trial_phase_mass], det.precision.hex())


def walk_stack_records(seed: int = 46, formulas: int = 150):
    rng = random.Random(seed)
    for i in range(formulas):
        n = rng.randint(4, 14)
        f = random_kcnf(rng, n, rng.randint(3 * n, 6 * n))
        for k, config in enumerate(engine_configs(rng, n)):
            res = tree_stats(f, config, collect_tree=True)
            tree = res.tree
            yield res.verdict.value, res.model, res.stats.as_record(), tree_record(tree)
            roots = set()
            for measure in (MEASURE_HEIGHT, MEASURE_BRANCHING):
                d = decompose(tree, measure, n // 2)
                yield (d.total_size, d.top_tree_size, d.extended_j,
                       [(c.root, c.size, c.height, c.branching) for c in d.cutoffs])
                roots.update(c.root for c in d.cutoffs)
            for root in sorted(roots):
                sub, ids = tree.subtree(root)
                yield root, ids, tree_record(sub)
                yield detection_record(qwalk.detect_marked(sub, seed=i + k + root))
            yield detection_record(qwalk.detect_marked(tree, seed=i + k))
            yield qwalk.find_marked(tree, seed=i + k)


def test_walk_stack_digest(monkeypatch):
    def refuse(tree):
        raise AssertionError("dense walk operator assembled")

    # Every float then comes from the range pass.
    monkeypatch.setattr(qwalk, "_assemble_reflections", refuse)
    h = hashlib.sha256()
    for record in walk_stack_records():
        h.update(repr(record).encode())
    assert h.hexdigest() == DIGEST

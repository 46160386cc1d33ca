"""SHA-256 digests of exact outputs on fixed seeded corpora. A change that
keeps a module's behaviour keeps its digest.

The walk-stack corpus is 150 random 3-CNF formulas, n 4..14, each searched by DPLL with
its default rules, DPLL with unit propagation only, dncPPSZ (s = 1) with a
random permutation and guess budget, and dncPPSZ (s = 2) with the same
permutation and budget. The digest covers each engine tree, read
from its fields and not through `to_json`, whose format may change: its
shape, its decomposition under both measures, the subtree copy at every
cut-off, and walk detection and search. Floats enter as `float.hex`, so it
holds them bit for bit.

The SIA corpus is 60 seeded random Lattice SAT instances, side 3..5, as CNF
with random advice, at s = 1 and s = 2; it covers the reference outcome and
its assignment, the reversible run and its audit counts, and the plain block
composition. The reduction corpus is 30 random 3-CNF formulas, n 4..5 with
3..4 clauses, and covers the lattice instance and the reduction's placement,
crossing log and grid side.

The circuit corpus is 40 random CNF formulas, n 1..5 with 1..6 clauses of
width 1..3; it covers the `export_text` of both clause oracles, of a short
Grover circuit and of the walk's V_leaf and V_A. The DIMACS corpus is 200
generated texts with comments, CRLF line ends, the `%` trailer, clauses of
width 1..5 that may share or span lines, tautologies and repeated literals;
one text in eight is made malformed, and the digest holds the parsed formula
or the error message.
"""

import hashlib
import random

from hybridts import latticesat, qwalk, sia
from hybridts.decomposition import MEASURE_BRANCHING, MEASURE_HEIGHT, decompose
from hybridts.formula import CnfFormula, parse_dimacs
from hybridts.generators import random_kcnf
from hybridts.qcircuit import walk
from hybridts.qcircuit.oracles import (
    clause_oracle_counter,
    clause_oracle_naive,
    grover_circuit,
)
from hybridts.treesearch import DNCPPSZ, EngineConfig, tree_stats
from reference import export_text, reference_assignment, siac_run

DIGEST = "b22c22fd5fa99899d0aa844eea757698e372e21f7f0ac84988c421b4e1c4f45f"
SIA_DIGEST = "6796f3de676bdbd642206116729a3ac98af3cd682d76ceea0402dacb3a97f957"
REDUCTION_DIGEST = "b06d78a7aaff764f875b4e46799994cbb1e9257dda0064b4296fcbdc338df953"
CIRCUIT_DIGEST = "3bad6b3a7618913bd9c6bead6882330fb13246ed74689f1e1200af8765fd60b2"
DIMACS_DIGEST = "042fe6577bd5a69f175c7278ed3348eedf3f063ff576ca745aac412d915d5bdb"


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
    return h.hexdigest()


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


def test_walk_stack_digest():
    assert digest(walk_stack_records()) == DIGEST


def sia_records(seed: int = 47, instances: int = 60):
    rng = random.Random(seed)
    for _ in range(instances):
        side = rng.randint(3, 5)
        inst = latticesat.random_lattice_instance(rng.randrange(2 ** 32), side,
                                                  rng.uniform(0.2, 1.0))
        f = latticesat.lattice_to_cnf(inst)
        advice = "".join(str(rng.randint(0, 1))
                         for _ in range(rng.randint(0, f.num_vars)))
        for s in (1, 2):
            out, trace = sia.siar_execute(f, advice, side + 1, s)
            yield (sia.sia_reference(f, advice, s),
                   sorted(reference_assignment(f, advice, s).items()),
                   out, trace.siab_calls, trace.peak_live_intermediate, trace.restored)
            out, assignment = siac_run(f, advice, side + 1, s)
            yield out, sorted(assignment.items())


def reduction_records(seed: int = 48, formulas: int = 30):
    rng = random.Random(seed)
    for _ in range(formulas):
        f = random_kcnf(rng, rng.randint(4, 5), rng.randint(3, 4))
        inst, artifacts = latticesat.reduce_3sat_to_lattice(f)
        yield (inst, sorted(artifacts.placement.items()), artifacts.crossings,
               artifacts.grid_side)


def test_sia_digest():
    assert digest(sia_records()) == SIA_DIGEST


def test_reduction_digest():
    assert digest(reduction_records()) == REDUCTION_DIGEST


def random_cnf(rng: random.Random) -> CnfFormula:
    n = rng.randint(1, 5)
    clauses = []
    for _ in range(rng.randint(1, 6)):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return CnfFormula.from_clauses(n, clauses)


def circuit_records(seed: int = 49, formulas: int = 40):
    rng = random.Random(seed)
    for _ in range(formulas):
        f = random_cnf(rng)
        naive, counter = clause_oracle_naive(f), clause_oracle_counter(f)
        yield export_text(naive.circuit), export_text(counter.circuit)
        circ, _ = grover_circuit(f, rng.randint(0, 2), rng.choice((naive, counter)))
        yield export_text(circ)
        for component in (walk.build_v_leaf(f), walk.build_v_a_static(f)):
            yield component.name, export_text(component.circuit)


def dimacs_text(rng: random.Random) -> str:
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(1, 10)):
        clause = [rng.choice((1, -1)) * rng.randint(1, n)
                  for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.2:
            clause.append(-clause[0])                 # tautology
        if rng.random() < 0.2:
            clause.append(rng.choice(clause))         # repeated literal
        clauses.append(clause)
    lines = [" " * rng.randint(0, 2) + "c comment " + str(rng.random())
             for _ in range(rng.randint(0, 2))]
    lines.append(f"p cnf {n}{' ' * rng.randint(1, 2)}{len(clauses)}")
    body = [tok for clause in clauses for tok in [*map(str, clause), "0"]]
    while body:
        cut = rng.randint(1, len(body))
        lines.append(" ".join(body[:cut]))
        body = body[cut:]
        if rng.random() < 0.2:
            lines.insert(rng.randint(1, len(lines)), "c inside")
    if rng.random() < 0.3:
        lines += ["%", "0"]
    if rng.random() < 0.125:
        at = rng.randrange(len(lines))
        lines[at] = rng.choice((lines[at] + " x", lines[at] + " 99",
                                lines[at].rstrip("0"), "p cnf 2 2"))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + end


def dimacs_records(seed: int = 50, texts: int = 200):
    rng = random.Random(seed)
    for _ in range(texts):
        try:
            f = parse_dimacs(dimacs_text(rng))
        except ValueError as exc:
            yield "error", str(exc)
        else:
            yield f.num_vars, f.clauses, f.max_clause_size


def test_circuit_digest():
    assert digest(circuit_records()) == CIRCUIT_DIGEST


def test_dimacs_digest():
    assert digest(dimacs_records()) == DIMACS_DIGEST

"""Seeded inputs, jobs and output checks for the three benchmark workloads.

`generate` runs in the runner process: it makes every input from the seed,
as DIMACS text or numeric arrays. `prepare` and the job functions run in a
fresh worker process and call the library only through its public
functions, each call wrapped in a span named `<layer>.<step>`.

Checks: a SAT verdict is checked by evaluating its model here; an UNSAT or
NOT_FOUND verdict of a complete engine is recorded as a claim and checked
against brute force (n <= 16) after the timed loop, so the reference costs
neither set-up nor measured time. Other references are known by
construction (planted models, unique-SAT Grover instances, QPE phases).

Each workload is a fixed cycle of job kinds; job i of the stream has kind
`cycle[i % len(cycle)]` and takes the next input of that kind from the pool,
wrapping round when the pool is exhausted.
"""

from __future__ import annotations

import base64
import math
import random
from collections import Counter, defaultdict

import numpy as np

from hybridts import decomposition as dc
from hybridts import generators
from hybridts import latticesat as ls
from hybridts import qwalk as qw
from hybridts import sia
from hybridts import treesearch as ts
from hybridts.formula import CnfFormula, parse_dimacs
from hybridts.qcircuit import grover_circuit, grover_search, qpe_counter, qpe_standard

LAYERS = ("formula", "treesearch", "decomposition", "qwalk", "qcircuit", "sia",
          "latticesat")

# Whole-tree walk detection runs only up to the walk simulator's default
# dimension cap.
WHOLE_TREE_CAP = 4096
CLAUSE_RATIO = 4.26
PPSZ_EPSILON = 0.1

# Per workload: the job cycle, the warm-up job's kind (a cheap one of steady
# cost), the pool generated per second of --seconds (about 1.5 times what the
# unoptimised library completes, so the stream seldom wraps), the trace-mode cycles per
# second of --seconds, and the input sizes. "tiny" is for the smoke test.
WORKLOADS = {
    "classical-search": {
        "cycle": ("dpll", "dnc1", "ppsz2", "dpll", "dnc1", "dnc1", "dpll",
                  "ppsz2", "dnc1", "dnc1"),
        "warmup": "dnc1",
        "pool_per_s": 120,
        "trace_cycles_per_s": 1.5,
        "full": {"dpll_n": 40, "dnc1_n": 14, "ppsz2_n": 9, "ppsz2_rounds": 3},
        "tiny": {"dpll_n": 12, "dnc1_n": 8, "ppsz2_n": 8, "ppsz2_rounds": 2},
    },
    "hybrid-walk": {
        "cycle": ("walk",),
        "warmup": "walk",
        "pool_per_s": 20,
        "trace_cycles_per_s": 4,
        "full": {"walk_n": (12, 13, 14, 15, 16)},
        "tiny": {"walk_n": (6, 7)},
    },
    "quantum-kernels": {
        "cycle": ("grover", "sia", "qpe", "sia", "sia", "reduce", "sia", "qpe",
                  "sia", "sia", "qpe", "sia", "sia", "reduce", "sia", "qpe",
                  "sia", "sia", "qpe", "sia"),
        "warmup": "qpe",
        "pool_per_s": 32,
        "trace_cycles_per_s": 0.2,
        "full": {"grover_n": 8, "grover_m": 30, "qpe_m": 5,
                 "qpe_t": (9, 10, 11, 10, 9), "sia_side": (6, 7, 8),
                 "sia_density": 0.5, "reduce_n": (4, 5), "reduce_m": (3, 4)},
        "tiny": {"grover_n": 4, "grover_m": 10, "qpe_m": 1, "qpe_t": (2, 3),
                 "sia_side": (3, 4), "sia_density": 0.5, "reduce_n": (3,),
                 "reduce_m": (2,)},
    },
}


# ---------------------------------------------------------------------------
# Input generation (runner side)

def dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in formula.clauses]
    return "\n".join(lines) + "\n"


def planted_3cnf(rng: random.Random, n: int) -> CnfFormula:
    """Random 3-CNF at the clause ratio, repaired to keep a planted model."""
    planted = [rng.randint(0, 1) for _ in range(n)]
    clauses = []
    for _ in range(round(CLAUSE_RATIO * n)):
        variables = rng.sample(range(1, n + 1), 3)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        if not any((l > 0) == bool(planted[abs(l) - 1]) for l in lits):
            fix = rng.randrange(3)
            lits[fix] = -lits[fix]
        clauses.append(lits)
    return CnfFormula.from_clauses(n, clauses)


def _make_input(kind: str, rng: random.Random, np_rng, sizes: dict, k: int) -> dict:
    if kind == "dpll":
        return {"dimacs": dimacs(planted_3cnf(rng, sizes["dpll_n"]))}
    if kind == "dnc1":
        n = sizes["dnc1_n"]
        return {"dimacs": dimacs(generators.random_kcnf(rng, n, round(CLAUSE_RATIO * n)))}
    if kind == "ppsz2":
        return {"dimacs": dimacs(planted_3cnf(rng, sizes["ppsz2_n"])),
                "seed": rng.randrange(2 ** 31), "rounds": sizes["ppsz2_rounds"]}
    if kind == "walk":
        ns = sizes["walk_n"]
        n = ns[k % len(ns)]
        f = generators.random_kcnf(rng, n, round(CLAUSE_RATIO * n))
        return {"dimacs": dimacs(f), "seed": rng.randrange(2 ** 31)}
    if kind == "grover":
        f = generators.unique_sat_3cnf(rng, sizes["grover_n"], sizes["grover_m"])
        return {"dimacs": dimacs(f), "solutions": 1}
    if kind == "qpe":
        m, ts_ = sizes["qpe_m"], sizes["qpe_t"]
        dim = 2 ** m
        z = np_rng.normal(size=(dim, dim)) + 1j * np_rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        thetas = np_rng.random(dim)
        u = (q * np.exp(2j * np.pi * thetas)) @ q.conj().T
        return {"u": _pack(u), "psi": _pack(q[:, 0]), "shape": [dim, dim],
                "theta": float(thetas[0]), "t": ts_[k % len(ts_)]}
    if kind == "sia":
        sides = sizes["sia_side"]
        side = sides[k % len(sides)]
        return {"lattice_seed": rng.randrange(2 ** 31), "side": side,
                "density": sizes["sia_density"],
                "advice": "".join(str(rng.randint(0, 1)) for _ in range(side * side))}
    if kind == "reduce":
        ns, ms = sizes["reduce_n"], sizes["reduce_m"]
        f = generators.random_kcnf(rng, ns[k % len(ns)], ms[k % len(ms)])
        return {"dimacs": dimacs(f)}
    raise ValueError(f"unknown job kind {kind!r}")


def _pack(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype=np.complex128).tobytes()).decode()


def _unpack(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype=np.complex128).copy()


def generate(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """Every input of one run plus reference answers, as JSON-ready data."""
    spec = WORKLOADS[workload]
    sizes = spec["tiny" if tiny else "full"]
    cycle = spec["cycle"]
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    pool_jobs = max(len(cycle), math.ceil(spec["pool_per_s"] * seconds))
    per_kind = Counter(cycle)
    pool = {}
    for kind, count in per_kind.items():
        total = math.ceil(pool_jobs * count / len(cycle))
        pool[kind] = [_make_input(kind, rng, np_rng, sizes, k) for k in range(total)]
    warm_kind = spec["warmup"]
    warmup = _make_input(warm_kind, rng, np_rng, sizes, 0)
    trace_jobs = len(cycle) * max(1, round(spec["trace_cycles_per_s"] * seconds))
    return {"workload": workload, "seed": seed, "cycle": list(cycle),
            "pool": pool, "warmup": {"kind": warm_kind, "input": warmup},
            "trace_jobs": trace_jobs}


# ---------------------------------------------------------------------------
# Jobs (worker side)

class JobFailed(Exception):
    """A layer call raised or its output failed a check."""

    def __init__(self, layer: str, what: str):
        super().__init__(f"{layer}: {what}")
        self.layer = layer


class Context:
    """Per-process job state: tracer, per-layer counts and failures."""

    def __init__(self, tracer, corrupt: bool = False):
        self.tracer = tracer
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.errors: Counter = Counter()
        self.corrupt = corrupt
        self.unsat_claims: list[tuple[str, CnfFormula]] = []

    def call(self, span: str, fn, *args, **kwargs):
        with self.tracer.span(span):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # a failing layer call is a failed job
                raise JobFailed(span.split(".")[0], repr(exc)) from exc

    def check(self, layer: str, ok: bool, what: str) -> None:
        if not ok:
            raise JobFailed(layer, what)

    def claim_unsat(self, layer: str, formula: CnfFormula) -> None:
        self.unsat_claims.append((layer, formula))

    def verify_claims(self) -> int:
        """Brute-force every UNSAT claim; returns the number that were wrong."""
        wrong = 0
        for layer, formula in self.unsat_claims:
            if generators.brute_force_satisfiable(formula):
                self.errors[layer] += 1
                wrong += 1
        self.unsat_claims.clear()
        return wrong

    def check_model(self, layer: str, formula: CnfFormula, model) -> None:
        """The model satisfies every clause; checked by the benchmark itself."""
        values = list(model)
        if self.corrupt:
            self.corrupt = False
            values[_critical_variable(formula, values) - 1] ^= 1
        for clause in formula.clauses:
            if not any(values[abs(l) - 1] == (1 if l > 0 else 0) for l in clause):
                raise JobFailed(layer, f"model falsifies clause {clause}")


def _critical_variable(formula: CnfFormula, values: list[int]) -> int:
    """A variable whose flip falsifies some clause (negative control)."""
    for clause in formula.clauses:
        true = [l for l in clause if values[abs(l) - 1] == (1 if l > 0 else 0)]
        if len(true) == 1:
            return abs(true[0])
    return abs(formula.clauses[0][0])


def prepare(data: dict, ctx: Context) -> tuple[dict, dict]:
    """Parse every DIMACS input and convert arrays; returns (pool, warmup)."""

    def convert(inp: dict) -> dict:
        out = dict(inp)
        if "dimacs" in inp:
            out["formula"] = ctx.call("formula.parse", parse_dimacs, inp["dimacs"])
        if "shape" in inp:
            out["u"] = _unpack(inp["u"]).reshape(inp["shape"])
            out["psi"] = _unpack(inp["psi"])
        return out

    pool = {kind: [convert(i) for i in inputs] for kind, inputs in data["pool"].items()}
    warm = data["warmup"]
    return pool, {"kind": warm["kind"], "input": convert(warm["input"])}


DNC_S1 = ts.EngineConfig(kind=ts.DNCPPSZ, reduction_rules=("sImplication",), s=1)
SQRT_COST = dc.CostModel(phi=dc.PHI_SQRT)


def job_dpll(ctx: Context, inp: dict) -> None:
    f = inp["formula"]
    res = ctx.call("treesearch.dpll_solve", ts.dpll_solve, f)
    ctx.counts["treesearch.nodes"] += res.stats.size
    ctx.check("treesearch", res.verdict == ts.Verdict.SAT, "planted formula reported UNSAT")
    ctx.check_model("treesearch", f, res.model)


def job_dnc1(ctx: Context, inp: dict) -> None:
    f = inp["formula"]
    res = ctx.call("treesearch.dnc_ppsz_solve", ts.dnc_ppsz_solve, f, DNC_S1)
    ctx.counts["treesearch.nodes"] += res.stats.size
    if res.verdict == ts.Verdict.SAT:
        ctx.check_model("treesearch", f, res.model)
    else:
        ctx.claim_unsat("treesearch", f)


def job_ppsz2(ctx: Context, inp: dict) -> None:
    f = inp["formula"]
    res = ctx.call("treesearch.ppsz_proper", ts.ppsz_proper, f, 2, PPSZ_EPSILON,
                   inp["rounds"], inp["seed"])
    ctx.counts["treesearch.ppsz_calls"] += 1
    ctx.counts["treesearch.ppsz_rounds"] += res.rounds_used
    if res.verdict == ts.Verdict.SAT:
        ctx.counts["treesearch.ppsz_found"] += 1
        ctx.check_model("treesearch", f, res.model)


def _satisfied_by_pairs(formula: CnfFormula, pairs: dict[int, int]) -> bool:
    return all(any(pairs.get(abs(l)) == (1 if l > 0 else 0) for l in clause)
               for clause in formula.clauses)


def job_walk(ctx: Context, inp: dict) -> None:
    f = inp["formula"]
    n = f.num_vars
    trees = []
    for config in (ts.EngineConfig(kind=ts.DPLL), DNC_S1):
        res = ctx.call("treesearch.tree_stats", ts.tree_stats, f, config,
                       collect_tree=True)
        ctx.check("treesearch", (res.stats.sat_leaves > 0) == (res.model is not None),
                  "marked leaves without a model")
        if res.model is not None:
            ctx.check_model("treesearch", f, res.model)
        ctx.counts["treesearch.nodes"] += res.stats.size
        ctx.counts["treesearch.tree_T"] += res.stats.size
        ctx.counts["treesearch.tree_Tprime"] += res.stats.effective_size
        trees.append(res)
    ctx.check("treesearch", (trees[0].model is None) == (trees[1].model is None),
              "DPLL and dncPPSZ trees disagree on satisfiability")
    if trees[0].model is None:
        ctx.claim_unsat("treesearch", f)

    cuts = []
    for res in trees:
        d = ctx.call("decomposition.decompose", dc.decompose, res.tree,
                     dc.MEASURE_HEIGHT, n // 2)
        cost = ctx.call("decomposition.query", dc.hybrid_query_count, d, SQRT_COST)
        ctx.check("decomposition", d.top_tree_size + d.subtree_total == res.stats.size
                  and cost <= res.stats.size, "decomposition does not add up")
        ctx.counts["decomposition.subtrees"] += d.num_subtrees
        ctx.counts["decomposition.T0"] += d.top_tree_size
        ctx.counts["decomposition.T"] += d.total_size
        ctx.counts["decomposition.query"] += cost
        cuts.append(d)

    seed = inp["seed"]
    walk_trees = [ctx.call("qwalk.build", qw.WalkTree.from_search_tree, res.tree,
                           depth_bound=n) for res in trees]
    targets = [ctx.call("qwalk.build", wt.subtree, c.root)[0]
               for wt, d in zip(walk_trees, cuts) for c in d.cutoffs]
    whole = walk_trees[0]   # the DPLL tree
    if whole.size <= WHOLE_TREE_CAP:
        targets.append(whole)
    for k, sub in enumerate(targets):
        if sub.marked[0]:
            continue  # the walk promise excludes a marked root
        op = ctx.call("qwalk.build", qw.build_walk_operator, sub)
        det = ctx.call("qwalk.detect", qw.detect_marked, sub, seed=seed + k, op=op)
        ctx.counts["qwalk.operators"] += 1
        ctx.counts["qwalk.dim_sum"] += sub.size
        ctx.counts["qwalk.dim3_sum"] += sub.size ** 3
        ctx.counts["qwalk.detect_agree"] += det.marked == any(sub.marked)

    if any(whole.marked) and not whole.marked[0]:
        v = ctx.call("qwalk.find", qw.find_marked, whole, seed=seed)
        ctx.counts["qwalk.find_calls"] += 1
        if v is not None:
            ctx.check("qwalk", whole.marked[v], "find_marked returned an unmarked vertex")
            ctx.check("qwalk", _satisfied_by_pairs(f, whole.assignment_pairs(v)),
                      "find_marked vertex does not satisfy the formula")
            ctx.counts["qwalk.find_found"] += 1


def job_grover(ctx: Context, inp: dict) -> None:
    f = inp["formula"]
    n = f.num_vars
    theta = math.asin(math.sqrt(inp["solutions"] / 2 ** n))
    iterations = math.floor(math.pi / 4 * math.sqrt(2 ** n / inp["solutions"]))
    circ, orc = ctx.call("qcircuit.build", grover_circuit, f, iterations, "counter")
    res = ctx.call("qcircuit.simulate", grover_search, f, iterations, oracle=orc)
    ctx.counts["qcircuit.gates"] += len(circ.gates)
    ctx.counts["qcircuit.amp_updates"] += len(circ.gates) * 2 ** circ.num_wires
    err = abs(res.success_probability - math.sin((2 * iterations + 1) * theta) ** 2)
    ctx.counts["qcircuit.max_abs_err"] = max(ctx.counts["qcircuit.max_abs_err"], err)
    ctx.check("qcircuit", err <= 1e-9, f"Grover success off the closed form by {err}")
    ctx.check_model("qcircuit", f, res.assignment)


def job_qpe(ctx: Context, inp: dict) -> None:
    u, psi, t, theta = inp["u"], inp["psi"], inp["t"], inp["theta"]
    p0 = ctx.call("qcircuit.qpe", qpe_standard, u, psi, t)
    p0_prime, ancillas = ctx.call("qcircuit.qpe", qpe_counter, u, psi, t)
    closed = math.prod(math.cos(math.pi * 2 ** j * theta) ** 2 for j in range(t))
    err = max(abs(p0 - closed), abs(p0_prime - closed))
    ctx.counts["qcircuit.max_abs_err"] = max(ctx.counts["qcircuit.max_abs_err"], err)
    ctx.check("qcircuit", err <= 1e-9, f"QPE zero probability off the closed form by {err}")
    ctx.check("qcircuit", ancillas == 1 + t.bit_length(), "wrong QPE counter width")


def job_sia(ctx: Context, inp: dict) -> None:
    side = inp["side"]
    inst = ctx.call("latticesat.instance", ls.random_lattice_instance,
                    inp["lattice_seed"], side, inp["density"])
    f = ctx.call("latticesat.instance", ls.lattice_to_cnf, inst)
    ref = ctx.call("sia.reference", sia.sia_reference, f, inp["advice"])
    out, trace = ctx.call("sia.reversible", sia.siar_execute, f, inp["advice"], side + 1)
    ctx.counts["sia.siab_calls"] += trace.siab_calls
    ctx.counts["sia.peak_live_cells"] = max(ctx.counts["sia.peak_live_cells"],
                                            trace.peak_live_intermediate)
    ctx.check("sia", out.comparable() == ref.comparable(),
              "reversible SIA disagrees with the reference")
    ctx.check("sia", trace.restored, "reversible SIA left intermediates set")


def job_reduce(ctx: Context, inp: dict) -> None:
    f = inp["formula"]
    inst, art = ctx.call("latticesat.reduce", ls.reduce_3sat_to_lattice, f)
    side = inst.grid_side
    ctx.counts["latticesat.reduced_vars"] += side * side
    placed = {var for var, _ in art.placement}
    ctx.check("latticesat", placed == set(range(1, f.num_vars + 1)),
              "reduction lost a variable")
    for con in inst.constraints:
        ctx.check("latticesat", 0 <= con.prow < side - 1 and 0 <= con.pcol < side - 1
                  and 2 <= len(con.corners) <= 3
                  and all(con.prow <= c.row <= con.prow + 1
                          and con.pcol <= c.col <= con.pcol + 1 for c in con.corners),
                  "constraint off its plaquette")


JOBS = {"dpll": job_dpll, "dnc1": job_dnc1, "ppsz2": job_ppsz2, "walk": job_walk,
        "grover": job_grover, "qpe": job_qpe, "sia": job_sia, "reduce": job_reduce}


def stream(pool: dict, cycle: list[str], count: int | None = None):
    """(job index, kind, input) for the job stream, optionally truncated."""
    used: Counter = Counter()
    i = 0
    while count is None or i < count:
        kind = cycle[i % len(cycle)]
        inputs = pool[kind]
        yield i, kind, inputs[used[kind] % len(inputs)]
        used[kind] += 1
        i += 1


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass

def layer_metrics(self_s: dict[str, float], counts: dict, errors: Counter,
                  parse_s: float) -> dict[str, tuple[float, str]]:
    c = defaultdict(float, counts)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solve_s = sum(self_s.get(k, 0.0) for k in
                  ("treesearch.dpll_solve", "treesearch.dnc_ppsz_solve",
                   "treesearch.ppsz_proper"))
    tree_s = self_s.get("treesearch.tree_stats", 0.0)
    node_s = (self_s.get("treesearch.dpll_solve", 0.0)
              + self_s.get("treesearch.dnc_ppsz_solve", 0.0) + tree_s)
    simulate_s = self_s.get("qcircuit.simulate", 0.0)
    m = {
        "formula.parse_s": (parse_s, "s"),
        "treesearch.solve_s": (solve_s, "s"),
        "treesearch.s2_solve_s": (self_s.get("treesearch.ppsz_proper", 0.0), "s"),
        "treesearch.tree_stats_s": (tree_s, "s"),
        "treesearch.nodes": (c["treesearch.nodes"], "count"),
        "treesearch.nodes_per_s": (ratio(c["treesearch.nodes"], node_s), "1/s"),
        "treesearch.effective_share": (ratio(c["treesearch.tree_Tprime"],
                                             c["treesearch.tree_T"]), "ratio"),
        "treesearch.ppsz_rounds": (c["treesearch.ppsz_rounds"], "count"),
        "treesearch.ppsz_found_share": (ratio(c["treesearch.ppsz_found"],
                                              c["treesearch.ppsz_rounds"]), "ratio"),
        "decomposition.decompose_s": (self_s.get("decomposition.decompose", 0.0)
                                      + self_s.get("decomposition.query", 0.0), "s"),
        "decomposition.subtrees": (c["decomposition.subtrees"], "count"),
        "decomposition.top_share": (ratio(c["decomposition.T0"], c["decomposition.T"]),
                                    "ratio"),
        "decomposition.query_ratio": (ratio(c["decomposition.query"],
                                            c["decomposition.T"]), "ratio"),
        "qwalk.build_s": (self_s.get("qwalk.build", 0.0), "s"),
        "qwalk.detect_s": (self_s.get("qwalk.detect", 0.0), "s"),
        "qwalk.find_s": (self_s.get("qwalk.find", 0.0), "s"),
        "qwalk.operators": (c["qwalk.operators"], "count"),
        "qwalk.dim_sum": (c["qwalk.dim_sum"], "count"),
        "qwalk.dim3_sum": (c["qwalk.dim3_sum"], "count"),
        "qwalk.verdict_agreement": (ratio(c["qwalk.detect_agree"], c["qwalk.operators"]),
                                    "ratio"),
        "qwalk.find_success": (ratio(c["qwalk.find_found"], c["qwalk.find_calls"]),
                               "ratio"),
        "qcircuit.build_s": (self_s.get("qcircuit.build", 0.0), "s"),
        "qcircuit.simulate_s": (simulate_s, "s"),
        "qcircuit.gates": (c["qcircuit.gates"], "count"),
        "qcircuit.amp_updates": (c["qcircuit.amp_updates"], "count"),
        "qcircuit.amp_updates_per_s": (ratio(c["qcircuit.amp_updates"], simulate_s),
                                       "1/s"),
        "qcircuit.qpe_s": (self_s.get("qcircuit.qpe", 0.0), "s"),
        "qcircuit.max_abs_err": (c["qcircuit.max_abs_err"], "prob"),
        "sia.reference_s": (self_s.get("sia.reference", 0.0), "s"),
        "sia.reversible_s": (self_s.get("sia.reversible", 0.0), "s"),
        "sia.siab_calls": (c["sia.siab_calls"], "count"),
        "sia.peak_live_cells": (c["sia.peak_live_cells"], "count"),
        "latticesat.instance_s": (self_s.get("latticesat.instance", 0.0), "s"),
        "latticesat.reduce_s": (self_s.get("latticesat.reduce", 0.0), "s"),
        "latticesat.reduced_vars": (c["latticesat.reduced_vars"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(errors[layer]), "count")
    return m

"""Experiment harness: seeded pipelines over the laboratory modules with
machine-readable reports (JSON records, CSV for fit matrices)."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, decomposition, generators, qwalk, sia
from .formula import CnfFormula, index_width, parse_dimacs
from .latticesat import equisat_check, lattice_to_cnf, reduce_3sat_to_lattice
from .qcircuit import (
    closed_form_success,
    grover_angle,
    grover_search,
    qpe_counter,
    qpe_standard,
)
from .treesearch import (
    DNCPPSZ,
    DPLL,
    EngineConfig,
    dnc_ppsz_solve,
    dpll_solve,
    tree_stats,
)


def _report(command: str, args, records: list, aggregate: dict,
            started: float) -> dict:
    return {
        "schemaVersion": 1,
        "tool": "hybridts",
        "version": __version__,
        "command": command,
        "spec": _spec_echo(args),
        "records": records,
        "aggregate": aggregate,
        "timing": {"wallTime": time.time() - started},
    }


def _spec_echo(args) -> dict:
    """The flags of a run, without where its output goes or its handler."""
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "out", "_out_taken")}


def _take_out(text: str, args) -> None:
    """Write text to --out, or to stdout without it. The first writer owns
    that stream; `_emit` sends a report that comes second to the next one."""
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    args._out_taken = True


def _emit(report: dict, args) -> None:
    # JSON has no NaN or infinity: reject them anywhere, before writing.
    text = json.dumps(report, sort_keys=True, indent=2, default=str,
                      allow_nan=False)
    if getattr(args, "_out_taken", False):
        print(text, file=sys.stdout if args.out else sys.stderr)
    else:
        _take_out(text, args)


def _load_formula(args) -> CnfFormula:
    if not args.input:
        raise SystemExit("--input is required for this command")
    return parse_dimacs(Path(args.input).read_text())


def _stats_record(instance_id: str, engine: str, seed, result, wall: float) -> dict:
    rec = {"instanceId": instance_id, "engine": engine, "seed": seed,
           "verdict": result.verdict.value,
           "wallTime": wall}
    rec.update(result.stats.as_record())
    return rec


def _engine_config(args, formula: CnfFormula) -> EngineConfig:
    """The engine config of `solve` and `tree-stats`. --s and --budget set
    dncPPSZ only; with --engine dpll either one is an error."""
    if args.engine == DPLL:
        for flag, value in (("--s", args.s), ("--budget", args.budget)):
            if value is not None:
                raise ValueError(f"{flag} applies only to --engine {DNCPPSZ}")
        return EngineConfig(kind=DPLL)
    return EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",),
                        s=1 if args.s is None else args.s,
                        guess_budget=args.budget).validated(formula)


def cmd_solve(args) -> dict:
    started = time.time()
    formula = _load_formula(args)
    config = _engine_config(args, formula)
    solve = dpll_solve if args.engine == DPLL else dnc_ppsz_solve
    result = solve(formula, config)
    rec = _stats_record(Path(args.input).stem, args.engine, args.seed, result,
                        time.time() - started)
    if result.model:
        rec["model"] = list(result.model)
    return _report("solve", args, [rec], {}, started)


def cmd_tree_stats(args) -> dict:
    started = time.time()
    formula = _load_formula(args)
    result = tree_stats(formula, _engine_config(args, formula))
    rec = _stats_record(Path(args.input).stem, args.engine, args.seed, result,
                        time.time() - started)
    return _report("tree-stats", args, [rec], {}, started)


def cmd_decompose(args) -> dict:
    started = time.time()
    formula = _load_formula(args)
    result = tree_stats(formula, EngineConfig(kind=DPLL), collect_tree=True)
    decomp = decomposition.decompose(result.tree, args.measure, args.budget)
    model_sqrt = decomposition.CostModel(phi="sqrt")
    model_cls = decomposition.CostModel(phi="classical")
    rec = {
        "instanceId": Path(args.input).stem,
        "T": decomp.total_size,
        "T0": decomp.top_tree_size,
        "numSubtrees": decomp.num_subtrees,
        "extendedJ": decomp.extended_j,
        "subtreeSizes": sorted(c.size for c in decomp.cutoffs),
        "hybridQuerySqrt": decomposition.hybrid_query_count(decomp, model_sqrt),
        "hybridQueryClassical": decomposition.hybrid_query_count(decomp, model_cls),
    }
    return _report("decompose", args, [rec], {}, started)


def cmd_fit_exponent(args) -> dict:
    started = time.time()
    ns = list(range(args.nmin, args.nmax + 1))
    fit = decomposition.fit_uniform_hybrid_exponent(args.lambda_, args.kappa, ns)
    if args.format == "csv":
        lines = ["lambda,kappaPrime,n,log2TH"]
        for n, v in zip(fit["ns"], fit["log2TH"]):
            lines.append(f"{args.lambda_},{args.kappa},{n},{v}")
        _take_out("\n".join(lines), args)
    return _report("fit-exponent", args, [fit],
                   {"fittedExponent": fit["fittedExponent"],
                    "expectedExponent": fit["expectedExponent"]}, started)


def cmd_qwalk_detect(args) -> dict:
    started = time.time()
    formula = _load_formula(args)
    result = tree_stats(formula, EngineConfig(kind=DPLL), collect_tree=True)
    tree = result.tree
    detection = qwalk.detect_marked(tree, delta=args.delta, seed=args.seed,
                                    trials=args.trials)
    rec = {
        "instanceId": Path(args.input).stem,
        "T": tree.size,
        "verdict": detection.verdict,
        "acceptances": detection.acceptances,
        "K": detection.trials,
        "perTrialPhaseMass": detection.per_trial_phase_mass[0],
        "groundTruth": "markedExists" if result.stats.sat_leaves else "noMarked",
    }
    return _report("qwalk-detect", args, [rec], {}, started)


def cmd_grover(args) -> dict:
    started = time.time()
    formula = _load_formula(args)
    solutions = generators.brute_force_count(formula)
    iterations = args.iterations
    if iterations is None:
        from .qcircuit.oracles import optimal_iterations
        iterations = optimal_iterations(formula.num_vars, solutions)
    result = grover_search(formula, iterations, oracle=args.oracle)
    theta = grover_angle(formula.num_vars, solutions)
    rec = {
        "instanceId": Path(args.input).stem,
        "iterations": iterations,
        "assignment": list(result.assignment),
        "successProbability": result.success_probability,
        "closedForm": closed_form_success(iterations, theta),
        "wires": result.num_wires,
        "oracle": result.oracle_kind,
        "solutions": solutions,
    }
    return _report("grover", args, [rec], {}, started)


def cmd_qpe_compare(args) -> dict:
    started = time.time()
    if args.seed is None:
        raise SystemExit("--seed is mandatory")
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    records = []
    worst = 0.0
    for trial in range(args.trials):
        m = int(rng.integers(1, 3))
        dim = 2 ** m
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(z)
        vals, vecs = np.linalg.eig(u)
        pick = int(rng.integers(0, dim))
        eigenstate = vecs[:, pick] / np.linalg.norm(vecs[:, pick])
        t = int(rng.choice([3, 5, 6]))
        p0 = qpe_standard(u, eigenstate, t)
        p0p, ancillas = qpe_counter(u, eigenstate, t)
        diff = abs(p0 - p0p)
        worst = max(worst, diff)
        records.append({"trial": trial, "t": t, "p0": p0, "p0Prime": p0p,
                        "absDiff": diff, "counterAncillas": ancillas})
    return _report("qpe-compare", args, records,
                   {"maxAbsDiff": worst}, started)


def cmd_sia_run(args) -> dict:
    started = time.time()
    formula = _load_formula(args)
    width = args.w if args.w else max(1, index_width(formula))
    if args.advice is not None:
        advice = args.advice
    else:
        if args.seed is None:
            raise SystemExit("--seed is mandatory when --advice is omitted")
        import random as _random
        rng = _random.Random(args.seed)
        advice = "".join(str(rng.randint(0, 1)) for _ in range(formula.num_vars))
    reference = sia.sia_reference(formula, advice, args.s)
    outcome, trace = sia.siar_execute(formula, advice, width, args.s)
    rec = {
        "instanceId": Path(args.input).stem,
        "width": width,
        "advice": advice,
        "reference": reference.comparable(),
        "reversible": outcome.comparable(),
        "match": reference.comparable() == outcome.comparable(),
        "siabCalls": trace.siab_calls,
        "peakLiveCells": trace.peak_live_intermediate,
        "intermediatesRestored": trace.restored,
    }
    return _report("sia-run", args, [rec], {}, started)


def cmd_pebble_schedule(args) -> dict:
    started = time.time()
    schedule = sia.siar_schedule(args.k)
    _take_out(schedule.as_text(), args)
    rec = {"k": args.k, "entries": len(schedule.entries),
           "expected": 3 ** args.k}
    return _report("pebble-schedule", args, [rec], {}, started)


def cmd_lattice_reduce(args) -> dict:
    started = time.time()
    formula = _load_formula(args)
    inst, artifacts = reduce_3sat_to_lattice(formula)
    reduced = lattice_to_cnf(inst)
    check = equisat_check(formula, inst)
    rec = {
        "instanceId": Path(args.input).stem,
        "gridSide": inst.grid_side,
        "constraints": len(inst.constraints),
        "reducedVars": reduced.num_vars,
        "reducedIndexWidth": index_width(reduced),
        "widthBound": inst.grid_side + 1,
        "overlapsRewritten": len(artifacts.overlap_log),
        "equisat": check,
    }
    return _report("lattice-reduce", args, [rec], {}, started)


def seth_hybrid_queries(formula: CnfFormula, kappa: float) -> dict:
    """Brute force over the prefix cube, Grover query counts on each
    kappa*n-variable suffix subcube."""
    n = formula.num_vars
    suffix = max(1, math.floor(kappa * n))
    prefix = n - suffix
    truth = generators.truth_table(formula)
    # Variable 1 is the truth index's top bit, so the prefix variables
    # 1..prefix are the bits above the suffix.
    counts = np.bincount(np.flatnonzero(truth) >> suffix, minlength=2 ** prefix)
    m_suffix = 2 ** suffix
    full_budget = math.ceil((math.pi / 4) * math.sqrt(m_suffix))
    queries = 0
    for m in counts:
        if m == 0:
            queries += full_budget
        else:
            queries += max(1, math.floor((math.pi / 4) * math.sqrt(m_suffix / m)))
    return {"n": n, "prefixVars": prefix, "suffixVars": suffix,
            "queries": int(queries), "satisfiable": bool(counts.sum() > 0)}


def cmd_seth_hybrid(args) -> dict:
    started = time.time()
    if args.seed is None:
        raise SystemExit("--seed is mandatory")
    import random as _random
    rng = _random.Random(args.seed)
    records = []
    ns = list(range(args.nmin, args.nmax + 1))
    for n in ns:
        formula = generators.random_kcnf(rng, n, round(args.clause_ratio * n), 3)
        rec = seth_hybrid_queries(formula, args.kappa)
        records.append(rec)
    log_q = [math.log2(r["queries"]) for r in records]
    slope = float(np.polyfit(ns, log_q, 1)[0])
    expected = 1 - args.kappa / 2
    return _report("seth-hybrid", args, records,
                   {"measuredExponent": slope, "predictedExponent": expected,
                    "withinTolerance": abs(slope - expected) <= 0.05}, started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridts",
        description="Hybrid classical-quantum tree-search laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",)):
        p.add_argument("--input", help="DIMACS CNF input path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("solve", help="run one engine on one instance")
    common(p)
    p.add_argument("--engine", choices=(DPLL, DNCPPSZ), default=DPLL)
    p.add_argument("--s", type=int, default=None, help="dncppsz only (default 1)")
    p.add_argument("--budget", type=int, default=None, help="dncppsz only (default n)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tree-stats", help="exhaustive tree instrumentation")
    common(p)
    p.add_argument("--engine", choices=(DPLL, DNCPPSZ), default=DPLL)
    p.add_argument("--s", type=int, default=None, help="dncppsz only (default 1)")
    p.add_argument("--budget", type=int, default=None, help="dncppsz only (default n)")
    p.set_defaults(func=cmd_tree_stats)

    p = sub.add_parser("decompose", help="search-tree decomposition report")
    common(p)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--measure", choices=("height", "branchingNumber"),
                   default="height")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "fit-exponent", help="hybrid exponent fit on the uniform family",
        description="Hybrid exponent fit on the uniform family. With "
                    "--format csv the fit matrix is written to --out, which "
                    "csv requires, and the JSON report to stdout.")
    common(p, formats=("json", "csv"))
    p.add_argument("--lambda", dest="lambda_", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--nmin", type=int, default=16)
    p.add_argument("--nmax", type=int, default=28)
    p.set_defaults(func=cmd_fit_exponent)

    p = sub.add_parser("qwalk-detect", help="marked-vertex detection on a DPLL tree")
    common(p)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_qwalk_detect)

    p = sub.add_parser("grover", help="Grover search with exact amplitudes")
    common(p)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--oracle", choices=("auto", "naive", "counter"), default="auto")
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("qpe-compare", help="standard vs counter phase estimation")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_qpe_compare)

    p = sub.add_parser("sia-run", help="reference vs reversible SIA")
    common(p)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--advice", default=None)
    p.set_defaults(func=cmd_sia_run)

    p = sub.add_parser(
        "pebble-schedule", help="Bennett pebbling schedule text",
        description="Bennett pebbling schedule text. The schedule goes to "
                    "--out and the JSON report to stdout; without --out the "
                    "schedule goes to stdout and the report to stderr.")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_pebble_schedule)

    p = sub.add_parser("lattice-reduce", help="3-SAT to Lattice SAT reduction")
    common(p)
    p.set_defaults(func=cmd_lattice_reduce)

    p = sub.add_parser("seth-hybrid", help="brute force + Grover query exponent")
    common(p)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--nmin", type=int, default=16)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--clause-ratio", type=float, default=4.5)
    p.set_defaults(func=cmd_seth_hybrid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and not args.out:
        parser.error("--format csv requires --out")
    try:
        report = args.func(args)
    except ValueError as exc:  # malformed input or a cap: no traceback
        parser.exit(2, f"hybridts {args.command}: error: {exc}\n")
    _emit(report, args)
    ok = report.get("aggregate", {}).get("withinTolerance", True)
    records_ok = all(r.get("match", True) for r in report.get("records", []))
    return 0 if ok and records_ok else 1


if __name__ == "__main__":
    sys.exit(main())

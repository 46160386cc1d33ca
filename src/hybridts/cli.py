"""Experiment harness: seeded pipelines over the laboratory modules with
machine-readable reports (JSON records, CSV for fit matrices).

A subcommand declares only the flags its handler reads, so a flag it does not
read is an argparse error. A handler returns its records and aggregate, and
`main` times the run and builds the report around them. Malformed input, a
flag value out of range, or a path that cannot be read or written ends the
run with one stderr line, exit status 2 and no report.
"""

from __future__ import annotations

import argparse
import json
import math
import random
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
from .qcircuit.core import CIRCUIT_DIM_CAP
from .qcircuit.oracles import build_oracle, optimal_iterations
from .qcircuit.qpe import qpe_p0_formula
from .treesearch import (
    DNCPPSZ,
    DPLL,
    EngineConfig,
    SolveResult,
    dnc_ppsz_solve,
    dpll_solve,
    tree_stats,
)


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


def _engine_record(args, run) -> tuple[dict, SolveResult]:
    """Run `run` on --input under the engine flags; the record's wallTime is
    the engine run's."""
    formula = parse_dimacs(Path(args.input).read_text())
    config = _engine_config(args, formula)
    started = time.time()
    result = run(formula, config)
    rec = {"instanceId": Path(args.input).stem, "engine": args.engine,
           "verdict": result.verdict.value, "wallTime": time.time() - started}
    rec.update(result.stats.as_record())
    return rec, result


def cmd_solve(args) -> tuple[list, dict]:
    rec, result = _engine_record(
        args, dpll_solve if args.engine == DPLL else dnc_ppsz_solve)
    if result.model:
        rec["model"] = list(result.model)
    return [rec], {}


def cmd_tree_stats(args) -> tuple[list, dict]:
    rec, _ = _engine_record(args, tree_stats)
    return [rec], {}


def cmd_decompose(args) -> tuple[list, dict]:
    formula = parse_dimacs(Path(args.input).read_text())
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
    return [rec], {}


def cmd_fit_exponent(args) -> tuple[list, dict]:
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv requires --out")
    ns = list(range(args.nmin, args.nmax + 1))
    fit = decomposition.fit_uniform_hybrid_exponent(args.lambda_, args.kappa, ns)
    if args.format == "csv":
        lines = ["lambda,kappaPrime,n,log2TH"]
        for n, v in zip(fit["ns"], fit["log2TH"]):
            lines.append(f"{args.lambda_},{args.kappa},{n},{v}")
        _take_out("\n".join(lines), args)
    return [fit], {"fittedExponent": fit["fittedExponent"],
                   "expectedExponent": fit["expectedExponent"]}


def cmd_qwalk_detect(args) -> tuple[list, dict]:
    formula = parse_dimacs(Path(args.input).read_text())
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
    return [rec], {}


def cmd_grover(args) -> tuple[list, dict]:
    formula = parse_dimacs(Path(args.input).read_text())
    oracle = build_oracle(formula, args.oracle)
    # Checked before the brute-force count, which allocates 2^n entries.
    if 2 ** oracle.num_wires > CIRCUIT_DIM_CAP:
        raise ValueError(f"the {oracle.kind} oracle needs {oracle.num_wires} wires, past "
                         f"the statevector cap of {CIRCUIT_DIM_CAP.bit_length() - 1} wires")
    solutions = generators.brute_force_count(formula)
    iterations = args.iterations
    if iterations is None:
        iterations = optimal_iterations(formula.num_vars, solutions)
    result = grover_search(formula, iterations, oracle=oracle)
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
    return [rec], {}


def cmd_qpe_compare(args) -> tuple[list, dict]:
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
        closed = qpe_p0_formula(float(np.angle(vals[pick])) / (2 * math.pi), t)
        diff = max(abs(p0 - closed), abs(p0p - closed))
        worst = max(worst, diff)
        records.append({"trial": trial, "t": t, "p0": p0, "p0Prime": p0p,
                        "closedForm": closed, "absDiff": diff,
                        "counterAncillas": ancillas})
    return records, {"maxAbsDiff": worst}


def cmd_sia_run(args) -> tuple[list, dict]:
    formula = parse_dimacs(Path(args.input).read_text())
    width = args.w if args.w is not None else max(1, index_width(formula))
    if args.advice is not None:
        advice = args.advice
    else:
        if args.seed is None:
            raise ValueError("--seed is required when --advice is omitted")
        rng = random.Random(args.seed)
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
    return [rec], {}


def cmd_pebble_schedule(args) -> tuple[list, dict]:
    schedule = sia.siar_schedule(args.k)
    _take_out(schedule.as_text(), args)
    rec = {"k": args.k, "entries": len(schedule.entries),
           "expected": 3 ** args.k}
    return [rec], {}


def cmd_lattice_reduce(args) -> tuple[list, dict]:
    formula = parse_dimacs(Path(args.input).read_text())
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
        "crossings": len(artifacts.crossings),
        "equisat": check,
    }
    return [rec], {}


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
    queries = sum(max(1, optimal_iterations(suffix, int(m))) for m in counts)
    return {"n": n, "prefixVars": prefix, "suffixVars": suffix,
            "queries": queries, "satisfiable": bool(counts.sum() > 0)}


def cmd_seth_hybrid(args) -> tuple[list, dict]:
    expected = decomposition.predicted_exponent(args.kappa, 1.0)
    if args.nmax <= args.nmin:
        raise ValueError("a fit needs at least 2 sizes n, "
                         f"got nmin {args.nmin} and nmax {args.nmax}")
    ns = list(range(args.nmin, args.nmax + 1))
    for n in ns:
        if round(args.clause_ratio * n) < 1:
            raise ValueError(f"--clause-ratio {args.clause_ratio} gives no clause at n = {n}")
    rng = random.Random(args.seed)
    records = []
    for n in ns:
        formula = generators.random_kcnf(rng, n, round(args.clause_ratio * n), 3)
        rec = seth_hybrid_queries(formula, args.kappa)
        records.append(rec)
    log_q = [math.log2(r["queries"]) for r in records]
    slope = float(np.polyfit(ns, log_q, 1)[0])
    return records, {"measuredExponent": slope, "predictedExponent": expected,
                     "withinTolerance": abs(slope - expected) <= 0.05}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridts",
        description="Hybrid classical-quantum tree-search laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    def engine_flags(p) -> None:
        p.add_argument("--engine", choices=(DPLL, DNCPPSZ), default=DPLL)
        p.add_argument("--s", type=int, default=None, help="dncppsz only (default 1)")
        p.add_argument("--budget", type=int, default=None, help="dncppsz only (default n)")

    p = command("solve", cmd_solve, help="run one engine on one instance")
    p.add_argument("--input", required=True, help="DIMACS CNF input path")
    engine_flags(p)

    p = command("tree-stats", cmd_tree_stats, help="exhaustive tree instrumentation")
    p.add_argument("--input", required=True, help="DIMACS CNF input path")
    engine_flags(p)

    p = command("decompose", cmd_decompose, help="search-tree decomposition report")
    p.add_argument("--input", required=True, help="DIMACS CNF input path")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--measure", choices=("height", "branchingNumber"),
                   default="height")

    p = command(
        "fit-exponent", cmd_fit_exponent,
        help="hybrid exponent fit on the uniform family",
        description="Hybrid exponent fit on the uniform family. With "
                    "--format csv the fit matrix is written to --out, which "
                    "csv requires, and the JSON report to stdout.")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--lambda", dest="lambda_", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--nmin", type=int, default=16)
    p.add_argument("--nmax", type=int, default=28)

    p = command("qwalk-detect", cmd_qwalk_detect,
                help="marked-vertex detection on a DPLL tree")
    p.add_argument("--input", required=True, help="DIMACS CNF input path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=None)

    p = command("grover", cmd_grover, help="Grover search with exact amplitudes")
    p.add_argument("--input", required=True, help="DIMACS CNF input path")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--oracle", choices=("auto", "naive", "counter"), default="auto")

    p = command("qpe-compare", cmd_qpe_compare,
                help="standard and counter phase estimation against the closed form")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)

    p = command("sia-run", cmd_sia_run, help="reference vs reversible SIA")
    p.add_argument("--input", required=True, help="DIMACS CNF input path")
    p.add_argument("--seed", type=int, default=None,
                   help="draws the advice when --advice is omitted")
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--advice", default=None)

    p = command(
        "pebble-schedule", cmd_pebble_schedule,
        help="Bennett pebbling schedule text",
        description="Bennett pebbling schedule text. The schedule goes to "
                    "--out and the JSON report to stdout; without --out the "
                    "schedule goes to stdout and the report to stderr.")
    p.add_argument("--k", type=int, required=True)

    p = command("lattice-reduce", cmd_lattice_reduce,
                help="3-SAT to Lattice SAT reduction")
    p.add_argument("--input", required=True, help="DIMACS CNF input path")

    p = command("seth-hybrid", cmd_seth_hybrid,
                help="brute force + Grover query exponent")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--nmin", type=int, default=16)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--clause-ratio", type=float, default=4.5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        records, aggregate = args.func(args)
        _emit({
            "schemaVersion": 1,
            "tool": "hybridts",
            "version": __version__,
            "command": args.command,
            "spec": _spec_echo(args),
            "records": records,
            "aggregate": aggregate,
            "timing": {"wallTime": time.time() - started},
        }, args)
    except (ValueError, OSError) as exc:  # bad input, flag value or path: no traceback
        parser.exit(2, f"hybridts {args.command}: error: {exc}\n")
    ok = aggregate.get("withinTolerance", True)
    return 0 if ok and all(r.get("match", True) for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded instance generation and brute-force oracles for the test corpora."""

from __future__ import annotations

import itertools
import random

import numpy as np

from .formula import CnfFormula


def random_kcnf(rng: random.Random, num_vars: int, num_clauses: int, k: int = 3) -> CnfFormula:
    """Random k-CNF: k distinct variables per clause, uniform polarities."""
    if num_vars < k:
        raise ValueError("need at least k variables")
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return CnfFormula.from_clauses(num_vars, clauses)


def truth_table(formula: CnfFormula) -> np.ndarray:
    """Satisfying-assignment mask over all 2^n assignments, in circuit order:
    variable v is bit n - v of the index, so variable 1 is most significant."""
    n = formula.num_vars
    idx = np.arange(2 ** n, dtype=np.int64)
    ok = np.ones(idx.shape, dtype=bool)
    for clause in formula.clauses:
        sat = np.zeros(idx.shape, dtype=bool)
        for lit in clause:
            bit = (idx >> (n - abs(lit))) & 1
            sat |= (bit == 1) if lit > 0 else (bit == 0)
        ok &= sat
    return ok


def brute_force_count(formula: CnfFormula) -> int:
    return int(truth_table(formula).sum())


def brute_force_satisfiable(formula: CnfFormula) -> bool:
    return bool(truth_table(formula).any())


def unique_sat_3cnf(rng: random.Random, num_vars: int, num_clauses: int,
                    max_tries: int = 2000) -> CnfFormula:
    """Random 3-CNF with exactly one model, by planting plus rejection."""
    if num_vars < 3:
        raise ValueError("need at least k variables")
    planted = [rng.randint(0, 1) for _ in range(num_vars)]
    for _ in range(max_tries):
        clauses = []
        for _ in range(num_clauses):
            variables = rng.sample(range(1, num_vars + 1), 3)
            # Keep the planted assignment satisfying: flip one literal true.
            lits = [v if rng.random() < 0.5 else -v for v in variables]
            if not any((l > 0) == bool(planted[abs(l) - 1]) for l in lits):
                fix = rng.randrange(3)
                v = variables[fix]
                lits[fix] = v if planted[v - 1] else -v
            clauses.append(lits)
        formula = CnfFormula.from_clauses(num_vars, clauses)
        if brute_force_count(formula) == 1:
            return formula
    raise RuntimeError("failed to generate a unique-SAT instance; raise num_clauses")


def pad_to_3cnf(formula: CnfFormula) -> CnfFormula:
    """Model-count-preserving expansion of 1- and 2-literal clauses to 3-CNF."""
    clauses: list[list[int]] = []
    next_var = formula.num_vars
    for clause in formula.clauses:
        if len(clause) >= 3:
            clauses.append(list(clause))
        elif len(clause) == 2:
            next_var += 1
            s = next_var
            clauses.append([clause[0], clause[1], s])
            clauses.append([clause[0], clause[1], -s])
        elif len(clause) == 1:
            next_var += 2
            s, t = next_var - 1, next_var
            for a, b in itertools.product((s, -s), (t, -t)):
                clauses.append([clause[0], a, b])
        else:
            raise ValueError("cannot pad an empty clause")
    return CnfFormula.from_clauses(next_var, clauses)

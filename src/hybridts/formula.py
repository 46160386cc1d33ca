"""CNF formulas, partial assignments, and the reduction rules every engine shares.

Literals are signed integers in DIMACS style: +v is the positive literal of
variable v, -v its negation. Variables are numbered 1..n. Assignment values
are 0/1 with UNSET = -1 for unassigned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

UNSET = -1


class Predicate(Enum):
    SATISFIED = "satisfied"
    CONTRADICTION = "contradiction"
    UNDETERMINED = "undetermined"


class SImplication(Enum):
    FORCED_TRUE = "forcedTrue"
    FORCED_FALSE = "forcedFalse"
    FREE = "free"
    # Both polarities (or an unsatisfiable sub-formula) found: the restriction
    # is unsatisfiable at this variable.
    CONTRADICTION = "contradiction"


def lit_satisfied(lit: int, value: int) -> bool:
    return value == (1 if lit > 0 else 0)


def normalize_clause(lits: Iterable[int]) -> tuple[int, ...] | None:
    """Drop duplicate literals; return None for tautological clauses."""
    seen = set(lits)
    if any(-l in seen for l in seen):
        return None
    return tuple(sorted(seen, key=abs))


@dataclass(frozen=True)
class PartialAssignment:
    """Trit vector over {0, 1, UNSET}, one entry per variable."""

    values: tuple[int, ...]

    @classmethod
    def empty(cls, num_vars: int) -> "PartialAssignment":
        return cls((UNSET,) * num_vars)

    @classmethod
    def of(cls, num_vars: int, pairs: dict[int, int]) -> "PartialAssignment":
        vals = [UNSET] * num_vars
        for var, val in pairs.items():
            vals[var - 1] = int(val)
        return cls(tuple(vals))

    def value(self, var: int) -> int:
        return self.values[var - 1]

    def assign(self, var: int, value: int) -> "PartialAssignment":
        if self.values[var - 1] != UNSET:
            raise ValueError(f"variable {var} already assigned")
        vals = list(self.values)
        vals[var - 1] = int(value)
        return PartialAssignment(tuple(vals))

    @property
    def num_vars(self) -> int:
        return len(self.values)

    @property
    def set_count(self) -> int:
        return sum(1 for v in self.values if v != UNSET)

    @property
    def is_full(self) -> bool:
        return all(v != UNSET for v in self.values)


@dataclass(frozen=True)
class CnfFormula:
    """Clause set over variables 1..num_vars; clauses are sorted literal tuples."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    max_clause_size: int

    @classmethod
    def from_clauses(cls, num_vars: int, clauses: Iterable[Iterable[int]],
                     allow_empty_clause: bool = False) -> "CnfFormula":
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        normed = []
        for clause in clauses:
            norm = normalize_clause(clause)
            if norm is None:
                continue
            if not norm and not allow_empty_clause:
                raise ValueError("empty clause in input formula")
            for lit in norm:
                if not 1 <= abs(lit) <= num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{num_vars}")
            normed.append(norm)
        deduped = tuple(dict.fromkeys(normed))
        k = max((len(c) for c in deduped), default=0)
        return cls(num_vars, deduped, k)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def is_empty(self) -> bool:
        return not self.clauses

    @property
    def has_empty_clause(self) -> bool:
        return any(not c for c in self.clauses)

    def variables(self) -> set[int]:
        return {abs(l) for c in self.clauses for l in c}


def _check_pairing(formula: CnfFormula, assignment: PartialAssignment) -> None:
    if assignment.num_vars != formula.num_vars:
        raise ValueError(
            f"assignment over {assignment.num_vars} variables does not pair "
            f"with formula over {formula.num_vars}")


def restrict(formula: CnfFormula, assignment: PartialAssignment) -> CnfFormula:
    """Apply the assignment: drop satisfied clauses, remove false literals.

    An empty clause produced here is preserved; it marks a contradiction.
    """
    _check_pairing(formula, assignment)
    out = []
    for clause in formula.clauses:
        kept = []
        satisfied = False
        for lit in clause:
            val = assignment.value(abs(lit))
            if val == UNSET:
                kept.append(lit)
            elif lit_satisfied(lit, val):
                satisfied = True
                break
        if not satisfied:
            out.append(tuple(kept))
    deduped = tuple(dict.fromkeys(out))
    k = max((len(c) for c in deduped), default=0)
    return CnfFormula(formula.num_vars, deduped, k)


def evaluate_predicate(formula: CnfFormula, assignment: PartialAssignment) -> Predicate:
    """Search predicate P: satisfied iff the restriction is the empty formula,
    contradiction iff it contains an empty clause, undetermined otherwise."""
    _check_pairing(formula, assignment)
    restricted = restrict(formula, assignment)
    if restricted.has_empty_clause:
        return Predicate.CONTRADICTION
    if restricted.is_empty:
        return Predicate.SATISFIED
    return Predicate.UNDETERMINED


def unit_rule(formula: CnfFormula, assignment: PartialAssignment) -> tuple[int, int] | None:
    """First unit clause by (variable index, clause order); returns (var, value)."""
    restricted = restrict(formula, assignment)
    if restricted.has_empty_clause:
        raise ValueError("unit rule called on a contradicted restriction")
    best = None
    for idx, clause in enumerate(restricted.clauses):
        if len(clause) == 1:
            lit = clause[0]
            key = (abs(lit), idx)
            if best is None or key < best[0]:
                best = (key, (abs(lit), 1 if lit > 0 else 0))
    return best[1] if best else None


def pure_literal_rule(formula: CnfFormula, assignment: PartialAssignment) -> tuple[int, int] | None:
    """Lowest unset variable occurring in one polarity only, or in no clause.

    Disappeared variables are assigned true, as are single-positive ones;
    single-negative variables are assigned false.
    """
    restricted = restrict(formula, assignment)
    if restricted.has_empty_clause:
        raise ValueError("pure literal rule called on a contradicted restriction")
    pos = set()
    neg = set()
    for clause in restricted.clauses:
        for lit in clause:
            (pos if lit > 0 else neg).add(abs(lit))
    for var in range(1, formula.num_vars + 1):
        if assignment.value(var) != UNSET:
            continue
        in_pos, in_neg = var in pos, var in neg
        if not in_neg:
            return (var, 1)
        if not in_pos:
            return (var, 0)
    return None


def _subset_agreement(clauses: Sequence[tuple[int, ...]], var: int) -> str:
    """Classify a sub-formula: 'unsat', 'true', 'false', or 'none'.

    'true'/'false' mean every satisfying assignment of the sub-formula sets
    var accordingly (var must occur in it for a non-vacuous verdict).
    """
    vars_g = sorted({abs(l) for c in clauses for l in c})
    sat_true = sat_false = False
    any_sat = False
    for bits in itertools.product((0, 1), repeat=len(vars_g)):
        values = dict(zip(vars_g, bits))
        if all(any(lit_satisfied(l, values[abs(l)]) for l in c) for c in clauses):
            any_sat = True
            if var in values:
                if values[var]:
                    sat_true = True
                else:
                    sat_false = True
            else:
                sat_true = sat_false = True
            if sat_true and sat_false:
                return "none"
    if not any_sat:
        return "unsat"
    if sat_true:
        return "true"
    if sat_false:
        return "false"
    return "none"


def s_implied(formula: CnfFormula, assignment: PartialAssignment, var: int,
              s: int) -> SImplication:
    """Exhaustive s-implication over all <=s clause subsets of the restriction.

    forcedTrue/forcedFalse when some sub-formula of at most s clauses forces
    the variable; CONTRADICTION when both polarities are forced or some
    sub-formula is unsatisfiable (the restriction is then unsatisfiable).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if assignment.value(var) != UNSET:
        raise ValueError(f"variable {var} is already assigned")
    restricted = restrict(formula, assignment)
    found_true = found_false = False
    clauses = restricted.clauses
    for size in range(1, s + 1):
        for combo in itertools.combinations(range(len(clauses)), size):
            verdict = _subset_agreement([clauses[i] for i in combo], var)
            if verdict == "unsat":
                return SImplication.CONTRADICTION
            found_true |= verdict == "true"
            found_false |= verdict == "false"
            if found_true and found_false:
                return SImplication.CONTRADICTION
    if found_true:
        return SImplication.FORCED_TRUE
    if found_false:
        return SImplication.FORCED_FALSE
    return SImplication.FREE


def _connected_subsets(clauses: Sequence[tuple[int, ...]], var: int,
                       s: int) -> Iterator[tuple[int, ...]]:
    """Subsets of <=s clause indices, connected through shared variables and
    containing at least one clause with var. Unconnected clauses cannot
    non-vacuously influence the forcing of var."""
    seeds = [i for i, c in enumerate(clauses) if any(abs(l) == var for l in c)]
    by_var: dict[int, list[int]] = {}
    for i, c in enumerate(clauses):
        for l in c:
            by_var.setdefault(abs(l), []).append(i)
    seen: set[frozenset[int]] = set()

    def expand(current: frozenset[int], frontier_vars: set[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(sorted(current))
        if len(current) == s:
            return
        candidates = {j for v in frontier_vars for j in by_var.get(v, ()) if j not in current}
        for j in sorted(candidates):
            nxt = current | {j}
            if nxt in seen:
                continue
            seen.add(nxt)
            yield from expand(nxt, frontier_vars | {abs(l) for l in clauses[j]})

    for i in seeds:
        start = frozenset([i])
        if start in seen:
            continue
        seen.add(start)
        yield from expand(start, {abs(l) for l in clauses[i]})


def s_implied_over_clauses(clauses: Sequence[tuple[int, ...]], var: int,
                           s: int) -> SImplication:
    """Connected-pool s-implication used by the engines and SIA blocks.

    Same verdicts as s_implied for non-vacuous forcing; vacuous contradictions
    from unconnected unsatisfiable sub-formulas are left to the predicate.
    """
    found_true = found_false = False
    for combo in _connected_subsets(clauses, var, s):
        verdict = _subset_agreement([clauses[i] for i in combo], var)
        if verdict == "unsat":
            return SImplication.CONTRADICTION
        found_true |= verdict == "true"
        found_false |= verdict == "false"
        if found_true and found_false:
            return SImplication.CONTRADICTION
    if found_true:
        return SImplication.FORCED_TRUE
    if found_false:
        return SImplication.FORCED_FALSE
    return SImplication.FREE


def index_width(formula: CnfFormula) -> int:
    """Largest index distance between two variables sharing a clause."""
    width = 0
    for clause in formula.clauses:
        if len(clause) >= 2:
            idxs = [abs(l) for l in clause]
            width = max(width, max(idxs) - min(idxs))
    return width


def parse_dimacs(text: str) -> CnfFormula:
    num_vars = None
    declared = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ValueError("clause before DIMACS header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"non-integer DIMACS token {tok!r}") from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} exceeds declared {num_vars} variables")
                current.append(lit)
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if current:
        raise ValueError("last DIMACS clause is not terminated by 0")
    if declared != len(clauses):
        raise ValueError(f"DIMACS header declares {declared} clauses, "
                         f"found {len(clauses)}")
    return CnfFormula.from_clauses(num_vars, clauses)


def serialize_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"

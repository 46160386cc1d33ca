"""CNF formulas, partial assignments, and the reduction rules every engine shares.

Literals are signed integers in DIMACS style: +v is the positive literal of
variable v, -v its negation. Variables are numbered 1..n. Assignment values
are 0/1 with UNSET = -1 for unassigned.

s-implication, the forcing rule of PPSZ (Paturi, Pudlak, Saks and Zane,
JACM 2005), has one kernel here: `s_implication`. It looks only at connected
subsets of at most s clauses that contain the variable, takes them from the
caller's clause index (the engine's occurrence lists, SIA's per-variable
index, or the index `s_implied_over_clauses` builds over a clause list), and
decides each subset with one bitmask truth table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

UNSET = -1


class Predicate(Enum):
    SATISFIED = "satisfied"
    CONTRADICTION = "contradiction"
    UNDETERMINED = "undetermined"


_FORCED_VALUE = {"forcedTrue": 1, "forcedFalse": 0, "free": None, "contradiction": 1}


class SImplication(Enum):
    FORCED_TRUE = "forcedTrue"
    FORCED_FALSE = "forcedFalse"
    FREE = "free"
    # Both polarities (or an unsatisfiable sub-formula) found: the restriction
    # is unsatisfiable at this variable.
    CONTRADICTION = "contradiction"

    @classmethod
    def of(cls, found_true: bool, found_false: bool) -> "SImplication":
        """The verdict from the polarities some subset forces."""
        if found_true and found_false:
            return cls.CONTRADICTION
        if found_true:
            return cls.FORCED_TRUE
        return cls.FORCED_FALSE if found_false else cls.FREE

    def __init__(self, value: str):
        # `forced` is the value the verdict sets: 0 for FORCED_FALSE, 1 for
        # FORCED_TRUE and CONTRADICTION (the positive test fires first, the
        # paper's Alg. 2), None for FREE. A plain attribute, since the engine
        # and SIA read it once per variable.
        self.forced: int | None = _FORCED_VALUE[value]


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


# Truth tables span at most 2^_TABLE_VARS rows; a subset over more variables
# is split on its last variables until each part fits.
_TABLE_VARS = 12


@functools.cache
def _columns(k: int) -> tuple[int, tuple[int, ...]]:
    """Truth-table constants over k variables: the all-rows mask and one
    column per variable. Row r gives variable i the value of bit i of r, so
    column i repeats a block of 2^i zeros then 2^i ones."""
    full = (1 << (1 << k)) - 1
    cols = []
    for i in range(k):
        b = 1 << i
        cols.append((((1 << b) - 1) << b) * (full // ((1 << 2 * b) - 1)))
    return full, tuple(cols)


def s_implication(var: int, s: int, clauses_with: Callable[[int], Iterable[int]],
                  restricted: Callable[[int], tuple[int, ...] | None]) -> SImplication:
    """The s-implication kernel: the verdict on `var` over every connected
    subset of at most s restricted clauses that contains `var`.

    The caller's clause index supplies the pool. `clauses_with(v)` gives the
    ids of the clauses containing variable v; `restricted(ci)` gives clause
    ci under the caller's restriction, or None when it is satisfied. Subsets
    start from the live clauses containing `var` and reach further clauses
    only through the variables of the subset so far; a clause is restricted
    at most once per call. Every caller's restriction keeps the variables a
    clause is reached through (`var` is unset, and so are the variables of
    the subset), so a clause in the pool is never empty.

    forcedTrue/forcedFalse when some subset forces `var`; CONTRADICTION when
    some subset is unsatisfiable or both polarities are forced. Unconnected
    unsatisfiable sub-formulas are left to the search predicate. A subset of
    one clause forces `var` when it is (var,) or (-var,). A larger subset is
    a truth table held in a Python int: a clause is the OR of its literal
    columns, the subset the AND of its clauses, so the verdict does not
    depend on the order of the subsets.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    pool: dict[int, tuple[int, ...] | None] = {}

    def live(ids: Iterable[int]) -> list[int]:
        out = []
        for ci in ids:
            if ci not in pool:
                pool[ci] = restricted(ci)
            if pool[ci] is not None:
                out.append(ci)
        return out

    seeds = live(clauses_with(var))
    found_true = found_false = False
    for ci in seeds:
        clause = pool[ci]
        if len(clause) == 1:
            if clause[0] > 0:
                found_true = True
            else:
                found_false = True
    if (found_true and found_false) or s == 1:
        return SImplication.of(found_true, found_false)

    # Sizes 2..s: each connected subset is visited once, from its
    # lowest-ranked clause (Wernicke's ESU enumeration, 2006). Seeds rank
    # first, so every subset that holds a seed is reached from a seed.
    rank = {ci: i for i, ci in enumerate(seeds)}
    base = len(seeds)
    neighbours: dict[int, set[int]] = {}

    def around(ci: int) -> set[int]:
        if ci not in neighbours:
            near = set()
            for lit in pool[ci]:
                near.update(live(clauses_with(abs(lit))))
            near.discard(ci)
            neighbours[ci] = near
        return neighbours[ci]

    def models(clauses: list[tuple[int, ...]]) -> tuple[bool, bool]:
        """Whether the clauses have a model with var true, and one with var
        false, from one truth table with var as column 0."""
        index = {var: 0}
        for clause in clauses:
            for lit in clause:
                index.setdefault(abs(lit), len(index))
        if len(index) > _TABLE_VARS:
            # Past one table: fix the last variable each way in turn.
            v = next(reversed(index))
            can_true = can_false = False
            for lit in (v, -v):
                t, f = models([tuple(l for l in c if l != -lit)
                               for c in clauses if lit not in c])
                can_true |= t
                can_false |= f
                if can_true and can_false:
                    break
            return can_true, can_false
        full, cols = _columns(len(index))
        sat = full
        for clause in clauses:
            mask = 0
            for lit in clause:
                col = cols[index[abs(lit)]]
                mask |= col if lit > 0 else full ^ col
            sat &= mask
        return sat & cols[0] != 0, sat & ~cols[0] != 0

    def extend(subset: list[int], closed: set[int], ext: set[int],
               low: int) -> bool:
        nonlocal found_true, found_false
        while ext:
            ci = ext.pop()
            grown = subset + [ci]
            can_true, can_false = models([pool[cj] for cj in grown])
            # An unsatisfiable subset forces both values: a contradiction.
            found_true |= not can_false
            found_false |= not can_true
            if found_true and found_false:
                return True
            if len(grown) < s:
                near = around(ci)
                more = {cj for cj in near - closed if rank.get(cj, base + cj) > low}
                if extend(grown, closed | near, ext | more, low):
                    return True
        return False

    for ci in seeds:
        low = rank[ci]
        near = around(ci)
        ext = {cj for cj in near if rank.get(cj, base + cj) > low}
        if extend([ci], near | {ci}, ext, low):
            return SImplication.CONTRADICTION
    return SImplication.of(found_true, found_false)


def s_implied_over_clauses(clauses: Sequence[tuple[int, ...]], var: int,
                           s: int) -> SImplication:
    """s-implication over a clause list (already restricted): the connected
    pool of `s_implication`, with the variable index built once."""
    by_var: dict[int, list[int]] = {}
    for ci, clause in enumerate(clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(ci)
    return s_implication(var, s, lambda v: by_var.get(v, ()), clauses.__getitem__)


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
        if line.startswith("%"):
            break  # SATLIB trailer: "%" then a stray "0"
        if not line or line.startswith("c"):
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

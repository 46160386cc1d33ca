"""CNF formulas, DIMACS text, and the s-implication kernel every engine shares.

Literals are signed integers in DIMACS style: +v is the positive literal of
variable v, -v its negation. Variables are numbered 1..n. Assignment values
are 0/1 with UNSET = -1 for unassigned.

s-implication, the forcing rule of PPSZ (Paturi, Pudlak, Saks and Zane,
JACM 2005), has one kernel here: `s_implication`. It looks only at connected
subsets of at most s clauses that contain the variable, takes them from the
caller's clause index (the engine's occurrence lists or SIA's per-variable
index), and decides each subset with a counting screen or, when that cannot,
one bitmask truth table.

`parse_dimacs` reads DIMACS text without a loop over lines: one regex finds
the comment, header and trailer lines, numpy converts the clause body in one
call, and clauses of one width are normalised together.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

UNSET = -1


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


def normalize_clause(lits: Iterable[int]) -> tuple[int, ...] | None:
    """Drop duplicate literals; return None for tautological clauses."""
    seen = set(lits)
    if any(-l in seen for l in seen):
        return None
    return tuple(sorted(seen, key=abs))


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
        return cls._of_normalized(num_vars, normed)

    @classmethod
    def _of_normalized(cls, num_vars: int,
                       clauses: Iterable[tuple[int, ...]]) -> "CnfFormula":
        """The formula of clauses `normalize_clause` returned, each repeat dropped."""
        deduped = tuple(dict.fromkeys(clauses))
        return cls(num_vars, deduped, max(map(len, deduped), default=0))

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
    one clause forces `var` when it is (var,) or (-var,). A larger subset
    forces nothing when, under each value of `var`, its clauses pass the
    Kraft screen; otherwise it is a truth table held in a Python int: a
    clause is the OR of its literal columns, the subset the AND of its
    clauses, so the verdict does not depend on the order of the subsets.

    SIA calls it at every s. The tree engine reads its s <= 2 verdicts off its
    clause masks (`treesearch._EngineState`) and calls it only for s >= 3.
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
        false, from one truth table with var as column 0.

        Kraft screen first: clauses whose sum of 2^-|C| is below 1 leave
        some assignment free of violations, so when the clauses under var = 1
        and under var = 0 both pass, both models exist and no table is
        built. The sums are integers scaled by 2^width."""
        width = max(map(len, clauses), default=0)
        full = 1 << width
        under_true = under_false = 0
        for clause in clauses:
            if var in clause:
                under_false += full >> (len(clause) - 1)
            elif -var in clause:
                under_true += full >> (len(clause) - 1)
            else:
                under_true += full >> len(clause)
                under_false += full >> len(clause)
        if under_true < full and under_false < full:
            return True, True
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


def index_width(formula: CnfFormula) -> int:
    """Largest index distance between two variables sharing a clause."""
    width = 0
    for clause in formula.clauses:
        if len(clause) >= 2:
            idxs = [abs(l) for l in clause]
            width = max(width, max(idxs) - min(idxs))
    return width


# A comment ("c"), header ("p") or trailer ("%") line, with the newline before
# it: the scanned text starts with an added newline.
_SPECIAL_LINE = re.compile(rb"\n[ \t\r\v\f]*([cp%])[^\n]*")
_HEADER = re.compile(rb"\s*p\s+cnf\s+([0-9]+)\s+([0-9]+)\s*")
# The class of each body byte: 0 ASCII whitespace, 1 digit, 2 sign, 3 other.
# A token [+-]?[0-9]+ contains none of _BAD_CLASSES and does not end in a sign.
_BYTE_CLASS = bytes(0 if b in b" \t\n\r\v\f" else 1 if b in b"0123456789"
                    else 2 if b in b"+-" else 3 for b in range(256))
_BAD_CLASSES = (b"\x03", b"\x02\x00", b"\x02\x02", b"\x01\x02")


def parse_dimacs(text: str) -> CnfFormula:
    """The formula of DIMACS CNF text.

    The accepted input:
    - lines end in LF or CRLF;
    - a line whose first non-blank character is "c" is a comment, before or
      after the header;
    - a line whose first non-blank character is "%" (the SATLIB trailer) ends
      the input: what follows it is not read;
    - one header line "p cnf <variables> <clauses>", its counts ASCII digits;
    - after it, the clause body: tokens separated by ASCII whitespace, each an
      ASCII integer [+-]?[0-9]+. A clause is the literals up to a 0; clauses
      may share a line or span lines.

    Clauses are normalised as `CnfFormula.from_clauses` does. Each error is a
    ValueError that names the first offending line, token or literal. The
    first four are raised as the lines come; the rest are checked in order:
    - "malformed DIMACS header: '<line>'": not "p cnf" and two counts;
    - "duplicate DIMACS header": a second header line;
    - "clause before DIMACS header": a body token before the header;
    - "missing DIMACS header": no header line;
    - "non-integer DIMACS token '<token>'": a token outside the grammar;
    - "literal <lit> exceeds declared <n> variables": |lit| > n;
    - "last DIMACS clause is not terminated by 0";
    - "DIMACS header declares <m> clauses, found <k>";
    - "num_vars must be >= 1": a header with 0 variables;
    - "empty clause in input formula": a 0 that ends no literal.
    """
    num_vars, declared, body = _dimacs_body(text)
    vals = _dimacs_literals(body, num_vars)
    if vals.size and vals[-1] != 0:
        raise ValueError("last DIMACS clause is not terminated by 0")
    m = vals.size - np.count_nonzero(vals)
    if declared != m:
        raise ValueError(f"DIMACS header declares {declared} clauses, found {m}")
    k = vals.size // m if m else 0  # tokens per clause, its 0 included
    if k < 2 or vals.size != m * k or vals[k - 1::k].any():
        # Mixed widths, empty clauses or no clause: one clause at a time.
        lits = vals.tolist()
        ends = np.flatnonzero(vals == 0).tolist()
        return CnfFormula.from_clauses(
            num_vars, [lits[a + 1:b] for a, b in zip([-1] + ends, ends)])
    rows = vals.reshape(m, k)[:, :-1]
    # Each clause sorted by |lit|, a negative literal after its positive one.
    key = np.sort(np.abs(rows) * 2 + (rows < 0), axis=1)
    var = key >> 1
    clauses = list(zip(*np.where(key & 1, -var, var).T.tolist()))
    repeats = (var[:, 1:] == var[:, :-1]).any(axis=1)
    if repeats.any():  # a repeated literal or a tautology
        for i in np.flatnonzero(repeats).tolist():
            clauses[i] = normalize_clause(clauses[i])
        clauses = [c for c in clauses if c is not None]
    return CnfFormula._of_normalized(num_vars, clauses)


def _dimacs_body(text: str) -> tuple[int, int, bytes]:
    """The header's two counts and the clause body: the text's bytes without
    comment lines, the header line, and the trailer line and what follows it."""
    raw = b"\n" + text.encode()
    header = None
    pieces = []
    pos = 0
    for line in _SPECIAL_LINE.finditer(raw):
        pieces.append(raw[pos:line.start()])
        pos = line.end()
        kind = line[1]
        if kind == b"%":
            break
        if kind == b"p":
            if header is not None:
                raise ValueError("duplicate DIMACS header")
            if b"".join(pieces).strip():
                raise ValueError("clause before DIMACS header")
            header = _HEADER.fullmatch(line[0])
            if header is None:
                raise ValueError(
                    f"malformed DIMACS header: {line[0].decode().strip()!r}")
    else:
        pieces.append(raw[pos:])
    body = b"".join(pieces)
    if header is None:
        raise ValueError("clause before DIMACS header" if body.strip()
                         else "missing DIMACS header")
    return int(header[1]), int(header[2]), body


def _dimacs_literals(body: bytes, num_vars: int) -> np.ndarray:
    """The body's tokens as one integer array, each a literal of at most
    `num_vars` variables or 0."""
    classes = body.translate(_BYTE_CLASS)
    bad = [i for i in map(classes.find, _BAD_CLASSES) if i >= 0]
    if classes.endswith(b"\x02"):
        bad.append(len(classes) - 1)
    if bad:
        at = min(bad)
        end = classes.find(b"\x00", at)
        token = body[classes.rfind(b"\x00", 0, at) + 1:end if end >= 0 else None]
        raise ValueError(f"non-integer DIMACS token {token.decode()!r}")
    if b"\x01" * 19 in classes:  # 19 digits may overflow int64: Python ints
        vals = np.array([int(t) for t in body.split()], dtype=object)
    else:  # stripped, since np.fromstring reads a blank string as [0]
        vals = np.fromstring(body.strip(), dtype=np.int64, sep=" ")
    mags = np.abs(vals)
    if mags.max(initial=0) > num_vars:
        lit = vals[np.argmax(mags > num_vars)]
        raise ValueError(f"literal {lit} exceeds declared {num_vars} variables")
    return vals


def serialize_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"

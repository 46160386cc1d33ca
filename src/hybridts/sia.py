"""s-implication with advice: irreversible reference, block computation over
bounded-index-width formulas, the Bennett pebbling schedule, and reversible
execution with xor-cell semantics.

Every path runs the same per-variable step, `_SiaCore.step`: it forces the
variable by s-implication, setting the value `SImplication.forced` names, or
spends the next advice bit on it, or stops out of advice. The verdict comes
from `formula.s_implication` over the clauses reached from the variable
through the per-variable clause index, each restricted by the window of the
last w assigned values alone. The reference is one walk over the
variables; the blocks take w steps each.

Flag values carried in a memory cell: 0 alive, 1 contradiction, 2 out of
advice (the two-children verdict), 3 satisfied early. The cell also carries a
satisfied-clause counter so the blocks can detect global satisfaction from
window-local events; without it the block composition diverges from the
reference on formulas that become satisfied before the last variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .formula import CnfFormula, SImplication, index_width, s_implication

FLAG_ALIVE = 0
FLAG_CONTRADICTION = 1
FLAG_OUT_OF_ADVICE = 2
FLAG_SATISFIED = 3

_REASON = {FLAG_CONTRADICTION: "contradiction", FLAG_SATISFIED: "satisfied"}


@dataclass(frozen=True)
class SiaOutcome:
    kind: str                      # "zeroChildren" | "twoChildren"
    reason: str | None             # contradiction | satisfied | fullAssignment
    at_variable: int | None        # the guess variable for twoChildren
    advice_consumed: int
    flag: int

    def comparable(self) -> tuple:
        return (self.kind, self.reason, self.advice_consumed, self.flag)


@dataclass(frozen=True)
class Cell:
    """One memory cell: last block's values, advice cursor, flag, sat count."""

    block: tuple[int, ...]
    cursor: int
    flag: int
    sat_count: int

    @classmethod
    def zero(cls, w: int) -> "Cell":
        return cls((0,) * w, 0, 0, 0)

    def is_zero(self) -> bool:
        return (self.cursor == 0 and self.flag == 0 and self.sat_count == 0
                and all(b == 0 for b in self.block))

    def xor(self, other: "Cell") -> "Cell":
        if len(self.block) != len(other.block):
            raise ValueError("cell width mismatch")
        return Cell(tuple(a ^ b for a, b in zip(self.block, other.block)),
                    self.cursor ^ other.cursor, self.flag ^ other.flag,
                    self.sat_count ^ other.sat_count)


def _clause_spans(formula: CnfFormula) -> list[tuple[int, int, tuple[int, ...]]]:
    return [(min(abs(l) for l in c), max(abs(l) for l in c), c)
            for c in formula.clauses if c]


class _SiaCore:
    """Shared per-variable transition used by the reference and the blocks.

    `window` maps the last <= w assigned variables to values; the satisfied
    counter and flag reproduce the reference's contradiction / satisfied /
    out-of-advice stops exactly.
    """

    def __init__(self, formula: CnfFormula, s: int, w: int | None,
                 target_clauses: int | None = None):
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        self.formula = formula
        self.s = s
        self.w = w
        self.spans = _clause_spans(formula)
        # Satisfaction target; padding clauses can be excluded by the caller.
        self.target = target_clauses if target_clauses is not None else len(self.spans)
        self.by_var: list[list[int]] = [[] for _ in range(formula.num_vars + 1)]
        for idx, (_, _, clause) in enumerate(self.spans):
            for lit in clause:
                self.by_var[abs(lit)].append(idx)

    def implication(self, window: dict[int, int], var: int) -> SImplication:
        """s-implication of `var` over the clauses restricted by the window
        alone: variables below `var` must lie in it (sound for index width
        <= w), and those from `var` on are unset."""
        spans = self.spans

        def restricted(idx: int) -> tuple[int, ...] | None:
            kept = []
            for lit in spans[idx][2]:
                v = abs(lit)
                if v >= var:
                    kept.append(lit)
                elif v not in window:
                    raise ValueError(
                        f"variable {v} outside the w-window while deciding {var}; "
                        "index width exceeds w")
                elif (lit > 0) == bool(window[v]):
                    return None
            return tuple(kept)

        return s_implication(var, self.s, self.by_var.__getitem__, restricted)

    def step(self, window: dict[int, int], var: int, bits: tuple[int, ...],
             cursor: int, sat_count: int) -> tuple[int, int, int]:
        """Set `var` in the window, forced or from advice bit `cursor`; returns
        (cursor, sat_count, flag). Out of advice, `var` stays unset."""
        value = self.implication(window, var).forced
        if value is None:
            if cursor == len(bits):
                return cursor, sat_count, FLAG_OUT_OF_ADVICE
            value = bits[cursor]
            cursor += 1
        window[var] = value
        sat_count, flag = self.post_assign(window, var, sat_count)
        return cursor, sat_count, flag

    def post_assign(self, window: dict[int, int], var: int, sat_count: int) -> tuple[int, int]:
        """Clause fates sealed by assigning `var`: returns (sat_count, flag)."""
        for idx in self.by_var[var]:
            lo, hi, clause = self.spans[idx]
            made_true = False
            earlier_true = False
            for lit in clause:
                v = abs(lit)
                if v > var or v not in window:
                    continue
                if (lit > 0) == bool(window[v]):
                    if v == var:
                        made_true = True
                    else:
                        earlier_true = True
                        break
            if earlier_true:
                continue
            if made_true:
                sat_count += 1
                continue
            if hi == var:
                # Clause fully assigned with every literal false.
                return sat_count, FLAG_CONTRADICTION
        if sat_count == self.target:
            return sat_count, FLAG_SATISFIED
        return sat_count, FLAG_ALIVE


_ADVICE_BIT = {"0": 0, "1": 1, 0: 0, 1: 1}


def _outcome(flag: int, cursor: int, at_variable: int | None = None) -> SiaOutcome:
    """The outcome a stop flag reports; `at_variable` is kept only for the
    out-of-advice guess. A cell does not carry that variable, so the paths
    that end in a cell leave it None."""
    if flag == FLAG_OUT_OF_ADVICE:
        return SiaOutcome("twoChildren", None, at_variable, cursor, flag)
    return SiaOutcome("zeroChildren", _REASON.get(flag, "fullAssignment"), None,
                      cursor, flag)


def _advice_bits(advice: str | tuple[int, ...]) -> tuple[int, ...]:
    """Advice as a tuple of 0/1 ints; any other symbol is a ValueError."""
    bits = tuple(map(_ADVICE_BIT.get, advice))
    if None in bits:
        raise ValueError(f"advice symbol {advice[bits.index(None)]!r} is not 0 or 1")
    return bits


def _reference_walk(formula: CnfFormula, advice: str | tuple[int, ...],
                    s: int) -> tuple[SiaOutcome, dict[int, int]]:
    """The irreversible walk: its outcome and the values it assigned."""
    bits = _advice_bits(advice)
    core = _SiaCore(formula, s, None)
    window: dict[int, int] = {}
    if formula.has_empty_clause:
        return _outcome(FLAG_CONTRADICTION, 0), window
    if core.target == 0:
        return _outcome(FLAG_SATISFIED, 0), window
    cursor = 0
    sat_count = 0
    for var in range(1, formula.num_vars + 1):
        cursor, sat_count, flag = core.step(window, var, bits, cursor, sat_count)
        if flag != FLAG_ALIVE:
            return _outcome(flag, cursor, var), window
    # Unreachable for formulas with clauses: a full assignment satisfies or
    # contradicts some clause. Kept for the m == 0 guard above.
    return _outcome(FLAG_ALIVE, cursor), window


def sia_reference(formula: CnfFormula, advice: str | tuple[int, ...],
                  s: int = 1) -> SiaOutcome:
    """Irreversible SIA: walk variables 1..n, forcing by s-implication and
    spending advice bits on guesses; stops on contradiction, satisfaction, or
    advice exhaustion at a guess."""
    return _reference_walk(formula, advice, s)[0]


def siab_block(formula: CnfFormula, block_index: int, w: int,
               input_cell: Cell, advice: str | tuple[int, ...], s: int = 1,
               core: _SiaCore | None = None) -> Cell:
    """Block i computes variables (i-1)*w+1 .. i*w from the previous block.

    Identity when the input flag is set. Block 1 ignores its input cell (it
    initializes cursor, flag and counter to zero).
    """
    if core is None:
        if index_width(formula) > w:
            raise ValueError("formula index width exceeds the block width w")
        core = _SiaCore(formula, s, w)
    bits = _advice_bits(advice)
    if block_index == 1:
        input_cell = Cell.zero(w)
        if formula.has_empty_clause:
            input_cell = replace(input_cell, flag=FLAG_CONTRADICTION)
        elif core.target == 0:
            input_cell = replace(input_cell, flag=FLAG_SATISFIED)
    if input_cell.flag != FLAG_ALIVE:
        return input_cell
    first = (block_index - 1) * w + 1
    window = {first - w + i: v for i, v in enumerate(input_cell.block)
              if first - w + i >= 1}
    cursor = input_cell.cursor
    sat_count = input_cell.sat_count
    flag = FLAG_ALIVE
    values = [0] * w
    for offset in range(w):
        var = first + offset
        if var > formula.num_vars:
            break
        cursor, sat_count, flag = core.step(window, var, bits, cursor, sat_count)
        if flag == FLAG_OUT_OF_ADVICE:
            break
        values[offset] = window[var]
        if flag != FLAG_ALIVE:
            break
    return Cell(tuple(values), cursor, flag, sat_count)


def _block_setup(formula: CnfFormula, advice: str | tuple[int, ...], w: int,
                 s: int) -> tuple[CnfFormula, int, tuple[int, ...], _SiaCore]:
    """The start of every block path: the width check, the advice bits, and
    the formula padded with forced-true dummy unit variables so that w divides
    n and the block count is a power of two. Returns (padded, num_blocks,
    bits, core); the core's satisfaction target leaves the padding out."""
    if w < 1:
        raise ValueError("block width w must be at least 1")
    if index_width(formula) > w:
        raise ValueError("formula index width exceeds the block width w")
    bits = _advice_bits(advice)
    n = formula.num_vars
    blocks = 2 ** (max(1, math.ceil(n / w)) - 1).bit_length()
    clauses = [*formula.clauses, *((var,) for var in range(n + 1, blocks * w + 1))]
    padded = CnfFormula.from_clauses(blocks * w, clauses, allow_empty_clause=True)
    return padded, blocks, bits, _SiaCore(padded, s, w, target_clauses=len(formula.clauses))


@dataclass
class ScheduleEntry:
    block: int
    source: int    # pebble index, -1 is the input cell
    target: int

    def as_text(self) -> str:
        return f"M[{self.target}] ^= SIAB_{self.block}(M[{self.source}])"


@dataclass
class PebbleSchedule:
    pebbles: int
    entries: list[ScheduleEntry]

    def as_text(self) -> str:
        return "\n".join(e.as_text() for e in self.entries)


def siar_schedule(k: int) -> PebbleSchedule:
    """Bennett pebbling of the 2^k block chain: ternary compute/compute/
    uncompute recursion, 3^k leaf entries, at most k live intermediates."""
    if k < 0:
        raise ValueError("k must be >= 0")
    entries: list[ScheduleEntry] = []

    def rec(a: int, s: int, t: int, p: int) -> None:
        if p == 0:
            entries.append(ScheduleEntry(a, s, t))
            return
        r = p - 1
        b = a + 2 ** r
        rec(a, s, r, p - 1)
        rec(b, r, t, p - 1)
        rec(a, s, r, p - 1)

    rec(1, -1, k, k)
    return PebbleSchedule(k, entries)


@dataclass
class ReversibleTrace:
    """Per-entry audit data for the reversible execution."""

    peak_live_intermediate: int
    restored: bool                          # intermediates all zero at the end
    siab_calls: int


def siar_execute(formula: CnfFormula, advice: str | tuple[int, ...], w: int,
                 s: int = 1) -> tuple[SiaOutcome, ReversibleTrace]:
    """Run the pebbling schedule under xor-cell semantics; the final output
    cell reproduces the reference outcome."""
    padded, blocks, advice, core = _block_setup(formula, advice, w, s)
    k = blocks.bit_length() - 1
    schedule = siar_schedule(k)
    cells: dict[int, Cell] = {i: Cell.zero(w) for i in range(-1, k + 1)}
    peak = 0
    for entry in schedule.entries:
        value = siab_block(padded, entry.block, w, cells[entry.source], advice,
                           s, core=core)
        cells[entry.target] = cells[entry.target].xor(value)
        live = sum(1 for i in range(k) if not cells[i].is_zero())
        peak = max(peak, live)
    restored = all(cells[i].is_zero() for i in range(k))
    out_cell = cells[k]
    outcome = _outcome(out_cell.flag, out_cell.cursor)
    trace = ReversibleTrace(
        peak_live_intermediate=peak,
        restored=restored,
        siab_calls=len(schedule.entries),
    )
    return outcome, trace

"""Space-frugal clause oracles and Grover search.

Naive oracle: one ancilla per clause plus a conjunction bit and a phase
kickback wire (n+m+2 total). Counter oracle: a floor(log m)+1 wide satisfied-
clause counter compared against m, plus one scratch bit (n + floor(log m)+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..formula import CnfFormula
from ..generators import truth_table
from .core import Circuit, append_increment, simulate

Z_BLOCK = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass
class OracleCircuit:
    circuit: Circuit
    input_wires: tuple[int, ...]
    ancilla_wires: tuple[int, ...]
    kind: str

    @property
    def num_wires(self) -> int:
        return self.circuit.num_wires


def _clause_false_controls(clause, var_wire) -> tuple[tuple[int, int], ...]:
    # Literal +v is false when wire v reads 0; -v is false when it reads 1.
    return tuple((var_wire(abs(lit)), 0 if lit > 0 else 1) for lit in clause)


def clause_oracle_naive(formula: CnfFormula) -> OracleCircuit:
    """Phase-flip oracle with per-clause ancillas: n + m + 2 wires."""
    n, m = formula.num_vars, formula.num_clauses
    if m < 1:
        raise ValueError("oracle needs at least one clause")
    circ = Circuit(n + m + 2)
    inputs = tuple(range(n))
    clause_anc = tuple(range(n, n + m))
    conj = n + m
    kick = n + m + 1
    var_wire = lambda v: v - 1

    def compute_clauses(c: Circuit):
        for ci, clause in enumerate(formula.clauses):
            anc = clause_anc[ci]
            c.x(anc)  # ancilla = 1, flipped to 0 exactly when every literal is false
            c.x(anc, _clause_false_controls(clause, var_wire))

    circ.x(kick)
    circ.h(kick)                      # kickback wire in |->
    compute_clauses(circ)
    circ.x(conj, tuple((a, 1) for a in clause_anc))
    circ.x(kick, ((conj, 1),))        # phase (-1)^(F(x))
    circ.x(conj, tuple((a, 1) for a in clause_anc))
    compute_clauses(circ)             # self-inverse per-clause pattern
    circ.h(kick)
    circ.x(kick)
    return OracleCircuit(circ, inputs, clause_anc + (conj, kick), "naive")


def clause_oracle_counter(formula: CnfFormula) -> OracleCircuit:
    """Phase-flip oracle with a satisfied-clause counter: n + floor(log m) + 2
    wires; the counter is compared against m by a controlled phase."""
    n, m = formula.num_vars, formula.num_clauses
    if m < 1:
        raise ValueError("oracle needs at least one clause")
    p = m.bit_length()                # floor(log2 m) + 1
    circ = Circuit(n + p + 1)
    inputs = tuple(range(n))
    counter = tuple(range(n, n + p))
    scratch = n + p
    var_wire = lambda v: v - 1

    def count_pass(c: Circuit, step: int):
        order = formula.clauses if step == 1 else tuple(reversed(formula.clauses))
        for clause in order:
            controls = _clause_false_controls(clause, var_wire)
            c.x(scratch)
            c.x(scratch, controls)              # scratch = clause truth
            append_increment(c, counter, ((scratch, 1),), step=step)
            c.x(scratch, controls)
            c.x(scratch)

    count_pass(circ, 1)
    # Phase -1 exactly on counter == m: Z on the top set bit of m, controlled
    # on the remaining counter bits matching m's pattern.
    m_bits = [(m >> (p - 1 - pos)) & 1 for pos in range(p)]
    z_pos = m_bits.index(1)
    controls = tuple((counter[pos], m_bits[pos]) for pos in range(p) if pos != z_pos)
    circ.unitary((counter[z_pos],), Z_BLOCK, controls)
    count_pass(circ, -1)
    return OracleCircuit(circ, inputs, counter + (scratch,), "counter")


def build_oracle(formula: CnfFormula, kind: str = "auto") -> OracleCircuit:
    if kind == "naive":
        return clause_oracle_naive(formula)
    if kind == "counter":
        return clause_oracle_counter(formula)
    if kind == "auto":
        naive_wires = formula.num_vars + formula.num_clauses + 2
        return clause_oracle_naive(formula) if naive_wires <= 18 \
            else clause_oracle_counter(formula)
    raise ValueError(f"unknown oracle kind {kind!r}")


def grover_circuit(formula: CnfFormula, iterations: int,
                   oracle: str | OracleCircuit = "auto") -> tuple[Circuit, OracleCircuit]:
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    orc = oracle if isinstance(oracle, OracleCircuit) else build_oracle(formula, oracle)
    circ = Circuit(orc.num_wires)
    for w in orc.input_wires:
        circ.h(w)
    # One diffusion, repeated by extend, so simulate compiles its reflection once.
    diffusion = Circuit(orc.num_wires)
    for w in orc.input_wires:
        diffusion.h(w)
    diffusion.reflect0(orc.input_wires)
    for w in orc.input_wires:
        diffusion.h(w)
    for _ in range(iterations):
        circ.extend(orc.circuit)
        circ.extend(diffusion)
    return circ, orc


@dataclass
class GroverResult:
    assignment: tuple[int, ...]
    success_probability: float
    iterations: int
    oracle_kind: str
    num_wires: int


def grover_search(formula: CnfFormula, iterations: int,
                  oracle: str | OracleCircuit = "auto") -> GroverResult:
    """Run the standard loop; exact success probability from the amplitudes."""
    circ, orc = grover_circuit(formula, iterations, oracle)
    state = simulate(circ)
    n = formula.num_vars
    anc = circ.num_wires - n
    marginal = np.abs(state.reshape(2 ** n, 2 ** anc)) ** 2
    marginal = marginal.sum(axis=1)
    sat_mask = truth_table(formula)
    success = float(marginal[sat_mask].sum())
    best = int(np.argmax(marginal))
    assignment = tuple((best >> (n - v)) & 1 for v in range(1, n + 1))
    return GroverResult(assignment, success, iterations, orc.kind, circ.num_wires)


def grover_angle(num_vars: int, num_solutions: int) -> float:
    if not 0 <= num_solutions <= 2 ** num_vars:
        raise ValueError("bad solution count")
    return math.asin(math.sqrt(num_solutions / 2 ** num_vars))


def closed_form_success(iterations: int, theta: float) -> float:
    return math.sin((2 * iterations + 1) * theta) ** 2


def optimal_iterations(num_vars: int, num_solutions: int) -> int:
    if num_solutions == 0:
        return math.ceil((math.pi / 4) * math.sqrt(2 ** num_vars))
    return max(0, math.floor((math.pi / 4) * math.sqrt(2 ** num_vars / num_solutions)))

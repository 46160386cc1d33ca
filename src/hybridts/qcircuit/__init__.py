"""Gate-level reversible and quantum circuit emulation."""

from .core import (
    Circuit,
    Gate,
    TraceResult,
    append_increment,
    is_classical,
    simulate,
    trace_basis,
)
from .oracles import (
    clause_oracle_counter,
    clause_oracle_naive,
    closed_form_success,
    grover_angle,
    grover_circuit,
    grover_search,
)
from .qpe import qpe_counter, qpe_standard

__all__ = [name for name in dir() if not name.startswith("_")]

"""Simulator dimension caps, overridable through HYBRIDTS_DIM_CAP."""

import os

DEFAULT_WALK_DIM_CAP = 4096
DEFAULT_CIRCUIT_DIM_CAP = 2 ** 24


def _env_cap() -> int | None:
    raw = os.environ.get("HYBRIDTS_DIM_CAP")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"HYBRIDTS_DIM_CAP must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValueError("HYBRIDTS_DIM_CAP must be at least 2")
    return value


def walk_dim_cap() -> int:
    """Largest vertex-basis dimension the dense walk simulator will build."""
    return _env_cap() or DEFAULT_WALK_DIM_CAP


def circuit_dim_cap() -> int:
    """Largest statevector length the circuit simulator will allocate."""
    return _env_cap() or DEFAULT_CIRCUIT_DIM_CAP

"""Simulator dimension caps. HYBRIDTS_DIM_CAP overrides the walk cap only:
the statevector cap is 4096 times larger, so no one value suits both."""

import os

DEFAULT_WALK_DIM_CAP = 4096
CIRCUIT_DIM_CAP = 2 ** 24


def walk_dim_cap() -> int:
    """Largest vertex-basis dimension the dense walk simulator will build."""
    raw = os.environ.get("HYBRIDTS_DIM_CAP")
    if not raw:
        return DEFAULT_WALK_DIM_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"HYBRIDTS_DIM_CAP must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValueError("HYBRIDTS_DIM_CAP must be at least 2")
    return value

"""Global numerical tolerance.

All comparisons of operators and projections in this package are absolute
comparisons in the spectral norm against a single tolerance. The default is
1e-9; it can be changed process-wide with set_default_tolerance or, at import
time, through the TOPOSQ_TOL environment variable (the only environment
configuration the package reads). Individual operations accept a tol argument
that overrides the default for that call.
"""

from __future__ import annotations

import math
import os

_FACTORY_DEFAULT = 1e-9


def _validated(tol: float) -> float:
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


try:
    _default_tolerance = _validated(os.environ.get("TOPOSQ_TOL", _FACTORY_DEFAULT))
except ValueError as exc:
    raise ValueError(f"TOPOSQ_TOL: {exc}") from None


def default_tolerance() -> float:
    """Return the current process-wide tolerance."""
    return _default_tolerance


def set_default_tolerance(tol: float) -> None:
    """Set the process-wide tolerance used when an operation gets tol=None."""
    global _default_tolerance
    _default_tolerance = _validated(tol)


def resolve_tolerance(tol: float | None) -> float:
    """Return tol itself (validated) or the process-wide default."""
    if tol is None:
        return _default_tolerance
    return _validated(tol)

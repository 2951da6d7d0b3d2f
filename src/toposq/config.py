"""The global numerical tolerance and every hand-set numerical threshold.

All comparisons of operators and projections in this package are absolute
comparisons in the spectral norm against one tolerance. The default is 1e-9,
or the value of the TOPOSQ_TOL environment variable (the only environment
configuration the package reads). It is read once at import and fixed for the
life of the process. Individual operations accept a tol argument that
overrides the default for that call.

Thresholds that do not follow the tolerance are fixed here, each with its
one-line derivation, and no other module writes one out:

- PARTITION_SLACK, per summed projection: 1e5 x a canonical atom's ~1e-15 error.
- QR_RANK_CUT, on |r_ii| in Projection.onto: ~1e4 eps marks a dependent column.
- ORDER_PAIR_SLACK, OrderPair's mu <= nu: one eigenvalue reached by two routes.
- SNAP_FLOOR, canonical_projection's drift: k summed atoms drift only ~k * 1e-15.
- ID_DECIMALS, context-id rounding: 1e-6 steps dwarf the ~1e-15 atom jitter.
- SUITE_DISTINCT_GAP: the injectivity suite needs projections distinct >> tol.
- SUITE_SPECTRUM_SLACK: approximations' eigenvalues are A's up to eigh error.
"""

from __future__ import annotations

import math
import os

__all__ = ["default_tolerance"]

_FACTORY_DEFAULT = 1e-9

PARTITION_SLACK = 1e-10
QR_RANK_CUT = 1e-12
ORDER_PAIR_SLACK = 1e-12
SNAP_FLOOR = 1e-7
ID_DECIMALS = 6
SUITE_DISTINCT_GAP = 1e-6
SUITE_SPECTRUM_SLACK = 1e-7


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
    """Return the process-wide tolerance."""
    return _default_tolerance


def resolve_tolerance(tol: float | None) -> float:
    """Return tol itself (validated) or the process-wide default."""
    if tol is None:
        return _default_tolerance
    return _validated(tol)

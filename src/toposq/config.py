"""The global numerical tolerance and every hand-set numerical threshold.

All comparisons of operators and projections in this package are
comparisons in the spectral norm against one tolerance. The default is 1e-9,
or the value of the TOPOSQ_TOL environment variable (the only environment
configuration the package reads). It is read once at import and fixed for the
life of the process. Individual operations accept a tol argument that
overrides the default for that call.

Projection decisions compare against tol itself. Four operator decisions
compare against tol * max(1, s), so that they grow with the operator as its
rounding error does: the self-adjointness of a HermitianOperator (s = ||A||),
eigenvalue clustering in eigenstructure (s = max |lambda|), the merging of
two spectral families' thresholds in spectral_leq (s = max |threshold|) and
the span residual of a daseinised operator (s = max |c_i|), decided per
context in Context.coefficients_in_span and for a whole poset at once in
operator_arrow. For ||A|| <= 1 the bound is tol and every decision is
unchanged.

Thresholds that do not follow the tolerance are fixed here, each with its
one-line derivation, and no other module writes one out:

- PARTITION_SLACK, per summed projection: 1e5 x a canonical atom's ~1e-15 error.
- QR_RANK_CUT, on |r_ii| in Projection.onto: ~1e4 eps marks a dependent column.
- ORDER_PAIR_SLACK, OrderPair's mu <= nu: one eigenvalue reached by two routes.
- SNAP_FLOOR, canonical_projection's drift: k summed atoms drift only ~k * 1e-15.
- ID_DECIMALS, context-id rounding: 1e-6 steps dwarf the ~1e-15 atom jitter.
- SUITE_DISTINCT_GAP: the injectivity suite needs projections distinct >> tol.
- SUITE_SPECTRUM_SLACK: approximations' eigenvalues are A's up to eigh error.
- NORM_SLACK, relative widening of norm_exceeds's SVD band: 1e5 x the ~1e-15
  rounding of a small Frobenius norm or SVD.
- NORM_TOL_RANGE, where norm_exceeds trusts the Frobenius certificate: entry
  squares then neither overflow nor underflow to a decision-changing error.
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
NORM_SLACK = 1e-10
NORM_TOL_RANGE = (1e-140, 1e140)


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

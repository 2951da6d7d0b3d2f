"""Pseudo-states of unit vectors and the generalised values of operators.

The pseudo-state of a unit vector is the daseinised rank-1 projector onto it.
Pairing an operator arrow with a pseudo-state collects, per context, the
OrderPairs of the points in the pseudo-state component: the generalised value.
containment_report compares every interval of every such pair against the
ordinary expectation value and reports violations as data, never as errors;
check_containment builds the arrow and the pseudo-state and then does the same.

Only vector states are supported; density matrices are rejected at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import resolve_tolerance
from .contexts import ContextPoset, checked_index
from .daseinisation import daseinise_projection
from .errors import NotNormalizedError, PosetMismatchError
from .linalg import HermitianOperator, Projection, require_same_dim
from .operators import OperatorArrow, OrderPair, operator_arrow
from .presheaf import ClopenSubobject

__all__ = [
    "UnitVector",
    "ValueSubobject",
    "ContainmentRow",
    "ContainmentReport",
    "pseudo_state",
    "value",
    "expectation",
    "containment_report",
    "check_containment",
]


class UnitVector:
    """A normalized complex vector."""

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes, tol: float | None = None):
        tol = resolve_tolerance(tol)
        try:
            vec = np.array(amplitudes, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise NotNormalizedError(f"amplitudes are not a flat array of numbers: {exc}") from exc
        if vec.ndim != 1 or vec.size == 0:
            raise NotNormalizedError(f"expected a nonempty vector, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise NotNormalizedError("vector has a non-finite amplitude")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > tol:
            raise NotNormalizedError(f"vector norm is {norm!r}, not 1 within {tol:g}")
        vec.setflags(write=False)
        self._amplitudes = vec

    @classmethod
    def basis(cls, dim: int, k: int) -> "UnitVector":
        """The k-th standard basis vector; ValueError unless dim is a non-bool
        integer >= 1 and k an integer in [0, dim)."""
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        vec = np.zeros(dim, dtype=np.complex128)
        vec[checked_index(k, dim)] = 1.0
        return cls(vec)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def dim(self) -> int:
        return self._amplitudes.shape[0]

    def projector(self) -> Projection:
        """The rank-1 projection onto the vector."""
        return Projection(np.outer(self._amplitudes, self._amplitudes.conj()))

    def __repr__(self) -> str:
        return f"UnitVector(dim={self.dim})"


def pseudo_state(
    psi: UnitVector, poset: ContextPoset, tol: float | None = None
) -> ClopenSubobject:
    """The daseinised projector onto psi: the smallest clopen subobject whose
    component contains psi's support at every context. Components are never
    empty, and are singletons exactly when a single atom dominates psi."""
    require_same_dim(psi, poset)
    return daseinise_projection(psi.projector(), poset, tol)


class ValueSubobject:
    """Per context, the set of OrderPairs the arrow takes on a pseudo-state.

    Pairs are deduplicated (set semantics) and kept in a deterministic order.
    """

    __slots__ = ("_poset", "_components")

    def __init__(self, poset: ContextPoset, components: dict[str, tuple[OrderPair, ...]]):
        for v in poset:
            if v.id not in components:
                raise PosetMismatchError(f"no component for context {v.id}")
        self._poset = poset
        self._components = {
            cid: tuple(sorted(set(pairs), key=lambda p: p.intervals()))
            for cid, pairs in components.items()
        }

    @property
    def poset(self) -> ContextPoset:
        return self._poset

    def component(self, v) -> tuple[OrderPair, ...]:
        cid = v if isinstance(v, str) else v.id
        return self._components[cid]

    def __repr__(self) -> str:
        sizes = {cid: len(p) for cid, p in sorted(self._components.items())}
        return f"ValueSubobject(sizes={sizes})"


def value(arrow: OperatorArrow, state: ClopenSubobject) -> ValueSubobject:
    """Apply an operator arrow to a pseudo-state componentwise."""
    if arrow.poset.signature != state.poset.signature:
        raise PosetMismatchError("arrow and pseudo-state live over different posets")
    components = {
        v.id: tuple(arrow.pair(v.id, i) for i in sorted(state.component(v.id)))
        for v in arrow.poset
    }
    return ValueSubobject(arrow.poset, components)


def expectation(psi: UnitVector, a: HermitianOperator) -> float:
    """The ordinary expectation value of a in the state psi."""
    require_same_dim(psi, a)
    vec = psi.amplitudes
    return float((vec.conj() @ (a.matrix @ vec)).real)


@dataclass(frozen=True)
class ContainmentRow:
    """One pseudo-state point with its intervals over every smaller context.

    violations lists the subcontext ids whose interval misses the expectation.
    """

    context_id: str
    point_index: int
    intervals: tuple[tuple[str, float, float], ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ContainmentReport:
    """Outcome of checking every value interval against the expectation."""

    __slots__ = ("_expectation", "_rows", "_tolerance")

    def __init__(self, expectation_value: float, rows: tuple[ContainmentRow, ...], tol: float):
        self._expectation = expectation_value
        self._rows = rows
        self._tolerance = tol

    @property
    def expectation(self) -> float:
        return self._expectation

    @property
    def rows(self) -> tuple[ContainmentRow, ...]:
        return self._rows

    @property
    def tolerance(self) -> float:
        return self._tolerance

    @property
    def violations(self) -> tuple[tuple[str, int, str, float, float], ...]:
        """Flattened witness list: (context, point, subcontext, mu, nu)."""
        return tuple(
            (row.context_id, row.point_index, cid, lo, hi)
            for row in self._rows
            for cid, lo, hi in row.intervals
            if cid in row.violations
        )

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self._rows)

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"ContainmentReport(expectation={self._expectation:g}, {status})"


def containment_report(
    arrow: OperatorArrow,
    state: ClopenSubobject,
    psi: UnitVector,
    a: HermitianOperator,
    tol: float | None = None,
) -> ContainmentReport:
    """Check whether every interval of the value of ``arrow`` on ``state``
    contains the expectation value <psi|a|psi>.

    ``arrow`` must be the arrow of ``a`` and ``state`` the pseudo-state of
    ``psi``, over the same poset. Every point of every pseudo-state component
    contributes one row with its full interval family; an interval [mu, nu]
    counts as containing the expectation when mu - tol <= <a> <= nu + tol.
    Violations are data in the report, not exceptions.
    """
    if arrow.poset.signature != state.poset.signature:
        raise PosetMismatchError("arrow and pseudo-state live over different posets")
    tol = resolve_tolerance(tol)
    expected = expectation(psi, a)
    rows = []
    for v in arrow.poset:
        for index in sorted(state.component(v.id)):
            pair = arrow.pair(v.id, index)
            bad = tuple(
                cid
                for cid, lo, hi in pair.intervals()
                if not (lo - tol <= expected <= hi + tol)
            )
            rows.append(
                ContainmentRow(
                    context_id=v.id,
                    point_index=index,
                    intervals=pair.intervals(),
                    violations=bad,
                )
            )
    return ContainmentReport(expected, tuple(rows), tol)


def check_containment(
    psi: UnitVector,
    a: HermitianOperator,
    poset: ContextPoset,
    tol: float | None = None,
) -> ContainmentReport:
    """containment_report for the arrow of a and the pseudo-state of psi,
    both built here over poset."""
    tol = resolve_tolerance(tol)
    arrow = operator_arrow(a, poset, tol)
    state = pseudo_state(psi, poset, tol)
    return containment_report(arrow, state, psi, a, tol)

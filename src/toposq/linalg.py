"""Dense Hermitian linear algebra on small matrix algebras.

Carriers for self-adjoint operators, orthogonal projections, eigenstructures
and right-continuous spectral step families, plus the lattice operations on
projections. Instances are immutable after construction and every operation is
a pure function of its arguments, so values can be shared freely across
threads.

Conventions: matrices are complex128 numpy arrays, comparisons use the
spectral norm, and the projection order is P <= Q iff QP = P within tolerance.
A tolerance check on one input or one context goes through ``norm_exceeds``,
which settles most matrices from their Frobenius norm without an SVD.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import NORM_SLACK, NORM_TOL_RANGE, QR_RANK_CUT, SNAP_FLOOR, resolve_tolerance
from .errors import (
    DimensionMismatchError,
    InvalidFamilyError,
    NotAProjectionError,
    NotHermitianError,
)

__all__ = [
    "HermitianOperator",
    "Projection",
    "EigenStructure",
    "SpectralFamily",
    "operator_norm",
    "norm_exceeds",
    "canonical_projection",
    "eigenstructure",
    "proj_leq",
    "proj_meet",
    "proj_join",
    "spectral_family",
    "from_spectral_family",
]


def operator_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Spectral norm (largest singular value) of a matrix; 0.0 when empty.

    For a stack of shape (..., n, m), the array of the norms of its matrices,
    from one batched call."""
    if matrix.ndim > 2:
        return np.linalg.norm(matrix, 2, axis=(-2, -1))
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.norm(matrix, 2))


def norm_exceeds(x: np.ndarray, tol: float | np.ndarray) -> bool | np.ndarray:
    """Whether operator_norm(x) > tol; for a stack, the array of the answers,
    and tol may be an array of one tolerance per matrix.

    With r = min(n, m), ||X||_F / sqrt(r) <= ||X||_2 <= ||X||_F, so a matrix
    whose Frobenius norm lies outside [tol, sqrt(r) tol] is decided without
    an SVD. The band is widened by NORM_SLACK for rounding, so every answer
    equals the SVD's; outside NORM_TOL_RANGE every matrix takes the SVD."""
    per_matrix = np.ndim(tol) > 0
    if per_matrix:
        outside = (tol < NORM_TOL_RANGE[0]) | (tol > NORM_TOL_RANGE[1])
        if outside.any():
            exceeds = np.empty(outside.shape, dtype=bool)
            exceeds[outside] = operator_norm(x[outside]) > tol[outside]
            exceeds[~outside] = norm_exceeds(x[~outside], tol[~outside])
            return exceeds
    elif not NORM_TOL_RANGE[0] <= tol <= NORM_TOL_RANGE[1]:
        return operator_norm(x) > tol
    low = tol * (1.0 - NORM_SLACK)
    high = math.sqrt(min(x.shape[-2:])) * tol * (1.0 + NORM_SLACK)
    if x.ndim == 2:
        fro = math.sqrt(np.vdot(x, x).real)
        if fro <= low:
            return False
        return fro > high or operator_norm(x) > tol
    fro = np.linalg.norm(x, axis=(-2, -1))
    exceeds = fro > high
    band = ~(exceeds | (fro <= low))
    if per_matrix:
        tol = tol[band]
    if band.any():
        exceeds[band] = operator_norm(x[band]) > tol
    return exceeds


def complex_array(entries, error: type[Exception], problem: str) -> np.ndarray:
    """entries as a new complex128 array, else error; numeric text is not a number."""
    try:
        raw = np.asarray(entries)
        array = raw.astype(np.complex128)
    except (TypeError, ValueError) as exc:
        raise error(f"{problem}: {exc}") from exc
    if raw.dtype.kind in "US":
        raise error(f"{problem}: they are text of dtype {raw.dtype}")
    if raw.dtype.kind == "O" and any(isinstance(e, (str, bytes)) for e in raw.flat):
        raise error(f"{problem}: an object entry is text")
    return array


def _as_square_complex(entries) -> np.ndarray:
    problem = "matrix entries are not a rectangular array of numbers"
    matrix = complex_array(entries, NotHermitianError, problem)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] == 0:
        raise NotHermitianError("empty matrix")
    if not np.isfinite(matrix).all():
        raise NotHermitianError("matrix has a non-finite entry")
    return matrix


def _not_self_adjoint(defect: np.ndarray, bound: float) -> NotHermitianError:
    return NotHermitianError(
        f"matrix is not self-adjoint: ||A - A*|| = {operator_norm(defect):.3e} > {bound:g}"
    )


class HermitianOperator:
    """An n x n complex self-adjoint matrix.

    The underlying array is copied on construction and frozen; ``matrix``
    returns the read-only view. Self-adjointness is checked against
    tol * max(1, ||A||); ||A|| is only computed when ||A - A*|| exceeds tol.
    """

    __slots__ = ("_matrix",)

    def __init__(self, entries, tol: float | None = None):
        tol = resolve_tolerance(tol)
        matrix = _as_square_complex(entries)
        defect = matrix - matrix.conj().T
        if norm_exceeds(defect, tol):
            bound = tol * max(1.0, operator_norm(matrix))
            if norm_exceeds(defect, bound):
                raise _not_self_adjoint(defect, bound)
        matrix.setflags(write=False)
        self._matrix = matrix

    @classmethod
    def _trusted(cls, matrix: np.ndarray):
        """An instance holding matrix, a fresh complex128 array that toposq
        derived from validated values and that is valid by construction; the
        constructor's checks are skipped and the array is frozen in place."""
        instance = object.__new__(cls)
        matrix.setflags(write=False)
        instance._matrix = matrix
        return instance

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def isclose(self, other: "HermitianOperator", tol: float | None = None) -> bool:
        """Whether both operators agree within tolerance in spectral norm."""
        tol = resolve_tolerance(tol)
        if self.dim != other.dim:
            return False
        return not norm_exceeds(self._matrix - other._matrix, tol)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Projection(HermitianOperator):
    """A self-adjoint idempotent, validated as such on construction against
    tol itself: projection decisions are absolute."""

    __slots__ = ()

    def __init__(self, entries, tol: float | None = None):
        tol = resolve_tolerance(tol)
        matrix = _as_square_complex(entries)
        defect = matrix - matrix.conj().T
        if norm_exceeds(defect, tol):
            raise _not_self_adjoint(defect, tol)
        defect = matrix @ matrix - matrix
        if norm_exceeds(defect, tol):
            raise NotAProjectionError(
                f"matrix is not idempotent: ||P^2 - P|| = "
                f"{operator_norm(defect):.3e} > {tol:g}"
            )
        matrix.setflags(write=False)
        self._matrix = matrix

    @classmethod
    def zero(cls, dim: int) -> "Projection":
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    @classmethod
    def identity(cls, dim: int) -> "Projection":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def onto(cls, vectors: np.ndarray, tol: float | None = None) -> "Projection":
        """Projection onto the column span of ``vectors`` (dim x r array).

        A 1-d argument is treated as a single column.
        """
        cols = complex_array(vectors, NotAProjectionError, "vectors are not an array of numbers")
        if cols.ndim == 1:
            cols = cols[:, None]
        q, r = np.linalg.qr(cols)
        keep = np.abs(np.diag(r)) > QR_RANK_CUT
        basis = q[:, keep]
        return cls(basis @ basis.conj().T, tol)

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    def complement(self) -> "Projection":
        """The orthogonal complement 1 - P."""
        return Projection._trusted(np.eye(self.dim, dtype=np.complex128) - self.matrix)


def _span_projection(basis: np.ndarray) -> Projection:
    """The projection B B* onto the span of the orthonormal columns of an eigh
    basis B: self-adjoint and idempotent to rounding error, so not re-checked."""
    return Projection._trusted(basis @ basis.conj().T)


def canonical_projection(matrix: np.ndarray, tol: float | None = None) -> Projection:
    """Snap a numerically drifted near-projection back onto an exact one.

    Eigenvalues above 1/2 are treated as 1, the rest as 0, and the projection
    is rebuilt from the corresponding eigenvectors. Raises NotAProjectionError
    if the input is not close to any projection.
    """
    tol = resolve_tolerance(tol)
    matrix = _as_square_complex(matrix)
    herm = (matrix + matrix.conj().T) / 2.0
    if norm_exceeds(matrix - herm, tol):
        raise NotAProjectionError("matrix is too far from self-adjoint to canonicalize")
    return snapped_projection(herm, tol)


def snapped_projection(herm: np.ndarray, tol: float) -> Projection:
    """canonical_projection's snap of a self-adjoint matrix that toposq derived,
    without its input checks; the snap check on the eigenvalues is kept."""
    values, vectors = np.linalg.eigh(herm)
    snapped = np.where(values > 0.5, 1.0, 0.0)
    if float(np.max(np.abs(values - snapped))) > max(tol, SNAP_FLOOR):
        raise NotAProjectionError("eigenvalues are not close to {0, 1}")
    return _span_projection(vectors[:, snapped > 0.5])


def snapped_projections(herms: np.ndarray, tol: float) -> np.ndarray:
    """snapped_projection of every matrix of a stack, as one stack of matrices:
    one batched eigh, then one product per rank. Each basis keeps the layout
    of snapped_projection's, so every product is the same BLAS call and the
    floats are the same as one by one."""
    values, vectors = np.linalg.eigh(herms)
    snapped = np.where(values > 0.5, 1.0, 0.0)
    if float(np.max(np.abs(values - snapped))) > max(tol, SNAP_FLOOR):
        raise NotAProjectionError("eigenvalues are not close to {0, 1}")
    # eigh sorts eigenvalues ascending: the kept eigenvectors are the last ones.
    n = herms.shape[-1]
    ranks = snapped.sum(-1).astype(int)
    result = np.empty_like(herms)
    for r in set(ranks.tolist()):
        group = np.flatnonzero(ranks == r)
        basis = np.ascontiguousarray(vectors[group].swapaxes(1, 2)[:, n - r:]).swapaxes(1, 2)
        result[group] = basis @ basis.conj().swapaxes(1, 2)
    return result


@dataclass(frozen=True)
class EigenStructure:
    """Distinct (clustered) eigenvalues of an operator with eigenprojections."""

    eigenvalues: tuple[float, ...]
    projections: tuple[Projection, ...]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def dim(self) -> int:
        return self.projections[0].dim

    def to_operator(self) -> HermitianOperator:
        """Reassemble sum(a_i * P_i)."""
        acc = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for value, proj in zip(self.eigenvalues, self.projections):
            acc += value * proj.matrix
        return HermitianOperator(acc)


def clusters(values: Sequence[float], tol: float) -> list[list[int]]:
    """Split ascending values into runs of indices, starting a new run where a
    value exceeds its predecessor by more than tol."""
    runs: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            runs.append([])
        runs[-1].append(i)
    return runs


def eigenstructure(a: HermitianOperator, tol: float | None = None) -> EigenStructure:
    """Distinct eigenvalues (ascending) and their spectral projections.

    Raw eigenvalues closer than tol * max(1, max |lambda|) are merged into one
    cluster whose value is the cluster mean; the cluster projection is built
    from the corresponding eigenvectors, so reconstruction error stays within
    a small multiple of that bound.
    """
    tol = resolve_tolerance(tol)
    values, vectors = np.linalg.eigh(a.matrix)
    bound = tol * max(1.0, -float(values[0]), float(values[-1]))
    eigenvalues = []
    projections = []
    for cluster in clusters(values, bound):
        eigenvalues.append(float(np.mean(values[cluster])))
        projections.append(_span_projection(vectors[:, cluster]))
    return EigenStructure(tuple(eigenvalues), tuple(projections))


def require_same_dim(p, q) -> None:
    """Raise DimensionMismatchError unless p and q (anything with a dim) agree."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dimensions differ: {p.dim} vs {q.dim}")


def proj_leq(p: Projection, q: Projection, tol: float | None = None) -> bool:
    """Projection order: P <= Q iff QP = P within tolerance."""
    tol = resolve_tolerance(tol)
    require_same_dim(p, q)
    return not norm_exceeds(q.matrix @ p.matrix - p.matrix, tol)


def proj_meet(p: Projection, q: Projection, tol: float | None = None) -> Projection:
    """Greatest lower bound: projection onto range(P) intersect range(Q).

    Computed as the spectral projector of P + Q onto eigenvalue 2.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(p, q)
    values, vectors = np.linalg.eigh(p.matrix + q.matrix)
    return _span_projection(vectors[:, values >= 2.0 - tol])


def proj_join(p: Projection, q: Projection, tol: float | None = None) -> Projection:
    """Least upper bound: projection onto range(P) + range(Q).

    Computed as the support projection of P + Q.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(p, q)
    values, vectors = np.linalg.eigh(p.matrix + q.matrix)
    return _span_projection(vectors[:, values > tol])


class SpectralFamily:
    """Right-continuous projection step function r -> E_r with finitely many steps.

    thresholds are strictly increasing reals; steps[i] is the constant value of
    the family on [thresholds[i], thresholds[i+1]). Below thresholds[0] the
    family is 0; the last step must be the identity.
    """

    __slots__ = ("_thresholds", "_steps")

    def __init__(
        self,
        thresholds: Sequence[float],
        steps: Sequence[Projection],
        tol: float | None = None,
    ):
        tol = resolve_tolerance(tol)
        thresholds = tuple(float(t) for t in thresholds)
        steps = tuple(steps)
        if len(thresholds) == 0 or len(thresholds) != len(steps):
            raise InvalidFamilyError(
                f"need equally many thresholds and steps, >= 1 each; "
                f"got {len(thresholds)} and {len(steps)}"
            )
        if not all(math.isfinite(t) for t in thresholds):
            raise InvalidFamilyError(f"thresholds must be finite, got {list(thresholds)}")
        for left, right in zip(thresholds, thresholds[1:]):
            if not right > left:
                raise InvalidFamilyError(
                    f"thresholds must be strictly increasing, got {left} then {right}"
                )
        dim = steps[0].dim
        for step in steps:
            if not isinstance(step, Projection):
                raise InvalidFamilyError("steps must be Projection instances")
            if step.dim != dim:
                raise DimensionMismatchError("steps have mixed dimensions")
        prev = Projection._trusted(np.zeros((dim, dim), dtype=np.complex128))
        for i, step in enumerate(steps):
            if not proj_leq(prev, step, tol):
                raise InvalidFamilyError(f"step {i} is not above its predecessor")
            if step.isclose(prev, tol):
                raise InvalidFamilyError(f"step {i} equals its predecessor")
            prev = step
        if norm_exceeds(steps[-1].matrix - np.eye(dim), tol):
            raise InvalidFamilyError("last step must be the identity")
        self._thresholds = thresholds
        self._steps = steps

    @property
    def thresholds(self) -> tuple[float, ...]:
        return self._thresholds

    @property
    def steps(self) -> tuple[Projection, ...]:
        return self._steps

    @property
    def dim(self) -> int:
        return self._steps[0].dim

    def __len__(self) -> int:
        return len(self._thresholds)

    def value_at(self, r: float) -> Projection:
        """The projection E_r, i.e. the step in force at parameter r; ValueError for NaN."""
        if math.isnan(r):
            raise ValueError("spectral family parameter is NaN")
        if r < self._thresholds[0]:
            return Projection.zero(self.dim)
        return self._steps[bisect_right(self._thresholds, r) - 1]

    def __repr__(self) -> str:
        return f"SpectralFamily(dim={self.dim}, thresholds={list(self._thresholds)})"


def spectral_family(a: HermitianOperator, tol: float | None = None) -> SpectralFamily:
    """The spectral family of A: thresholds are the distinct eigenvalues and
    step i is the sum of eigenprojections for eigenvalues <= threshold i."""
    tol = resolve_tolerance(tol)
    structure = eigenstructure(a, tol)
    steps: list[Projection] = []
    acc = np.zeros((a.dim, a.dim), dtype=np.complex128)
    for proj in structure.projections:
        acc = acc + proj.matrix
        steps.append(canonical_projection(acc, tol))
    return SpectralFamily(structure.eigenvalues, steps, tol)


def from_spectral_family(family: SpectralFamily) -> HermitianOperator:
    """Reassemble the operator sum(t_i * (E_i - E_{i-1})) from its family."""
    dim = family.dim
    acc = np.zeros((dim, dim), dtype=np.complex128)
    prev = np.zeros((dim, dim), dtype=np.complex128)
    for t, step in zip(family.thresholds, family.steps):
        acc += t * (step.matrix - prev)
        prev = step.matrix
    return HermitianOperator(acc)

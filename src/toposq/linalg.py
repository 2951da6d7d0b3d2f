"""Dense Hermitian linear algebra on small matrix algebras.

Carriers for self-adjoint operators, orthogonal projections, eigenstructures
and right-continuous spectral step families, plus the lattice operations on
projections. Instances are immutable after construction and every operation is
a pure function of its arguments, so values can be shared freely across
threads.

Conventions: matrices are complex128 numpy arrays, comparisons use the
spectral norm, and the projection order is P <= Q iff QP = P within tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import QR_RANK_CUT, SNAP_FLOOR, resolve_tolerance
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
    "canonical_projection",
    "eigenstructure",
    "proj_leq",
    "proj_meet",
    "proj_join",
    "spectral_family",
    "from_spectral_family",
    "sum_of_projections",
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


def _as_square_complex(entries) -> np.ndarray:
    try:
        matrix = np.array(entries, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise NotHermitianError(f"matrix entries are not a rectangular array of numbers: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] == 0:
        raise NotHermitianError("empty matrix")
    if not np.isfinite(matrix).all():
        raise NotHermitianError("matrix has a non-finite entry")
    return matrix


class HermitianOperator:
    """An n x n complex self-adjoint matrix.

    The underlying array is copied on construction and frozen; ``matrix``
    returns the read-only view.
    """

    __slots__ = ("_matrix",)

    def __init__(self, entries, tol: float | None = None):
        tol = resolve_tolerance(tol)
        matrix = _as_square_complex(entries)
        defect = operator_norm(matrix - matrix.conj().T)
        if defect > tol:
            raise NotHermitianError(
                f"matrix is not self-adjoint: ||A - A*|| = {defect:.3e} > {tol:g}"
            )
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
        return operator_norm(self._matrix - other._matrix) <= tol

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Projection(HermitianOperator):
    """A self-adjoint idempotent, validated as such on construction."""

    __slots__ = ()

    def __init__(self, entries, tol: float | None = None):
        super().__init__(entries, tol)
        tol = resolve_tolerance(tol)
        matrix = self.matrix
        defect = operator_norm(matrix @ matrix - matrix)
        if defect > tol:
            raise NotAProjectionError(
                f"matrix is not idempotent: ||P^2 - P|| = {defect:.3e} > {tol:g}"
            )

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
        cols = np.asarray(vectors, dtype=np.complex128)
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
        return Projection(np.eye(self.dim, dtype=np.complex128) - self.matrix)


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
    if operator_norm(matrix - herm) > tol:
        raise NotAProjectionError("matrix is too far from self-adjoint to canonicalize")
    values, vectors = np.linalg.eigh(herm)
    snapped = np.where(values > 0.5, 1.0, 0.0)
    if float(np.max(np.abs(values - snapped))) > max(tol, SNAP_FLOOR):
        raise NotAProjectionError("eigenvalues are not close to {0, 1}")
    return _span_projection(vectors[:, snapped > 0.5])


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

    Raw eigenvalues closer than tol are merged into one cluster whose value is
    the cluster mean; the cluster projection is built from the corresponding
    eigenvectors, so reconstruction error stays within a small multiple of tol.
    """
    tol = resolve_tolerance(tol)
    values, vectors = np.linalg.eigh(a.matrix)
    eigenvalues = []
    projections = []
    for cluster in clusters(values, tol):
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
    return operator_norm(q.matrix @ p.matrix - p.matrix) <= tol


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
        prev = Projection.zero(dim)
        for i, step in enumerate(steps):
            if not proj_leq(prev, step, tol):
                raise InvalidFamilyError(f"step {i} is not above its predecessor")
            if step.isclose(prev, tol):
                raise InvalidFamilyError(f"step {i} equals its predecessor")
            prev = step
        if operator_norm(steps[-1].matrix - np.eye(dim)) > tol:
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
        index = 0
        for i, t in enumerate(self._thresholds):
            if t <= r:
                index = i
            else:
                break
        return self._steps[index]

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


def sum_of_projections(
    projections: Iterable[Projection], dim: int, tol: float | None = None
) -> Projection:
    """Sum of pairwise-orthogonal projections, canonicalized; 0 when empty."""
    acc = np.zeros((dim, dim), dtype=np.complex128)
    count = 0
    for proj in projections:
        if proj.dim != dim:
            raise DimensionMismatchError("projection dimension differs from target")
        acc += proj.matrix
        count += 1
    if count == 0:
        return Projection.zero(dim)
    return canonical_projection(acc, tol)

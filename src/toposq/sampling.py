"""Seeded random generators for operators, projections, contexts and posets.

Everything takes a numpy Generator, so a fixed seed reproduces identical
objects (and identical canonical ids) across runs.
"""

from __future__ import annotations

import numpy as np

from .contexts import Context, ContextPoset, build_poset
from .linalg import HermitianOperator, Projection
from .states import UnitVector

__all__ = [
    "haar_unitary",
    "random_hermitian",
    "random_unit_vector",
    "random_projection",
    "random_context",
    "random_maximal_context",
    "random_poset",
]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2.0)


def random_unit_vector(dim: int, rng: np.random.Generator) -> UnitVector:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return UnitVector(vec / np.linalg.norm(vec))


def _checked_count(value, name: str) -> int:
    """value as an int; ValueError naming the argument unless it is a non-bool integer."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def random_projection(dim: int, rng: np.random.Generator, rank: int | None = None) -> Projection:
    """Haar-random projection of the given rank (default: uniform in 1..dim-1).

    ValueError before any draw for a rank that is not an integer in [0, dim],
    and for dim < 2 when the rank is drawn."""
    if rank is None:
        if dim < 2:
            raise ValueError(f"a random rank needs dimension >= 2, got {dim}")
        rank = int(rng.integers(1, dim))
    rank = _checked_count(rank, "rank")
    if not 0 <= rank <= dim:
        raise ValueError(f"need 0 <= rank <= dim, got rank {rank} and dim {dim}")
    basis = haar_unitary(dim, rng)[:, :rank]
    return Projection(basis @ basis.conj().T)


def random_maximal_context(dim: int, rng: np.random.Generator) -> Context:
    unitary = haar_unitary(dim, rng)
    atoms = [Projection.onto(unitary[:, i]) for i in range(dim)]
    return Context(atoms)


def random_context(
    dim: int, rng: np.random.Generator, n_atoms: int | None = None
) -> Context:
    """Random context with the requested atom count (default: uniform 2..dim).

    Columns of a Haar unitary are split into consecutive blocks with random
    cut points; each block spans one atom. ValueError before any draw for dim < 2
    and for an n_atoms that is not an integer in [2, dim].
    """
    if dim < 2:
        raise ValueError(f"a context needs dimension >= 2, got {dim}")
    if n_atoms is None:
        n_atoms = int(rng.integers(2, dim + 1))
    n_atoms = _checked_count(n_atoms, "n_atoms")
    if not 2 <= n_atoms <= dim:
        raise ValueError(f"need 2 <= n_atoms <= dim, got {n_atoms} and {dim}")
    unitary = haar_unitary(dim, rng)
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_atoms - 1, replace=False).tolist())
    bounds = [0, *cuts, dim]
    atoms = [
        Projection.onto(unitary[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    return Context(atoms)


def random_poset(
    dim: int,
    rng: np.random.Generator,
    n_seeds: int = 2,
    close_coarsening: bool = True,
    close_intersection: bool = False,
    tol: float | None = None,
) -> ContextPoset:
    seeds = [random_context(dim, rng) for _ in range(n_seeds)]
    return build_poset(
        seeds,
        close_coarsening=close_coarsening,
        close_intersection=close_intersection,
        tol=tol,
    )

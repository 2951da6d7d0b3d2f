"""Shared fixtures: the spin-1 worked instance, randomized-input helpers and
the Peres bases."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest

from toposq import (
    Context,
    ContextPoset,
    HermitianOperator,
    Projection,
    build_poset,
    context_from_atoms,
)

SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="session")
def sz() -> HermitianOperator:
    """z-spin operator for spin 1: eigenvalues -1/sqrt(2), 0, 1/sqrt(2)."""
    return HermitianOperator(np.diag([SQ2, 0.0, -SQ2]))


@pytest.fixture(scope="session")
def basis_projs() -> tuple[Projection, Projection, Projection]:
    p1 = Projection(np.diag([1.0, 0.0, 0.0]))
    p2 = Projection(np.diag([0.0, 1.0, 0.0]))
    p3 = Projection(np.diag([0.0, 0.0, 1.0]))
    return p1, p2, p3


@pytest.fixture(scope="session")
def eigen_context(basis_projs) -> Context:
    return context_from_atoms(list(basis_projs))


@pytest.fixture(scope="session")
def spin_poset(eigen_context) -> ContextPoset:
    """Coarsening closure of the maximal diagonal context: 4 contexts."""
    return build_poset([eigen_context], close_coarsening=True)


def rng_for(*key: int) -> np.random.Generator:
    """Deterministic per-test generator; key entries keep streams disjoint."""
    return np.random.default_rng(list(key))


def atom_index(context: Context, p: Projection) -> int:
    """Index of the context atom equal to the given projection."""
    for i, atom in enumerate(context.atoms):
        if atom.isclose(p, 1e-9):
            return i
    raise AssertionError("no atom matches the given projection")


def peres_bases():
    """The 24 orthogonal bases of the Peres 24-ray set in C^4, as contexts.

    Rays are the {0, +-1}^4 vectors with 1, 2 or 4 nonzero entries whose first
    nonzero entry is +1, in lexicographic order; a basis is any four pairwise
    orthogonal rays, and bases come in lexicographic order.
    """
    rays = [
        np.array(r, dtype=float)
        for r in sorted(product((0, 1, -1), repeat=4))
        if np.count_nonzero(r) in (1, 2, 4) and next(x for x in r if x) == 1
    ]
    bases = [b for b in combinations(rays, 4) if all(p @ q == 0 for p, q in combinations(b, 2))]
    return [context_from_atoms([Projection.onto(r) for r in b]) for b in bases]

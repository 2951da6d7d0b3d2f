"""Shared fixtures: the spin-1 worked instance, randomized-input helpers and
Peres' Kochen-Specker sets in C^3 and C^4."""

from __future__ import annotations

from itertools import combinations, permutations, product

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
from toposq.sampling import random_maximal_context, random_poset

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


@pytest.fixture(scope="session")
def table_posets(spin_poset) -> list[ContextPoset]:
    """The spin poset, coarsening closures at dims 3-5, full Peres and 9
    random_poset draws."""
    posets = [spin_poset]
    for dim in (3, 4, 5):
        v = random_maximal_context(dim, rng_for(47, dim))
        posets.append(build_poset([v], close_coarsening=True))
    posets.append(build_poset(peres_bases(), close_intersection=True))
    rng = rng_for(48)
    posets += [random_poset(3 + trial % 2, rng) for trial in range(9)]
    return posets


def rng_for(*key: int) -> np.random.Generator:
    """Deterministic per-test generator; key entries keep streams disjoint."""
    return np.random.default_rng(list(key))


def atom_index(context: Context, p: Projection) -> int:
    """Index of the context atom equal to the given projection."""
    for i, atom in enumerate(context.atoms):
        if atom.isclose(p, 1e-9):
            return i
    raise AssertionError("no atom matches the given projection")


def nontransitive_contexts(tol: float = 1e-5) -> list[Context]:
    """Three dim-4 contexts u, w, v with u <= w <= v at tol but not u <= v.

    v is the standard basis; w = {a, b, c + d} turns v's first two rays by
    0.8 tol in their plane, and u = {a', 1 - a'} turns the first ray by
    1.6 tol: each step moves a ray by less than tol, the two steps by more.
    """

    def turned(angle: float) -> tuple[Projection, Projection]:
        c, s = np.cos(angle), np.sin(angle)
        return (
            Projection.onto(np.array([c, s, 0.0, 0.0]), tol),
            Projection.onto(np.array([-s, c, 0.0, 0.0]), tol),
        )

    v = context_from_atoms([Projection(np.diag(row), tol) for row in np.eye(4)], tol)
    a, b = turned(0.8 * tol)
    w = context_from_atoms([a, b, Projection(np.diag([0.0, 0.0, 1.0, 1.0]), tol)], tol)
    a2, _ = turned(1.6 * tol)
    u = context_from_atoms([a2, Projection(np.eye(4) - a2.matrix, tol)], tol)
    return [u, w, v]


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


def peres_rays_c3():
    """Peres' 33 rays in C^3 (J. Phys. A 24, L175 (1991)): the permutations and
    sign changes of (0, 0, 1), (0, 1, 1), (0, 1, sqrt 2) and (1, 1, sqrt 2),
    normalised, with first nonzero entry positive, in lexicographic order."""
    rays = set()
    for base in ((0, 0, 1), (0, 1, 1), (0, 1, np.sqrt(2.0)), (1, 1, np.sqrt(2.0))):
        for perm in permutations(base):
            for signs in product((1, -1), repeat=3):
                ray = tuple(float(x * sign) for x, sign in zip(perm, signs))
                if next(x for x in ray if x) > 0:
                    rays.add(ray)
    return [np.array(ray) / np.linalg.norm(ray) for ray in sorted(rays)]


@pytest.fixture(scope="session")
def peres_c3():
    """The 33 rays, their 16 orthogonal triads and the 24 orthogonal pairs that
    lie in no triad, as tuples of ray indices."""
    rays = peres_rays_c3()

    def orthogonal(idx):
        return all(abs(rays[a] @ rays[b]) < 1e-12 for a, b in combinations(idx, 2))

    triads = [t for t in combinations(range(len(rays)), 3) if orthogonal(t)]
    pairs = [
        p
        for p in combinations(range(len(rays)), 2)
        if orthogonal(p) and not any(set(p) <= set(t) for t in triads)
    ]
    return rays, triads, pairs


@pytest.fixture(scope="session")
def peres_c3_poset(peres_c3):
    """The intersection closure of Peres' 40 bases in C^3: the 16 triads and
    each of the 24 other orthogonal pairs completed by its cross product."""
    rays, triads, pairs = peres_c3
    bases = [[rays[i] for i in t] for t in triads]
    bases += [[rays[a], rays[b], np.cross(rays[a], rays[b])] for a, b in pairs]
    return build_poset(
        [context_from_atoms([Projection.onto(r) for r in basis]) for basis in bases],
        close_intersection=True,
    )

"""Values toposq derives from validated ones skip the public constructors'
checks; here every such value is handed back to those constructors, which
must accept it unchanged.

Derived contexts (coarsenings, meets and both closures) must rebuild through
``Context`` with the same id and atom bytes; eigenprojections, lattice
operations, canonicalized projections and daseinised operators must pass
``Projection`` and ``HermitianOperator``.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from conftest import rng_for
from toposq import (
    Context,
    HermitianOperator,
    NotAPartitionError,
    Projection,
    canonical_projection,
    coarsenings,
    eigenstructure,
    proj_join,
    proj_meet,
)
from toposq.config import default_tolerance
from toposq.operators import _daseinised
from toposq.sampling import random_hermitian, random_poset


@pytest.fixture(scope="module")
def derived_posets(table_posets):
    """table_posets plus random_poset draws at dims 2-5 under every
    combination of the two closure flags."""
    rng = rng_for(49)
    return list(table_posets) + [
        random_poset(dim, rng, close_coarsening=cc, close_intersection=ci)
        for dim in (2, 3, 4, 5)
        for cc, ci in product((False, True), repeat=2)
    ]


def atom_bytes(ctx: Context) -> list[bytes]:
    return [atom.matrix.tobytes() for atom in ctx.atoms]


def assert_passes_public(value) -> None:
    """The public constructor of value's type accepts its matrix unchanged."""
    rebuilt = type(value)(value.matrix)
    assert rebuilt.matrix.tobytes() == value.matrix.tobytes()


def test_derived_contexts_pass_the_public_constructor(derived_posets):
    for poset in derived_posets:
        for ctx in poset:
            rebuilt = Context(ctx.atoms)
            assert rebuilt.id == ctx.id
            assert atom_bytes(rebuilt) == atom_bytes(ctx)
            for atom in ctx.atoms:
                assert_passes_public(atom)


def test_derived_operators_and_projections_pass_the_public_constructors(derived_posets):
    tol = default_tolerance()
    rng = rng_for(50)
    for poset in derived_posets:
        # A generic operator daseinises to multiples of the identity, so also
        # take operators in the finest member: one with distinct eigenvalues
        # and one whose eigenvalues come in pairs.
        finest = max(poset, key=lambda c: c.n_atoms)
        in_finest = [
            HermitianOperator(sum(c * atom.matrix for c, atom in zip(coeffs, finest.atoms)))
            for coeffs in (rng.normal(size=finest.n_atoms), np.arange(finest.n_atoms) // 2)
        ]
        for a in [random_hermitian(poset.dim, rng)] + in_finest:
            structure = eigenstructure(a)
            for proj in structure.projections:
                assert_passes_public(proj)
            for v in poset:
                for op in _daseinised(structure, v, tol, (np.min, np.max)):
                    assert type(op) is HermitianOperator
                    assert_passes_public(op)
        p, q = poset.contexts[0].atoms[0], structure.projections[0]
        for derived in (proj_meet(p, q), proj_join(p, q), canonical_projection(p.matrix + 1e-12)):
            assert type(derived) is Projection
            assert_passes_public(derived)


def test_the_oracle_catches_a_derived_context_missing_a_block():
    poset = random_poset(4, rng_for(51))
    v = max(poset, key=lambda c: c.n_atoms)
    mutant = Context._trusted(v.atoms[:-1])
    with pytest.raises(NotAPartitionError, match="sum to the identity"):
        Context(mutant.atoms)
    # The coarsenings of v, built on the same path, all pass.
    for ctx in coarsenings(v):
        assert Context(ctx.atoms).id == ctx.id

"""Values toposq derives from validated ones skip the public constructors'
checks; here every such value is handed back to those constructors, which
must accept it unchanged.

Derived contexts (coarsenings, meets and both closures) must rebuild through
``Context`` with the same id and atom bytes; eigenprojections, lattice
operations, canonicalized projections, complements, vector projectors and
daseinised operators must pass ``Projection`` and ``HermitianOperator``;
daseinised projections must pass ``ClopenSubobject``, and the arrow's pairs
``OrderPair``. Block sums of a context's atoms must equal
``canonical_projection`` of the same sum byte for byte.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from conftest import rng_for
from toposq import (
    ClopenSubobject,
    Context,
    HermitianOperator,
    NotAPartitionError,
    OrderPair,
    Projection,
    canonical_projection,
    coarsenings,
    daseinise_projection,
    eigenstructure,
    operator_arrow,
    proj_join,
    proj_meet,
)
from toposq.config import default_tolerance
from toposq.operators import _daseinised
from toposq.sampling import (
    random_context,
    random_hermitian,
    random_poset,
    random_projection,
    random_unit_vector,
)


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
                for op in (_daseinised(structure, v, tol, extreme) for extreme in (np.min, np.max)):
                    assert type(op) is HermitianOperator
                    assert_passes_public(op)
        p, q = poset.contexts[0].atoms[0], structure.projections[0]
        derived_values = (
            proj_meet(p, q),
            proj_join(p, q),
            canonical_projection(p.matrix + 1e-12),
            p.complement(),
            q.complement(),
        )
        for derived in derived_values:
            assert type(derived) is Projection
            assert_passes_public(derived)


def test_arrow_pairs_pass_the_order_pair_constructor(derived_posets):
    # operator_arrow stores each pair through OrderPair._trusted; rebuilt
    # from its mu and nu, every pair is equal to it.
    rng = rng_for(54)
    for poset in derived_posets:
        arrow = operator_arrow(random_hermitian(poset.dim, rng), poset)
        for v in poset:
            for pair in arrow.pairs(v):
                mu = {cid: lo for cid, lo, _ in pair.intervals()}
                nu = {cid: hi for cid, _, hi in pair.intervals()}
                assert OrderPair(mu, nu) == pair


def test_the_oracle_catches_a_derived_context_missing_a_block():
    poset = random_poset(4, rng_for(51))
    v = max(poset, key=lambda c: c.n_atoms)
    mutant = Context._trusted(v.atoms[:-1])
    with pytest.raises(NotAPartitionError, match="sum to the identity"):
        Context(mutant.atoms)
    # The coarsenings of v, built on the same path, all pass.
    for ctx in coarsenings(v):
        assert Context(ctx.atoms).id == ctx.id


def test_daseinised_projections_and_vector_projectors_pass_the_public_constructors(
    derived_posets,
):
    rng = rng_for(52)
    for poset in derived_posets:
        psi = random_unit_vector(poset.dim, rng)
        projector = psi.projector()
        assert type(projector) is Projection
        assert_passes_public(projector)
        for p in (projector, random_projection(poset.dim, rng)):
            subobject = daseinise_projection(p, poset)
            components = {v.id: subobject.component(v) for v in poset}
            rebuilt = ClopenSubobject(poset, components)
            assert rebuilt == subobject


def test_block_sums_equal_the_checked_canonical_projection_bytes():
    # sum_of_atoms and the derived block sums skip canonical_projection's
    # input checks; its snap of the same atom sum is the oracle.
    tol = default_tolerance()
    rng = rng_for(53)
    for dim in (2, 3, 4, 5, 6):
        for _ in range(4):
            v = random_context(dim, rng)
            for size in range(1, v.n_atoms + 1):
                block = tuple(sorted(rng.choice(v.n_atoms, size=size, replace=False).tolist()))
                total = sum(v.atoms[i].matrix for i in block)
                want = canonical_projection(total, tol).matrix.tobytes()
                assert v._block_sum(block, tol).matrix.tobytes() == want
                assert v.sum_of_atoms(block).matrix.tobytes() == want
    assert not v.sum_of_atoms([]).matrix.any()

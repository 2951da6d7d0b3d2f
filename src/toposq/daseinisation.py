"""Daseinisation of projections: outer and inner approximation to contexts.

The outer approximation of P at a context V is the smallest projection of V
above P; over an atomic partition it is the sum of the atoms that are not
orthogonal to P. The inner approximation is the largest projection of V below
P: the sum of the atoms dominated by P. Collecting the outer approximations
over a whole poset of contexts (as point sets) yields a clopen subobject of
the spectral presheaf.
"""

from __future__ import annotations

import numpy as np

from .config import resolve_tolerance
from .contexts import Context, ContextPoset
from .linalg import Projection, norm_exceeds, require_same_dim
from .presheaf import ClopenSubobject

__all__ = [
    "outer_projection",
    "inner_projection",
    "outer_component_indices",
    "daseinise_projection",
]


def outer_component_indices(
    p: Projection, v: Context, tol: float | None = None
) -> tuple[int, ...]:
    """Indices of the atoms of v not orthogonal to p."""
    tol = resolve_tolerance(tol)
    require_same_dim(p, v)
    atoms = np.stack([atom.matrix for atom in v.atoms])
    return tuple(np.flatnonzero(norm_exceeds(atoms @ p.matrix, tol)).tolist())


def outer_projection(p: Projection, v: Context, tol: float | None = None) -> Projection:
    """Smallest projection of v above p (sum of the atoms overlapping p)."""
    return v.sum_of_atoms(outer_component_indices(p, v, tol), tol)


def inner_projection(p: Projection, v: Context, tol: float | None = None) -> Projection:
    """Largest projection of v below p (sum of the atoms dominated by p)."""
    return v.sum_of_atoms(v.atoms_below(p, tol), tol)


def daseinise_projection(
    p: Projection, poset: ContextPoset, tol: float | None = None
) -> ClopenSubobject:
    """The clopen subobject collecting the outer approximations of p.

    The component at each context is the point set of the outer approximation
    under the lattice isomorphism with the context's projections, read from
    one overlap test of p against the poset's atom stack (the decisions of
    ``outer_component_indices``). The result is restriction-closed by
    construction (outer approximation is monotone), so it is not re-validated.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(p, poset)
    hit = norm_exceeds(poset._atom_stack @ p.matrix, tol).tolist()
    # The zero matrix that pads the rows overlaps nothing.
    components = {
        v.id: tuple(i for i, g in enumerate(row) if hit[g])
        for v, row in zip(poset, poset._atom_rows.tolist())
    }
    return ClopenSubobject._trusted(poset, components)

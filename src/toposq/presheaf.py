"""The spectral presheaf over a context poset and its clopen subobjects.

A context with atoms Q_1..Q_k has exactly k characters (pure states of the
abelian algebra); character i sends Q_j to delta_ij. Restriction along an
inclusion V' <= V maps a character of V to the character of V' whose atom
dominates its own. Families of character subsets that are closed under these
restriction maps form the complete Heyting algebra of clopen subobjects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .contexts import Context, ContextPoset, checked_index, restriction_table
from .errors import (
    NotInContextError,
    NotIncludedError,
    NotRestrictionClosedError,
    PosetMismatchError,
)
from .linalg import HermitianOperator, Projection

__all__ = [
    "GelfandPoint",
    "ClopenSubobject",
    "spectrum",
    "evaluate",
    "restrict",
    "projection_to_points",
    "points_to_projection",
    "global_sections",
]


@dataclass(frozen=True)
class GelfandPoint:
    """Character of a context, identified by the atom it sends to 1."""

    context: Context
    index: int

    def __post_init__(self):
        checked_index(self.index, self.context.n_atoms)

    @property
    def atom(self) -> Projection:
        return self.context.atom(self.index)

    @property
    def context_id(self) -> str:
        return self.context.id


def spectrum(v: Context) -> tuple[GelfandPoint, ...]:
    """All characters of v, ordered by atom index."""
    return tuple(GelfandPoint(v, i) for i in range(v.n_atoms))


def evaluate(point: GelfandPoint, a: HermitianOperator, tol: float | None = None) -> float:
    """The value of the character at an operator in its context's span.

    For a = sum(c_i Q_i) this is c_index. Raises NotInContextError when a is
    not in the span of the atoms.
    """
    coeffs = point.context.coefficients_in_span(a, tol)
    if coeffs is None:
        raise NotInContextError("operator is not in the span of the context's atoms")
    return float(coeffs[point.index])


def restrict(point: GelfandPoint, sub: Context, tol: float | None = None) -> GelfandPoint:
    """Image of a character under restriction to an included context."""
    table = restriction_table(sub, point.context, tol)
    if table is None:
        raise NotIncludedError(f"context {sub.id} is not included in {point.context.id}")
    return GelfandPoint(sub, table[point.index])


def projection_to_points(
    p: Projection, v: Context, tol: float | None = None
) -> frozenset[GelfandPoint]:
    """The characters valued 1 at p, for p a member of the context.

    This is one direction of the lattice isomorphism between the context's
    projections and subsets of its spectrum. Raises NotInContextError when p
    is not a sum of atoms.
    """
    indices = v.decompose(p, tol)
    if indices is None:
        raise NotInContextError("projection is not a sum of the context's atoms")
    return frozenset(GelfandPoint(v, i) for i in indices)


def points_to_projection(
    points: Iterable[GelfandPoint | int], v: Context, tol: float | None = None
) -> Projection:
    """Inverse of projection_to_points: sum the atoms named by the points
    (a plain index must be a non-bool integer in range, else ValueError)."""
    indices = []
    for item in points:
        if isinstance(item, GelfandPoint):
            if item.context.id != v.id:
                raise NotInContextError("point belongs to a different context")
            indices.append(item.index)
        else:
            indices.append(checked_index(item, v.n_atoms))
    return v.sum_of_atoms(sorted(set(indices)), tol)


class ClopenSubobject:
    """A restriction-closed family of character subsets, one per context.

    components maps context id -> frozenset of atom indices. The family is
    validated on every construction: every context of the poset must be
    covered by non-bool integer indices in range, and restriction along every
    inclusion must stay inside the family.
    """

    __slots__ = ("_poset", "_components")

    def __init__(self, poset: ContextPoset, components: Mapping[str, Iterable[int]]):
        normalized: dict[str, frozenset[int]] = {}
        for ctx in poset:
            if ctx.id not in components:
                raise PosetMismatchError(f"no component for context {ctx.id}")
            normalized[ctx.id] = frozenset(
                checked_index(i, ctx.n_atoms) for i in components[ctx.id]
            )
        extra = set(components) - set(normalized)
        if extra:
            raise PosetMismatchError(f"components for unknown contexts: {sorted(extra)}")
        for v in poset:
            for w, table in poset.restrictions(v):
                for i in normalized[v.id]:
                    if table[i] not in normalized[w.id]:
                        raise NotRestrictionClosedError(
                            f"point {i} of {v.id} restricts outside the component "
                            f"at {w.id}"
                        )
        self._poset = poset
        self._components = normalized

    @classmethod
    def _trusted(cls, poset: ContextPoset, components: Mapping[str, Iterable[int]]):
        """A subobject from components that toposq derived, one per poset
        context, in range and restriction-closed by construction; stored as
        by the constructor, without its checks."""
        instance = object.__new__(cls)
        instance._poset = poset
        instance._components = {cid: frozenset(points) for cid, points in components.items()}
        return instance

    @classmethod
    def top(cls, poset: ContextPoset) -> "ClopenSubobject":
        """The whole spectral presheaf."""
        return cls(poset, {c.id: range(c.n_atoms) for c in poset})

    @classmethod
    def bottom(cls, poset: ContextPoset) -> "ClopenSubobject":
        """The empty subobject."""
        return cls(poset, {c.id: () for c in poset})

    @property
    def poset(self) -> ContextPoset:
        return self._poset

    def component(self, v: Context | str) -> frozenset[int]:
        cid = v.id if isinstance(v, Context) else v
        return self._components[cid]

    def is_top(self) -> bool:
        return all(
            len(self._components[c.id]) == c.n_atoms for c in self._poset
        )

    def is_bottom(self) -> bool:
        return all(not self._components[c.id] for c in self._poset)

    def _require_same_poset(self, other: "ClopenSubobject") -> None:
        if self._poset.signature != other._poset.signature:
            raise PosetMismatchError("subobjects live over different context posets")

    def _componentwise(self, other: "ClopenSubobject", op) -> "ClopenSubobject":
        self._require_same_poset(other)
        return ClopenSubobject(
            self._poset, {cid: op(s, other._components[cid]) for cid, s in self._components.items()}
        )

    def meet(self, other: "ClopenSubobject") -> "ClopenSubobject":
        """Componentwise intersection."""
        return self._componentwise(other, frozenset.intersection)

    def join(self, other: "ClopenSubobject") -> "ClopenSubobject":
        """Componentwise union."""
        return self._componentwise(other, frozenset.union)

    def leq(self, other: "ClopenSubobject") -> bool:
        """Componentwise containment."""
        self._require_same_poset(other)
        return all(
            self._components[cid] <= other._components[cid]
            for cid in self._components
        )

    def implies(self, other: "ClopenSubobject") -> "ClopenSubobject":
        """Heyting implication.

        A point of V survives iff at every poset context below V its
        restriction lands in the consequent whenever it lands in the
        antecedent.
        """
        self._require_same_poset(other)
        poset = self._poset
        comps: dict[str, set[int]] = {}
        for v in poset:
            below = poset.restrictions(v)
            comps[v.id] = {
                i
                for i in range(v.n_atoms)
                if not any(
                    table[i] in self._components[w.id]
                    and table[i] not in other._components[w.id]
                    for w, table in below
                )
            }
        return ClopenSubobject(poset, comps)

    def negation(self) -> "ClopenSubobject":
        """Heyting negation: self implies bottom. Not a Boolean complement;
        join(self, negation) can be strictly below top."""
        return self.implies(ClopenSubobject.bottom(self._poset))

    def to_doc(self) -> dict[str, list[int]]:
        """Plain-data form: context id -> sorted atom indices."""
        return {cid: sorted(indices) for cid, indices in sorted(self._components.items())}

    def __and__(self, other: "ClopenSubobject") -> "ClopenSubobject":
        return self.meet(other)

    def __or__(self, other: "ClopenSubobject") -> "ClopenSubobject":
        return self.join(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSubobject):
            return NotImplemented
        return (
            self._poset.signature == other._poset.signature
            and self._components == other._components
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._poset.signature,
                tuple(sorted((cid, tuple(sorted(s))) for cid, s in self._components.items())),
            )
        )

    def __repr__(self) -> str:
        sizes = {cid: len(s) for cid, s in sorted(self._components.items())}
        return f"ClopenSubobject(sizes={sizes})"


def global_sections(poset: ContextPoset) -> list[dict[str, GelfandPoint]]:
    """All choices of one point per context compatible with every restriction,
    in no specified order.

    A section is fixed by its points at the maximal contexts, each of which
    fixes a point at every context below it. Fail-first search with forward
    checking: per unpicked maximal context, keep the points whose images agree
    with those fixed so far; branch on the context with the fewest and drop a
    branch once any context has none.
    """
    covered = {sub for sub, _ in poset.strict_pairs()}
    # Per maximal context and point: the point it fixes at each context below.
    images = [
        [{w.id: table[i] for w, table in poset.restrictions(v)} for i in range(v.n_atoms)]
        for v in poset
        if v.id not in covered
    ]
    sections: list[dict[str, GelfandPoint]] = []

    def search(fixed: dict[str, int], unpicked: list[list[dict[str, int]]]) -> None:
        if not unpicked:
            sections.append({c.id: GelfandPoint(c, fixed[c.id]) for c in poset})
            return
        k = min(range(len(unpicked)), key=lambda m: len(unpicked[m]))
        for image in unpicked[k]:
            survivors = [
                [o for o in rest if all(image.get(cid, j) == j for cid, j in o.items())]
                for rest in unpicked[:k] + unpicked[k + 1:]
            ]
            if all(survivors):
                search({**fixed, **image}, survivors)

    search({}, images)
    return sections

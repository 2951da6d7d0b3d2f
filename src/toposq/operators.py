"""Spectral order, daseinisation of self-adjoint operators, and operator arrows.

The spectral order compares operators through their spectral families:
A <=s B iff E^A_r >= E^B_r for every r. Daseinising an operator to a context
is defined on its spectral family: the inner approximation of A maps every
step through the outer projection approximation, the outer one through the
inner one; both bracket A in the spectral order. On the context's atoms Q
this is the closed form computed here: sum_Q min{lambda : P_lambda Q != 0} Q
(inner) and sum_Q max{...} Q (outer), P_lambda the eigenprojections of A.

Filters here are principal: determined by a generator projection, tagged
either to a context's projection lattice or to the ambient lattice of all
projections. The antonymous/observable scans over a spectral family turn a
filter into the inner/outer spectral bounds; evaluating them at the cone over
a character's filter reproduces the character values of the daseinised
operators, which is what the operator arrow records per point and subcontext.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import ORDER_PAIR_SLACK, resolve_tolerance
from .contexts import Context, ContextPoset, _block_sums, checked_index
from .errors import (
    DimensionMismatchError,
    InternalInvariantViolation,
    NotInContextError,
    PosetMismatchError,
)
from .linalg import (
    EigenStructure,
    HermitianOperator,
    Projection,
    clusters,
    eigenstructure,
    norm_exceeds,
    proj_leq,
    require_same_dim,
    spectral_family,
)
from .presheaf import GelfandPoint

__all__ = [
    "PrincipalFilter",
    "OrderPair",
    "OperatorArrow",
    "spectral_leq",
    "inner_operator",
    "outer_operator",
    "filter_from_point",
    "cone",
    "antonymous",
    "observable",
    "gelfand_transform_inner",
    "gelfand_transform_outer",
    "operator_arrow",
]


def spectral_leq(a: HermitianOperator, b: HermitianOperator, tol: float | None = None) -> bool:
    """Spectral order: A <=s B iff E^A_r >= E^B_r for all r.

    Checked on the merged threshold grid of both families: they are
    right-continuous and constant between grid values, so a value between
    two grid points has the steps of the one below it. Thresholds of the two
    families closer than tol * max(1, max |threshold|), the bound eigenvalues
    are clustered at, are treated as the same jump point: each cluster is
    sampled once, past all its members, so that eigenvalue noise below that
    bound cannot manufacture a violation.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(a, b)
    fa = spectral_family(a, tol)
    fb = spectral_family(b, tol)
    grid = sorted(set(fa.thresholds) | set(fb.thresholds))
    bound = tol * max(1.0, -grid[0], grid[-1])
    samples = [grid[run[-1]] for run in clusters(grid, bound)]
    return all(
        proj_leq(fb.value_at(r), fa.value_at(r), tol) for r in samples
    )


class PrincipalFilter:
    """Principal filter of projections above a nonzero generator.

    context is the context whose projection lattice the filter lives in, or
    None for the ambient lattice of all projections of the matrix algebra.
    """

    __slots__ = ("_generator", "_context")

    def __init__(self, generator: Projection, context: Context | None = None):
        if generator.rank == 0:
            raise ValueError("filter generator must be a nonzero projection")
        if context is not None and generator.dim != context.dim:
            raise DimensionMismatchError(
                f"generator dim {generator.dim} vs context dim {context.dim}"
            )
        self._generator = generator
        self._context = context

    @property
    def generator(self) -> Projection:
        return self._generator

    @property
    def context(self) -> Context | None:
        return self._context

    @property
    def is_ambient(self) -> bool:
        return self._context is None

    def contains(self, q: Projection, tol: float | None = None) -> bool:
        """Membership: q dominates the generator (and lies in the tagged
        context's lattice when the filter is context-scoped)."""
        tol = resolve_tolerance(tol)
        if self._context is not None and not self._context.contains_projection(q, tol):
            return False
        return proj_leq(self._generator, q, tol)

    def __repr__(self) -> str:
        scope = "ambient" if self._context is None else f"context {self._context.id}"
        return f"PrincipalFilter(rank={self._generator.rank}, scope={scope})"


def filter_from_point(point: GelfandPoint) -> PrincipalFilter:
    """The filter of the context's projections the character maps to 1;
    generated by the character's atom."""
    return PrincipalFilter(point.atom, point.context)


def cone(f: PrincipalFilter) -> PrincipalFilter:
    """The ambient filter generated by the same generator (all projections of
    the full algebra above it)."""
    return PrincipalFilter(f.generator, None)


def antonymous(a: HermitianOperator, f: PrincipalFilter, tol: float | None = None) -> float:
    """sup of r with (1 - E^A_r) in the filter.

    On a finite family this is the smallest threshold whose co-step fails to
    dominate the generator. The scan cannot fall through: at the top threshold
    the co-step is 0 and the generator is nonzero.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(a, f.generator)
    family = spectral_family(a, tol)
    identity = np.eye(a.dim, dtype=np.complex128)
    gen = f.generator
    for t, step in zip(family.thresholds, family.steps):
        co_step = Projection._trusted(identity - step.matrix)
        if not proj_leq(gen, co_step, tol):
            return t
    raise InternalInvariantViolation("antonymous scan fell through a spectral family")


def observable(a: HermitianOperator, f: PrincipalFilter, tol: float | None = None) -> float:
    """inf of r with E^A_r in the filter: the smallest threshold whose step
    dominates the generator. The last step is the identity, so the scan
    cannot fall through."""
    tol = resolve_tolerance(tol)
    require_same_dim(a, f.generator)
    family = spectral_family(a, tol)
    gen = f.generator
    for t, step in zip(family.thresholds, family.steps):
        if proj_leq(gen, step, tol):
            return t
    raise InternalInvariantViolation("observable scan fell through a spectral family")


def _daseinised(
    structure: EigenStructure, v: Context, tol: float, extreme
) -> HermitianOperator:
    # hit[i, k]: atom i overlaps eigenprojection k (||Q_i P_k|| > tol); atom i's
    # coefficient is eigenvalue extreme(hits of i). sum_i c_i Q_i is summed as
    # the staircase sum_k t_k (S_k - S_k-1), S_k the atoms at or below t_k,
    # which gives the floats of the spectral-step route, so value subobjects
    # dedupe alike. A sum of real multiples of the atoms is self-adjoint, so it
    # is not re-checked.
    atoms = np.stack([atom.matrix for atom in v.atoms])
    eigenprojections = np.stack([proj.matrix for proj in structure.projections])
    hit = norm_exceeds(atoms[:, None] @ eigenprojections[None], tol)
    level = [extreme(np.flatnonzero(row)) for row in hit]
    acc = np.zeros_like(atoms[0])
    prev = np.zeros_like(atoms[0])
    for k in sorted(set(level)):
        step = v._block_sum(tuple(i for i, j in enumerate(level) if j <= k), tol).matrix
        acc += structure.eigenvalues[k] * (step - prev)
        prev = step
    return HermitianOperator._trusted(acc)


def inner_operator(a: HermitianOperator, v: Context, tol: float | None = None) -> HermitianOperator:
    """Best approximation of A from below (in the spectral order) within v.

    By definition each spectral step of A goes through its outer projection
    approximation. An atom Q enters those steps at the least eigenvalue whose
    eigenprojection P overlaps it: the result is sum_Q min{lambda : PQ != 0} Q.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(a, v)
    return _daseinised(eigenstructure(a, tol), v, tol, np.min)


def outer_operator(a: HermitianOperator, v: Context, tol: float | None = None) -> HermitianOperator:
    """Best approximation of A from above within v: each spectral step goes
    through its inner projection approximation, which holds an atom Q once r
    passes the largest eigenvalue overlapping Q: sum_Q max{lambda : PQ != 0} Q."""
    tol = resolve_tolerance(tol)
    require_same_dim(a, v)
    return _daseinised(eigenstructure(a, tol), v, tol, np.max)


def gelfand_transform_inner(
    a: HermitianOperator, point: GelfandPoint, tol: float | None = None
) -> float:
    """Value of the inner approximation at a character, computed by the
    filter route: the antonymous scan at the cone over the character's filter."""
    return antonymous(a, cone(filter_from_point(point)), tol)


def gelfand_transform_outer(
    a: HermitianOperator, point: GelfandPoint, tol: float | None = None
) -> float:
    """Value of the outer approximation at a character, via the observable
    scan at the cone over the character's filter."""
    return observable(a, cone(filter_from_point(point)), tol)


def _check_interval(item: tuple[str, float, float]) -> None:
    """ValueError unless the (cid, mu, nu) triple has finite bounds with mu <= nu."""
    cid, lo, hi = item
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"non-finite bound at context {cid}: [{lo!r}, {hi!r}]")
    if lo > hi + ORDER_PAIR_SLACK:
        raise ValueError(f"mu exceeds nu at context {cid}: {lo!r} > {hi!r}")


class OrderPair:
    """A pair of real functions (mu, nu) on the contexts below some context.

    mu collects character values of inner approximations and shrinks together
    with the context; nu collects outer approximation values and grows as the
    context shrinks; mu <= nu pointwise. Hashable, so sets of pairs work as
    value components.
    """

    __slots__ = ("_items",)

    def __init__(self, mu: Mapping[str, float], nu: Mapping[str, float]):
        if set(mu) != set(nu):
            raise ValueError("mu and nu must be defined on the same contexts")
        items = tuple(
            (cid, float(mu[cid]), float(nu[cid])) for cid in sorted(mu)
        )
        for item in items:
            _check_interval(item)
        self._items = items

    @classmethod
    def _trusted(cls, items: tuple[tuple[str, float, float], ...]) -> "OrderPair":
        """A pair from (cid, mu, nu) triples in id order, each already passed
        through the constructor's checks; stored as given, so triples shared
        between pairs stay shared."""
        pair = object.__new__(cls)
        pair._items = items
        return pair

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(cid for cid, _, _ in self._items)

    def mu(self, cid: str) -> float:
        return self._lookup(cid)[0]

    def nu(self, cid: str) -> float:
        return self._lookup(cid)[1]

    def interval(self, cid: str) -> tuple[float, float]:
        return self._lookup(cid)

    def intervals(self) -> tuple[tuple[str, float, float], ...]:
        return self._items

    def _lookup(self, cid: str) -> tuple[float, float]:
        # The domain is sorted, so the id is found by bisection.
        if isinstance(cid, str):
            k = bisect_left(self._items, cid, key=itemgetter(0))
            if k < len(self._items) and self._items[k][0] == cid:
                return self._items[k][1:]
        raise KeyError(cid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderPair):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        parts = ", ".join(f"{cid}: [{lo:g}, {hi:g}]" for cid, lo, hi in self._items)
        return f"OrderPair({parts})"


class OperatorArrow:
    """The natural transformation induced by daseinising an operator.

    It holds one checked (id, mu, nu) triple per point of each member. The
    pair of point i of V, over every poset context w below V, is built on
    access: at w, the triple of the point of w that point i restricts to.
    """

    __slots__ = ("_poset", "_triples")

    def __init__(self, poset: ContextPoset, triples: Mapping[str, Sequence[tuple]]):
        for v in poset:
            if v.id not in triples:
                raise PosetMismatchError(f"no component for context {v.id}")
            if len(triples[v.id]) != v.n_atoms:
                raise ValueError(f"component at {v.id} must have one triple per character")
            for item in triples[v.id]:
                _check_interval(item)
        self._poset = poset
        self._triples = {v.id: tuple(triples[v.id]) for v in poset}

    @property
    def poset(self) -> ContextPoset:
        return self._poset

    def pair(self, v: Context | str, index: int) -> OrderPair:
        """The pair of point index of v; ValueError unless index is a
        non-bool integer in [0, n_atoms)."""
        cid = self._poset._member_id(v)
        i = checked_index(index, len(self._triples[cid]))
        down = self._poset._down[cid]
        return OrderPair._trusted(tuple([self._triples[w][table[i]] for w, table in down.items()]))

    def pairs(self, v: Context | str) -> tuple[OrderPair, ...]:
        """The pairs of every point of v, in point order."""
        (columns,) = self._columns((v,))
        return tuple(map(OrderPair._trusted, zip(*columns)))

    def _columns(
        self, members: Iterable[Context | str], cell: Callable[[tuple], object] | None = None
    ) -> Iterator[list[tuple]]:
        """The per-point columns of each of members, in turn: one column for
        each member w below it (itself among them) in id order, whose entry
        i is the cell of the point of w that point i restricts to. A
        point's cell is its (id, mu, nu) triple, or cell(triple), computed
        once for each point of the poset."""
        cells = self._triples
        if cell is not None:
            cells = {w: tuple(map(cell, triples)) for w, triples in cells.items()}
        for v in members:
            down = self._poset._down[self._poset._member_id(v)]
            # A context has >= 2 points, so each getter returns a tuple.
            yield [itemgetter(*table)(cells[w]) for w, table in down.items()]

    def __repr__(self) -> str:
        return f"OperatorArrow(n_contexts={len(self._poset)})"


def _approximations(
    structure: EigenStructure, atoms: np.ndarray, rows: np.ndarray, tol: float
) -> np.ndarray:
    """The inner and outer approximation of A at every member of a poset, an
    (N, 2, n, n) stack; atoms and rows are the poset's atom stack and rows.

    Each is _daseinised's staircase sum_k t_k (S_k - S_k-1) with the same
    floats: every distinct step S_k of every member is summed in atom order
    and snapped in one stack by _block_sums, and then every
    staircase climbs one level per pass, with zero terms past its top."""
    # Each atom's least and greatest level: the first and last eigenprojection
    # P_k it overlaps (||Q P_k|| > tol), as in _daseinised. The zero matrix
    # last in the stack pads the rows.
    eigenprojections = np.stack([proj.matrix for proj in structure.projections])
    hit = norm_exceeds(atoms[:-1, None] @ eigenprojections[None], tol)
    if not hit.any(1).all():
        raise ValueError(f"an atom overlaps no eigenprojection at tolerance {tol:g}")
    lowest = hit.argmax(1).tolist()
    highest = (len(structure) - 1 - hit[:, ::-1].argmax(1)).tolist()
    pad = len(atoms) - 1
    steps: dict[tuple[int, ...], int] = {}
    stairs: list[list[int]] = []
    levels: list[list[int]] = []
    for row in rows.tolist():
        ids = [g for g in row if g != pad]
        for level in (lowest, highest):
            at = [level[g] for g in ids]
            levels.append(sorted(set(at)))
            stairs.append([
                steps.setdefault(tuple(g for g, j in zip(ids, at) if j <= k), len(steps))
                for k in levels[-1]
            ])
    n = atoms.shape[-1]
    # The zero matrix last is the step below every staircase's first.
    projections = np.concatenate([_block_sums(atoms, list(steps), tol), atoms[pad:]])
    depth = max(map(len, stairs))
    eigenvalues = structure.eigenvalues
    values = np.array([[eigenvalues[k] for k in ks] + [0.0] * (depth - len(ks)) for ks in levels])
    upper = np.array([s + [len(steps)] * (depth - len(s)) for s in stairs])
    lower = np.concatenate([np.full((len(upper), 1), len(steps)), upper[:, :-1]], axis=1)
    acc = np.zeros((len(upper), n, n), dtype=np.complex128)
    for j in range(depth):
        acc += values[:, j, None, None] * (projections[upper[:, j]] - projections[lower[:, j]])
    return acc.reshape(len(rows), 2, n, n)


def _span_coefficients(
    approximations: np.ndarray, atoms: np.ndarray, rows: np.ndarray, tol: float
) -> np.ndarray:
    """Each approximation's coefficients over its member's atoms, (N, A, 2)
    with zeros past a member's atoms, read as Context.coefficients_in_span
    reads them; NotInContextError unless every residual is within
    tol * max(1, max |c_i|), decided by one norm_exceeds call."""
    n = atoms.shape[-1]
    members, slots = np.nonzero(rows != len(atoms) - 1)
    ids = rows[members, slots]
    products = atoms[ids, None] @ approximations[members]
    traces = np.trace(atoms[ids], axis1=1, axis2=2)
    coeffs = np.zeros(rows.shape + (2,))
    coeffs[members, slots] = (np.trace(products, axis1=2, axis2=3) / traces[:, None]).real
    residual = approximations.copy()
    for j in range(rows.shape[1]):
        residual -= coeffs[:, j, :, None, None] * atoms[rows[:, j], None]
    bound = tol * np.maximum(1.0, np.abs(coeffs).max(axis=1))
    if norm_exceeds(residual.reshape(-1, n, n), bound.reshape(-1)).any():
        raise NotInContextError("operator is not in the span of the context's atoms")
    return coeffs


def operator_arrow(
    a: HermitianOperator, poset: ContextPoset, tol: float | None = None
) -> OperatorArrow:
    """Compute the arrow of an operator over a context poset.

    A's eigenstructure is taken once for the whole poset, and the rest runs
    as a fixed number of batched kernels over the poset's atom stack: one
    overlap test of every atom against every eigenprojection gives the levels
    of both approximations at every member (the matrices of
    ``inner_operator`` and ``outer_operator``), and one product and trace
    reads all their coefficients, as ``evaluate`` reads them
    (NotInContextError alike), into one checked (id, mu, nu) triple per
    point. Pairs are built on access from the poset's tables, which compose
    (the poset checks that once, at build), so the arrow is natural by
    construction: the pair of a restricted character is the restricted pair.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(a, poset)
    structure = eigenstructure(a, tol)
    atoms, rows = poset._atom_stack, poset._atom_rows
    coeffs = _span_coefficients(_approximations(structure, atoms, rows, tol), atoms, rows, tol)
    members = zip(poset, coeffs.tolist())
    return OperatorArrow(poset, {w.id: [(w.id, *c) for c in cs[:w.n_atoms]] for w, cs in members})

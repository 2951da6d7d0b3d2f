"""Contexts (atomic partitions of the identity) and their inclusion poset.

A context is the abelian algebra generated by k >= 2 pairwise orthogonal
projections that sum to the identity; we represent it by that atomic
partition. Context V' is included in V when every atom of V' is a sum of atoms
of V. The trivial algebra (k = 1) is excluded throughout.

Contexts carry a canonical id derived from their atoms rounded to six
decimals, so ids are stable under atom reordering, tiny numerical jitter and
process restarts.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import ID_DECIMALS, PARTITION_SLACK, resolve_tolerance
from .errors import (
    DimensionMismatchError,
    MixedDimensionsError,
    NotAPartitionError,
    NotTransitiveError,
    ScalarOperatorError,
    TrivialIntersectionError,
)
from .linalg import (
    HermitianOperator,
    Projection,
    eigenstructure,
    norm_exceeds,
    operator_norm,
    proj_leq,
    require_same_dim,
    snapped_projection,
    snapped_projections,
)

__all__ = [
    "Context",
    "ContextPoset",
    "context_from_operator",
    "context_from_atoms",
    "includes",
    "restriction_table",
    "coarsenings",
    "intersect",
    "build_poset",
    "dominating_atom_index",
]


def _atom_sort_keys(matrices: np.ndarray) -> list[bytes]:
    """The sort key of each matrix of a stack: its bytes rounded to
    ID_DECIMALS. Rounding kills numerical jitter; adding complex zero maps
    -0.0 to +0.0 in both components so the byte encoding is unique."""
    rounded = np.round(matrices, ID_DECIMALS) + (0.0 + 0.0j)
    return [matrix.tobytes() for matrix in rounded]


def _sums_to(
    parts: Sequence[Projection], target: np.ndarray, tol: float
) -> tuple[bool, np.ndarray]:
    """Whether the parts sum to target within max(tol, PARTITION_SLACK * k),
    k the number of parts (at least 1), and the difference sum - target,
    whose norm only an error message needs."""
    total = np.zeros(target.shape, dtype=np.complex128)
    for part in parts:
        total = total + part.matrix
    difference = total - target
    return not norm_exceeds(difference, max(tol, PARTITION_SLACK * max(len(parts), 1))), difference


def checked_index(index, n_atoms: int) -> int:
    """index as an int; ValueError unless it is a non-bool integer in [0, n_atoms)."""
    integer = isinstance(index, (int, np.integer)) and not isinstance(index, bool)
    if not (integer and 0 <= index < n_atoms):
        raise ValueError(f"atom index {index!r} is not an integer in [0, {n_atoms})")
    return int(index)


class Context:
    """An abelian context given by its atomic partition of the identity.

    Atoms are stored in a canonical order (lexicographic in their rounded
    entries), so atom indices and the derived id do not depend on the order in
    which atoms were supplied. Equality and hashing go through the id.
    """

    __slots__ = ("_atoms", "_id")

    def __init__(self, atoms: Sequence[Projection], tol: float | None = None):
        tol = resolve_tolerance(tol)
        atoms = tuple(atoms)
        if len(atoms) < 2:
            raise NotAPartitionError(
                f"a context needs at least two atoms, got {len(atoms)} "
                "(the trivial algebra is excluded)"
            )
        if not all(isinstance(atom, Projection) for atom in atoms):
            raise NotAPartitionError("atoms must be Projection instances")
        dim = atoms[0].dim
        if any(atom.dim != dim for atom in atoms):
            raise DimensionMismatchError("atoms have mixed dimensions")
        stack = np.stack([atom.matrix for atom in atoms])
        if not norm_exceeds(stack, tol).all():
            raise NotAPartitionError("zero atom in partition")
        # Pairs i < j in row-major order, so the first offending pair is reported.
        first, second = np.triu_indices(len(atoms), 1)
        overlaps = stack[first] @ stack[second]
        bad = np.flatnonzero(norm_exceeds(overlaps, tol))
        if bad.size:
            k = bad[0]
            raise NotAPartitionError(
                f"atoms {first[k]} and {second[k]} are not orthogonal "
                f"(||PQ|| = {operator_norm(overlaps[k]):.3e})"
            )
        ok, difference = _sums_to(atoms, np.eye(dim), tol)
        if not ok:
            raise NotAPartitionError(
                f"atoms do not sum to the identity (defect {operator_norm(difference):.3e})"
            )
        self._store(atoms, _atom_sort_keys(stack))

    @classmethod
    def _trusted(
        cls, atoms: Sequence[Projection], keys: Sequence[bytes] | None = None
    ) -> "Context":
        """A context from >= 2 atoms that toposq derived from a validated
        context and that partition the identity by construction; stored and
        identified as by the constructor, without its checks. keys, when
        given, are the atoms' sort keys, computed once for atoms shared by
        several contexts."""
        ctx = object.__new__(cls)
        ctx._store(tuple(atoms), keys)
        return ctx

    def _store(self, atoms: tuple[Projection, ...], keys: Sequence[bytes] | None = None) -> None:
        # Canonical atom order and the id: the same for every construction path.
        if keys is None:
            keys = _atom_sort_keys(np.stack([atom.matrix for atom in atoms]))
        order = sorted(range(len(atoms)), key=keys.__getitem__)
        self._atoms = tuple(atoms[i] for i in order)
        digest = hashlib.sha256()
        digest.update(str(atoms[0].dim).encode())
        for i in order:
            digest.update(keys[i])
        self._id = digest.hexdigest()[:16]

    @property
    def atoms(self) -> tuple[Projection, ...]:
        return self._atoms

    @property
    def id(self) -> str:
        return self._id

    @property
    def dim(self) -> int:
        return self._atoms[0].dim

    @property
    def n_atoms(self) -> int:
        return len(self._atoms)

    def atom(self, index: int) -> Projection:
        return self._atoms[checked_index(index, len(self._atoms))]

    def sum_of_atoms(self, indices: Iterable[int], tol: float | None = None) -> Projection:
        """The sum of the selected atoms; ValueError for an index out of range or given twice."""
        checked = [checked_index(i, len(self._atoms)) for i in indices]
        if len(set(checked)) != len(checked):
            raise ValueError(f"atom indices {checked} repeat an index")
        if not checked:
            return Projection.zero(self.dim)
        return self._block_sum(checked, resolve_tolerance(tol))

    def _block_sum(self, block: Sequence[int], tol: float) -> Projection:
        """sum_of_atoms for a nonempty block of distinct valid indices, without
        the index checks: the atoms are validated and orthogonal, so their sum
        is self-adjoint and only the snap check on its eigenvalues is kept."""
        total = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for i in block:
            total += self._atoms[i].matrix
        return snapped_projection((total + total.conj().T) / 2.0, tol)

    def coefficients_in_span(
        self, a: HermitianOperator, tol: float | None = None
    ) -> np.ndarray | None:
        """Coefficients of ``a`` over the atoms, or None if a is not in the span."""
        tol = resolve_tolerance(tol)
        require_same_dim(a, self)
        coeffs = np.empty(len(self._atoms), dtype=np.float64)
        residual = np.array(a.matrix)
        for i, atom in enumerate(self._atoms):
            coeffs[i] = float(
                (np.trace(atom.matrix @ a.matrix) / np.trace(atom.matrix)).real
            )
            residual -= coeffs[i] * atom.matrix
        # The bound tol * max(1, max |c_i|) is formed only past tol.
        norm = operator_norm(residual)
        if norm > tol and norm > tol * max(1.0, float(np.max(np.abs(coeffs)))):
            return None
        return coeffs

    def atoms_below(self, p: Projection, tol: float | None = None) -> tuple[int, ...]:
        """Indices of the atoms Q <= p; their sum is the largest projection of
        the context below p."""
        tol = resolve_tolerance(tol)
        require_same_dim(p, self)
        return tuple(i for i, a in enumerate(self._atoms) if proj_leq(a, p, tol))

    def decompose(self, p: Projection, tol: float | None = None) -> tuple[int, ...] | None:
        """Indices of the atoms summing to p, or None when p is not a sum of atoms."""
        tol = resolve_tolerance(tol)
        below = self.atoms_below(p, tol)
        ok, _ = _sums_to([self._atoms[i] for i in below], p.matrix, tol)
        return below if ok else None

    def contains_projection(self, p: Projection, tol: float | None = None) -> bool:
        """Whether p belongs to the context, i.e. is a sum of atoms."""
        return self.decompose(p, tol) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return self._id == other._id

    def __hash__(self) -> int:
        return hash(self._id)

    def __repr__(self) -> str:
        return f"Context(id={self._id!r}, dim={self.dim}, n_atoms={self.n_atoms})"


def context_from_atoms(atoms: Sequence[Projection], tol: float | None = None) -> Context:
    """Build a context from an explicit atomic partition of the identity."""
    return Context(atoms, tol)


def context_from_operator(a: HermitianOperator, tol: float | None = None) -> Context:
    """The context generated by a self-adjoint operator: atoms are its
    spectral projections. Raises ScalarOperatorError when A is a multiple of
    the identity (which generates only the trivial algebra)."""
    structure = eigenstructure(a, tol)
    if len(structure) < 2:
        raise ScalarOperatorError(
            "operator is a multiple of the identity and generates no context"
        )
    return Context(structure.projections, tol)


def restriction_table(
    sub: Context, sup: Context, tol: float | None = None
) -> tuple[int, ...] | None:
    """Entry i is the sub atom whose decomposition into sup atoms holds sup
    atom i; None unless every sub atom is a sum of sup atoms. The table is
    total: the decompositions sum to the sub atoms, which sum to the identity."""
    tol = resolve_tolerance(tol)
    require_same_dim(sub, sup)
    if sub.id == sup.id:
        return tuple(range(sup.n_atoms))
    if sub.n_atoms > sup.n_atoms:
        return None
    owner: dict[int, int] = {}
    for j, q in enumerate(sub.atoms):
        below = sup.decompose(q, tol)
        if below is None:
            return None
        for i in below:
            owner.setdefault(i, j)
    return tuple(owner[i] for i in range(sup.n_atoms))


def includes(sub: Context, sup: Context, tol: float | None = None) -> bool:
    """Whether sub is included in sup (every atom of sub is a sum of sup atoms)."""
    return restriction_table(sub, sup, tol) is not None


def _set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    # Element i joins each existing block in turn, then opens a new one.
    def rec(i: int, blocks: tuple[tuple[int, ...], ...]):
        if i == n:
            yield blocks
            return
        for k in range(len(blocks)):
            yield from rec(i + 1, blocks[:k] + (blocks[k] + (i,),) + blocks[k + 1:])
        yield from rec(i + 1, blocks + ((i,),))

    yield from rec(0, ())


def _merged(v: Context, blocks: Sequence[tuple[int, ...]], tol: float, sums: dict) -> Context:
    """The context whose atoms are the sums of v's atoms over blocks; sums
    caches v's block sums, so a block shared by several calls is summed once.

    The >= 2 blocks partition the atoms of v, a validated context, so the
    sums are nonzero, pairwise orthogonal and sum to the identity: the
    context is built without the constructor's checks."""
    for block in blocks:
        if block not in sums:
            sums[block] = v._block_sum(block, tol)
    return Context._trusted([sums[block] for block in blocks])


def _block_sums(atoms: np.ndarray, blocks: Sequence[Sequence[int]], tol: float) -> np.ndarray:
    """The snapped sum of atoms over each block, as one stack.

    atoms is a stack of atoms with a zero matrix last. Each block is summed
    in its index order from zero, padded with the zero matrix's index (exact
    zeros change no float), so every sum has the floats of
    ``Context._block_sum``'s; all are snapped by one snapped_projections
    call."""
    pad = len(atoms) - 1
    width = max(map(len, blocks))
    index = np.array([[*block] + [pad] * (width - len(block)) for block in blocks])
    total = np.zeros((len(index),) + atoms.shape[1:], dtype=np.complex128)
    for j in range(width):
        total += atoms[index[:, j]]
    return snapped_projections((total + total.conj().swapaxes(1, 2)) / 2.0, tol)


def coarsenings(v: Context, tol: float | None = None) -> tuple[Context, ...]:
    """All contexts obtained by merging atoms of v into >= 2 blocks.

    Includes v itself, as the partition into singletons. Ordered by id. The
    distinct blocks of all partitions are summed in one stack and snapped
    by one batched call, and each block's sort key is computed once.
    """
    tol = resolve_tolerance(tol)
    partitions = [p for p in _set_partitions(v.n_atoms) if 2 <= len(p) < v.n_atoms]
    if not partitions:
        return (v,)
    blocks = {b: k for k, b in enumerate(dict.fromkeys(b for p in partitions for b in p))}
    atoms = np.stack([atom.matrix for atom in v.atoms] + [np.zeros_like(v.atoms[0].matrix)])
    sums = _block_sums(atoms, list(blocks), tol)
    keys = _atom_sort_keys(sums)
    projections = [Projection._trusted(matrix) for matrix in sums]
    # The >= 2 blocks of a partition give nonzero, pairwise orthogonal sums
    # of v's validated atoms that add up to the identity: trusted contexts.
    result = [v] + [
        Context._trusted([projections[blocks[b]] for b in p], [keys[blocks[b]] for b in p])
        for p in partitions
    ]
    return tuple(sorted(result, key=lambda c: c.id))


def _blocks(overlap: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The row blocks of a boolean overlap matrix, in order of first member.

    Rows i and i' share a block when a chain of shared columns links them:
    the reflexive transitive closure of overlap . overlap^T."""
    reach = overlap @ overlap.T | np.eye(len(overlap), dtype=bool)
    while not ((wider := reach @ reach) == reach).all():
        reach = wider
    return tuple(dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in reach))


def intersect(v: Context, w: Context, tol: float | None = None) -> Context:
    """The largest context included in both v and w.

    Its atoms are the minimal projections expressible both as sums of v atoms
    and as sums of w atoms; they arise as connected components of the overlap
    graph between the two atom sets. Raises TrivialIntersectionError when the
    only common projection is the identity.
    """
    tol = resolve_tolerance(tol)
    require_same_dim(v, w)
    vs = np.stack([atom.matrix for atom in v.atoms])
    ws = np.stack([atom.matrix for atom in w.atoms])
    blocks = _blocks(norm_exceeds(vs[:, None] @ ws[None, :], tol))
    if len(blocks) < 2:
        raise TrivialIntersectionError(
            "contexts share only the identity; the intersection is the trivial algebra"
        )
    return _merged(v, blocks, tol, {})


def dominating_atom_index(
    context: Context, p: Projection, tol: float | None = None
) -> int | None:
    """Index of the first atom of ``context`` dominating p, or None.

    A search over the atoms, kept as an independent check of the restriction
    tables; nothing in the package calls it."""
    for i, atom in enumerate(context.atoms):
        if proj_leq(p, atom, tol):
            return i
    return None


def _atom_order(
    contexts: Sequence[Context], tol: float
) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """The stack of the distinct atoms of contexts (equal bytes, one atom),
    below[b, a] = proj_leq(P_b, P_a) over it, and each context's atoms as
    indices into the stack. The products go in blocks of at most 256
    matrices, to bound memory."""
    matrices = {atom.matrix.tobytes(): atom.matrix for ctx in contexts for atom in ctx.atoms}
    index = {key: b for b, key in enumerate(matrices)}
    rows = [[index[atom.matrix.tobytes()] for atom in ctx.atoms] for ctx in contexts]
    stack = np.stack(list(matrices.values()))
    below = np.empty((len(stack), len(stack)), dtype=bool)
    step = max(1, 256 // len(stack))
    for start in range(0, len(stack), step):
        block = stack[start:start + step, None]
        below[start:start + step] = ~norm_exceeds(stack[None] @ block - block, tol)
    return stack, below, rows


class ContextPoset:
    """A finite set of same-dimension contexts ordered by inclusion.

    Contexts are deduplicated by id and kept in id order, and of two members
    that include each other at the tolerance only the first is kept; an
    order not transitive at the tolerance raises NotTransitiveError.
    The order comes from one atom-order matrix, ``below[b, a] = proj_leq(P_b,
    P_a)`` over the members' distinct atoms: sub <= sup exactly when every
    atom of sup lies below an atom of sub. With M the context x atom
    incidence matrix, that is ``(M @ cover) == M.sum(1)`` for ``cover =
    below @ M.T > 0``. A table maps each sup atom to the first sub atom above
    it. So the poset is immutable and cheap to query; ``restriction_table``
    is the pairwise oracle of its order. A query naming a context that is
    not a member raises KeyError.

    The batched kernels read, read-only, the stack of the distinct atoms
    with a zero matrix last, and each member's row of indices into it,
    padded with the zero matrix's index past its atoms.
    """

    __slots__ = ("_contexts", "_by_id", "_down", "_atom_stack", "_atom_rows")

    def __init__(self, contexts: Iterable[Context], tol: float | None = None):
        tol = resolve_tolerance(tol)
        by_id: dict[str, Context] = {}
        for ctx in contexts:
            if not isinstance(ctx, Context):
                raise NotAPartitionError("poset members must be Context instances")
            by_id.setdefault(ctx.id, ctx)
        if not by_id:
            raise ValueError("a context poset needs at least one context")
        ordered = tuple(by_id[cid] for cid in sorted(by_id))
        dim = ordered[0].dim
        for ctx in ordered:
            if ctx.dim != dim:
                raise MixedDimensionsError(
                    f"contexts of dimension {dim} and {ctx.dim} in one poset"
                )
        stack, below, rows = _atom_order(ordered, tol)
        incidence = np.zeros((len(ordered), len(below)), dtype=np.float32)
        for c, ids in enumerate(rows):
            incidence[c, ids] = 1.0
        cover = (below.astype(np.float32) @ incidence.T > 0).astype(np.float32)
        # leq[sup, sub]; float32 counts are exact far past any atom count.
        leq = incidence @ cover == incidence.sum(1)[:, None]
        # Antisymmetry at the tolerance: of two members that include each
        # other, only the first in id order stays. Such pairs are rare, so
        # only they are walked, in id order.
        dropped: set[int] = set()
        first, second = np.nonzero(np.triu(leq & leq.T, 1))
        for s, t in zip(first.tolist(), second.tolist()):
            if s not in dropped:
                dropped.add(t)
        kept = [s for s in range(len(ordered)) if s not in dropped]
        leq = leq[np.ix_(kept, kept)]
        ids = [ordered[s].id for s in kept]
        # Transitivity, checked once: every member below a member of sup's
        # down-set is below sup. With it the tables compose, so arrows are
        # natural by construction. For tol < 1/5 and u <= sub <= sup, an atom
        # P of sup sent to atom U of u directly and to U' != U through sub
        # would have ||P|| <= ||U'U|| + tol + 3 tol <= 5 tol for atoms
        # orthogonal at tol, yet ||P|| = 1.
        reach = leq.astype(np.float32)
        gap = (reach @ reach > 0) & ~leq
        if gap.any():
            s = int(np.flatnonzero(gap.any(1))[0])
            escapes = leq & ~leq[s]
            sub = int(np.flatnonzero(leq[s] & escapes.any(1))[0])
            u = int(np.flatnonzero(escapes[sub])[0])
            raise NotTransitiveError(
                f"inclusion is not transitive at tolerance {tol:g}: "
                f"{ids[u]} <= {ids[sub]} <= {ids[s]}, but {ids[u]} is not below {ids[s]}"
            )
        rows = [rows[s] for s in kept]
        width = max(map(len, rows))
        padded = np.array([row + [len(stack)] * (width - len(row)) for row in rows])
        # sup_id -> {sub_id: table} for every sub <= sup in id order, sup
        # itself included: the only record of the order and its tables.
        # Every table comes from one fancy index over the ordered pairs:
        # entry i is the first atom of sub above atom i of sup. below gets
        # an all-False row and column for the pad index, so padding is never
        # picked, and the entries past sup's atoms are cut off.
        padded_below = np.zeros((len(below) + 1,) * 2, dtype=bool)
        padded_below[:-1, :-1] = below
        sups, subs = np.nonzero(leq)  # by sup, then sub, in id order
        tables = padded_below[padded[sups][:, :, None], padded[subs][:, None, :]].argmax(2)
        self._down = {sup: {} for sup in ids}
        for s, c, table in zip(sups.tolist(), subs.tolist(), tables.tolist()):
            self._down[ids[s]][ids[c]] = tuple(table[:len(rows[s])])
        self._contexts = tuple(ordered[s] for s in kept)
        self._by_id = {ctx.id: ctx for ctx in self._contexts}
        self._atom_rows = padded
        self._atom_stack = np.concatenate([stack, np.zeros_like(stack[:1])])
        for array in (self._atom_stack, self._atom_rows):
            array.setflags(write=False)

    @property
    def contexts(self) -> tuple[Context, ...]:
        return self._contexts

    @property
    def dim(self) -> int:
        return self._contexts[0].dim

    @property
    def signature(self) -> tuple[str, ...]:
        """The ordered context ids; two posets with equal signatures are equal."""
        return tuple(ctx.id for ctx in self._contexts)

    def __iter__(self) -> Iterator[Context]:
        return iter(self._contexts)

    def __len__(self) -> int:
        return len(self._contexts)

    def __contains__(self, item) -> bool:
        cid = item.id if isinstance(item, Context) else item
        return cid in self._by_id

    def get(self, cid: str) -> Context:
        return self._by_id[self._member_id(cid)]

    def _member_id(self, v: Context | str) -> str:
        cid = v.id if isinstance(v, Context) else v
        if cid not in self._by_id:
            raise KeyError(f"{cid} is not a member of this poset")
        return cid

    def leq(self, sub: Context | str, sup: Context | str) -> bool:
        """Whether sub is included in sup within this poset."""
        return self._member_id(sub) in self._down[self._member_id(sup)]

    def down_set(self, v: Context | str) -> tuple[Context, ...]:
        """All poset members included in v, v itself among them, in id order."""
        return tuple(self._by_id[w] for w in self._down[self._member_id(v)])

    def restrictions(self, v: Context | str) -> tuple[tuple[Context, tuple[int, ...]], ...]:
        """Each member w included in v (v among them) in id order, with its
        table: entry i is the point of w that point i of v restricts to."""
        return tuple((self._by_id[w], table) for w, table in self._down[self._member_id(v)].items())

    def strict_pairs(self) -> tuple[tuple[str, str], ...]:
        """All (sub_id, sup_id) pairs with strict inclusion, in id order."""
        return tuple(
            sorted((sub, sup) for sup, down in self._down.items() for sub in down if sub != sup)
        )

    def restriction_index(
        self, sup: Context | str, sub: Context | str, atom_index: int
    ) -> int:
        """Map a point index of sup to the index of its image point in sub.

        Raises ValueError unless atom_index is a non-bool integer in range."""
        sup_id, sub_id = self._member_id(sup), self._member_id(sub)
        table = self._down[sup_id].get(sub_id)
        if table is None:
            raise KeyError(f"{sub_id} is not included in {sup_id} within this poset")
        return table[checked_index(atom_index, len(table))]

    def __repr__(self) -> str:
        return f"ContextPoset(dim={self.dim}, n_contexts={len(self._contexts)})"


def build_poset(
    seeds: Iterable[Context],
    close_coarsening: bool = False,
    close_intersection: bool = False,
    tol: float | None = None,
) -> ContextPoset:
    """Generate the poset spanned by seed contexts and the requested closures.

    With close_coarsening, the coarsenings of every seed are added: they are
    closed under coarsening and hold every intersection, a coarsening of
    either side. With close_intersection alone, a worklist meets each context
    once with every seed taken before it (every seed, once the seeds are all
    taken). That reaches the whole intersection closure, {meet of T : T a set
    of seeds}, because the meet of T with s added is (meet of T) meet s. No
    upward closure is ever performed.

    The seeds' atoms are stacked once, so each taken context gets its overlap
    with all earlier seeds from one batched norm call; a seed's slice of it
    gives the blocks of that seed's atoms, as in ``intersect``. The meet of
    seed s with v is the sum of s's atoms over those blocks, so it depends
    only on s and the blocks: a pair already met in this build gives a
    context already in the pool and is skipped, and each block sum of a seed
    is computed once.
    """
    tol = resolve_tolerance(tol)
    pool: dict[str, Context] = {}
    dim: int | None = None
    for seed in seeds:
        if not isinstance(seed, Context):
            raise NotAPartitionError("seeds must be Context instances")
        if dim is None:
            dim = seed.dim
        elif seed.dim != dim:
            raise MixedDimensionsError(
                f"seed contexts of dimension {dim} and {seed.dim}"
            )
        pool.setdefault(seed.id, seed)
    if not pool:
        raise ValueError("build_poset needs at least one seed context")
    taken = [pool[cid] for cid in sorted(pool)]  # the worklist, seeds first
    if close_coarsening:
        closed: set[str] = set()
        for v in taken:
            if v.id not in closed:
                for ctx in coarsenings(v, tol):
                    closed.add(ctx.id)
                    pool.setdefault(ctx.id, ctx)
    elif close_intersection:
        n_seeds = len(taken)
        seed_atoms = np.stack([atom.matrix for u in taken for atom in u.atoms])
        # Seed s owns rows starts[s]:starts[s + 1] of seed_atoms.
        starts = np.cumsum([0] + [u.n_atoms for u in taken]).tolist()
        sums: list[dict[tuple[int, ...], Projection]] = [{} for _ in range(n_seeds)]
        met: set[tuple[int, tuple[tuple[int, ...], ...]]] = set()
        for k, v in enumerate(taken):  # taken grows while it is walked
            if k == 0:
                continue
            m = min(k, n_seeds)
            vs = np.stack([atom.matrix for atom in v.atoms])
            overlap = norm_exceeds(seed_atoms[:starts[m], None] @ vs[None, :], tol)
            for s, u in enumerate(taken[:m]):
                blocks = _blocks(overlap[starts[s]:starts[s + 1]])
                if len(blocks) < 2 or (s, blocks) in met:
                    continue
                met.add((s, blocks))
                meet = _merged(u, blocks, tol, sums[s])
                if meet.id not in pool:
                    pool[meet.id] = meet
                    taken.append(meet)
    return ContextPoset(pool.values(), tol)

"""Context partitions, inclusion order, coarsening/intersection closures.

The intersection operation is checked against a brute-force common-coarsening
oracle that enumerates every sum of atoms on both sides; closure counts are
checked against independent enumeration, not against the library itself.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import atom_index, nontransitive_contexts, peres_bases, rng_for
from toposq import (
    Context,
    ContextPoset,
    HermitianOperator,
    InternalInvariantViolation,
    MixedDimensionsError,
    NotAPartitionError,
    NotTransitiveError,
    Projection,
    ScalarOperatorError,
    TrivialIntersectionError,
    build_poset,
    coarsenings,
    context_from_atoms,
    context_from_operator,
    includes,
    intersect,
    operator_norm,
    proj_leq,
)
import toposq.contexts as contexts_module
from toposq.config import PARTITION_SLACK
from toposq.contexts import _blocks, _sums_to, restriction_table
from toposq.sampling import haar_unitary, random_context, random_maximal_context


# ---------------------------------------------------------------- oracles


def atom_sums(v: Context) -> list[Projection]:
    """Every non-zero projection in the context's lattice (2^k - 1 of them)."""
    out = []
    for r in range(1, v.n_atoms + 1):
        for idx in combinations(range(v.n_atoms), r):
            out.append(v.sum_of_atoms(idx))
    return out


def common_projections(v: Context, w: Context) -> list[Projection]:
    """Non-zero projections lying in both lattices, by exhaustive matching."""
    vs = atom_sums(v)
    ws = atom_sums(w)
    out = []
    for p in vs:
        if any(operator_norm(p.matrix - q.matrix) < 1e-9 for q in ws):
            out.append(p)
    return out


def intersection_atoms_oracle(v: Context, w: Context) -> list[Projection]:
    """Minimal non-zero common projections: the atoms of the meet context."""
    common = common_projections(v, w)
    minimal = []
    for p in common:
        dominated = [q for q in common if proj_leq(q, p) and q.rank < p.rank]
        if not dominated:
            minimal.append(p)
    return minimal


def count_set_partitions(n: int) -> int:
    """Bell number by the recurrence B(n+1) = sum C(n,k) B(k)."""
    bells = [1]
    for m in range(n):
        total = 0
        for k in range(m + 1):
            total += math.comb(m, k) * bells[k]
        bells.append(total)
    return bells[n]


def brute_force_closure(seeds, coarsening: bool, intersection: bool):
    """Fixed-point closure using only coarsenings/intersect primitives."""
    pool = {v.id: v for v in seeds}
    while True:
        size = len(pool)
        items = list(pool.values())
        if coarsening:
            for v in items:
                for c in coarsenings(v):
                    pool.setdefault(c.id, c)
        if intersection:
            for a, b in combinations(items, 2):
                try:
                    c = intersect(a, b)
                except TrivialIntersectionError:
                    continue
                pool.setdefault(c.id, c)
        if len(pool) == size:
            return pool


# ------------------------------------------------------------ validation


def test_context_requires_two_atoms():
    # Too few atoms, or atoms that are not Projections (the first one included).
    for atoms in ([Projection.identity(3)], [np.eye(2), np.eye(2)]):
        with pytest.raises(NotAPartitionError):
            Context(atoms)


def test_context_rejects_incomplete_partition():
    with pytest.raises(NotAPartitionError):
        context_from_atoms(
            [Projection(np.diag([1.0, 0, 0])), Projection(np.diag([0, 1.0, 0]))]
        )


def test_context_rejects_overlapping_atoms(basis_projs):
    p1, p2, _ = basis_projs
    p12 = Projection(np.diag([1.0, 1.0, 0.0]))
    p23 = Projection(np.diag([0.0, 1.0, 1.0]))
    # The message names the first offending pair i < j in supplied order.
    for atoms, pair in (([p12, p23], "0 and 1"), ([p1, p2, p23], "1 and 2"), ([p1, p2, p12], "0 and 2")):
        with pytest.raises(NotAPartitionError, match=rf"atoms {pair} are not orthogonal \(\|\|PQ\|\| = 1\.000e\+00\)"):
            context_from_atoms(atoms)


def test_context_drops_nothing_and_sorts(basis_projs):
    p1, p2, p3 = basis_projs
    v = context_from_atoms([p1, p2, p3])
    w = context_from_atoms([p3, p1, p2])
    assert v.id == w.id
    assert v == w
    assert v.n_atoms == 3


def test_canonical_id_stable_under_tiny_perturbation(basis_projs):
    p1, p2, p3 = basis_projs
    v = context_from_atoms([p1, p2, p3])
    bumped = [
        Projection(p.matrix + np.diag([1e-12, -1e-12, 0.0])) for p in (p1, p2, p3)
    ]
    assert context_from_atoms(bumped).id == v.id


def test_contains_projection(eigen_context, basis_projs):
    p1, p2, _ = basis_projs
    assert eigen_context.contains_projection(p1)
    assert eigen_context.contains_projection(
        Projection(p1.matrix + p2.matrix)
    )
    tilted = Projection.onto(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
    assert not eigen_context.contains_projection(tilted)


# --------------------------------------------------- from-operator builder


def test_context_from_operator_sz(sz, eigen_context):
    v = context_from_operator(sz)
    assert v == eigen_context
    coeffs = v.coefficients_in_span(sz)
    assert coeffs is not None


def test_context_from_operator_two_eigenvalues():
    v = context_from_operator(HermitianOperator(np.diag([1.0, 1.0, 0.0])))
    assert v.n_atoms == 2
    assert {p.rank for p in v.atoms} == {1, 2}


def test_context_from_operator_scalar_rejected():
    with pytest.raises(ScalarOperatorError):
        context_from_operator(HermitianOperator(np.eye(3)))


# -------------------------------------------------------------- inclusion


def test_includes_worked_examples(eigen_context, basis_projs):
    p1, _, _ = basis_projs
    v_p1 = context_from_atoms([p1, p1.complement()])
    assert includes(v_p1, eigen_context)
    assert not includes(eigen_context, v_p1)
    assert includes(eigen_context, eigen_context)


def test_two_maximal_contexts_incomparable(eigen_context):
    w = random_maximal_context(3, rng_for(31))
    assert not includes(w, eigen_context)
    assert not includes(eigen_context, w)


def test_includes_rejects_mixed_dims(eigen_context):
    from toposq import DimensionMismatchError

    v2 = context_from_atoms(
        [Projection(np.diag([1.0, 0.0])), Projection(np.diag([0.0, 1.0]))]
    )
    with pytest.raises(DimensionMismatchError):
        includes(v2, eigen_context)


# ------------------------------------------------------------ coarsenings


def test_coarsenings_of_three_atom_context(eigen_context):
    cs = coarsenings(eigen_context)
    assert len(cs) == count_set_partitions(3) - 1  # 4
    assert eigen_context in cs
    for c in cs:
        assert includes(c, eigen_context)
    two_atom = [c for c in cs if c.n_atoms == 2]
    assert len(two_atom) == 3


def test_coarsenings_of_two_atom_context(basis_projs):
    p1, _, _ = basis_projs
    v = context_from_atoms([p1, p1.complement()])
    assert coarsenings(v) == (v,)


def test_coarsenings_of_four_atom_context():
    atoms = [Projection.onto(np.eye(4)[:, i]) for i in range(4)]
    cs = coarsenings(context_from_atoms(atoms))
    assert len(cs) == count_set_partitions(4) - 1  # 14


def growth_partitions(n: int):
    """Set partitions of range(n) from restricted growth strings: element i
    joins block s[i] <= 1 + max(s[:i]); blocks list their members in order."""
    def rec(s):
        if len(s) == n:
            yield tuple(tuple(i for i in range(n) if s[i] == b) for b in range(max(s) + 1))
            return
        for b in range(max(s) + 2):
            yield from rec(s + [b])

    yield from rec([0])


def test_coarsenings_hold_v_and_sum_each_block_once(monkeypatch):
    rng = rng_for(91)
    cases = [random_maximal_context(dim, rng) for dim in (2, 3, 4, 5)]
    cases += [random_context(5, rng, n_atoms=k) for k in (2, 3, 4)]
    # Coarsenings snap all their block sums in one batched call; the route
    # below rebuilds them one by one through the public sum_of_atoms.
    original = contexts_module.snapped_projections
    for v in cases:
        calls = []

        def counting(herms, tol):
            calls.append(original(herms, tol))
            return calls[-1]

        monkeypatch.setattr(contexts_module, "snapped_projections", counting)
        cs = coarsenings(v)
        monkeypatch.setattr(contexts_module, "snapped_projections", original)
        n = v.n_atoms
        # One call for n >= 3, on the 2^n - 2 nonempty proper blocks, each
        # once: distinct blocks of orthogonal atoms have distinct sums.
        assert len(calls) == (1 if n >= 3 else 0)
        sums = [m.tobytes() for m in np.round(calls[0], 6)] if calls else []
        assert len(sums) == (2**n - 2 if n >= 3 else 0) == len(set(sums))
        assert [c for c in cs if c.id == v.id][0] is v
        # Every partition into >= 2 blocks, each block re-summed per partition.
        route = {v.id: v}
        for partition in growth_partitions(n):
            if 2 <= len(partition) < n:
                c = Context([v.sum_of_atoms(block) for block in partition])
                route[c.id] = c
        assert [c.id for c in cs] == sorted(route)
        for c in cs:
            want = route[c.id].atoms
            assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(c.atoms, want))


# ------------------------------------------------------------- intersect


def test_intersect_with_self(eigen_context):
    assert intersect(eigen_context, eigen_context) == eigen_context


def test_intersect_shared_rank1(eigen_context, basis_projs):
    _, p2, _ = basis_projs
    c, s = np.cos(0.4), np.sin(0.4)
    q1 = Projection.onto(np.array([c, 0.0, s]))
    q3 = Projection.onto(np.array([-s, 0.0, c]))
    w = context_from_atoms([q1, p2, q3])
    got = intersect(eigen_context, w)
    expected = context_from_atoms([p2, p2.complement()])
    assert got == expected
    # Oracle agreement: same minimal common projections.
    oracle = intersection_atoms_oracle(eigen_context, w)
    assert len(oracle) == 2
    for atom in got.atoms:
        assert any(operator_norm(atom.matrix - p.matrix) < 1e-9 for p in oracle)


def test_intersect_generic_is_trivial(eigen_context):
    w = random_maximal_context(3, rng_for(32))
    # Only the identity is common to both lattices.
    oracle = intersection_atoms_oracle(eigen_context, w)
    assert len(oracle) == 1
    assert oracle[0].rank == 3
    with pytest.raises(TrivialIntersectionError):
        intersect(eigen_context, w)


def test_intersect_matches_oracle_on_random_pairs():
    rng = rng_for(33)
    hits = 0
    for _ in range(25):
        v = random_maximal_context(4, rng)
        # Random coarsenings of a common refinement give nontrivial overlaps.
        base = random_maximal_context(4, rng)
        cs = coarsenings(base)
        w1 = cs[int(rng.integers(0, len(cs)))]
        w2 = cs[int(rng.integers(0, len(cs)))]
        for a, b in ((w1, w2), (v, base)):
            oracle = intersection_atoms_oracle(a, b)
            try:
                got = intersect(a, b)
            except TrivialIntersectionError:
                assert len(oracle) == 1  # only the identity is shared
                continue
            hits += 1
            assert got.n_atoms == len(oracle)
            for atom in got.atoms:
                assert any(
                    operator_norm(atom.matrix - p.matrix) < 1e-8 for p in oracle
                )
    assert hits > 0


def test_intersect_is_glb_in_coarsening_closure(eigen_context, basis_projs):
    _, p2, _ = basis_projs
    c, s = np.cos(1.1), np.sin(1.1)
    w = context_from_atoms(
        [
            Projection.onto(np.array([c, 0.0, s])),
            p2,
            Projection.onto(np.array([-s, 0.0, c])),
        ]
    )
    meet = intersect(eigen_context, w)
    pool = brute_force_closure([eigen_context, w], True, True)
    lower = [
        x
        for x in pool.values()
        if includes(x, eigen_context) and includes(x, w)
    ]
    assert any(x == meet for x in lower)
    for x in lower:
        assert includes(x, meet)


# ------------------------------------------------------------ poset build


def test_build_poset_coarsening_counts(eigen_context, spin_poset):
    assert len(spin_poset) == 4
    assert len(spin_poset.strict_pairs()) == 3
    for sub_id, sup_id in spin_poset.strict_pairs():
        assert sup_id == eigen_context.id


def test_build_poset_single_seed(eigen_context):
    poset = build_poset([eigen_context])
    assert len(poset) == 1
    assert eigen_context in poset


def test_build_poset_two_overlapping_maximal(eigen_context, basis_projs, monkeypatch):
    # Two maximal contexts of C^3 sharing exactly one rank-1 projection.
    _, p2, _ = basis_projs
    c, s = np.cos(0.7), np.sin(0.7)
    w = context_from_atoms(
        [
            Projection.onto(np.array([c, 0.0, s])),
            p2,
            Projection.onto(np.array([-s, 0.0, c])),
        ]
    )
    # A maximal context of C^4 seeded together with two of its coarsenings.
    v4 = random_maximal_context(4, rng_for(311))
    calls = []

    def counted(overlap):
        calls.append(overlap.shape)
        return _blocks(overlap)

    monkeypatch.setattr("toposq.contexts._blocks", counted)
    # First case: 2 maximal + 3 coarsenings each, with the shared 2-atom
    # context counted once: 7 contexts. Second: B(4) - 1 = 14 contexts. Both
    # are checked against the independent fixed-point closure.
    for seeds, size in (([eigen_context, w], 7), ([v4, *coarsenings(v4)[:2]], 14)):
        calls.clear()
        build_poset(seeds, close_intersection=True)
        assert calls  # every meet of the intersection pass is counted here
        calls.clear()
        poset = build_poset(seeds, close_coarsening=True, close_intersection=True)
        # Every intersection is a coarsening already in the pool.
        assert calls == []
        oracle_pool = brute_force_closure(seeds, True, True)
        assert len(oracle_pool) == size
        assert len(poset) == size
        assert set(c.id for c in poset) == set(oracle_pool)


def seed_meet_closure(seeds) -> ContextPoset:
    """Seeds-only worklist from pairwise ``intersect``: each taken context
    meets every seed taken before it."""
    pool = {v.id: v for v in seeds}
    taken = [pool[cid] for cid in sorted(pool)]
    n_seeds = len(taken)
    for k, v in enumerate(taken):
        for u in taken[:min(k, n_seeds)]:
            try:
                meet = intersect(u, v)
            except TrivialIntersectionError:
                continue
            if meet.id not in pool:
                pool[meet.id] = meet
                taken.append(meet)
    return ContextPoset(pool.values())


def rotated(v: Context, i: int, j: int, angle: float) -> Context:
    """The maximal context v with its rank-1 atoms i and j turned by angle
    in their common plane; the other atoms are shared with v."""
    vectors = [np.linalg.eigh(atom.matrix)[1][:, -1] for atom in v.atoms]
    c, s = np.cos(angle), np.sin(angle)
    x, y = vectors[i], vectors[j]
    vectors[i], vectors[j] = c * x + s * y, c * y - s * x
    return context_from_atoms([Projection.onto(x) for x in vectors])


def test_build_poset_intersection_closure_matches_oracle(eigen_context):
    # Meeting each context with the seeds only still reaches every meet of
    # every seed subset, as the all-pairs fixed point does, and the batched
    # seed overlap with its (seed, blocks) memo gives the same poset, order
    # included, as the seeds-only worklist over pairwise ``intersect``.
    # Mixed seeds: the six 3-atom coarsenings of the diagonal context of C^4,
    # and a maximal context sharing e1 and e2 with it; their meets add the
    # seven 2-atom coarsenings. The last three seed sets mix coarsenings of
    # one maximal context with turned copies that share some of its atoms.
    e = np.eye(4)
    c, s = np.cos(0.6), np.sin(0.6)
    w = context_from_atoms(
        [Projection.onto(x) for x in (e[0], e[1], c * e[2] + s * e[3], c * e[3] - s * e[2])]
    )
    diagonal = context_from_atoms([Projection.onto(x) for x in e])
    mixed = [x for x in coarsenings(diagonal) if x.n_atoms == 3] + [w]
    v4 = random_maximal_context(4, rng_for(312))
    bases = peres_bases()
    cases = (
        (bases[:3], 6),
        (bases[:8], 23),
        (mixed, 14),
        (
            [eigen_context, coarsenings(eigen_context)[0]]
            + [rotated(eigen_context, 1, 2, 0.4), rotated(eigen_context, 0, 1, 0.7)],
            6,
        ),
        (
            [x for x in coarsenings(v4) if x.n_atoms == 3][:3]
            + [rotated(v4, 2, 3, 0.5), rotated(v4, 0, 1, 0.9)],
            9,
        ),
        ([x for x in coarsenings(v4) if x.n_atoms == 2] + [v4, rotated(v4, 1, 3, 1.1)], 10),
    )
    for seeds, size in cases:
        poset = build_poset(seeds, close_intersection=True)
        assert len(poset) == size
        assert set(poset.signature) == set(brute_force_closure(seeds, False, True))
        worklist = seed_meet_closure(seeds)
        assert poset.signature == worklist.signature
        assert poset.strict_pairs() == worklist.strict_pairs()


def test_non_context_members_rejected(eigen_context, basis_projs):
    # A bare atom list, a string or a number is not a context.
    p1 = basis_projs[0]
    with pytest.raises(NotAPartitionError):
        build_poset([[p1, p1.complement()]])
    with pytest.raises(NotAPartitionError):
        build_poset([eigen_context, "x"])
    with pytest.raises(NotAPartitionError):
        ContextPoset([eigen_context, 3])


def test_build_poset_order_is_partial_order(spin_poset):
    ctxs = spin_poset.contexts
    for a in ctxs:
        assert spin_poset.leq(a, a)
        for b in ctxs:
            if spin_poset.leq(a, b) and spin_poset.leq(b, a):
                assert a == b
            for c in ctxs:
                if spin_poset.leq(a, b) and spin_poset.leq(b, c):
                    assert spin_poset.leq(a, c)


def test_mutually_included_members_keep_first_id():
    # Two maximal contexts 2e-11 rad apart include each other at the
    # tolerance, but cos^2 = 0.2500005 puts their rounded entries on either
    # side of a sixth-decimal boundary, so they get two ids. The poset keeps
    # only the first id, whatever the input order, and the coarsening closure
    # keeps one copy of each of the three pairs of near-equal contexts.
    def turned(angle):
        c, s = np.cos(angle), np.sin(angle)
        rays = ((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))
        return context_from_atoms([Projection.onto(np.array(r)) for r in rays])

    angle = np.arccos(np.sqrt(0.2500005))
    a, b = turned(angle + 1e-11), turned(angle - 1e-11)
    assert a.id != b.id and includes(a, b) and includes(b, a)
    for members in ([a, b], [b, a]):
        assert ContextPoset(members).signature == (min(a.id, b.id),)
    closure = build_poset([a, b], close_coarsening=True)
    assert len(closure) == 4
    assert len(closure.strict_pairs()) == 3
    for x in closure:
        for y in closure:
            if closure.leq(x, y) and closure.leq(y, x):
                assert x == y
    for poset in (ContextPoset([a, b]), ContextPoset([b, a]), closure):
        assert_order_is_restriction_table(poset)


def test_mutual_pairs_drop_only_after_kept_members():
    # a ~ b and b ~ c include each other at tol (turned 0.8 tol apart), a
    # and c do not (1.6 tol). In id order a member is dropped only for a
    # kept earlier member it includes both ways, so with b between a and c
    # in id order both ends stay, and with b first only b does.
    tol = 1e-5

    def turned(angle):
        c, s = np.cos(angle), np.sin(angle)
        rays = ((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))
        return context_from_atoms([Projection.onto(np.array(r), tol) for r in rays], tol)

    sizes = set()
    for base in (0.1, 0.4, 0.6):  # b first, and b between c and a, a and c
        members = [turned(base + k * 0.8 * tol) for k in range(3)]
        kept = []
        for x in sorted(members, key=lambda m: m.id):
            if not any(includes(x, k, tol) and includes(k, x, tol) for k in kept):
                kept.append(x)
        for order in permutations(members):
            assert ContextPoset(order, tol).signature == tuple(k.id for k in kept)
        sizes.add(len(kept))
    assert sizes == {1, 2}


def test_poset_rejects_inclusion_not_transitive_at_tol():
    # Each of u <= w and w <= v turns a ray by less than tol, the two by more,
    # so u is not below v: no order has these three pairs, and the build
    # raises, naming the chain, instead of keeping two strict pairs.
    tol = 1e-5
    u, w, v = nontransitive_contexts(tol)
    assert includes(u, w, tol) and includes(w, v, tol)
    assert not includes(u, v, tol)
    # The contexts are bad input, not a bug: the error is no invariant violation.
    assert not issubclass(NotTransitiveError, InternalInvariantViolation)
    chain = f"{u.id} <= {w.id} <= {v.id}, but {u.id} is not below {v.id}"
    for members in ([u, w, v], [v, w, u]):
        with pytest.raises(NotTransitiveError, match=chain):
            ContextPoset(members, tol)
        with pytest.raises(NotTransitiveError, match=chain):
            build_poset(members, tol=tol)
    # Any two of them form an order.
    for pair in ([u, w], [w, v], [u, v]):
        assert_order_is_restriction_table(ContextPoset(pair, tol), tol)


def assert_order_is_restriction_table(poset: ContextPoset, tol: float | None = None) -> None:
    # The pairwise oracle on every ordered pair, the diagonal included.
    for sup in poset:
        tables = {w.id: table for w, table in poset.restrictions(sup)}
        for sub in poset:
            table = restriction_table(sub, sup, tol)
            assert poset.leq(sub, sup) == (table is not None)
            assert tables.get(sub.id) == table


def test_order_and_tables_match_restriction_table_on_every_ordered_pair(peres_c3_poset):
    closures = [
        build_poset([random_maximal_context(dim, rng_for(51, dim))], close_coarsening=True)
        for dim in range(2, 7)
    ]
    assert len(closures[-1]) == 202 and len(closures[-1].strict_pairs()) == 2066
    # Random intersection closures: a random maximal context, one of its
    # coarsenings and three copies turned in random planes, which share atoms.
    rng = rng_for(52)
    meets = []
    for dim in (3, 4, 5, 5):
        v = random_maximal_context(dim, rng)
        turned = [
            rotated(v, *rng.choice(dim, 2, replace=False), rng.uniform(0.2, 1.2)) for _ in range(3)
        ]
        parts = coarsenings(v)
        meets.append(build_poset([v, parts[rng.integers(len(parts))]] + turned, close_intersection=True))
    assert all(poset.strict_pairs() for poset in meets)
    peres = build_poset(peres_bases(), close_intersection=True)
    for poset in closures + meets + [peres, peres_c3_poset]:
        assert_order_is_restriction_table(poset)


def test_build_poset_mixed_dims_rejected(eigen_context):
    v2 = context_from_atoms(
        [Projection(np.diag([1.0, 0.0])), Projection(np.diag([0.0, 1.0]))]
    )
    with pytest.raises(MixedDimensionsError):
        build_poset([eigen_context, v2])


def test_down_set_and_restriction_index(spin_poset, eigen_context, basis_projs):
    p1, p2, p3 = basis_projs
    v_p1 = context_from_atoms([p1, p1.complement()])
    down = spin_poset.down_set(eigen_context)
    assert eigen_context in down
    assert len(down) == 4
    # In id order: v comes first only when it has the smallest id; here it does not.
    assert [c.id for c in down] == sorted(c.id for c in down) and down[0] != eigen_context
    # Atom i of the maximal context maps to the v_p1 atom dominating it.
    for i in range(3):
        j = spin_poset.restriction_index(eigen_context.id, v_p1.id, i)
        assert proj_leq(eigen_context.atom(i), v_p1.atom(j))
    # Indices outside the sup's atoms, or not integers, fail at the boundary.
    for sub, bad in ((v_p1, -1), (v_p1, 3), (eigen_context, 5), (v_p1, 1.0), (v_p1, True)):
        with pytest.raises(ValueError):
            spin_poset.restriction_index(eigen_context, sub, bad)


def test_poset_queries_reject_non_members(spin_poset, eigen_context):
    # A non-member given to get, down_set or restrictions, or on either side
    # of leq or restriction_index, is a KeyError naming it as a non-member.
    outsider = random_maximal_context(3, rng_for(313))
    for bad in ("x", outsider):
        name = bad if isinstance(bad, str) else bad.id
        calls = (
            lambda: spin_poset.get(bad),
            lambda: spin_poset.leq(eigen_context, bad),
            lambda: spin_poset.leq(bad, eigen_context),
            lambda: spin_poset.down_set(bad),
            lambda: spin_poset.restrictions(bad),
            lambda: spin_poset.restriction_index(bad, eigen_context, 0),
            lambda: spin_poset.restriction_index(eigen_context, bad, 0),
        )
        for call in calls:
            with pytest.raises(KeyError, match=f"{name} is not a member"):
                call()


def test_restriction_index_names_unordered_members(spin_poset, eigen_context):
    # Two members that are not ordered keep the "not included" message.
    coarse = [v for v in spin_poset if v != eigen_context]
    sub, sup = coarse[0], coarse[1]
    assert not spin_poset.leq(sub, sup)
    with pytest.raises(KeyError, match=f"{sub.id} is not included in {sup.id}"):
        spin_poset.restriction_index(sup, sub, 0)


def test_poset_dedupes_equal_contexts(eigen_context, basis_projs):
    p1, p2, p3 = basis_projs
    reordered = context_from_atoms([p3, p2, p1])
    poset = build_poset([eigen_context, reordered])
    assert len(poset) == 1


def test_atom_index_helper(eigen_context, basis_projs):
    p1, p2, p3 = basis_projs
    # Canonical sorting puts the e3 projector first (byte order of entries).
    assert atom_index(eigen_context, p3) == 0
    assert atom_index(eigen_context, p2) == 1
    assert atom_index(eigen_context, p1) == 2


def test_random_context_rejects_dimension_below_two_before_drawing():
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    for dim in (1, 0):
        with pytest.raises(ValueError, match=f"dimension >= 2, got {dim}"):
            random_context(dim, rng)
    assert rng.bit_generator.state == state
    # Draws for valid dimensions are the ones recorded before the check.
    assert [random_context(d, rng).id for d in (2, 3, 4, 5)] == [
        "21554f4c157517d0", "a2bd96ca3ef2f62f", "510a02f8e1a698f7", "a4d9dd106d844d5b",
    ]
    assert [random_context(4, rng, n_atoms=k).id for k in (2, 3, 4)] == [
        "d4516e3db6f6a095", "eedc3a7d870afc04", "5cd5206ae9c40926",
    ]


def test_partition_sum_check_decides_as_the_svd_inside_the_band():
    # Targets off the sum of four atoms by a difference with singular values
    # near the bound max(tol, PARTITION_SLACK * 4) and below it: its Frobenius
    # norm lies in norm_exceeds's SVD band, and each answer is the SVD's.
    rng = rng_for(68)
    atoms = [Projection(np.diag(row)) for row in np.eye(4)]
    outcomes = set()
    for tol in (1e-9, 1e-12):
        bound = max(tol, PARTITION_SLACK * 4)
        for _ in range(100):
            u = haar_unitary(4, rng)
            values = [1.0 + rng.uniform(-1e-6, 1e-6), rng.uniform(0.3, 0.99), 0.0, 0.0]
            target = np.eye(4) + (u * (bound * np.array(values))) @ u.conj().T
            ok, difference = _sums_to(atoms, target, tol)
            assert bound < np.linalg.norm(difference) <= 2 * bound
            want = operator_norm(difference) <= bound
            assert ok == want
            outcomes.add(want)
    assert outcomes == {False, True}

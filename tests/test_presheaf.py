"""Gel'fand spectra, restriction maps, clopen subobjects, Heyting structure.

Global sections are compared against a plain itertools.product oracle and
checked on known answers (the Kochen-Specker Peres set has none), and the
Heyting adjunction is enumerated exhaustively on small posets so the implies
formula is pinned by an independent definition of "compatible choice".
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest

from conftest import SQ2, atom_index, peres_bases, rng_for
from toposq import (
    ClopenSubobject,
    Context,
    GelfandPoint,
    HermitianOperator,
    NotInContextError,
    NotIncludedError,
    NotRestrictionClosedError,
    PosetMismatchError,
    Projection,
    build_poset,
    context_from_atoms,
    daseinise_projection,
    evaluate,
    global_sections,
    points_to_projection,
    projection_to_points,
    proj_leq,
    restrict,
    spectrum,
)
from toposq.contexts import dominating_atom_index
from toposq.sampling import random_maximal_context, random_poset


# ---------------------------------------------------------------- oracles


def global_sections_oracle(poset):
    """All compatible choice functions by brute itertools.product."""
    ctxs = list(poset.contexts)
    out = []
    for choice in product(*(range(c.n_atoms) for c in ctxs)):
        ok = True
        for sub_id, sup_id in poset.strict_pairs():
            sup = poset.get(sup_id)
            sub = poset.get(sub_id)
            i = choice[ctxs.index(sup)]
            j = choice[ctxs.index(sub)]
            if restrict(GelfandPoint(sup, i), sub).index != j:
                ok = False
                break
        if ok:
            out.append(
                {c.id: choice[k] for k, c in enumerate(ctxs)}
            )
    return out


def all_subobjects(poset):
    """Every restriction-closed family on a small poset, by filtering."""
    ctxs = list(poset.contexts)
    subsets_per_ctx = []
    for c in ctxs:
        idx = range(c.n_atoms)
        subsets_per_ctx.append(
            [frozenset(s) for r in range(c.n_atoms + 1)
             for s in _combos(idx, r)]
        )
    out = []
    for pick in product(*subsets_per_ctx):
        comp = {c.id: pick[k] for k, c in enumerate(ctxs)}
        try:
            out.append(ClopenSubobject(poset, comp))
        except NotRestrictionClosedError:
            continue
    return out


def _combos(idx, r):
    return combinations(idx, r)


# --------------------------------------------------------------- spectrum


def test_spectrum_sizes(eigen_context, basis_projs):
    p1, _, _ = basis_projs
    assert len(spectrum(eigen_context)) == 3
    v_p1 = context_from_atoms([p1, p1.complement()])
    assert len(spectrum(v_p1)) == 2
    atoms4 = [Projection.onto(np.eye(4)[:, i]) for i in range(4)]
    assert len(spectrum(context_from_atoms(atoms4))) == 4


def test_point_atom_and_validation(eigen_context):
    pt = GelfandPoint(eigen_context, 1)
    assert pt.atom.isclose(eigen_context.atom(1))
    with pytest.raises(ValueError):
        GelfandPoint(eigen_context, 3)
    for bad in (-1, 3, 1.7, 1.0, True):
        with pytest.raises(ValueError):
            points_to_projection([bad], eigen_context)
        with pytest.raises(ValueError):
            GelfandPoint(eigen_context, bad)
    assert points_to_projection([np.int64(1)], eigen_context).isclose(eigen_context.atom(1))
    # Context.atom and Context.sum_of_atoms check their indices the same way,
    # and an index given twice does not name a sum of distinct atoms.
    for bad in (-1, 3, 7, 1.0, True):
        with pytest.raises(ValueError, match="not an integer in"):
            eigen_context.atom(bad)
        with pytest.raises(ValueError, match="not an integer in"):
            eigen_context.sum_of_atoms([bad])
    with pytest.raises(ValueError, match="repeat"):
        eigen_context.sum_of_atoms([0, 0])


# --------------------------------------------------------------- evaluate


def test_evaluate_diagonal_coefficients(eigen_context):
    a = HermitianOperator(np.diag([4.0, 5.0, 6.0]))
    got = sorted(
        evaluate(pt, a) for pt in spectrum(eigen_context)
    )
    assert got == pytest.approx([4.0, 5.0, 6.0])


def test_evaluate_identity_is_one(eigen_context):
    for pt in spectrum(eigen_context):
        assert evaluate(pt, HermitianOperator(np.eye(3))) == pytest.approx(1.0)


def test_evaluate_sz_middle_point(sz, eigen_context, basis_projs):
    _, p2, _ = basis_projs
    pt = GelfandPoint(eigen_context, atom_index(eigen_context, p2))
    assert evaluate(pt, sz) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_rejects_operator_outside_context(eigen_context):
    off_diag = np.zeros((3, 3))
    off_diag[0, 1] = off_diag[1, 0] = 1.0
    with pytest.raises(NotInContextError):
        evaluate(GelfandPoint(eigen_context, 0), HermitianOperator(off_diag))


# --------------------------------------------------------------- restrict


def test_restrict_worked_mappings(eigen_context, basis_projs):
    p1, p2, p3 = basis_projs
    v_p1 = context_from_atoms([p1, p1.complement()])
    i1 = atom_index(eigen_context, p1)
    i2 = atom_index(eigen_context, p2)
    i3 = atom_index(eigen_context, p3)
    # The p1 point maps to the p1 atom; the other two land on the complement.
    tgt1 = restrict(GelfandPoint(eigen_context, i1), v_p1)
    tgt2 = restrict(GelfandPoint(eigen_context, i2), v_p1)
    tgt3 = restrict(GelfandPoint(eigen_context, i3), v_p1)
    assert tgt1.atom.isclose(p1)
    assert tgt2.atom.isclose(p1.complement())
    assert tgt3 == tgt2


def test_restrict_identity(eigen_context):
    pt = GelfandPoint(eigen_context, 2)
    assert restrict(pt, eigen_context) == pt


def test_restrict_requires_inclusion(eigen_context):
    w = random_maximal_context(3, rng_for(41))
    with pytest.raises(NotIncludedError):
        restrict(GelfandPoint(eigen_context, 0), w)


def test_restrict_functorial_and_surjective():
    rng = rng_for(42)
    for _ in range(10):
        poset = random_poset(3, rng, n_seeds=1, close_coarsening=True)
        for sub_id, sup_id in poset.strict_pairs():
            sup, sub = poset.get(sup_id), poset.get(sub_id)
            hit = set()
            for pt in spectrum(sup):
                tgt = restrict(pt, sub)
                hit.add(tgt.index)
                # Functoriality through any middle context.
                for mid in poset.contexts:
                    if (
                        poset.leq(sub, mid)
                        and poset.leq(mid, sup)
                        and mid.id not in (sub_id, sup_id)
                    ):
                        assert restrict(restrict(pt, mid), sub) == tgt
            assert hit == set(range(sub.n_atoms))


def test_restriction_tables_match_dominating_atom_oracle(table_posets):
    # The poset's tables, includes and restrict share one restriction_table
    # pass; dominating_atom_index searches the sub atoms independently.
    for poset in table_posets:
        for sub_id, sup_id in poset.strict_pairs():
            sub, sup = poset.get(sub_id), poset.get(sup_id)
            for i in range(sup.n_atoms):
                want = dominating_atom_index(sub, sup.atom(i))
                assert want is not None
                assert poset.restriction_index(sup, sub, i) == want
                assert restrict(GelfandPoint(sup, i), sub).index == want


def test_restrictions_match_down_set_and_restriction_index(table_posets):
    # restrictions(v) is down_set(v) with each member's table, and the
    # strict pairs stay in (sub, sup) id order.
    for poset in table_posets:
        for v in poset:
            want = [
                (w, tuple(poset.restriction_index(v, w, i) for i in range(v.n_atoms)))
                for w in poset.down_set(v)
            ]
            assert list(poset.restrictions(v)) == want
        pairs = poset.strict_pairs()
        assert list(pairs) == sorted(pairs)
        assert set(pairs) == {
            (w.id, v.id) for v in poset for w in poset.down_set(v) if w != v
        }


def test_restriction_tables_are_functorial(table_posets):
    # Restricting along w -> v -> u lands where w -> u does, for every chain
    # u <= v <= w (identities included).
    for poset in table_posets:
        for w in poset:
            for v in poset.down_set(w):
                for u in poset.down_set(v):
                    for i in range(w.n_atoms):
                        via_v = poset.restriction_index(v, u, poset.restriction_index(w, v, i))
                        assert poset.restriction_index(w, u, i) == via_v


def test_restrict_is_functional_restriction(sz, eigen_context, basis_projs):
    # lambda|_sub agrees with evaluating the restricted character.
    p1, _, _ = basis_projs
    v_p1 = context_from_atoms([p1, p1.complement()])
    a = HermitianOperator(np.diag([2.0, 7.0, 7.0]))  # member of v_p1's span
    for pt in spectrum(eigen_context):
        assert evaluate(restrict(pt, v_p1), a) == pytest.approx(evaluate(pt, a))


# ------------------------------------------------- lattice isomorphism


def test_alpha_worked_values(eigen_context, basis_projs):
    p1, p2, p3 = basis_projs
    one = Projection.identity(3)
    assert projection_to_points(one, eigen_context) == frozenset(
        spectrum(eigen_context)
    )
    assert projection_to_points(Projection.zero(3), eigen_context) == frozenset()
    s23 = projection_to_points(Projection(p2.matrix + p3.matrix), eigen_context)
    assert {pt.index for pt in s23} == {
        atom_index(eigen_context, p2),
        atom_index(eigen_context, p3),
    }
    s1 = projection_to_points(p1, eigen_context)
    assert {pt.index for pt in s1} == {atom_index(eigen_context, p1)}


def test_alpha_requires_membership(eigen_context):
    tilted = Projection.onto(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
    with pytest.raises(NotInContextError):
        projection_to_points(tilted, eigen_context)


def test_alpha_round_trip_random(eigen_context):
    rng = rng_for(43)
    for _ in range(20):
        k = int(rng.integers(0, 4))
        indices = sorted(rng.choice(3, size=k, replace=False).tolist())
        p = eigen_context.sum_of_atoms(indices)
        pts = projection_to_points(p, eigen_context)
        assert {pt.index for pt in pts} == set(indices)
        back = points_to_projection(pts, eigen_context)
        assert back.isclose(p)


def test_alpha_is_order_isomorphism(eigen_context):
    sums = [
        eigen_context.sum_of_atoms(idx)
        for r in range(0, 4)
        for idx in combinations(range(3), r)
    ]
    for p in sums:
        for q in sums:
            lhs = proj_leq(p, q)
            rhs = projection_to_points(p, eigen_context) <= projection_to_points(
                q, eigen_context
            )
            assert lhs == rhs


# -------------------------------------------------------- clopen subobject


def test_top_bottom(spin_poset):
    top = ClopenSubobject.top(spin_poset)
    bottom = ClopenSubobject.bottom(spin_poset)
    assert top.is_top() and not top.is_bottom()
    assert bottom.is_bottom() and not bottom.is_top()
    for ctx in spin_poset:
        assert top.component(ctx) == frozenset(range(ctx.n_atoms))
        assert bottom.component(ctx) == frozenset()


def test_validator_rejects_open_family(spin_poset, eigen_context, basis_projs):
    p1, p2, _ = basis_projs
    comp = {c.id: frozenset(range(c.n_atoms)) for c in spin_poset}
    # Keep the top context full but empty one coarsening: restriction escapes.
    v_p1 = context_from_atoms([p1, p1.complement()])
    comp[v_p1.id] = frozenset()
    with pytest.raises(NotRestrictionClosedError):
        ClopenSubobject(spin_poset, comp)


def test_component_for_missing_context_rejected(spin_poset, eigen_context):
    comp = {eigen_context.id: frozenset()}
    with pytest.raises(PosetMismatchError):
        ClopenSubobject(spin_poset, comp)


def test_meet_join_leq(spin_poset, basis_projs):
    p1, p2, p3 = basis_projs
    s = daseinise_projection(p1, spin_poset)
    t = daseinise_projection(p2, spin_poset)
    top = ClopenSubobject.top(spin_poset)
    bottom = ClopenSubobject.bottom(spin_poset)
    assert (s & top) == s
    assert (s | bottom) == s
    assert s.leq(s | t)
    assert (s & t).leq(s)
    assert bottom.leq(s) and s.leq(top)


def test_heyting_unit_laws(spin_poset, basis_projs):
    p1, _, _ = basis_projs
    s = daseinise_projection(p1, spin_poset)
    top = ClopenSubobject.top(spin_poset)
    assert s.implies(s) == top
    assert ClopenSubobject.bottom(spin_poset).implies(s) == top
    assert top.implies(s) == s


def test_negation_worked(spin_poset):
    top = ClopenSubobject.top(spin_poset)
    bottom = ClopenSubobject.bottom(spin_poset)
    assert top.negation() == bottom
    assert bottom.negation() == top


def test_negation_not_boolean_on_spin_poset(spin_poset, basis_projs):
    # The daseinised middle projector violates excluded middle.
    _, p2, _ = basis_projs
    s = daseinise_projection(p2, spin_poset)
    lem = s | s.negation()
    assert not lem.is_top()
    # Still a sound Heyting complement: S meet not-S is empty.
    assert (s & s.negation()).is_bottom()


def test_adjunction_exhaustive_on_chain(eigen_context, basis_projs):
    p1, _, _ = basis_projs
    v_p1 = context_from_atoms([p1, p1.complement()])
    poset = build_poset([eigen_context, v_p1])
    subs = all_subobjects(poset)
    assert len(subs) == 15
    for s in subs:
        for t in subs:
            imp = s.implies(t)
            for r in subs:
                assert r.leq(imp) == (r & s).leq(t)


def test_distributivity_on_spin_poset(spin_poset, basis_projs):
    p1, p2, p3 = basis_projs
    xs = [
        daseinise_projection(p, spin_poset)
        for p in (p1, p2, p3, Projection(p1.matrix + p2.matrix))
    ]
    xs += [ClopenSubobject.top(spin_poset), ClopenSubobject.bottom(spin_poset)]
    for a in xs:
        for b in xs:
            for c in xs:
                assert (a & (b | c)) == ((a & b) | (a & c))
                assert (a | (b & c)) == ((a | b) & (a | c))


def test_operations_stay_restriction_closed(spin_poset):
    rng = rng_for(44)
    subs = []
    for _ in range(6):
        p = Projection.onto(
            rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )
        subs.append(daseinise_projection(p, spin_poset))
    for a in subs:
        for b in subs:
            for out in (a & b, a | b, a.implies(b), a.negation()):
                # Re-validate through the public constructor.
                ClopenSubobject(spin_poset, out.to_doc())


# ---------------------------------------------------------- global sections


def test_global_sections_single_context(eigen_context):
    poset = build_poset([eigen_context])
    secs = global_sections(poset)
    assert len(secs) == 3


def test_global_sections_chain(spin_poset):
    secs = global_sections(spin_poset)
    oracle = global_sections_oracle(spin_poset)
    assert len(secs) == len(oracle) == 3
    got = {tuple(sorted((k, v.index) for k, v in s.items())) for s in secs}
    want = {tuple(sorted(s.items())) for s in oracle}
    assert got == want


def test_global_sections_random_posets_match_oracle():
    rng = rng_for(45)
    posets = [
        random_poset(
            3,
            rng,
            n_seeds=2,
            close_coarsening=True,
            close_intersection=bool(trial % 2),
        )
        for trial in range(8)
    ]
    # The first three Peres bases: 6 contexts in C^4 that share subcontexts.
    peres_prefix = build_poset(peres_bases()[:3], close_intersection=True)
    assert len(peres_prefix) == 6
    assert len(global_sections(peres_prefix)) == 9
    for poset in posets + [peres_prefix]:
        secs = global_sections(poset)
        oracle = global_sections_oracle(poset)
        got = {
            tuple(sorted((k, v.index) for k, v in s.items())) for s in secs
        }
        want = {tuple(sorted(s.items())) for s in oracle}
        assert got == want


def test_global_sections_peres_set_has_none(monkeypatch):
    # Kochen-Specker: the Peres set admits no global value assignment.
    bases = peres_bases()
    assert len(bases) == 24
    built = []
    trusted = Context._trusted.__func__

    def counted(cls, atoms):
        built.append(len(atoms))
        return trusted(cls, atoms)

    # A meet is built on the unchecked path for derived contexts.
    monkeypatch.setattr(Context, "_trusted", classmethod(counted))
    poset = build_poset(bases, close_intersection=True)
    assert len(poset) == 93
    assert len(poset.strict_pairs()) == 312
    # The 546 nontrivial meets of a context with a seed have only 204
    # distinct (seed, blocks) keys, and only those build a Context.
    assert len(built) == 204
    assert global_sections(poset) == []


def test_global_sections_commuting_control():
    # One maximal context: a section is a choice of one of its 4 atoms.
    v = random_maximal_context(4, rng_for(46))
    poset = build_poset([v], close_coarsening=True)
    secs = global_sections(poset)
    assert len(secs) == 4
    assert sorted(s[v.id].index for s in secs) == [0, 1, 2, 3]
    for s in secs:
        assert set(s) == set(poset.signature)

"""Spectral order, operator daseinisation, filters, and the operator arrow.

delta-i/delta-o of operators are checked against a grid brute-force oracle:
every candidate sum(c_i * atom_i) with coefficients drawn from spec(A) is
ranked by the spectral order, and the implementation must return the extremum.
The filter route and the evaluate route compute the same Gel'fand transforms
through independent code paths, so each is used to pin the other.
"""

from __future__ import annotations

import inspect
import struct
from itertools import combinations, product

import numpy as np
import pytest

import toposq
import toposq.contexts
import toposq.operators
import toposq.presheaf
from conftest import SQ2, atom_index, peres_bases, rng_for
from toposq import (
    Context,
    ContextPoset,
    DimensionMismatchError,
    GelfandPoint,
    HermitianOperator,
    OperatorArrow,
    OrderPair,
    PosetMismatchError,
    PrincipalFilter,
    Projection,
    SpectralFamily,
    UnitVector,
    antonymous,
    build_poset,
    check_containment,
    cone,
    context_from_atoms,
    context_from_operator,
    eigenstructure,
    evaluate,
    filter_from_point,
    from_spectral_family,
    gelfand_transform_inner,
    gelfand_transform_outer,
    inner_operator,
    inner_projection,
    observable,
    operator_arrow,
    operator_norm,
    outer_operator,
    outer_projection,
    proj_leq,
    restrict,
    restriction_table,
    spectral_family,
    spectral_leq,
    spectrum,
)
from toposq.sampling import (
    haar_unitary,
    random_context,
    random_hermitian,
    random_maximal_context,
    random_poset,
    random_projection,
    random_unit_vector,
)


# ---------------------------------------------------------------- oracles


def grid_candidates(a: HermitianOperator, v: Context):
    """All members of the context with spectrum inside spec(A)."""
    values = eigenstructure(a).eigenvalues
    for coeffs in product(values, repeat=v.n_atoms):
        m = sum(c * atom.matrix for c, atom in zip(coeffs, v.atoms))
        yield HermitianOperator(m)


def inner_extremum_oracle(a: HermitianOperator, v: Context) -> HermitianOperator:
    """Spectral-order maximum of grid members lying at or below A."""
    below = [b for b in grid_candidates(a, v) if spectral_leq(b, a)]
    assert below, "min(spec(A)) * identity is always at or below A"
    tops = [
        b for b in below if all(spectral_leq(other, b) for other in below)
    ]
    assert tops, "the candidate set must contain its own maximum"
    return tops[0]


def outer_extremum_oracle(a: HermitianOperator, v: Context) -> HermitianOperator:
    above = [b for b in grid_candidates(a, v) if spectral_leq(a, b)]
    assert above
    bottoms = [
        b for b in above if all(spectral_leq(b, other) for other in above)
    ]
    assert bottoms
    return bottoms[0]


def closed_form_interval(a: HermitianOperator, q: Projection, tol: float = 1e-9):
    """[min, max] of A's eigenvalues whose eigenprojection P overlaps Q
    (||P Q|| > tol), with raw eigenvalues at most tol apart clustered to their
    mean; numpy only."""
    values, vectors = np.linalg.eigh(a.matrix)
    runs = [[0]]
    for k in range(1, len(values)):
        if values[k] - values[k - 1] > tol:
            runs.append([])
        runs[-1].append(k)
    hits = [
        float(np.mean(values[run]))
        for run in runs
        if np.linalg.norm(vectors[:, run] @ vectors[:, run].conj().T @ q.matrix, 2) > tol
    ]
    return min(hits), max(hits)


def v_p1_context() -> Context:
    p1 = Projection(np.diag([1.0, 0.0, 0.0]))
    return context_from_atoms([p1, p1.complement()])


# ----------------------------------------------------------- spectral order


def test_spectral_leq_reflexive_on_random():
    rng = rng_for(61)
    for _ in range(10):
        a = random_hermitian(3, rng)
        assert spectral_leq(a, a)


def test_spectral_leq_worked_diagonals():
    a = HermitianOperator(np.diag([0.0, 1.0]))
    b = HermitianOperator(np.diag([1.0, 2.0]))
    assert spectral_leq(a, b)
    assert not spectral_leq(b, a)


def test_spectral_order_on_projections_is_lattice_order():
    rng = rng_for(62)
    for _ in range(25):
        p = random_projection(3, rng)
        q = random_projection(3, rng)
        assert spectral_leq(p, q) == proj_leq(p, q)


def test_spectral_implies_linear_not_conversely():
    # Spectral comparability forces quadratic-form comparability...
    rng = rng_for(63)
    found_pair = 0
    for _ in range(200):
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        if not spectral_leq(a, b):
            continue
        found_pair += 1
        for _ in range(100):
            psi = random_unit_vector(2, rng).amplitudes
            qa = float(np.real(psi.conj() @ a.matrix @ psi))
            qb = float(np.real(psi.conj() @ b.matrix @ psi))
            assert qa <= qb + 1e-9
    assert found_pair > 0
    # ...but the linear order does not imply the spectral order.
    a = HermitianOperator(np.diag([1.0, 0.0]))
    b = HermitianOperator([[1.5, 0.5], [0.5, 0.5]])
    gap = np.linalg.eigvalsh(b.matrix - a.matrix)
    assert gap.min() > -1e-12  # b - a is positive semidefinite
    assert not spectral_leq(a, b)


def test_spectral_leq_antisymmetric():
    rng = rng_for(64)
    for _ in range(10):
        a = random_hermitian(3, rng)
        b = HermitianOperator(a.matrix.copy())
        assert spectral_leq(a, b) and spectral_leq(b, a)
        shifted = HermitianOperator(a.matrix + 0.5 * np.eye(3))
        assert spectral_leq(a, shifted)
        assert not spectral_leq(shifted, a)


# ---------------------------------------------- operator daseinisation


def test_member_is_fixed_point(sz, eigen_context):
    assert inner_operator(sz, eigen_context).isclose(sz)
    assert outer_operator(sz, eigen_context).isclose(sz)


def test_sz_daseinised_to_v_p1(sz):
    v = v_p1_context()
    inner = inner_operator(sz, v)
    outer = outer_operator(sz, v)
    assert operator_norm(inner.matrix - SQ2 * np.diag([1.0, -1.0, -1.0])) < 1e-9
    assert operator_norm(outer.matrix - SQ2 * np.diag([1.0, 0.0, 0.0])) < 1e-9
    # The same values must come out of the grid extremum oracle.
    assert inner_extremum_oracle(sz, v).isclose(inner, 1e-9)
    assert outer_extremum_oracle(sz, v).isclose(outer, 1e-9)


def test_daseinisation_matches_grid_oracle_random():
    rng = rng_for(65)
    for _ in range(25):
        a = random_hermitian(3, rng)
        v = random_context(3, rng)
        inner = inner_operator(a, v)
        outer = outer_operator(a, v)
        assert inner.isclose(inner_extremum_oracle(a, v), 1e-8)
        assert outer.isclose(outer_extremum_oracle(a, v), 1e-8)


def test_sandwich_and_spectrum_containment():
    rng = rng_for(66)
    for _ in range(25):
        a = random_hermitian(3, rng)
        v = random_context(3, rng)
        inner = inner_operator(a, v)
        outer = outer_operator(a, v)
        assert spectral_leq(inner, a)
        assert spectral_leq(a, outer)
        spec_a = np.array(eigenstructure(a).eigenvalues)
        for b in (inner, outer):
            for value in eigenstructure(b).eigenvalues:
                assert np.min(np.abs(spec_a - value)) < 1e-7


def test_operator_daseinisation_coarse_graining():
    rng = rng_for(67)
    for _ in range(8):
        poset = random_poset(3, rng, n_seeds=1, close_coarsening=True)
        a = random_hermitian(3, rng)
        for sub_id, sup_id in poset.strict_pairs():
            sup, sub = poset.get(sup_id), poset.get(sub_id)
            assert spectral_leq(inner_operator(a, sub), inner_operator(a, sup))
            assert spectral_leq(outer_operator(a, sup), outer_operator(a, sub))


def test_on_projections_both_routes_agree():
    rng = rng_for(68)
    for _ in range(20):
        p = random_projection(3, rng)
        v = random_context(3, rng)
        assert inner_operator(p, v).isclose(
            HermitianOperator(inner_projection(p, v).matrix), 1e-7
        )
        assert outer_operator(p, v).isclose(
            HermitianOperator(outer_projection(p, v).matrix), 1e-7
        )


# ----------------------------------------------------- filters and cones


def test_filter_from_point_and_cone(eigen_context):
    pt = GelfandPoint(eigen_context, 1)
    f = filter_from_point(pt)
    assert f.generator.isclose(eigen_context.atom(1))
    assert not f.is_ambient
    lifted = cone(f)
    assert lifted.is_ambient
    assert lifted.generator.isclose(f.generator)
    # Ambient membership is pure domination.
    assert lifted.contains(Projection.identity(3))
    assert not lifted.contains(Projection.zero(3))


def test_filter_injectivity_per_context(eigen_context):
    gens = [filter_from_point(pt).generator for pt in spectrum(eigen_context)]
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            assert not g.isclose(h)


def test_filter_rejects_zero_generator():
    with pytest.raises(ValueError):
        PrincipalFilter(Projection.zero(3))
    # Zero within tolerance: a valid projection of rank 0, but not a generator.
    with pytest.raises(ValueError):
        PrincipalFilter(Projection(1e-12 * np.eye(3)))


def test_context_filter_membership_stays_in_lattice(eigen_context):
    f = PrincipalFilter(eigen_context.atom(0), eigen_context)
    tilted = Projection.onto(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
    assert not f.contains(tilted)  # dominates nothing in this lattice


def test_inner_preimage_lemma(eigen_context):
    # Membership of the inner approximation in a context filter is the same
    # as membership of the original projection in the lifted ambient filter.
    rng = rng_for(69)
    lattice = [
        eigen_context.sum_of_atoms(idx)
        for r in range(1, 4)
        for idx in combinations(range(3), r)
    ]
    probes = lattice + [random_projection(3, rng) for _ in range(100)]
    for gen in lattice:
        f = PrincipalFilter(gen, eigen_context)
        lifted = cone(f)
        for q in probes:
            inner = inner_projection(q, eigen_context)
            assert f.contains(inner) == lifted.contains(q)


# -------------------------------------- antonymous / observable functions


def test_antonymous_observable_worked_values(sz, eigen_context, basis_projs):
    p1, p2, _ = basis_projs
    f2 = PrincipalFilter(p2, eigen_context)
    assert antonymous(sz, f2) == pytest.approx(0.0, abs=1e-12)
    assert observable(sz, f2) == pytest.approx(0.0, abs=1e-12)
    one = PrincipalFilter(Projection.identity(3))
    assert antonymous(sz, one) == pytest.approx(-SQ2)
    assert observable(sz, one) == pytest.approx(SQ2)


def test_observable_generic_generator_hits_max():
    a = HermitianOperator(np.diag([1.0, 1.0, 0.0]))
    tilted = Projection.onto(np.array([1.0, 0.0, 1.0]) / np.sqrt(2))
    f = PrincipalFilter(tilted)
    # Not under either eigenprojection, so only the last step dominates it.
    assert observable(a, f) == pytest.approx(1.0)
    assert antonymous(a, f) == pytest.approx(0.0)


def test_prop_identities_filter_vs_daseinisation():
    rng = rng_for(70)
    for _ in range(40):
        a = random_hermitian(3, rng)
        v = random_context(3, rng)
        k = int(rng.integers(1, v.n_atoms + 1))
        idx = sorted(rng.choice(v.n_atoms, size=k, replace=False).tolist())
        f = PrincipalFilter(v.sum_of_atoms(idx), v)
        lifted = cone(f)
        assert antonymous(inner_operator(a, v), f) == pytest.approx(
            antonymous(a, lifted), abs=1e-9
        )
        assert observable(outer_operator(a, v), f) == pytest.approx(
            observable(a, lifted), abs=1e-9
        )


def test_gelfand_transforms_worked(sz, basis_projs):
    p1, _, _ = basis_projs
    v = v_p1_context()
    lam2 = GelfandPoint(v, atom_index(v, p1.complement()))
    assert gelfand_transform_inner(sz, lam2) == pytest.approx(-SQ2)
    assert gelfand_transform_outer(sz, lam2) == pytest.approx(0.0, abs=1e-12)


def routes_inputs(dim: int, v: Context, rng: np.random.Generator):
    """A random operator, a projection, a member of v with a repeated
    coefficient when v has more than two atoms, and an operator with a
    repeated eigenvalue in the span of another maximal context."""
    yield random_hermitian(dim, rng)
    yield random_projection(dim, rng)
    coeffs = rng.standard_normal(v.n_atoms)
    if v.n_atoms > 2:
        coeffs[1] = coeffs[0]
    yield HermitianOperator(sum(c * q.matrix for c, q in zip(coeffs, v.atoms)))
    u = random_maximal_context(dim, rng)
    values = rng.standard_normal(dim)
    values[-1] = values[0]
    yield HermitianOperator(sum(c * q.matrix for c, q in zip(values, u.atoms)))


def test_gelfand_transform_routes_agree():
    """The closed-form daseinised operators against the spectral-family
    filter scans, at every character of every context."""
    checked = 0
    for dim in range(2, 7):
        rng = rng_for(71, dim)
        for _ in range(8):
            v = random_context(dim, rng)
            for a in routes_inputs(dim, v, rng):
                inner = inner_operator(a, v)
                outer = outer_operator(a, v)
                for pt in spectrum(v):
                    lo = gelfand_transform_inner(a, pt)
                    hi = gelfand_transform_outer(a, pt)
                    assert lo == pytest.approx(evaluate(pt, inner), abs=1e-9)
                    assert hi == pytest.approx(evaluate(pt, outer), abs=1e-9)
                    assert lo <= hi + 1e-12
                    checked += 1
    assert checked > 400


def spectral_step_route(a: HermitianOperator, v: Context, approximate) -> HermitianOperator:
    """The definition: map every spectral step of A through a projection
    approximation to v, drop the steps that collapse, and reassemble."""
    family = spectral_family(a)
    thresholds, steps, prev = [], [], Projection.zero(a.dim)
    for t, step in zip(family.thresholds, family.steps):
        mapped = approximate(step, v)
        if not mapped.isclose(prev):
            thresholds.append(t)
            steps.append(mapped)
            prev = mapped
    return from_spectral_family(SpectralFamily(thresholds, steps))


def test_daseinised_operators_equal_the_spectral_step_route_exactly():
    """Same floats, not only close ones: value subobjects dedupe pairs by
    exact equality, so a last-bit change would change their size."""
    for dim in range(2, 7):
        rng = rng_for(77, dim)
        for _ in range(6):
            v = random_context(dim, rng)
            for a in routes_inputs(dim, v, rng):
                want_inner = spectral_step_route(a, v, outer_projection).matrix
                want_outer = spectral_step_route(a, v, inner_projection).matrix
                assert np.array_equal(inner_operator(a, v).matrix, want_inner)
                assert np.array_equal(outer_operator(a, v).matrix, want_outer)


def test_daseinised_operators_reject_dimension_mismatch():
    v = random_context(3, rng_for(74))
    a = random_hermitian(4, rng_for(75))
    for daseinise in (inner_operator, outer_operator):
        with pytest.raises(DimensionMismatchError):
            daseinise(a, v)


def test_daseinised_operators_skip_the_spectral_family(monkeypatch):
    """The closed form reads one eigenstructure; the spectral family stays
    with the filter scans."""
    def refuse(*args, **kwargs):
        raise AssertionError("spectral_family called")

    rng = rng_for(76)
    a, v = random_hermitian(3, rng), random_context(3, rng)
    want = (inner_operator(a, v), outer_operator(a, v))
    monkeypatch.setattr(toposq.operators, "spectral_family", refuse)
    assert inner_operator(a, v).isclose(want[0], 1e-12)
    assert outer_operator(a, v).isclose(want[1], 1e-12)
    with pytest.raises(AssertionError):
        spectral_leq(a, a)


def test_member_transforms_collapse(sz, eigen_context):
    for pt in spectrum(eigen_context):
        both = (
            gelfand_transform_inner(sz, pt),
            gelfand_transform_outer(sz, pt),
        )
        assert both[0] == pytest.approx(evaluate(pt, sz), abs=1e-12)
        assert both[1] == pytest.approx(evaluate(pt, sz), abs=1e-12)


# ------------------------------------------------------- the operator arrow


def test_arrow_worked_values(sz, spin_poset, eigen_context, basis_projs):
    p1, p2, _ = basis_projs
    arrow = operator_arrow(sz, spin_poset)
    i2 = atom_index(eigen_context, p2)
    pair = arrow.pair(eigen_context, i2)
    assert pair.mu(eigen_context.id) == pytest.approx(0.0, abs=1e-12)
    assert pair.nu(eigen_context.id) == pytest.approx(0.0, abs=1e-12)
    v_p1 = v_p1_context()
    lo, hi = pair.interval(v_p1.id)
    assert lo == pytest.approx(-SQ2)
    assert hi == pytest.approx(0.0, abs=1e-12)


def test_arrow_pair_domain_is_down_set(sz, spin_poset, eigen_context):
    arrow = operator_arrow(sz, spin_poset)
    pair = arrow.pair(eigen_context, 0)
    assert set(pair.domain) == {c.id for c in spin_poset.down_set(eigen_context)}
    two_atom = next(c for c in spin_poset if c.n_atoms == 2)
    pair2 = arrow.pair(two_atom, 0)
    assert set(pair2.domain) == {two_atom.id}


def test_arrow_pair_checks_the_point_index(sz, spin_poset, eigen_context):
    # Like every other atom index: a negative index does not wrap round, a
    # bool is not point 1, and a float is not a bare TypeError.
    arrow = operator_arrow(sz, spin_poset)
    assert arrow.pair(eigen_context, np.int64(2)) == arrow.pairs(eigen_context)[2]
    for bad in (-1, 3, True, 1.0):
        with pytest.raises(ValueError, match="not an integer in"):
            arrow.pair(eigen_context, bad)


def test_arrow_constructor_checks_its_triples(sz, spin_poset, eigen_context):
    # A public constructor: a member without a component, a component with
    # the wrong number of points, or an interval OrderPair would reject, is
    # refused; a non-member is a KeyError on access.
    arrow = operator_arrow(sz, spin_poset)
    triples = {v.id: [(v.id, *pair.interval(v.id)) for pair in arrow.pairs(v)] for v in spin_poset}
    rebuilt = OperatorArrow(spin_poset, triples)
    assert [rebuilt.pairs(v) for v in spin_poset] == [arrow.pairs(v) for v in spin_poset]
    cid = eigen_context.id
    for rigged, error in (
        ({k: t for k, t in triples.items() if k != cid}, PosetMismatchError),
        ({**triples, cid: triples[cid][:2]}, ValueError),
        ({**triples, cid: [(cid, 1.0, 0.0)] + triples[cid][1:]}, ValueError),
        ({**triples, cid: [(cid, float("nan"), 0.0)] + triples[cid][1:]}, ValueError),
    ):
        with pytest.raises(error):
            OperatorArrow(spin_poset, rigged)
    ray = Projection.onto(np.array([1.0, 1.0, 0.0]))
    outside = context_from_atoms([ray, ray.complement()])
    with pytest.raises(KeyError, match="not a member"):
        arrow.pairs(outside)
    with pytest.raises(KeyError, match="not a member"):
        arrow.pair(outside.id, 0)


def test_arrow_monotonicity_and_spec_membership():
    rng = rng_for(72)
    for _ in range(8):
        poset = random_poset(3, rng, n_seeds=1, close_coarsening=True)
        a = random_hermitian(3, rng)
        spec_a = np.array(eigenstructure(a).eigenvalues)
        arrow = operator_arrow(a, poset)
        for v in poset:
            for pt in spectrum(v):
                pair = arrow.pair(v, pt.index)
                for cid, lo, hi in pair.intervals():
                    assert lo <= hi + 1e-12
                    assert np.min(np.abs(spec_a - lo)) < 1e-7
                    assert np.min(np.abs(spec_a - hi)) < 1e-7
                for sub_id in pair.domain:
                    for sup_id in pair.domain:
                        if sub_id != sup_id and poset.leq(sub_id, sup_id):
                            assert pair.mu(sub_id) <= pair.mu(sup_id) + 1e-12
                            assert pair.nu(sub_id) >= pair.nu(sup_id) - 1e-12


def test_arrow_matches_closed_form(sz, spin_poset):
    # Every interval of pair(v, i) at w is [min, max] of the eigenvalues whose
    # eigenspaces overlap the atom of w that point i restricts to.
    rng = rng_for(75)
    cases = [(sz, spin_poset)]
    for dim in (3, 4, 5):
        v = random_maximal_context(dim, rng)
        poset = build_poset([v], close_coarsening=True)
        repeated = rng.standard_normal(dim)
        repeated[1] = repeated[0]
        in_span = HermitianOperator(sum(x * atom.matrix for x, atom in zip(repeated, v.atoms)))
        cases += [(in_span, poset), (random_hermitian(dim, rng), poset)]
    for trial in range(6):
        poset = random_poset(3 + trial % 2, rng)
        cases.append((random_hermitian(poset.dim, rng), poset))
    checked = 0
    for a, poset in cases:
        arrow = operator_arrow(a, poset)
        for v in poset:
            for i in range(v.n_atoms):
                for w_id, lo, hi in arrow.pair(v, i).intervals():
                    q = poset.get(w_id).atom(poset.restriction_index(v, w_id, i))
                    want = closed_form_interval(a, q)
                    assert lo == pytest.approx(want[0], abs=1e-12)
                    assert hi == pytest.approx(want[1], abs=1e-12)
                    checked += 1
    assert checked > 1000


def test_arrow_takes_one_eigenstructure(monkeypatch, sz, spin_poset):
    calls = []

    def counting(a, tol=None):
        calls.append(a)
        return eigenstructure(a, tol)

    monkeypatch.setattr(toposq.operators, "eigenstructure", counting)
    poset = build_poset([random_maximal_context(4, rng_for(78))], close_coarsening=True)
    for a, p in ((sz, spin_poset), (random_hermitian(4, rng_for(79)), poset)):
        calls.clear()
        operator_arrow(a, p)
        assert calls == [a]


def test_arrow_runs_batched_kernels_not_per_context_reads(monkeypatch):
    """An arrow reads no coefficients through coefficients_in_span and
    restricts, evaluates and decides no pair; its eigh and SVD calls do not
    grow from a dim-4 to a dim-5 closure (14 and 51 contexts), on a first or
    a second arrow over the same poset; and the poset's construction calls
    no restriction_table."""
    calls = dict.fromkeys(
        ("restriction_table", "restrict", "evaluate", "coefficients_in_span",
         "eigh", "svd"), 0
    )

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("restriction_table", "restrict", "evaluate"):
        for module in (toposq.contexts, toposq.presheaf, toposq.operators, toposq):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    span = Context.coefficients_in_span
    monkeypatch.setattr(Context, "coefficients_in_span", counting("coefficients_in_span", span))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    # np.linalg.norm(x, 2), behind operator_norm, calls the svd of its own module.
    norm_globals = inspect.unwrap(np.linalg.norm).__globals__
    monkeypatch.setitem(norm_globals, "svd", counting("svd", norm_globals["svd"]))
    operator_norm(np.eye(2))
    assert calls["svd"] == 1
    kernels = {}
    for dim in (4, 5):
        poset = build_poset([random_maximal_context(dim, rng_for(81, dim))], close_coarsening=True)
        a = random_hermitian(dim, rng_for(82, dim))
        for arrow_number in (1, 2):
            calls.update(dict.fromkeys(calls, 0))
            operator_arrow(a, poset)
            kernels[dim, arrow_number] = (calls["eigh"], calls["svd"])
            assert calls == {
                "restriction_table": 0, "restrict": 0, "evaluate": 0, "coefficients_in_span": 0,
                "eigh": calls["eigh"], "svd": calls["svd"],
            }
    assert kernels[4, 1] == kernels[5, 1] == kernels[4, 2] == kernels[5, 2]
    assert kernels[4, 1][0] == 2  # A's eigenstructure and the batched snap
    calls["restriction_table"] = 0
    ContextPoset(poset.contexts)
    assert calls["restriction_table"] == 0


def test_arrow_pairs_share_one_triple_per_point(sz, spin_poset):
    # Every pair of v reads its intervals from the triples of the points of
    # the members below v, so the distinct triple objects number the points.
    poset = build_poset([random_maximal_context(5, rng_for(83))], close_coarsening=True)
    for a, p in ((sz, spin_poset), (random_hermitian(5, rng_for(84)), poset)):
        arrow = operator_arrow(a, p)
        triples = {id(item) for v in p for pair in arrow.pairs(v) for item in pair.intervals()}
        assert len(triples) == sum(v.n_atoms for v in p)


def test_order_pair_lookup_by_id():
    # Lookups bisect the sorted domain; an id outside it, or not a string,
    # raises KeyError naming it.
    pair = OrderPair({"b": 1.0, "a": 0.0, "d": 3.0}, {"b": 1.5, "a": 0.5, "d": 3.5})
    assert pair.domain == ("a", "b", "d")
    assert [pair.mu(cid) for cid in "abd"] == [0.0, 1.0, 3.0]
    assert [pair.nu(cid) for cid in "abd"] == [0.5, 1.5, 3.5]
    assert pair.interval("d") == (3.0, 3.5)
    for unknown in ("", "c", "e", "0", None, 1):
        for lookup in (pair.mu, pair.nu, pair.interval):
            with pytest.raises(KeyError) as info:
                lookup(unknown)
            assert info.value.args == (unknown,)


def _interval_bytes(intervals) -> bytes:
    """The (id, mu, nu) triples as bytes: -0.0 and 0.0 differ, as in round12."""
    return b"".join(cid.encode() + struct.pack("<dd", lo, hi) for cid, lo, hi in intervals)


def test_arrow_equals_the_public_route_exactly(sz, spin_poset):
    """The arrow's batched kernels give, byte for byte, the floats of
    inner_operator, outer_operator, restrict and evaluate called one by one:
    on coarsening closures at dims 3-6, the intersection closure of Peres'
    24 bases in C^4, and an operator of norm 1e7, whose span residuals pass
    only under the scaled bound tol * max(1, max |c_i|)."""
    rng = rng_for(80)
    cases = [(sz, spin_poset)]
    for dim in (3, 4, 5, 6):
        v = random_maximal_context(dim, rng)
        poset = build_poset([v], close_coarsening=True)
        repeated = rng.standard_normal(dim)
        repeated[1] = repeated[0]
        in_span = HermitianOperator(sum(x * atom.matrix for x, atom in zip(repeated, v.atoms)))
        cases += [(in_span, poset), (random_hermitian(dim, rng), poset)]
    raw = random_hermitian(4, rng).matrix
    cases.append((HermitianOperator(raw * (1e7 / operator_norm(raw))), cases[4][1]))
    cases.append((random_hermitian(4, rng), build_poset(peres_bases(), close_intersection=True)))
    assert [len(poset) for _, poset in cases[-4:]] == [202, 202, 14, 93]
    for a, poset in cases:
        arrow = operator_arrow(a, poset)
        triples = {}
        for w in poset:
            inner, outer = inner_operator(a, w), outer_operator(a, w)
            triples[w.id] = [(w.id, evaluate(p, inner), evaluate(p, outer)) for p in spectrum(w)]
        for v in poset:
            # restrict(point, w) is the point of w that restriction_table(w, v)
            # names; the table is read once per pair here, to keep dim 6 fast.
            tables = {w.id: restriction_table(w, v) for w in poset.down_set(v)}
            for point in spectrum(v):
                want = [triples[w][table[point.index]] for w, table in tables.items()]
                got = arrow.pair(v, point.index).intervals()
                assert _interval_bytes(got) == _interval_bytes(want)


def test_dim7_coarsening_closure_known_answer():
    """The coarsening closure of a maximal context in C^7 has Bell(7) - 1 =
    876 contexts and A000258(7) - 2 Bell(7) + 1 = 19,302 - 1,754 + 1 =
    17,549 strict pairs (refinement pairs of the set partitions of 7, the
    one-block partition and the diagonal left out). For an operator that
    mixes the basis pairs (0, 1) and (2, 3) of the context and fixes the
    other three rays, every interval of its arrow is a closed form in numpy,
    and a state in the span of rays 0 and 1 violates no containment."""
    dim = 7
    basis = haar_unitary(dim, rng_for(87))
    top = context_from_atoms([Projection.onto(basis[:, i]) for i in range(dim)])
    poset = build_poset([top], close_coarsening=True)
    assert len(poset) == 876
    assert len(poset.strict_pairs()) == 17_549
    # A = U F diag(lam) F* U*, F unitary and block-diagonal: eigenvector k has
    # coordinates F[:, k] in the rays of the context, exact zeros included.
    lam = np.array([-2.0, 1.5, -0.5, 3.0, 0.25, -1.25, 2.0])
    f = np.eye(dim, dtype=complex)
    for i, angle, phase in ((0, 0.6, 0.3), (2, 1.1, -0.8)):
        c, s = np.cos(angle), np.sin(angle) * np.exp(1j * phase)
        f[i:i + 2, i:i + 2] = [[c, -np.conj(s)], [s, c]]
    a = HermitianOperator(basis @ f @ np.diag(lam) @ f.conj().T @ basis.conj().T)
    # An atom summing rays B overlaps eigenprojection k iff F[B, k] != 0, so
    # its inner and outer values are the least and greatest such lam[k].
    owner, closed = {}, {}
    for w in poset:
        weights = np.array([np.diag(basis.conj().T @ q.matrix @ basis).real for q in w.atoms])
        owner[w.id] = weights.argmax(0)
        levels = [lam[(f[weights[r] > 0.5] != 0).any(0)] for r in range(w.n_atoms)]
        closed[w.id] = [(x.min(), x.max()) for x in levels]
    got, want = [], []
    arrow = operator_arrow(a, poset)
    for v in poset:
        pairs = arrow.pairs(v)
        assert len(pairs) == v.n_atoms
        # A ray of each atom of v; its owner in w is the point it restricts to.
        rays = [owner[v.id].tolist().index(r) for r in range(v.n_atoms)]
        for ray, pair in zip(rays, pairs):
            for w, lo, hi in pair.intervals():
                got.append((lo, hi))
                want.append(closed[w][owner[w][ray]])
    # One interval per point of v and member below it: the sum over k of
    # S(7, k) k (Bell(k) - 1), S the Stirling numbers of the second kind.
    assert len(got) == 90_622
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    psi = UnitVector(basis @ np.array([0.8, 0.6j, 0, 0, 0, 0, 0]))
    report = check_containment(psi, a, poset)
    # One row per context that joins rays 0 and 1 (Bell(6) - 1 = 202), two
    # per other context.
    assert len(report.rows) == 202 + 2 * 674
    assert report.violations == ()
    assert report.ok


def test_batched_span_check_decides_at_the_scaled_bound(monkeypatch):
    """A residual rigged into one context's outer approximation just above
    tol * max(1, max |c_i|) makes the batched span check raise
    NotInContextError, and one just below does not; coefficients_in_span
    decides the same on the same matrix."""
    rng = rng_for(85)
    v = random_maximal_context(4, rng)
    poset = build_poset([v], close_coarsening=True)
    a = HermitianOperator(sum(x * atom.matrix for x, atom in zip([-700.0, 3.0, 40.0, 900.0], v.atoms)))
    target = 5
    w = poset.contexts[target]
    outer = outer_operator(a, w)
    bound = 1e-9 * max(1.0, float(np.max(np.abs(w.coefficients_in_span(outer)))))
    assert bound == pytest.approx(9e-7)
    # X couples two atoms of w: every trace(Q_i X) vanishes, so the
    # coefficients stay, and ||X|| = 1 with ||X||_F = sqrt(2): the residual
    # lies in norm_exceeds's SVD band.
    u0, u1 = (np.linalg.eigh(atom.matrix)[1][:, -1] for atom in w.atoms[:2])
    off = np.outer(u0, u1.conj()) + np.outer(u1, u0.conj())
    approximations = toposq.operators._approximations
    for factor, raises in ((1.0 + 1e-4, True), (1.0 - 1e-4, False)):
        rigged = {}

        def rig(*args):
            stack = approximations(*args)
            stack[target, 1] += factor * bound * off
            rigged["matrix"] = stack[target, 1].copy()
            return stack

        monkeypatch.setattr(toposq.operators, "_approximations", rig)
        if raises:
            with pytest.raises(toposq.NotInContextError):
                operator_arrow(a, poset)
        else:
            operator_arrow(a, poset)
        coefficients = w.coefficients_in_span(HermitianOperator(rigged["matrix"]))
        assert (coefficients is None) == raises


def test_arrow_naturality_explicit(sz, spin_poset):
    arrow = operator_arrow(sz, spin_poset)
    for sub_id, sup_id in spin_poset.strict_pairs():
        sup, sub = spin_poset.get(sup_id), spin_poset.get(sub_id)
        for pt in spectrum(sup):
            whole = arrow.pair(sup, pt.index)
            restricted = arrow.pair(sub, restrict(pt, sub).index)
            for cid in restricted.domain:
                assert whole.mu(cid) == pytest.approx(
                    restricted.mu(cid), abs=1e-12
                )
                assert whole.nu(cid) == pytest.approx(
                    restricted.nu(cid), abs=1e-12
                )


def test_eigenvector_point_gives_degenerate_interval():
    rng = rng_for(73)
    for _ in range(10):
        a = random_hermitian(3, rng)
        v = context_from_operator(a)
        poset = build_poset([v], close_coarsening=True)
        arrow = operator_arrow(a, poset)
        es = eigenstructure(a)
        for value, proj in zip(es.eigenvalues, es.projections):
            pt_index = atom_index(v, proj)
            pair = arrow.pair(v, pt_index)
            lo, hi = pair.interval(v.id)
            assert lo == pytest.approx(value, abs=1e-9)
            assert hi == pytest.approx(value, abs=1e-9)
    # A degenerate interval may have mu above nu by rounding, up to 1e-12.
    assert OrderPair({"v": 0.9e-12}, {"v": 0.0}).interval("v") == (0.9e-12, 0.0)
    with pytest.raises(ValueError):
        OrderPair({"v": 1.1e-12}, {"v": 0.0})
    # NaN compares False against the slack, and an infinite pair is ordered;
    # both are rejected by name.
    with pytest.raises(ValueError, match="non-finite bound at context v"):
        OrderPair({"v": float("nan")}, {"v": 0.0})
    with pytest.raises(ValueError, match="non-finite bound at context v"):
        OrderPair({"v": -float("inf")}, {"v": float("inf")})


@pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
def test_operator_arrow_at_large_operator_norms(scale):
    # The span residual of a daseinised operator grows with its coefficients;
    # against a fixed 1e-9 it failed in 8 of 20 such draws at norm 1e6.
    rng = rng_for(64, int(np.log10(scale)))
    for _ in range(20):
        poset = random_poset(3, rng, close_coarsening=True)
        raw = random_hermitian(3, rng).matrix
        a = HermitianOperator(raw * (scale / operator_norm(raw)))
        arrow = operator_arrow(a, poset)
        values = eigenstructure(a).eigenvalues
        for v in poset:
            for pair in arrow.pairs(v):
                lo, hi = pair.interval(v.id)
                assert values[0] - 1e-6 * scale <= lo <= hi <= values[-1] + 1e-6 * scale


@pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
def test_spectral_order_of_daseinisations_at_large_operator_norms(scale):
    # The thresholds of A and of its daseinisations differ by rounding that
    # grows with ||A||; merged at a fixed 1e-9 they gave a violation of
    # inner <=s A <=s outer in about half of such draws from 1e7 on.
    rng = rng_for(65, int(np.log10(scale)))
    for _ in range(20):
        raw = random_hermitian(3, rng).matrix
        a = HermitianOperator(raw * (scale / operator_norm(raw)))
        v = random_context(3, rng)
        assert spectral_leq(a, a)
        assert spectral_leq(inner_operator(a, v), a)
        assert spectral_leq(a, outer_operator(a, v))

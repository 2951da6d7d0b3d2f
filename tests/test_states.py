"""Unit vectors, pseudo-states, value subobjects, containment reports."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import SQ2, atom_index, rng_for
from toposq import (
    DimensionMismatchError,
    HermitianOperator,
    NotNormalizedError,
    PosetMismatchError,
    Projection,
    UnitVector,
    build_poset,
    check_containment,
    context_from_atoms,
    context_from_operator,
    containment_report,
    expectation,
    operator_arrow,
    pseudo_state,
    value,
)
from toposq.sampling import random_hermitian, random_poset, random_unit_vector


def test_unit_vector_validation():
    with pytest.raises(NotNormalizedError):
        UnitVector([1.0, 1.0])
    psi = UnitVector.basis(3, 1)
    assert psi.dim == 3
    assert psi.projector().isclose(Projection(np.diag([0.0, 1.0, 0.0])))


@pytest.mark.parametrize("k", [-1, 3, True, 1.5])
def test_unit_vector_basis_rejects_bad_index(k):
    with pytest.raises(ValueError, match="not an integer in"):
        UnitVector.basis(3, k)


@pytest.mark.parametrize("dim", [True, 2.5, 0, -1])
def test_unit_vector_basis_rejects_bad_dimension(dim):
    # Named as the dimension, not as numpy's shape error or the index's.
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        UnitVector.basis(dim, 0)


def test_unit_vector_rejects_nan():
    with pytest.raises(NotNormalizedError):
        UnitVector([np.nan, 0.0, 0.0])


def test_unit_vector_rejects_non_numeric_amplitude():
    with pytest.raises(NotNormalizedError, match="not a flat array of numbers.*malformed string"):
        UnitVector([1, "a"])


def test_unit_vector_accepts_phases():
    psi = UnitVector(np.array([1j, 0.0]) )
    assert psi.projector().isclose(Projection(np.diag([1.0, 0.0])))


# ------------------------------------------------------------ pseudo-state


def test_pseudo_state_components_on_spin_poset(
    spin_poset, eigen_context, basis_projs
):
    _, p2, _ = basis_projs
    psi = UnitVector.basis(3, 1)
    w = pseudo_state(psi, spin_poset)
    assert w.component(eigen_context) == frozenset(
        {atom_index(eigen_context, p2)}
    )
    for ctx in spin_poset:
        comp = w.component(ctx)
        assert len(comp) == 1
        (j,) = comp
        assert ctx.atom(j).matrix[1, 1].real > 0.5  # the atom covers e2


def test_pseudo_state_never_bottom():
    rng = rng_for(81)
    for _ in range(10):
        poset = random_poset(3, rng, n_seeds=2, close_coarsening=True)
        psi = random_unit_vector(3, rng)
        assert not pseudo_state(psi, poset).is_bottom()


def test_pseudo_state_singleton_characterization(basis_projs):
    # Components are singletons exactly where one atom dominates the state
    # projector. Containing the projector is sufficient but not necessary:
    # a context whose rank-2 atom covers psi has a singleton component too.
    p1, p2, p3 = basis_projs
    psi = UnitVector.basis(3, 1)
    p_psi = psi.projector()
    own = context_from_atoms([p2, p2.complement()])
    covering = context_from_atoms([Projection(p1.matrix + p2.matrix), p3])
    generic = context_from_atoms(
        [
            Projection.onto(np.array([1.0, 1.0, 0.0]) / np.sqrt(2)),
            Projection.onto(np.array([1.0, -1.0, 0.0]) / np.sqrt(2)),
            p3,
        ]
    )
    poset = build_poset([own, covering, generic])
    w = pseudo_state(psi, poset)
    for ctx in (own, covering):
        assert len(w.component(ctx)) == 1
        dominates = [
            i
            for i in range(ctx.n_atoms)
            if np.allclose(ctx.atom(i).matrix @ p_psi.matrix, p_psi.matrix)
        ]
        assert len(dominates) == 1
    assert own.contains_projection(p_psi)
    assert not covering.contains_projection(p_psi)  # singleton without membership
    assert len(w.component(generic)) == 2  # e2 overlaps both tilted atoms


# ------------------------------------------------------------------ value


def test_value_worked_pairs(sz, spin_poset, eigen_context, basis_projs):
    p1, p2, _ = basis_projs
    arrow = operator_arrow(sz, spin_poset)
    w = pseudo_state(UnitVector.basis(3, 1), spin_poset)
    val = value(arrow, w)
    pairs = val.component(eigen_context)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.mu(eigen_context.id) == pytest.approx(0.0, abs=1e-12)
    assert pair.nu(eigen_context.id) == pytest.approx(0.0, abs=1e-12)
    v_p1 = context_from_atoms([p1, p1.complement()])
    lo, hi = pair.interval(v_p1.id)
    assert lo == pytest.approx(-SQ2)
    assert hi == pytest.approx(0.0, abs=1e-12)


def test_value_on_top_subobject(sz, spin_poset, eigen_context):
    from toposq import ClopenSubobject

    arrow = operator_arrow(sz, spin_poset)
    val = value(arrow, ClopenSubobject.top(spin_poset))
    # Every point of the top context contributes its pair.
    assert len(val.component(eigen_context)) == 3


def test_value_requires_same_poset(sz, spin_poset, eigen_context):
    other = build_poset([eigen_context])
    arrow = operator_arrow(sz, other)
    psi = UnitVector.basis(3, 1)
    w = pseudo_state(psi, spin_poset)
    for apply in (value, lambda arr, st: containment_report(arr, st, psi, sz)):
        with pytest.raises(PosetMismatchError):
            apply(arrow, w)


def test_value_nonempty_where_state_nonempty(sz):
    rng = rng_for(82)
    for _ in range(5):
        poset = random_poset(3, rng, n_seeds=2, close_coarsening=True)
        a = random_hermitian(3, rng)
        psi = random_unit_vector(3, rng)
        arrow = operator_arrow(a, poset)
        w = pseudo_state(psi, poset)
        val = value(arrow, w)
        for ctx in poset:
            assert bool(w.component(ctx)) == bool(val.component(ctx))


# ------------------------------------------------------------- expectation


def test_expectation_worked_values(sz):
    assert expectation(UnitVector.basis(3, 0), sz) == pytest.approx(SQ2)
    mixed = UnitVector(np.array([1.0, 0.0, 1.0]) / np.sqrt(2))
    assert expectation(mixed, sz) == pytest.approx(0.0, abs=1e-12)
    rng = rng_for(83)
    a = random_hermitian(3, rng)
    w, vecs = np.linalg.eigh(a.matrix)
    assert expectation(UnitVector(vecs[:, 0]), a) == pytest.approx(w[0])


def test_expectation_dim_mismatch(sz):
    with pytest.raises(DimensionMismatchError):
        expectation(UnitVector([1.0, 0.0]), sz)


def test_expectation_within_spectrum_bounds():
    rng = rng_for(84)
    for _ in range(20):
        a = random_hermitian(4, rng)
        psi = random_unit_vector(4, rng)
        w = np.linalg.eigvalsh(a.matrix)
        e = expectation(psi, a)
        assert w[0] - 1e-12 <= e <= w[-1] + 1e-12


# ------------------------------------------------------------- containment


def test_containment_spin_example(sz, spin_poset):
    report = check_containment(UnitVector.basis(3, 1), sz, spin_poset)
    assert report.ok
    assert report.expectation == pytest.approx(0.0, abs=1e-12)
    assert report.violations == ()
    for row in report.rows:
        for _, lo, hi in row.intervals:
            assert lo - 1e-9 <= 0.0 <= hi + 1e-9


def test_containment_eigenstate_single_context():
    rng = rng_for(85)
    a = random_hermitian(3, rng)
    v = context_from_operator(a)
    poset = build_poset([v])
    w, vecs = np.linalg.eigh(a.matrix)
    for k in range(3):
        report = check_containment(UnitVector(vecs[:, k]), a, poset)
        assert report.ok
        hit = [
            (lo, hi)
            for row in report.rows
            for _, lo, hi in row.intervals
            if row.ok
        ]
        assert any(
            lo == pytest.approx(w[k], abs=1e-9)
            and hi == pytest.approx(w[k], abs=1e-9)
            for lo, hi in hit
        )


def test_containment_violation_surfaces_as_data():
    # The strongest reading of interval containment fails when the state is
    # not an eigenvector but the poset holds the operator's own context: the
    # pseudo-state then covers eigen-points whose degenerate intervals sit at
    # the eigenvalues, away from the expectation. The report must say so
    # without raising.
    eta = 0.6
    a = HermitianOperator(np.diag([0.0, 1.0]))
    psi = UnitVector([np.sqrt(1 - eta**2), eta])
    poset = build_poset([context_from_operator(a)])
    report = check_containment(psi, a, poset)
    assert report.expectation == pytest.approx(eta**2)
    assert not report.ok
    assert len(report.violations) == 2  # both eigen-intervals miss 0.36
    for _, _, _, lo, hi in report.violations:
        assert hi < eta**2 or lo > eta**2


def test_containment_random_independent_inputs_hold():
    rng = rng_for(86)
    for _ in range(30):
        poset = random_poset(3, rng, n_seeds=2, close_coarsening=True)
        a = random_hermitian(3, rng)
        psi = random_unit_vector(3, rng)
        report = check_containment(psi, a, poset)
        assert report.ok, report.violations

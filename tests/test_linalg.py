"""Matrix core: eigenstructure, projection lattice, spectral families.

Derived expected values are checked against independent oracles defined at the
top of this file (null-space intersection for meets, pointwise eigenvalue
accumulation for spectral families) rather than against the implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SQ2, rng_for
from toposq import (
    DimensionMismatchError,
    HermitianOperator,
    InvalidFamilyError,
    NotAProjectionError,
    NotHermitianError,
    Projection,
    SpectralFamily,
    canonical_projection,
    eigenstructure,
    from_spectral_family,
    operator_norm,
    proj_join,
    proj_leq,
    proj_meet,
    spectral_family,
)


# ---------------------------------------------------------------- oracles


def intersection_projector_oracle(p: Projection, q: Projection) -> np.ndarray:
    """Projector onto range(P) ∩ range(Q) via the null-space method.

    Solve BP x = BQ y by taking the null space of [BP | -BQ]; the x part maps
    to a basis of the intersection. Independent of proj_meet's spectral route.
    """
    bp = _range_basis(p)
    bq = _range_basis(q)
    if bp.shape[1] == 0 or bq.shape[1] == 0:
        return np.zeros((p.dim, p.dim), dtype=np.complex128)
    stacked = np.hstack([bp, -bq])
    _, s, vh = np.linalg.svd(stacked)
    null_mask = np.zeros(vh.shape[0], dtype=bool)
    null_mask[len(s):] = True
    null_mask[: len(s)] |= s < 1e-10
    null_vecs = vh[null_mask].conj().T
    if null_vecs.shape[1] == 0:
        return np.zeros((p.dim, p.dim), dtype=np.complex128)
    inter = bp @ null_vecs[: bp.shape[1]]
    basis, r = np.linalg.qr(inter)
    keep = np.abs(np.diag(r)) > 1e-10
    basis = basis[:, keep]
    return basis @ basis.conj().T


def _range_basis(p: Projection) -> np.ndarray:
    w, v = np.linalg.eigh(p.matrix)
    return v[:, w > 0.5]


def spectral_step_oracle(a: HermitianOperator, r: float) -> np.ndarray:
    """E_r as the raw sum of eigenprojections with eigenvalue <= r."""
    w, v = np.linalg.eigh(a.matrix)
    cols = v[:, w <= r + 1e-12]
    return cols @ cols.conj().T


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2.0)


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> Projection:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(g)[0]
    return Projection.onto(u[:, :rank])


# ---------------------------------------------------------- basic types


def test_hermitian_rejects_asymmetric():
    with pytest.raises(NotHermitianError):
        HermitianOperator([[0.0, 1.0], [0.0, 0.0]])


def test_hermitian_rejects_nonsquare():
    with pytest.raises(NotHermitianError):
        HermitianOperator(np.zeros((2, 3)))


def test_hermitian_and_projection_reject_nan_entries():
    entries = np.diag([1.0, 0.0])
    entries[0, 1] = np.nan
    for cls in (HermitianOperator, Projection):
        with pytest.raises(NotHermitianError, match="non-finite"):
            cls(entries)


@pytest.mark.parametrize(
    "entries, cause",
    [
        ([["a"]], "malformed string"),
        ([[1, 2], [3]], "inhomogeneous"),
        ([[object()]], "must be real number"),
    ],
)
def test_hermitian_rejects_non_numeric_entries(entries, cause):
    # A ToposqError naming numpy's cause, not numpy's own ValueError/TypeError.
    with pytest.raises(NotHermitianError, match=f"not a rectangular array of numbers.*{cause}"):
        HermitianOperator(entries)


def test_projection_rejects_non_idempotent():
    with pytest.raises(NotAProjectionError):
        Projection(np.diag([0.5, 0.5]))


def test_projection_constructors():
    assert Projection.zero(3).rank == 0
    assert Projection.identity(3).rank == 3
    p = Projection.onto(np.array([1.0, 0.0, 0.0]))
    assert p.rank == 1
    assert np.allclose(p.matrix, np.diag([1.0, 0.0, 0.0]))
    assert p.complement().isclose(Projection(np.diag([0.0, 1.0, 1.0])))


def test_projection_onto_dependent_columns():
    # Two parallel columns span a line, not a plane.
    vecs = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    assert Projection.onto(vecs).rank == 1
    # The rank cut at |r_ii| = 1e-12: a second column that far off the first
    # line is dropped just inside the cut and kept just outside it.
    for r22, rank in ((1e-13, 1), (1e-11, 2)):
        vecs = np.array([[1.0, 1.0], [0.0, r22], [0.0, 0.0]])
        assert Projection.onto(vecs).rank == rank


def test_canonical_projection_snaps_drift():
    # Eigenvalue drift up to the 1e-7 snap floor, far above the tolerance.
    for drift in (np.diag([1.0 + 3e-8, 2e-8, 0.0]), np.diag([1.0, 0.9e-7, 0.0])):
        p = canonical_projection(drift)
        assert np.allclose(p.matrix, np.diag([1.0, 0.0, 0.0]))


def test_canonical_projection_rejects_far_matrix():
    for far in (np.diag([0.4, 0.0]), np.diag([1.0, 1.1e-7, 0.0])):
        with pytest.raises(NotAProjectionError):
            canonical_projection(far)


def test_operator_norm_is_spectral():
    assert operator_norm(np.diag([3.0, -7.0])) == pytest.approx(7.0)


# ------------------------------------------------------- eigenstructure


def test_eigenstructure_scalar():
    es = eigenstructure(HermitianOperator(np.eye(3)))
    assert es.eigenvalues == (1.0,)
    assert es.projections[0].isclose(Projection.identity(3))


def test_eigenstructure_sz(sz):
    es = eigenstructure(sz)
    assert np.allclose(es.eigenvalues, [-SQ2, 0.0, SQ2], atol=1e-12)
    # Ascending eigenvalue order puts the e3 projector first.
    assert np.allclose(es.projections[0].matrix, np.diag([0.0, 0.0, 1.0]))
    assert np.allclose(es.projections[1].matrix, np.diag([0.0, 1.0, 0.0]))
    assert np.allclose(es.projections[2].matrix, np.diag([1.0, 0.0, 0.0]))


def test_eigenstructure_clusters_degenerate():
    a = HermitianOperator(np.diag([2.0, 2.0 + 1e-12, 5.0]))
    es = eigenstructure(a)
    assert len(es) == 2
    assert es.projections[0].rank == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_eigenstructure_reconstructs(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(4, rng)
    es = eigenstructure(a)
    assert operator_norm(es.to_operator().matrix - a.matrix) < 1e-9
    for i, p in enumerate(es.projections):
        for q in es.projections[i + 1:]:
            assert operator_norm(p.matrix @ q.matrix) < 1e-9
    total = sum(p.matrix for p in es.projections)
    assert operator_norm(total - np.eye(4)) < 1e-9


# ---------------------------------------------------- projection lattice


def test_proj_leq_basics():
    zero = Projection.zero(3)
    p2 = Projection(np.diag([0.0, 1.0, 0.0]))
    p23 = Projection(np.diag([0.0, 1.0, 1.0]))
    p1 = Projection(np.diag([1.0, 0.0, 0.0]))
    assert proj_leq(zero, p2)
    assert proj_leq(p2, p23)
    assert not proj_leq(p1, p23)
    assert not proj_leq(p23, p2)


def test_proj_leq_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        proj_leq(Projection.zero(2), Projection.zero(3))


def test_meet_join_orthogonal():
    p1 = Projection(np.diag([1.0, 0.0, 0.0]))
    p2 = Projection(np.diag([0.0, 1.0, 0.0]))
    assert proj_meet(p1, p2).rank == 0
    assert proj_join(p1, p2).isclose(Projection(np.diag([1.0, 1.0, 0.0])))


def test_meet_join_idempotent():
    p = random_projection(3, 2, rng_for(11))
    assert proj_meet(p, p).isclose(p)
    assert proj_join(p, p).isclose(p)


def test_meet_matches_intersection_oracle():
    rng = rng_for(12)
    for _ in range(40):
        p = random_projection(3, 2, rng)
        q = random_projection(3, 2, rng)
        expected = intersection_projector_oracle(p, q)
        got = proj_meet(p, q)
        assert operator_norm(got.matrix - expected) < 1e-8
        # Two generic planes in C^3 intersect in a line.
        assert got.rank == 1


def test_join_is_complement_dual():
    rng = rng_for(13)
    for _ in range(40):
        p = random_projection(4, rng.integers(1, 4), rng)
        q = random_projection(4, rng.integers(1, 4), rng)
        # De Morgan: P v Q = 1 - ((1-P) ^ (1-Q)), with the meet oracle.
        expected = np.eye(4) - intersection_projector_oracle(
            p.complement(), q.complement()
        )
        assert operator_norm(proj_join(p, q).matrix - expected) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_lattice_absorption(seed):
    rng = np.random.default_rng(seed)
    p = random_projection(3, int(rng.integers(1, 3)), rng)
    q = random_projection(3, int(rng.integers(1, 3)), rng)
    assert proj_join(p, proj_meet(p, q)).isclose(p, 1e-8)
    assert proj_meet(p, proj_join(p, q)).isclose(p, 1e-8)


def test_proj_leq_partial_order_on_random_family():
    rng = rng_for(14)
    u = np.linalg.qr(
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    )[0]
    family = [Projection.onto(u[:, :k]) for k in range(1, 5)]
    family += [random_projection(4, 2, rng) for _ in range(4)]
    for a in family:
        assert proj_leq(a, a)
        for b in family:
            if proj_leq(a, b) and proj_leq(b, a):
                assert a.isclose(b, 1e-8)
            for c in family:
                if proj_leq(a, b) and proj_leq(b, c):
                    assert proj_leq(a, c)


# ------------------------------------------------------ spectral families


def test_spectral_family_of_sz(sz):
    sf = spectral_family(sz)
    assert np.allclose(sf.thresholds, [-SQ2, 0.0, SQ2], atol=1e-12)
    assert np.allclose(sf.steps[0].matrix, np.diag([0.0, 0.0, 1.0]))
    assert np.allclose(sf.steps[1].matrix, np.diag([0.0, 1.0, 1.0]))
    assert np.allclose(sf.steps[2].matrix, np.eye(3))


def test_spectral_family_identity():
    sf = spectral_family(HermitianOperator(np.eye(2)))
    assert sf.thresholds == (1.0,)
    assert sf.steps[0].isclose(Projection.identity(2))


def test_value_at_matches_pointwise_oracle():
    rng = rng_for(21)
    a = random_hermitian(4, rng)
    sf = spectral_family(a)
    lo = min(sf.thresholds) - 0.5
    hi = max(sf.thresholds) + 0.5
    for r in np.linspace(lo, hi, 100):
        expected = spectral_step_oracle(a, float(r))
        assert operator_norm(sf.value_at(float(r)).matrix - expected) < 1e-9


def test_value_at_below_first_threshold_is_zero():
    sf = spectral_family(HermitianOperator(np.diag([1.0, 2.0])))
    assert sf.value_at(0.0).rank == 0
    assert sf.value_at(1.0).rank == 1
    assert sf.value_at(2.5).rank == 2


def test_value_at_rejects_nan():
    # NaN compares false with every threshold; it has no step in force.
    sf = spectral_family(HermitianOperator(np.diag([1.0, 2.0])))
    for r in (float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="NaN"):
            sf.value_at(r)
    assert sf.value_at(-np.inf).rank == 0
    assert sf.value_at(np.inf).rank == 2


def test_spectral_family_monotone(sz):
    sf = spectral_family(sz)
    samples = sorted(list(sf.thresholds) + [-1.0, -0.3, 0.3, 1.0])
    for r, s in zip(samples, samples[1:]):
        assert proj_leq(sf.value_at(r), sf.value_at(s))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_spectral_family_round_trip(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(3, rng)
    back = from_spectral_family(spectral_family(a))
    assert operator_norm(back.matrix - a.matrix) < 1e-9


def test_from_spectral_family_sz(sz):
    assert from_spectral_family(spectral_family(sz)).isclose(sz)


def test_from_spectral_family_scalar():
    sf = SpectralFamily([2.5], [Projection.identity(2)])
    a = from_spectral_family(sf)
    assert operator_norm(a.matrix - 2.5 * np.eye(2)) < 1e-12


def test_spectral_family_validation():
    p = Projection(np.diag([1.0, 0.0]))
    one = Projection.identity(2)
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([0.0, 1.0], [one, p])  # not monotone
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([1.0, 0.0], [p, one])  # thresholds not increasing
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([0.0], [p])  # last step must be the identity
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([0.0, 1.0], [p, p.complement()])  # not nested
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([0.0, 1.0], [p, p])  # no strict growth
    for thresholds in ([float("nan")], [0.0, float("inf")], [-float("inf"), 0.0]):
        steps = [one] if len(thresholds) == 1 else [p, one]
        with pytest.raises(InvalidFamilyError, match="thresholds must be finite"):
            SpectralFamily(thresholds, steps)  # a jump at a non-finite point


def test_complex_asymmetric_rejected_at_construction():
    with pytest.raises(NotHermitianError):
        HermitianOperator(np.array([[0.0, 1j], [1j, 0.0]]))

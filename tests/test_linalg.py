"""Matrix core: eigenstructure, projection lattice, spectral families.

Derived expected values are checked against independent oracles defined at the
top of this file (null-space intersection for meets, pointwise eigenvalue
accumulation for spectral families) rather than against the implementation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SQ2, rng_for
from toposq import (
    Context,
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
    norm_exceeds,
    operator_norm,
    proj_join,
    proj_leq,
    proj_meet,
    spectral_family,
)
from toposq.sampling import haar_unitary


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


@pytest.mark.parametrize(
    "cls, entries",
    [
        (HermitianOperator, [["1"]]),
        (Projection, [["1", "0"], ["0", "0"]]),
        (HermitianOperator, [[b"1"]]),
    ],
)
def test_numeric_text_is_not_a_number(cls, entries):
    # numpy would parse these into the 1x1 operator 1 and the projection diag(1, 0).
    with pytest.raises(NotHermitianError, match="not a rectangular array of numbers.*text"):
        cls(entries)


def test_numeric_text_in_an_object_array_is_not_a_number():
    # numpy's complex() would parse the strings and build [[1, 1], [1, 0]].
    entries = np.array([[Fraction(1), "1"], ["1", 0]], dtype=object)
    with pytest.raises(NotHermitianError, match="not a rectangular array of numbers.*text"):
        HermitianOperator(entries)


@pytest.mark.parametrize("vectors", [["1", "0"], ["a", "0"]])
def test_projection_onto_rejects_text(vectors):
    # ["1", "0"] used to build diag(1, 0); ["a", "0"] raised numpy's ValueError.
    with pytest.raises(NotAProjectionError, match="not an array of numbers"):
        Projection.onto(vectors)


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


def _scaled_draws(shape, kind, target, tol, n, rng):
    """n matrices of the given shape and kind (rank-1, full-rank or an
    isometry, whose singular values are all equal) scaled so that ||X||_2 is
    the target rule's value at tol."""
    rows, cols = shape
    r = min(shape)
    out = []
    for _ in range(n):
        z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        if kind == "rank1":
            z = np.outer(z[:, 0], z[0].conj())
        elif kind == "isometry":
            u, _, vh = np.linalg.svd(z, full_matrices=False)
            z = u @ vh
        near = 1.0 + rng.uniform(-1e-12, 1e-12)
        norm2 = {
            "tol": tol * near,
            "sqrt_r_tol": np.sqrt(r) * tol * near,
            # ||X||_F at the band's edges: tol and sqrt(r) tol.
            "fro_tol": tol * near * operator_norm(z) / np.linalg.norm(z),
            "fro_sqrt_r_tol": np.sqrt(r) * tol * near * operator_norm(z) / np.linalg.norm(z),
            "random": tol * 10.0 ** rng.uniform(-1.0, 1.0 + np.log10(np.sqrt(r))),
        }[target]
        out.append(z * (norm2 / operator_norm(z)))
    return np.stack(out)


@pytest.mark.parametrize("tol", [1e-9, 1.0])
def test_norm_exceeds_equals_the_svd_decision(tol):
    rng = rng_for(61, int(tol == 1.0))
    shapes = [(d, d) for d in (2, 3, 4, 5, 6)] + [(2, 6), (6, 3)]
    kinds = ("rank1", "full", "isometry")
    targets = ("tol", "sqrt_r_tol", "fro_tol", "fro_sqrt_r_tol", "random")
    checked = 0
    outcomes = set()
    for shape in shapes:
        for kind in kinds:
            for target in targets:
                stack = _scaled_draws(shape, kind, target, tol, 20, rng)
                want = operator_norm(stack) > tol
                for x, w in zip(stack, want):
                    assert norm_exceeds(x, tol) == w
                np.testing.assert_array_equal(norm_exceeds(stack, tol), want)
                np.testing.assert_array_equal(
                    norm_exceeds(stack.reshape(4, 5, *shape), tol), want.reshape(4, 5)
                )
                checked += len(stack)
                outcomes |= set(want.tolist())
    assert checked >= 2000
    assert outcomes == {False, True}


def test_norm_exceeds_outside_the_certified_range():
    # Entry squares underflow below ~1e-154 and overflow above ~1e154; there
    # every matrix takes the SVD.
    tiny = np.full((2, 2), 1e-160)
    assert norm_exceeds(tiny, 1e-170) is True
    assert norm_exceeds(tiny, 1e-150) is False
    huge = np.full((2, 2), 1e160)
    assert norm_exceeds(huge, 1e170) is False
    assert norm_exceeds(huge, 1e150) is True
    assert norm_exceeds(np.zeros((3, 0)), 1e-9) is False
    assert norm_exceeds(np.zeros((0, 2, 2)), 1e-9).shape == (0,)


def test_norm_exceeds_takes_one_tolerance_per_matrix():
    # Norms within 1e-3 of their own tolerance, some outside the certified
    # range: every answer is the SVD's and the one-matrix call's.
    rng = rng_for(66)
    z = rng.normal(size=(80, 3, 3)) + 1j * rng.normal(size=(80, 3, 3))
    tols = 10.0 ** rng.uniform(-12.0, 3.0, size=80)
    tols[:4] = (1e-170, 1e-150, 1e150, 1e170)
    stack = z * (tols * (1.0 + rng.uniform(-1e-3, 1e-3, size=80)) / operator_norm(z))[:, None, None]
    want = operator_norm(stack) > tols
    np.testing.assert_array_equal(norm_exceeds(stack, tols), want)
    assert [norm_exceeds(x, t) for x, t in zip(stack, tols)] == want.tolist()
    assert want.any() and not want.all()


def test_proj_leq_decides_as_the_svd_inside_the_band():
    # ||QP - P|| has singular values near tol and below it, so ||QP - P||_F
    # lies in norm_exceeds's SVD band (tol, 2 tol] of a 4 x 4 matrix.
    tol = 1e-9
    rng = rng_for(67)
    e = np.eye(4)
    p = Projection.onto(e[:, :2])
    outcomes = set()
    for _ in range(200):
        near, below = tol * (1.0 + rng.uniform(-1e-6, 1e-6)), tol * rng.uniform(0.3, 0.99)
        q = Projection.onto(np.stack([e[0] + near * e[2], e[1] + below * e[3]], axis=1))
        difference = q.matrix @ p.matrix - p.matrix
        assert tol < np.linalg.norm(difference) <= 2 * tol
        want = operator_norm(difference) <= tol
        assert proj_leq(p, q, tol) == want
        outcomes.add(want)
    assert outcomes == {False, True}


def _spread(u: np.ndarray, values) -> np.ndarray:
    """U diag(values) U*, as computed, so self-adjoint only to rounding."""
    return (u * np.asarray(values, dtype=float)) @ u.conj().T


@pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
def test_operator_tolerance_scales_with_the_operator(scale):
    # At 1e6 a fixed 1e-9 split the repeated eigenvalue in some draws, and at
    # 1e7 rounding alone broke self-adjointness in every draw.
    rng = rng_for(62, int(np.log10(scale)))
    for _ in range(50):
        u = haar_unitary(4, rng)
        a = HermitianOperator(_spread(u, scale * np.array([1.0, 1.0, 2.0, 3.0])))
        es = eigenstructure(a)
        assert len(es) == 3
        assert es.projections[0].rank == 2
    # The bound is tol * max(1, ||A||): a defect far above it still fails.
    skew = scale * np.diag([1.0, 2.0]) + np.array([[0.0, scale], [0.0, 0.0]])
    with pytest.raises(NotHermitianError, match="not self-adjoint"):
        HermitianOperator(skew)


def test_operators_of_norm_at_most_one_keep_the_absolute_tolerance():
    # max(1, s) = 1: the same decisions, so the same floats, as an absolute tol.
    tol = 1e-9
    rng = rng_for(63)
    for _ in range(20):
        a = random_hermitian(4, rng)
        a = HermitianOperator(a.matrix / operator_norm(a.matrix))
        values = np.linalg.eigh(a.matrix)[0]
        runs = [[0]]
        for i in range(1, len(values)):
            if values[i] - values[i - 1] > tol:
                runs.append([])
            runs[-1].append(i)
        want = tuple(float(np.mean(values[run])) for run in runs)
        assert eigenstructure(a).eigenvalues == want
    # Gaps and defects just past tol are decided as before, at ||A|| = 1,
    # and the floor keeps smaller operators at tol, not at tol * ||A||.
    assert len(eigenstructure(HermitianOperator(np.diag([-1.0, 1.0 - 2e-9, 1.0])))) == 3
    assert len(eigenstructure(HermitianOperator(np.diag([0.0, 0.5, 0.5 + 0.7e-9])))) == 2
    with pytest.raises(NotHermitianError, match="> 1e-09"):
        HermitianOperator(np.array([[1.0, 2e-9], [0.0, 0.5]]))
    HermitianOperator(np.array([[0.5, 0.7e-9], [0.0, 0.25]]))
    v = Context([Projection(np.diag([1.0, 0.0])), Projection(np.diag([0.0, 1.0]))])
    off = HermitianOperator(np.array([[0.5, 2e-9], [2e-9, 0.25]]))
    assert v.coefficients_in_span(off) is None
    assert sorted(v.coefficients_in_span(HermitianOperator(np.diag([0.5, 0.25])))) == [0.25, 0.5]


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

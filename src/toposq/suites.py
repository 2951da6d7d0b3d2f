"""Randomized property suites over the daseinisation machinery.

These run both under the CLI props command and inside the acceptance tests.
Each suite draws its instances from a seeded Generator, checks one property
per trial and reports a SuiteResult; failures carry short witness notes.
A suite is written as its per-trial check; the _suite harness owns the
tolerance, the trial loop, the failure count and the "trial k: " prefix.
Pooled suites draw posets from a small per-suite pool since building one is
the dominant cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .config import SUITE_DISTINCT_GAP, SUITE_SPECTRUM_SLACK, resolve_tolerance
from .contexts import ContextPoset, build_poset, context_from_atoms
from .daseinisation import daseinise_projection, inner_projection, outer_projection
from .errors import ToposqError
from .linalg import (
    Projection,
    eigenstructure,
    operator_norm,
    proj_join,
    proj_leq,
    proj_meet,
)
from .operators import (
    PrincipalFilter,
    antonymous,
    cone,
    inner_operator,
    observable,
    operator_arrow,
    outer_operator,
    spectral_leq,
)
from .presheaf import ClopenSubobject
from .sampling import (
    random_context,
    random_hermitian,
    random_maximal_context,
    random_poset,
    random_projection,
    random_unit_vector,
)
from .states import check_containment

__all__ = ["SuiteResult", "PROJECTION_SUITES", "OPERATOR_SUITES", "STATE_SUITES", "run_all"]


@dataclass
class SuiteResult:
    name: str
    dim: int
    trials: int
    failures: int
    notes: list[str] = field(default_factory=list)


def _poset_pool(dim: int, rng: np.random.Generator, trials: int, tol: float):
    size = max(1, min(20, trials // 10 + 1))
    n_seeds = 2 if dim == 2 else 1
    pool = []
    for i in range(size):
        pool.append(
            random_poset(
                dim,
                rng,
                n_seeds=n_seeds + (i % 2 if dim >= 3 else 0),
                close_coarsening=dim >= 3,
                tol=tol,
            )
        )
    return pool


def _suite(name: str, pooled: bool = False):
    """Turn a per-trial check into a suite(dim, trials, rng, tol=None).

    check(dim, rng, poset, tol) returns the trial's failure notes, empty when
    the trial passes. A pooled suite builds its poset pool from rng before the
    first trial and hands trial k the pool entry k mod size; an unpooled one
    gets poset None and draws nothing up front.
    """

    def wrap(check):
        @wraps(check)
        def suite(
            dim: int, trials: int, rng: np.random.Generator, tol: float | None = None
        ) -> SuiteResult:
            tol = resolve_tolerance(tol)
            result = SuiteResult(name, dim, trials, 0)
            pool = _poset_pool(dim, rng, trials, tol) if pooled else [None]
            for trial in range(trials):
                notes = check(dim, rng, pool[trial % len(pool)], tol)
                if notes:
                    result.failures += 1
                    result.notes.extend(f"trial {trial}: {note}" for note in notes)
            return result

        return suite

    return wrap


@_suite("order-preservation", pooled=True)
def suite_order_preservation(dim, rng, poset, tol):
    """P <= Q implies daseinisation(P) <= daseinisation(Q) componentwise."""
    q_rank = int(rng.integers(1, dim + 1))
    q = random_projection(dim, rng, q_rank)
    values, vectors = np.linalg.eigh(q.matrix)
    basis = vectors[:, values > 0.5]
    p_rank = int(rng.integers(1, q_rank + 1))
    mix = np.linalg.qr(
        rng.standard_normal((q_rank, q_rank))
        + 1j * rng.standard_normal((q_rank, q_rank))
    )[0][:, :p_rank]
    p = Projection.onto(basis @ mix)
    if not daseinise_projection(p, poset, tol).leq(daseinise_projection(q, poset, tol)):
        return ["delta not monotone"]
    return []


@_suite("injectivity")
def suite_injectivity(dim, rng, poset, tol):
    """Distinct projections get distinct subobjects once the poset contains a
    context holding each projection."""
    p = random_projection(dim, rng, int(rng.integers(1, dim)))
    q = random_projection(dim, rng, int(rng.integers(1, dim)))
    while operator_norm(p.matrix - q.matrix) <= SUITE_DISTINCT_GAP:
        q = random_projection(dim, rng, int(rng.integers(1, dim)))
    poset = build_poset(
        [
            context_from_atoms([p, p.complement()], tol),
            context_from_atoms([q, q.complement()], tol),
        ],
        tol=tol,
    )
    if daseinise_projection(p, poset, tol) == daseinise_projection(q, poset, tol):
        return ["distinct projections, equal subobjects"]
    return []


@_suite("bottom-top", pooled=True)
def suite_bottom_top(dim, rng, poset, tol):
    """The zero and identity projections map to bottom and top."""
    bottom = daseinise_projection(Projection.zero(dim), poset, tol)
    top = daseinise_projection(Projection.identity(dim), poset, tol)
    if bottom != ClopenSubobject.bottom(poset) or top != ClopenSubobject.top(poset):
        return ["bottom/top not preserved"]
    return []


@_suite("join-preservation", pooled=True)
def suite_join_preservation(dim, rng, poset, tol):
    """delta(P join Q) equals delta(P) join delta(Q)."""
    p = random_projection(dim, rng)
    q = random_projection(dim, rng)
    joined = daseinise_projection(proj_join(p, q, tol), poset, tol)
    pieces = daseinise_projection(p, poset, tol).join(daseinise_projection(q, poset, tol))
    return [] if joined == pieces else ["join not preserved"]


def suite_meet_subpreservation(
    dim: int, trials: int, rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """delta(P meet Q) <= delta(P) meet delta(Q); also counts trials where the
    inequality is strict (a strictness witness is expected to exist)."""
    strict = []

    @_suite("meet-subpreservation", pooled=True)
    def check(dim, rng, poset, tol):
        p = random_projection(dim, rng)
        q = random_projection(dim, rng)
        met = daseinise_projection(proj_meet(p, q, tol), poset, tol)
        pieces = daseinise_projection(p, poset, tol).meet(daseinise_projection(q, poset, tol))
        if not met.leq(pieces):
            return ["meet inequality violated"]
        if met != pieces:
            strict.append(True)
        return []

    result = check(dim, trials, rng, tol)
    result.notes.append(f"strict instances: {len(strict)}")
    return result


@_suite("non-surjectivity")
def suite_non_surjectivity(dim, rng, poset, tol):
    """Each trial exhibits a clopen subobject no projection maps onto.

    For dim >= 3 the poset is the coarsening downset of one maximal context;
    there every daseinised subobject is determined by its top component (the
    outer approximation at a coarsening equals the outer approximation of the
    top-level one), so the image is exactly the 2^dim subobjects generated by
    the top context's projections. For dim 2 the poset is an antichain of two
    distinct maximal contexts and the image admits a finite case split: 0, 1,
    the four atoms, and (for every other rank-1 projection) top.
    """
    if dim >= 3:
        v = random_maximal_context(dim, rng)
        poset = build_poset([v], close_coarsening=True, tol=tol)
        candidates = [
            v.sum_of_atoms([i for i in range(dim) if mask >> i & 1], tol)
            for mask in range(2**dim)
        ]
        images = {daseinise_projection(p, poset, tol) for p in candidates}
        witness_components = {
            w.id: range(w.n_atoms) if w.id != v.id else [0] for w in poset
        }
    else:
        v = random_maximal_context(dim, rng)
        w = random_maximal_context(dim, rng)
        while w.id == v.id:
            w = random_maximal_context(dim, rng)
        poset = ContextPoset([v, w], tol)
        candidates = [
            Projection.zero(dim),
            Projection.identity(dim),
            *v.atoms,
            *w.atoms,
        ]
        images = {daseinise_projection(p, poset, tol) for p in candidates}
        # Sanity check on the case split: other projections are rank 1,
        # overlap both atoms of both contexts, and daseinise to top.
        sample = random_projection(dim, rng, 1)
        if daseinise_projection(sample, poset, tol) not in images:
            return ["case split missed a projection"]
        witness_components = {v.id: [0], w.id: [0]}
    try:
        witness = ClopenSubobject(poset, witness_components)
    except ToposqError as exc:
        return [f"witness not clopen ({exc})"]
    return ["witness is in the image"] if witness in images else []


@_suite("operator-sandwich")
def suite_operator_sandwich(dim, rng, poset, tol):
    """inner <=s A <=s outer, both approximations lie in the context, and
    their spectra sit inside spec(A)."""
    a = random_hermitian(dim, rng)
    v = random_context(dim, rng)
    inner = inner_operator(a, v, tol)
    outer = outer_operator(a, v, tol)
    ok = spectral_leq(inner, a, tol) and spectral_leq(a, outer, tol)
    ok = ok and v.coefficients_in_span(inner, tol) is not None
    ok = ok and v.coefficients_in_span(outer, tol) is not None
    spec_a = eigenstructure(a, tol).eigenvalues
    for approx in (inner, outer):
        for value in eigenstructure(approx, tol).eigenvalues:
            ok = ok and min(abs(value - s) for s in spec_a) <= SUITE_SPECTRUM_SLACK
    return [] if ok else ["sandwich violated"]


@_suite("operator-on-projections")
def suite_operator_on_projections(dim, rng, poset, tol):
    """On projections, operator daseinisation agrees with the projection
    approximations."""
    p = random_projection(dim, rng)
    v = random_context(dim, rng)
    ok = inner_operator(p, v, tol).isclose(inner_projection(p, v, tol), 100 * tol)
    ok = ok and outer_operator(p, v, tol).isclose(outer_projection(p, v, tol), 100 * tol)
    return [] if ok else ["projection specialisation broken"]


@_suite("coarse-graining", pooled=True)
def suite_coarse_graining(dim, rng, poset, tol):
    """Along V' <= V, inner approximations shrink and outer ones grow in the
    spectral order; outer projection approximations grow in the projection
    order."""
    a = random_hermitian(dim, rng)
    p = random_projection(dim, rng)
    ok = True
    for sub_id, sup_id in poset.strict_pairs():
        sub, sup = poset.get(sub_id), poset.get(sup_id)
        ok = ok and spectral_leq(inner_operator(a, sub, tol), inner_operator(a, sup, tol), tol)
        ok = ok and spectral_leq(outer_operator(a, sup, tol), outer_operator(a, sub, tol), tol)
        ok = ok and proj_leq(outer_projection(p, sup, tol), outer_projection(p, sub, tol), tol)
    return [] if ok else ["coarse graining not monotone"]


@_suite("filter-identities")
def suite_filter_identities(dim, rng, poset, tol):
    """The antonymous/observable scans see daseinisation through the cone:
    scanning the approximated operator with a context filter equals scanning
    the original operator with the ambient cone filter."""
    a = random_hermitian(dim, rng)
    v = random_context(dim, rng)
    mask = int(rng.integers(1, 2**v.n_atoms))
    gen = v.sum_of_atoms([i for i in range(v.n_atoms) if mask >> i & 1], tol)
    filt = PrincipalFilter(gen, v)
    ambient = cone(filt)
    ok = abs(antonymous(inner_operator(a, v, tol), filt, tol) - antonymous(a, ambient, tol)) <= tol
    ok = ok and abs(observable(outer_operator(a, v, tol), filt, tol) - observable(a, ambient, tol)) <= tol
    return [] if ok else ["filter identity violated"]


@_suite("arrow-consistency", pooled=True)
def suite_arrow_consistency(dim, rng, poset, tol):
    """Arrow pairs are monotone along inclusions, nested, and bounded by the
    operator's spectral range."""
    a = random_hermitian(dim, rng)
    arrow = operator_arrow(a, poset, tol)
    spec_a = eigenstructure(a, tol).eigenvalues
    lo, hi = min(spec_a), max(spec_a)
    ok = True
    for v in poset:
        for index in range(v.n_atoms):
            pair = arrow.pair(v.id, index)
            for cid, mu, nu in pair.intervals():
                ok = ok and lo - tol <= mu <= nu <= hi + tol
            for sub_id in pair.domain:
                for sup_id in pair.domain:
                    if sub_id != sup_id and poset.leq(sub_id, sup_id):
                        ok = ok and pair.mu(sub_id) <= pair.mu(sup_id) + tol
                        ok = ok and pair.nu(sup_id) <= pair.nu(sub_id) + tol
    return [] if ok else ["arrow pairs inconsistent"]


@_suite("expectation-containment", pooled=True)
def suite_containment(dim, rng, poset, tol):
    """Every value interval over an independently random poset contains the
    expectation value."""
    a = random_hermitian(dim, rng)
    psi = random_unit_vector(dim, rng)
    report = check_containment(psi, a, poset, tol)
    return [f"violation {witness}" for witness in report.violations[:3]]


PROJECTION_SUITES = (
    suite_order_preservation,
    suite_injectivity,
    suite_bottom_top,
    suite_join_preservation,
    suite_meet_subpreservation,
    suite_non_surjectivity,
)

OPERATOR_SUITES = (
    suite_operator_sandwich,
    suite_operator_on_projections,
    suite_coarse_graining,
    suite_filter_identities,
    suite_arrow_consistency,
)

STATE_SUITES = (suite_containment,)


def run_all(
    dims=(2, 3),
    trials: int = 50,
    seed: int = 0,
    tol: float | None = None,
) -> list[SuiteResult]:
    """Run every suite at every dimension with per-suite derived seeds.

    trials = 0 yields an empty summary. ValueError for a non-integer or bool
    argument, a dimension below 2, or a negative trial count or seed.
    """
    for name, value in [*(("dims", d) for d in dims), ("trials", trials), ("seed", seed)]:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"props needs integer {name}, got {value!r}")
    for dim in dims:
        if dim < 2:
            raise ValueError(f"props needs dimensions >= 2, got {dim}")
    if trials < 0:
        raise ValueError(f"props needs a non-negative trial count, got {trials}")
    if seed < 0:
        raise ValueError(f"props needs a non-negative seed, got {seed}")
    if trials == 0:
        return []
    results = []
    suites = (*PROJECTION_SUITES, *OPERATOR_SUITES, *STATE_SUITES)
    for dim in dims:
        for index, suite in enumerate(suites):
            rng = np.random.default_rng([seed, dim, index])
            results.append(suite(dim, trials, rng, tol))
    return results

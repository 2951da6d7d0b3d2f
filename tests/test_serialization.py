"""JSON document formats: matrices, vectors, contexts, and report shapes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import peres_bases, rng_for
from toposq import (
    ParseError,
    Projection,
    UnitVector,
    UnsupportedFeatureError,
    build_poset,
    operator_arrow,
    operator_norm,
    pseudo_state,
    value,
)
from toposq.sampling import (
    random_hermitian,
    random_maximal_context,
    random_poset,
    random_unit_vector,
)
from toposq.serialization import (
    arrow_to_doc,
    context_from_doc,
    context_to_doc,
    load_context,
    load_document,
    load_matrix,
    load_projection,
    load_vector,
    matrix_from_doc,
    matrix_to_doc,
    poset_to_doc,
    report_to_doc,
    round12,
    subobject_to_doc,
    value_to_doc,
    vector_from_doc,
    vector_to_doc,
)


def test_matrix_round_trip():
    rng = rng_for(91)
    a = random_hermitian(3, rng)
    doc = matrix_to_doc(a)
    assert doc["dim"] == 3
    back = matrix_from_doc(doc)
    assert operator_norm(back.matrix - a.matrix) < 1e-11


def test_matrix_doc_shape_errors():
    with pytest.raises(ParseError):
        matrix_from_doc({"dim": 2})
    with pytest.raises(ParseError):
        matrix_from_doc({"dim": 2, "entries": [[[1, 0]]]})
    with pytest.raises(ParseError):
        matrix_from_doc({"dim": 2, "entries": [[[1, 0], [0]], [[0, 0], [1, 0]]]})
    # A vector document is not a matrix document.
    with pytest.raises(ParseError):
        matrix_from_doc({"dim": 2, "amplitudes": [[1, 0], [0, 0]]})
    # JSON booleans are not numbers, and 'dim' must be an integer as written.
    # Each document below is well formed once its numbers are coerced.
    with pytest.raises(ParseError):
        matrix_from_doc({"dim": 2, "entries": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]})
    for dim in (2.7, "2", True):
        n = int(dim)
        entries = [[[float(i == j), 0] for j in range(n)] for i in range(n)]
        with pytest.raises(ParseError):
            matrix_from_doc({"dim": dim, "entries": entries})


def test_projection_from_doc_validates():
    from toposq import NotAProjectionError
    from toposq.serialization import projection_from_doc

    doc = matrix_to_doc(random_hermitian(2, rng_for(92)))
    with pytest.raises(NotAProjectionError):
        projection_from_doc(doc)


def test_projection_from_doc_checks_each_property_once(monkeypatch):
    # One norm test for self-adjointness and one for idempotence; the errors
    # are the constructor's, in that order.
    from toposq import NotAProjectionError, NotHermitianError, linalg
    from toposq.serialization import projection_from_doc

    doc = matrix_to_doc(Projection(np.diag([1.0, 0.0])))
    calls = []
    exceeds = linalg.norm_exceeds
    monkeypatch.setattr(linalg, "norm_exceeds", lambda m, tol: calls.append(1) or exceeds(m, tol))
    p = projection_from_doc(doc)
    assert len(calls) == 2
    assert p.rank == 1
    # Neither self-adjoint nor idempotent: the self-adjointness error comes first.
    with pytest.raises(NotHermitianError):
        projection_from_doc({"dim": 2, "entries": [[[1, 0], [1, 0]], [[0, 0], [2, 0]]]})
    with pytest.raises(NotAProjectionError):
        projection_from_doc({"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]})


def test_vector_round_trip():
    psi = UnitVector(np.array([0.6, 0.8j]))
    back = vector_from_doc(vector_to_doc(psi))
    assert np.allclose(back.amplitudes, psi.amplitudes)


def test_density_matrix_rejected_with_clear_message():
    doc = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    with pytest.raises(UnsupportedFeatureError) as exc:
        vector_from_doc(doc)
    assert "density matrices" in str(exc.value)
    assert "amplitudes" in str(exc.value)


def test_vector_doc_rejects_bad_norm():
    from toposq import NotNormalizedError

    with pytest.raises(NotNormalizedError):
        vector_from_doc({"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]})
    # A boolean amplitude or a non-integer 'dim' fails as a parse error.
    with pytest.raises(ParseError):
        vector_from_doc({"dim": 2, "amplitudes": [[True, 0], [0, False]]})
    for dim in (2.7, "2", True):
        amplitudes = [[1, 0]] + [[0, 0]] * (int(dim) - 1)
        with pytest.raises(ParseError):
            vector_from_doc({"dim": dim, "amplitudes": amplitudes})


def test_vector_doc_rejects_nan_literal():
    from toposq import NotNormalizedError

    doc = json.loads('{"dim": 2, "amplitudes": [[NaN, 0.0], [0.0, 0.0]]}')
    with pytest.raises(NotNormalizedError):
        vector_from_doc(doc)


def test_context_round_trip_preserves_id():
    v = random_maximal_context(3, rng_for(93))
    doc = context_to_doc(v)
    assert doc["id"] == v.id
    back = context_from_doc(doc)
    assert back == v


def test_load_document_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dim": 3,\n  oops\n}\n')
    with pytest.raises(ParseError) as exc:
        load_document(str(path))
    msg = str(exc.value)
    assert "line 3" in msg
    assert "column" in msg


def test_load_document_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_document(str(tmp_path / "absent.json"))


def test_file_loaders_round_trip(tmp_path):
    rng = rng_for(94)
    a = random_hermitian(3, rng)
    p = Projection(np.diag([1.0, 0.0, 0.0]))
    psi = UnitVector.basis(3, 2)
    v = random_maximal_context(3, rng)
    (tmp_path / "a.json").write_text(json.dumps(matrix_to_doc(a)))
    (tmp_path / "p.json").write_text(json.dumps(matrix_to_doc(p)))
    (tmp_path / "psi.json").write_text(json.dumps(vector_to_doc(psi)))
    (tmp_path / "v.json").write_text(json.dumps(context_to_doc(v)))
    assert load_matrix(str(tmp_path / "a.json")).isclose(a, 1e-10)
    assert load_projection(str(tmp_path / "p.json")).isclose(p)
    assert np.allclose(load_vector(str(tmp_path / "psi.json")).amplitudes, psi.amplitudes)
    assert load_context(str(tmp_path / "v.json")) == v


def test_poset_and_subobject_docs(spin_poset, basis_projs):
    from toposq import daseinise_projection

    doc = poset_to_doc(spin_poset)
    assert len(doc["contexts"]) == 4
    assert len(doc["order"]) == 3
    ids = {c["id"] for c in doc["contexts"]}
    for sub_id, sup_id in doc["order"]:
        assert {sub_id, sup_id} <= ids
    sub = daseinise_projection(basis_projs[1], spin_poset)
    sdoc = subobject_to_doc(sub)["components"]
    assert set(sdoc) == ids
    for cid, indices in sdoc.items():
        assert indices == sorted(sub.component(cid))


def test_arrow_doc_twelve_significant_digits(sz, spin_poset):
    arrow = operator_arrow(sz, spin_poset)
    doc = arrow_to_doc(arrow)["arrow"]
    seen = []
    for cid, by_point in doc.items():
        for key, pair_doc in by_point.items():
            assert key == str(int(key))
            for side in ("mu", "nu"):
                for sub_id, val in pair_doc[side].items():
                    assert val == round12(val)
                    seen.append(val)
    sq2 = 1.0 / np.sqrt(2.0)
    assert any(abs(v - (-round12(sq2))) < 1e-12 for v in seen)
    assert any(abs(v) < 1e-12 for v in seen)


def test_value_and_report_docs(sz, spin_poset):
    from toposq import check_containment

    arrow = operator_arrow(sz, spin_poset)
    w = pseudo_state(UnitVector.basis(3, 1), spin_poset)
    vdoc = value_to_doc(value(arrow, w))["value"]
    assert set(vdoc) == {c.id for c in spin_poset}
    report = check_containment(UnitVector.basis(3, 1), sz, spin_poset)
    rdoc = report_to_doc(report)
    assert rdoc["ok"] is True
    assert rdoc["expectation"] == round12(report.expectation)
    assert len(rdoc["rows"]) == len(report.rows)
    assert all(row["violations"] == [] for row in rdoc["rows"])


def test_report_doc_carries_violations():
    from toposq import HermitianOperator, check_containment, context_from_operator

    a = HermitianOperator(np.diag([0.0, 1.0]))
    psi = UnitVector([np.sqrt(0.64), 0.6])
    poset = build_poset([context_from_operator(a)])
    rdoc = report_to_doc(check_containment(psi, a, poset))
    assert rdoc["ok"] is False
    flagged = [v for row in rdoc["rows"] for v in row["violations"]]
    assert len(flagged) == 2


# ------------------------------------------------- documents against an oracle


def oracle_pair_doc(pair) -> dict:
    # The per-endpoint route: every bound of every interval rounded by itself.
    items = pair.intervals()
    return {
        "mu": {cid: round12(lo) for cid, lo, _ in items},
        "nu": {cid: round12(hi) for cid, _, hi in items},
    }


def oracle_docs(arrow, val, report) -> list[dict]:
    """The three documents, rebuilt pair by pair and row by row."""
    return [
        {"arrow": {
            v.id: {str(i): oracle_pair_doc(arrow.pair(v, i)) for i in range(v.n_atoms)}
            for v in arrow.poset
        }},
        {"value": {v.id: [oracle_pair_doc(p) for p in val.component(v.id)] for v in val.poset}},
        {
            "expectation": round12(report.expectation),
            "ok": report.ok,
            "rows": [
                {
                    "context": row.context_id,
                    "point": row.point_index,
                    "intervals": {cid: [round12(lo), round12(hi)] for cid, lo, hi in row.intervals},
                    "violations": list(row.violations),
                }
                for row in report.rows
            ],
        },
    ]


def oracle_rows(arrow, state, expected: float, tol: float) -> list[tuple]:
    """Each report row as (context, point, intervals, violations), every
    interval decided on its own: mu - tol <= <A> <= nu + tol."""
    rows = []
    for v in arrow.poset:
        for i in sorted(state.component(v.id)):
            items = arrow.pair(v, i).intervals()
            bad = tuple(cid for cid, lo, hi in items if not (lo - tol <= expected <= hi + tol))
            rows.append((v.id, i, items, bad))
    return rows


def test_documents_and_violations_equal_the_per_endpoint_oracle():
    from toposq import HermitianOperator, containment_report

    rng = rng_for(97)
    posets = [
        build_poset([random_maximal_context(dim, rng)], close_coarsening=True)
        for dim in range(2, 7)
    ]
    bases = peres_bases()
    posets += [build_poset(bases[:k], close_intersection=True) for k in (8, len(bases))]
    n_violations = 0
    for poset in posets:
        dim, ctx = poset.dim, max(poset, key=lambda c: c.n_atoms)
        # A random operator, and one diagonal in a maximal member with a
        # repeated eigenvalue, whose intervals at that member are points.
        levels = np.resize([0.3, 1.0, 0.3, -2.0], ctx.n_atoms)
        repeated = HermitianOperator(sum(t * q.matrix for t, q in zip(levels, ctx.atoms)))
        psi = random_unit_vector(dim, rng)
        state = pseudo_state(psi, poset)
        for a in (random_hermitian(dim, rng), repeated):
            arrow = operator_arrow(a, poset)
            val = value(arrow, state)
            # The expectation of a itself, and of 0.5 I, which misses every
            # interval of the repeated operator's points away from 0.5.
            for b in (a, HermitianOperator(0.5 * np.eye(dim))):
                report = containment_report(arrow, state, psi, b)
                got = [arrow_to_doc(arrow), value_to_doc(val), report_to_doc(report)]
                for doc, want in zip(got, oracle_docs(arrow, val, report)):
                    assert json.dumps(doc).encode() == json.dumps(want).encode()
                rows = [(r.context_id, r.point_index, r.intervals, r.violations) for r in report.rows]
                assert rows == oracle_rows(arrow, state, report.expectation, report.tolerance)
                n_violations += len(report.violations)
    assert n_violations > 0

"""JSON document formats and machine-readable serializations.

Documents:
  matrix  {"dim": n, "entries": n x n array of [re, im] pairs}
  vector  {"dim": n, "amplitudes": n array of [re, im] pairs}
  context {"atoms": [matrix, matrix, ...]}

Vector loaders reject matrix-shaped documents explicitly: density matrices
(mixed states) are out of scope and the error says so.

All emitted numbers are rounded to 12 significant digits, which the package
treats as exact for round-tripping (comparisons happen at tolerance 1e-9).
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from .contexts import Context, ContextPoset
from .errors import ParseError, UnsupportedFeatureError
from .linalg import HermitianOperator, Projection
from .operators import OperatorArrow
from .presheaf import ClopenSubobject
from .states import ContainmentReport, UnitVector, ValueSubobject

__all__ = [
    "round12",
    "load_document",
    "matrix_to_doc",
    "matrix_from_doc",
    "projection_from_doc",
    "vector_to_doc",
    "vector_from_doc",
    "context_to_doc",
    "context_from_doc",
    "poset_to_doc",
    "subobject_to_doc",
    "arrow_to_doc",
    "value_to_doc",
    "report_to_doc",
    "load_matrix",
    "load_projection",
    "load_vector",
    "load_context",
]


def round12(x: float) -> float:
    """Round to 12 significant digits (the package's emission precision)."""
    return float(f"{float(x):.12g}")


def load_document(path: str) -> Any:
    """Parse a JSON file, turning syntax errors into ParseError with location."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _pair_to_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ParseError(f"{where}: expected a [re, im] number pair, got {pair!r}")
    return complex(pair[0], pair[1])


def _dim_and(doc: dict, key: str, kind: str) -> tuple[int, Any]:
    """The integer 'dim' of a document and its entry under key."""
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or key not in doc:
        raise ParseError(f"{kind} document needs integer 'dim' and '{key}', got dim {dim!r}")
    return dim, doc[key]


def _matrix_entries(doc: Any) -> np.ndarray:
    """The entries of a matrix document as a complex array."""
    if not isinstance(doc, dict):
        raise ParseError(f"matrix document must be an object, got {type(doc).__name__}")
    if "amplitudes" in doc and "entries" not in doc:
        raise ParseError("found a vector document where a matrix was expected")
    dim, rows = _dim_and(doc, "entries", "matrix")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"'entries' must be a list of {dim} rows")
    matrix = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"row {i} must be a list of {dim} [re, im] pairs")
        for j, pair in enumerate(row):
            matrix[i, j] = _pair_to_complex(pair, f"entry ({i}, {j})")
    return matrix


def matrix_from_doc(doc: Any, tol: float | None = None) -> HermitianOperator:
    """Read a matrix document into a self-adjoint operator."""
    return HermitianOperator(_matrix_entries(doc), tol)


def projection_from_doc(doc: Any, tol: float | None = None) -> Projection:
    return Projection(_matrix_entries(doc), tol)


def matrix_to_doc(a: HermitianOperator) -> dict:
    return {
        "dim": a.dim,
        "entries": [
            [[round12(z.real), round12(z.imag)] for z in row] for row in a.matrix
        ],
    }


def vector_from_doc(doc: Any, tol: float | None = None) -> UnitVector:
    """Read a vector document into a unit vector.

    A matrix document here means the caller supplied a density matrix; that is
    an unsupported feature, not a parse error, and the message says so.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"vector document must be an object, got {type(doc).__name__}")
    if "entries" in doc:
        raise UnsupportedFeatureError(
            "density matrices (mixed states) are not supported; "
            "provide a unit vector document with 'amplitudes'"
        )
    dim, amps = _dim_and(doc, "amplitudes", "vector")
    if not isinstance(amps, list) or len(amps) != dim:
        raise ParseError(f"'amplitudes' must be a list of {dim} [re, im] pairs")
    vec = np.empty(dim, dtype=np.complex128)
    for i, pair in enumerate(amps):
        vec[i] = _pair_to_complex(pair, f"amplitude {i}")
    return UnitVector(vec, tol)


def vector_to_doc(psi: UnitVector) -> dict:
    return {
        "dim": psi.dim,
        "amplitudes": [[round12(z.real), round12(z.imag)] for z in psi.amplitudes],
    }


def context_from_doc(doc: Any, tol: float | None = None) -> Context:
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise ParseError("context document must be an object with an 'atoms' list")
    atoms_doc = doc["atoms"]
    if not isinstance(atoms_doc, list):
        raise ParseError("'atoms' must be a list of matrix documents")
    atoms = [projection_from_doc(item, tol) for item in atoms_doc]
    return Context(atoms, tol)


def context_to_doc(v: Context) -> dict:
    return {"id": v.id, "atoms": [matrix_to_doc(a) for a in v.atoms]}


def poset_to_doc(poset: ContextPoset) -> dict:
    """Contexts (with full atom matrices, so the output round-trips) plus the
    strict inclusion pairs."""
    return {
        "contexts": [context_to_doc(v) for v in poset],
        "order": [[sub, sup] for sub, sup in poset.strict_pairs()],
    }


def subobject_to_doc(s: ClopenSubobject) -> dict:
    return {"components": s.to_doc()}


def _rounded(item: tuple[str, float, float]) -> tuple[str, float, float]:
    """An (id, mu, nu) triple with its bounds at 12 significant digits."""
    cid, lo, hi = item
    return cid, round12(lo), round12(hi)


class _Rounded(dict):
    """A document's memo of _rounded over the triples of its pairs or rows,
    so a triple that many of them share is rounded once per document."""

    def __missing__(self, item: tuple[str, float, float]) -> tuple[str, float, float]:
        rounded = self[item] = _rounded(item)
        return rounded


_first, _second, _third = itemgetter(0), itemgetter(1), itemgetter(2)


def _pair_to_doc(items: Sequence[tuple[str, float, float]]) -> dict:
    """{"mu": {id: mu}, "nu": {id: nu}} from a pair's rounded triples."""
    ids = list(map(_first, items))
    return {"mu": dict(zip(ids, map(_second, items))), "nu": dict(zip(ids, map(_third, items)))}


def arrow_to_doc(arrow: OperatorArrow) -> dict:
    """context id -> point index -> {mu, nu} with 12 significant digits;
    each point's triple is rounded once."""
    columns = arrow._columns(arrow.poset, _rounded)
    return {
        "arrow": {
            v.id: {str(i): _pair_to_doc(items) for i, items in enumerate(zip(*v_columns))}
            for v, v_columns in zip(arrow.poset, columns)
        }
    }


def value_to_doc(val: ValueSubobject) -> dict:
    rounded = _Rounded()
    return {
        "value": {
            v.id: [
                _pair_to_doc(list(map(rounded.__getitem__, pair.intervals())))
                for pair in val.component(v.id)
            ]
            for v in val.poset
        }
    }


def report_to_doc(report: ContainmentReport) -> dict:
    rounded = _Rounded()
    rows = []
    for row in report.rows:
        items = list(map(rounded.__getitem__, row.intervals))
        rows.append({
            "context": row.context_id,
            "point": row.point_index,
            "intervals": {cid: [lo, hi] for cid, lo, hi in items},
            "violations": list(row.violations),
        })
    return {"expectation": round12(report.expectation), "ok": report.ok, "rows": rows}


def load_matrix(path: str, tol: float | None = None) -> HermitianOperator:
    return matrix_from_doc(load_document(path), tol)


def load_projection(path: str, tol: float | None = None) -> Projection:
    return projection_from_doc(load_document(path), tol)


def load_vector(path: str, tol: float | None = None) -> UnitVector:
    return vector_from_doc(load_document(path), tol)


def load_context(path: str, tol: float | None = None) -> Context:
    return context_from_doc(load_document(path), tol)

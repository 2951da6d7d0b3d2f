"""A fully worked spin-1 walkthrough used by the CLI demo command.

Builds the z-component spin operator on C^3, its spectral family, a table of
outer projection approximations of the projector onto the middle eigenvector
across characteristic contexts, and the generalised-value report of the spin
operator in that eigenstate over the coarsening poset of its eigencontext.
All constructions are deterministic.
"""

from __future__ import annotations

import numpy as np

from .config import resolve_tolerance
from .contexts import Context, build_poset, context_from_operator
from .daseinisation import outer_projection
from .linalg import HermitianOperator, Projection, spectral_family
from .operators import operator_arrow
from .serialization import (
    matrix_to_doc,
    report_to_doc,
    round12,
    subobject_to_doc,
    value_to_doc,
)
from .states import UnitVector, containment_report, pseudo_state, value

__all__ = ["spin_z", "spin1_demo_doc", "render_demo"]

_GENERIC_SEED = 20260814


def spin_z() -> HermitianOperator:
    """The z-spin operator diag(1, 0, -1)/sqrt(2) on C^3."""
    return HermitianOperator(np.diag([1.0, 0.0, -1.0]) / np.sqrt(2.0))


def _rotated_atoms(theta: float) -> tuple[Projection, Projection]:
    """An orthogonal pair of rank-1 projections in the e1/e3 plane."""
    c, s = np.cos(theta), np.sin(theta)
    q1 = np.array([c, 0.0, s], dtype=np.complex128)
    q3 = np.array([-s, 0.0, c], dtype=np.complex128)
    return Projection.onto(q1), Projection.onto(q3)


def _unit_of(p: Projection) -> np.ndarray:
    """The range vector of a rank-1 projection, up to phase."""
    w, v = np.linalg.eigh(p.matrix)
    return v[:, int(np.argmax(w))]


def _outer_cases(tol: float) -> list[dict]:
    e1 = Projection.onto(np.array([1.0, 0.0, 0.0]))
    e2 = Projection.onto(np.array([0.0, 1.0, 0.0]))
    e3 = Projection.onto(np.array([0.0, 0.0, 1.0]))
    q1, q3 = _rotated_atoms(0.7)
    r1, r3 = _rotated_atoms(1.3)
    rank2 = Projection(e2.matrix + r1.matrix)
    # A maximal context containing rank2 = e2 + q1 whose atoms both overlap e2.
    u_plus = Projection.onto((np.array([0.0, 1.0, 0.0]) + _unit_of(q1)) / np.sqrt(2.0))
    u_minus = Projection.onto((np.array([0.0, 1.0, 0.0]) - _unit_of(q1)) / np.sqrt(2.0))
    generic_rng = np.random.default_rng(_GENERIC_SEED)
    ginibre = generic_rng.standard_normal((3, 3)) + 1j * generic_rng.standard_normal((3, 3))
    unitary = np.linalg.qr(ginibre)[0]
    cases = [
        ("own-context", Context([e2, e2.complement()], tol)),
        ("coarse-e1", Context([e1, e1.complement()], tol)),
        ("coarse-e3", Context([e3, e3.complement()], tol)),
        ("shared-maximal", Context([q1, e2, q3], tol)),
        ("coarse-q1", Context([q1, q1.complement()], tol)),
        ("coarse-q3", Context([q3, q3.complement()], tol)),
        ("rank2-context", Context([rank2, rank2.complement()], tol)),
        ("rank2-maximal", Context([u_plus, u_minus, q3], tol)),
        ("generic-maximal", Context([Projection.onto(unitary[:, i]) for i in range(3)], tol)),
    ]
    rows = []
    for label, ctx in cases:
        approx = outer_projection(e2, ctx, tol)
        rows.append(
            {
                "label": label,
                "context": ctx.id,
                "rank": approx.rank,
                "result": matrix_to_doc(approx),
            }
        )
    return rows


def spin1_demo_doc(tol: float | None = None) -> dict:
    """The complete demo as one machine-readable document."""
    tol = resolve_tolerance(tol)
    sz = spin_z()
    family = spectral_family(sz, tol)
    eigencontext = context_from_operator(sz, tol)
    poset = build_poset([eigencontext], close_coarsening=True, tol=tol)
    psi = UnitVector.basis(3, 1)
    arrow = operator_arrow(sz, poset, tol)
    state = pseudo_state(psi, poset, tol)
    report = containment_report(arrow, state, psi, sz, tol)
    return {
        "operator": matrix_to_doc(sz),
        "spectral_family": {
            "thresholds": [round12(t) for t in family.thresholds],
            "steps": [matrix_to_doc(step) for step in family.steps],
        },
        "outer_cases": _outer_cases(tol),
        "poset_contexts": list(poset.signature),
        "pseudo_state": subobject_to_doc(state),
        "value": value_to_doc(value(arrow, state)),
        "report": report_to_doc(report),
    }


def render_demo(doc: dict) -> str:
    """Human-readable rendering of the demo document."""
    lines = ["spin-1 walkthrough", ""]
    lines.append("spectral family of the z-spin operator:")
    for t, step in zip(doc["spectral_family"]["thresholds"], doc["spectral_family"]["steps"]):
        diag = [row[i][0] for i, row in enumerate(step["entries"])]
        lines.append(f"  r >= {t:+.9g}: step diag = {diag}")
    lines.append("")
    lines.append("outer approximations of the projector onto e2:")
    for row in doc["outer_cases"]:
        lines.append(f"  {row['label']:<16} context {row['context']}  rank {row['rank']}")
    lines.append("")
    report = doc["report"]
    lines.append(f"value of the z-spin operator in the e2 eigenstate "
                 f"(expectation {report['expectation']:g}):")
    for row in report["rows"]:
        intervals = ", ".join(
            f"{cid[:8]}: [{lo:+.6g}, {hi:+.6g}]"
            for cid, (lo, hi) in sorted(row["intervals"].items())
        )
        status = "ok" if not row["violations"] else f"VIOLATES {row['violations']}"
        lines.append(f"  context {row['context'][:8]} point {row['point']}: {intervals} ({status})")
    lines.append("")
    lines.append(f"containment: {'all intervals contain the expectation' if report['ok'] else 'violations found'}")
    return "\n".join(lines)

"""The property-suite harness: the props document it produces, and how a
failing trial is counted and noted."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import toposq.suites as suites
from toposq.cli import main

SUITE_NAMES = (
    "order-preservation",
    "injectivity",
    "bottom-top",
    "join-preservation",
    "meet-subpreservation",
    "non-surjectivity",
    "operator-sandwich",
    "operator-on-projections",
    "coarse-graining",
    "filter-identities",
    "arrow-consistency",
    "expectation-containment",
)


def test_props_json_document_is_pinned(capsys):
    """props --dims 2,3 --trials 3 --seed 1 --format json, as recorded before
    the suites shared one harness."""
    code = main(["props", "--dims", "2,3", "--trials", "3", "--seed", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == {
        "failures": 0,
        "suites": [
            {
                "name": name,
                "dim": dim,
                "trials": 3,
                "failures": 0,
                "notes": ["strict instances: 3"] if name == "meet-subpreservation" else [],
            }
            for dim in (2, 3)
            for name in SUITE_NAMES
        ],
    }


def test_failing_check_counts_every_trial(monkeypatch):
    monkeypatch.setattr(suites, "spectral_leq", lambda *args: False)
    result = suites.suite_operator_sandwich(3, 4, np.random.default_rng(0))
    assert (result.name, result.dim, result.trials) == ("operator-sandwich", 3, 4)
    assert result.failures == 4
    assert result.notes == [f"trial {k}: sandwich violated" for k in range(4)]


def test_failing_pooled_check_counts_every_trial(monkeypatch):
    never_monotone = SimpleNamespace(leq=lambda other: False)
    monkeypatch.setattr(suites, "daseinise_projection", lambda p, poset, tol: never_monotone)
    result = suites.suite_order_preservation(2, 12, np.random.default_rng(0))
    assert result.failures == 12
    assert result.notes == [f"trial {k}: delta not monotone" for k in range(12)]


def test_containment_notes_at_most_three_violations_per_trial(monkeypatch):
    report = SimpleNamespace(ok=False, violations=tuple(f"w{i}" for i in range(5)))
    monkeypatch.setattr(suites, "check_containment", lambda psi, a, poset, tol: report)
    result = suites.suite_containment(2, 2, np.random.default_rng(0))
    assert result.failures == 2
    assert result.notes == [f"trial {k}: violation w{i}" for k in range(2) for i in range(3)]


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"dims": (2.5,), "trials": 1}, "dims"),
        ({"dims": (True,), "trials": 1}, "dims"),
        ({"trials": 1.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"trials": 1, "seed": 1.5}, "seed"),
    ],
)
def test_run_all_rejects_non_integer_arguments(kwargs, name):
    with pytest.raises(ValueError, match=f"props needs integer {name}, got "):
        suites.run_all(**kwargs)

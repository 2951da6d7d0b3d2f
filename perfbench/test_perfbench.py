"""Tests of the benchmark's oracles and recorded references.

Run with ``python -m pytest perfbench``. The oracles in ``oracle.py`` use
numpy alone; these tests show that they agree with toposq where toposq is
known to be right, that they catch a wrong value, and that the references
in ``reference.json`` agree with them rather than merely with whatever the
library printed when they were recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from toposq import HermitianOperator, build_poset, global_sections, operator_arrow  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
RECORDED = sorted(REFERENCE["seeds"], key=int)


def dim4_closure(seed):
    rng = np.random.default_rng(seed)
    atoms = workloads.maximal_atoms(4, rng)
    return build_poset([workloads.to_context(atoms)], close_coarsening=True), rng


def arrow_rows(arrow):
    return [(v.id, i, pair.intervals()) for v in arrow.poset for i, pair in enumerate(arrow.pairs(v))]


@pytest.mark.parametrize("spectrum", ["generic", "repeated"])
def test_closed_form_interval_matches_operator_arrow(spectrum):
    poset, rng = dim4_closure(11)
    a = workloads.hermitian(4, rng)
    if spectrum == "repeated":
        u = workloads.haar_unitary(4, rng)
        a = u @ np.diag([-1.0, 0.5, 0.5, 2.0]) @ u.conj().T
    ids, contexts = workloads.poset_arrays(poset)
    problems, down = oracle.poset_problems(ids, contexts, poset.strict_pairs())
    assert problems == []
    rows = arrow_rows(operator_arrow(HermitianOperator(a), poset))
    problems, checked = oracle.interval_problems(ids, contexts, a, rows, down)
    assert problems == []
    assert checked == sum(len(iv) for _, _, iv in rows) == 142


def test_interval_oracle_rejects_a_shifted_interval():
    poset, rng = dim4_closure(12)
    a = workloads.hermitian(4, rng)
    ids, contexts = workloads.poset_arrays(poset)
    _, down = oracle.poset_problems(ids, contexts, poset.strict_pairs())
    rows = arrow_rows(operator_arrow(HermitianOperator(a), poset))
    cid, point, intervals = rows[3]
    w, lo, hi = intervals[0]
    rows[3] = (cid, point, ((w, lo + 1e-7, hi), *intervals[1:]))
    problems, _ = oracle.interval_problems(ids, contexts, a, rows, down)
    assert len(problems) == 1


def test_poset_oracle_rejects_a_missing_pair():
    poset, _ = dim4_closure(13)
    ids, contexts = workloads.poset_arrays(poset)
    problems, _ = oracle.poset_problems(ids, contexts, poset.strict_pairs()[1:])
    assert problems and "1 missing" in problems[0]


def peres_prefix(k):
    return build_poset(
        [workloads.to_context(b) for b in workloads.peres_bases()[:k]], close_intersection=True
    )


@pytest.mark.parametrize("k, expected", [(4, 13), (6, 18)])
def test_brute_force_sections_on_peres_prefixes(k, expected):
    poset = peres_prefix(k)
    ids, contexts = workloads.poset_arrays(poset)
    maximal, choices = oracle.brute_force_sections(contexts)
    assert len(maximal) == k
    assert len(choices) == expected
    found = sorted(tuple(s[ids[m]].index for m in maximal) for s in global_sections(poset))
    assert found == choices


def test_brute_force_sections_on_the_commuting_control():
    poset, _ = dim4_closure(14)
    _, contexts = workloads.poset_arrays(poset)
    maximal, choices = oracle.brute_force_sections(contexts)
    assert len(maximal) == 1
    assert choices == [(0,), (1,), (2,), (3,)]


def test_peres_invariants_match_the_oracles():
    inv = REFERENCE["invariants"]["ks_peres"]
    full = build_poset([workloads.to_context(b) for b in workloads.peres_bases()], close_intersection=True)
    ids, contexts = workloads.poset_arrays(full)
    assert oracle.poset_problems(ids, contexts, full.strict_pairs())[0] == []
    assert [len(full), len(full.strict_pairs())] == inv["peres"]
    prefix = peres_prefix(workloads.PERES_PREFIX)
    ids, contexts = workloads.poset_arrays(prefix)
    assert oracle.poset_problems(ids, contexts, prefix.strict_pairs())[0] == []
    assert [len(prefix), len(prefix.strict_pairs())] == inv["prefix"][:2]
    assert len(oracle.brute_force_sections(contexts)[1]) == inv["prefix"][2]
    assert inv["control"][2] == 4


def test_recorded_section_counts_match_the_brute_force():
    inv = REFERENCE["invariants"]["ks_peres"]
    for seed in RECORDED:
        ref = REFERENCE["seeds"][seed]["ks_peres"]
        assert ref["prefix"] == inv["prefix"]
        assert ref["control"] == inv["control"]


def assert_matches_summary(expected, ref):
    for key in ("n_contexts", "n_strict_pairs", "rows", "intervals"):
        assert ref[key] == expected[key], key
    for key in ("mu_sum", "nu_sum"):
        assert ref[key] == pytest.approx(expected[key], rel=1e-12, abs=1e-9), key


def test_closure_invariants_match_set_partitions():
    inv = REFERENCE["invariants"]["closure_d6"]
    rng = np.random.default_rng(0)
    atoms, a, psi = workloads.ClosureD6._inputs(rng, 6)
    totals = oracle.coarsening_closure_summary([atoms], a, psi)
    assert (totals["n_contexts"], totals["n_strict_pairs"], totals["intervals"]) == (
        inv["n_contexts"], inv["n_strict_pairs"], inv["arrow_intervals"]
    )


@pytest.mark.parametrize("seed", RECORDED)
def test_recorded_closure_references_match_the_closed_form(seed):
    atoms, a, psi = workloads.ClosureD6._inputs(np.random.default_rng(int(seed)), 6)
    ref = REFERENCE["seeds"][seed]["closure_d6"]
    assert_matches_summary(oracle.coarsening_closure_summary([atoms], a, psi), ref)
    assert ref["expectation"] == pytest.approx(float((psi.conj() @ a @ psi).real), abs=1e-12)
    assert ref["violations"] == 0


@pytest.mark.parametrize("seed", RECORDED)
def test_recorded_trial_references_match_the_closed_form(seed):
    for i, ref in enumerate(REFERENCE["seeds"][seed]["trials_d3"]):
        psi, a, seeds = workloads.TrialsD3.inputs_of(int(seed), i)
        assert_matches_summary(oracle.coarsening_closure_summary(seeds, a, psi), ref)
        assert ref["violations"] == 0

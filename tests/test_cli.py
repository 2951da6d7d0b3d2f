"""End-to-end CLI behaviour: output, exit codes, formats, determinism.

Golden comparisons are numeric at 1e-9 (values parsed back out of the JSON
output), never byte-for-byte on formatted floats.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import nontransitive_contexts, rng_for
from toposq.cli import main
from toposq.sampling import random_hermitian, random_maximal_context, random_unit_vector
from toposq.serialization import (
    arrow_to_doc,
    context_to_doc,
    load_context,
    load_matrix,
    load_projection,
    load_vector,
    matrix_to_doc,
    poset_to_doc,
    report_to_doc,
    value_to_doc,
    vector_to_doc,
)
from toposq import (
    HermitianOperator,
    Projection,
    UnitVector,
    build_poset,
    containment_report,
    context_from_atoms,
    operator_arrow,
    outer_projection,
    pseudo_state,
    value,
)

SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture()
def files(tmp_path):
    """Spin-1 inputs on disk: operator, projection, state, two contexts."""
    sz = HermitianOperator(np.diag([SQ2, 0.0, -SQ2]))
    p2 = Projection(np.diag([0.0, 1.0, 0.0]))
    c, s = np.cos(0.7), np.sin(0.7)
    q1 = Projection.onto(np.array([c, 0.0, s]))
    q3 = Projection.onto(np.array([-s, 0.0, c]))
    eigen = context_from_atoms(
        [Projection(np.diag(d)) for d in ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])]
    )
    shared = context_from_atoms([q1, p2, q3])
    paths = {}
    for name, doc in (
        ("op", matrix_to_doc(sz)),
        ("proj", matrix_to_doc(p2)),
        ("state", vector_to_doc(UnitVector.basis(3, 1))),
        ("eigen", context_to_doc(eigen)),
        ("shared", context_to_doc(shared)),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    paths["eigen_id"] = eigen.id
    return paths


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- subcommands


def test_contexts_table(files, capsys):
    code, out, err = run(
        capsys, "contexts", files["eigen"], "--close-coarsening"
    )
    assert code == 0
    assert err == ""
    assert "contexts: 4" in out
    assert "inclusions: 3" in out
    assert files["eigen_id"] in out


def test_contexts_json_round_trips(files, capsys):
    code, out, _ = run(capsys, "contexts", files["eigen"], "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["contexts"]) == 1
    assert doc["contexts"][0]["id"] == files["eigen_id"]
    from toposq.serialization import context_from_doc

    assert context_from_doc(doc["contexts"][0]).id == files["eigen_id"]


def test_das_proj(files, capsys):
    code, out, _ = run(
        capsys,
        "das-proj",
        files["proj"],
        "--contexts",
        files["eigen"],
        files["shared"],
        "--close-coarsening",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    # 4 + 4 coarsenings minus the shared 2-atom context for the middle atom.
    assert len(doc["components"]) == 7
    for cid, indices in doc["components"].items():
        assert len(indices) == 1  # every outer approximation is one atom here
    assert set(doc["outer_ranks"].values()) <= {1, 2}
    p = load_projection(files["proj"])
    poset = build_poset(
        [load_context(files["eigen"]), load_context(files["shared"])], close_coarsening=True
    )
    assert doc["outer_ranks"] == {v.id: outer_projection(p, v).rank for v in poset}


def test_das_op_worked_intervals(files, capsys):
    code, out, _ = run(
        capsys, "das-op", files["op"], "--contexts", files["eigen"],
        "--format", "json",
    )
    assert code == 0
    arrow = json.loads(out)["arrow"]
    eigen_id = files["eigen_id"]
    pairs = arrow[eigen_id]
    values = sorted(pairs[str(i)]["mu"][eigen_id] for i in range(3))
    assert values == pytest.approx([-SQ2, 0.0, SQ2], abs=1e-9)
    for i in range(3):
        assert pairs[str(i)]["mu"][eigen_id] == pytest.approx(
            pairs[str(i)]["nu"][eigen_id], abs=1e-9
        )


def test_value_report(files, capsys):
    code, out, _ = run(
        capsys,
        "value",
        files["op"],
        files["state"],
        "--contexts",
        files["eigen"],
        "--close-coarsening",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["ok"] is True
    assert doc["report"]["expectation"] == pytest.approx(0.0, abs=1e-9)
    lows = []
    for pairs in doc["value"].values():
        for pair in pairs:
            lows.extend(pair["mu"].values())
    assert min(lows) == pytest.approx(-SQ2, abs=1e-9)


def test_value_table_mentions_containment(files, capsys):
    code, out, _ = run(
        capsys, "value", files["op"], files["state"],
        "--contexts", files["eigen"],
    )
    assert code == 0
    assert "containment: ok" in out


def test_value_and_demo_build_arrow_and_state_once(files, capsys, monkeypatch):
    import toposq.cli
    import toposq.demo
    import toposq.states

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (toposq.cli, toposq.demo, toposq.states):
        for name in ("operator_arrow", "pseudo_state"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    routes = {
        "value": lambda: run(
            capsys, "value", files["op"], files["state"], "--contexts", files["eigen"],
            "--close-coarsening", "--format", "json",
        ),
        "spin1_demo_doc": toposq.demo.spin1_demo_doc,
    }
    for route, call in routes.items():
        calls.clear()
        call()
        assert calls == {"operator_arrow": 1, "pseudo_state": 1}, route


def test_json_output_streams_the_bytes_of_one_dumps(files, capsys, monkeypatch):
    # A random dim-4 closure on disk, beside the spin-1 files, so the
    # documents carry 12-digit floats.
    rng = rng_for(77)
    for name, doc in (
        ("v4", context_to_doc(random_maximal_context(4, rng))),
        ("a4", matrix_to_doc(random_hermitian(4, rng))),
        ("psi4", vector_to_doc(random_unit_vector(4, rng))),
    ):
        files[name] = str(files["dir"] / f"{name}.json")
        (files["dir"] / f"{name}.json").write_text(json.dumps(doc))
    cases = []
    for op, state, contexts in (
        (files["op"], files["state"], [files["eigen"], files["shared"]]),
        (files["a4"], files["psi4"], [files["v4"]]),
    ):
        a, psi = load_matrix(op), load_vector(state)
        poset = build_poset([load_context(path) for path in contexts], close_coarsening=True)
        arrow = operator_arrow(a, poset)
        state_sub = pseudo_state(psi, poset)
        report = containment_report(arrow, state_sub, psi, a)
        closure = ["--close-coarsening", "--format", "json"]
        cases += [
            (["value", op, state, "--contexts", *contexts, *closure],
             {**value_to_doc(value(arrow, state_sub)), "report": report_to_doc(report)}),
            (["das-op", op, "--contexts", *contexts, *closure], arrow_to_doc(arrow)),
            (["contexts", *contexts, *closure], poset_to_doc(poset)),
        ]
    expected = [json.dumps(doc, indent=2, sort_keys=True) + "\n" for _, doc in cases]

    # The CLI streams its document: it never builds the whole text.
    def unused(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", unused)
    for (argv, _), want in zip(cases, expected):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == want, argv[0]


def test_props_small_run(files, capsys):
    code, out, _ = run(
        capsys, "props", "--dims", "2", "--trials", "2", "--seed", "5"
    )
    assert code == 0
    assert "total failures: 0" in out


def test_props_deterministic_under_seed(capsys):
    code1, out1, _ = run(
        capsys, "props", "--dims", "2", "--trials", "2", "--seed", "9"
    )
    code2, out2, _ = run(
        capsys, "props", "--dims", "2", "--trials", "2", "--seed", "9"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_props_zero_trials_empty_summary(capsys):
    code, out, _ = run(capsys, "props", "--trials", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"] == []
    assert doc["failures"] == 0


def test_spin1_demo_golden_numbers(capsys):
    code, out, _ = run(capsys, "spin1-demo", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    thresholds = doc["spectral_family"]["thresholds"]
    assert thresholds == pytest.approx([-SQ2, 0.0, SQ2], abs=1e-9)
    ranks = [case["rank"] for case in doc["outer_cases"]]
    assert ranks == [1, 2, 2, 1, 2, 2, 2, 2, 3]
    assert doc["report"]["ok"] is True
    assert doc["report"]["expectation"] == pytest.approx(0.0, abs=1e-9)


def test_spin1_demo_table(capsys):
    code, out, _ = run(capsys, "spin1-demo")
    assert code == 0
    assert "spectral family" in out
    assert "containment" in out


# --------------------------------------------------------------- exit codes


def test_missing_file_is_input_error(files, capsys):
    code, _, err = run(capsys, "contexts", str(files["dir"] / "absent.json"))
    assert code == 1
    assert "error:" in err


def test_malformed_json_is_input_error(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text('{"dim": 3,')
    code, _, err = run(capsys, "contexts", str(bad))
    assert code == 1
    assert "line" in err


def test_density_matrix_state_is_input_error(files, capsys):
    code, _, err = run(
        capsys, "value", files["op"], files["proj"],
        "--contexts", files["eigen"],
    )
    assert code == 1
    assert "density matrices" in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["--dims", "1"], "got 1"),
        (["--dims", "0"], "got 0"),
        (["--dims", "-3"], "got -3"),
        (["--dims", "2,1"], "got 1"),
        (["--trials", "-5"], "got -5"),
        (["--seed", "-1"], "seed, got -1"),
        (["--dims", "2,,3"], "integer dimensions, got '2,,3'"),
        (["--dims", "a"], "integer dimensions, got 'a'"),
    ],
)
def test_props_bad_dims_or_trials_is_input_error(capsys, argv, bad):
    code, out, err = run(capsys, "props", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: props needs") and bad in err


def test_usage_error_returns_one(capsys):
    assert main(["contexts"]) == 1  # missing required positional
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_nonpositive_tolerance_is_input_error(files, capsys):
    code, _, err = run(capsys, "contexts", files["eigen"], "--tol", "-1")
    assert code == 1
    assert "tolerance" in err


def test_infinite_tolerance_is_input_error(files, capsys):
    code, _, err = run(capsys, "contexts", files["eigen"], "--tol", "inf")
    assert code == 1
    assert "tolerance" in err


def test_malformed_tolerance_environment_names_the_variable():
    proc = subprocess.run(
        [sys.executable, "-c", "import toposq"],
        env={**os.environ, "TOPOSQ_TOL": "abc"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "TOPOSQ_TOL" in proc.stderr.strip().splitlines()[-1]


def test_cli_import_leaves_out_the_property_suites():
    # Only the props handler imports the suites and the samplers they use.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, toposq.cli; "
         "print(sorted(m for m in sys.modules if m in ('toposq.suites', 'toposq.sampling')))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mixed_dimension_contexts_is_input_error(files, capsys):
    two = context_from_atoms(
        [Projection(np.diag([1.0, 0.0])), Projection(np.diag([0.0, 1.0]))]
    )
    path = files["dir"] / "two.json"
    path.write_text(json.dumps(context_to_doc(two)))
    code, _, err = run(capsys, "contexts", files["eigen"], str(path))
    assert code == 1
    assert "dimension" in err


def test_contexts_not_transitive_at_tol_returns_one(files, capsys):
    # Contexts whose inclusion is not transitive at the tolerance are bad
    # input: exit 1 with an error line, not the internal-violation exit 3.
    paths = []
    for name, ctx in zip("uwv", nontransitive_contexts(1e-5)):
        path = files["dir"] / f"{name}.json"
        path.write_text(json.dumps(context_to_doc(ctx)))
        paths.append(str(path))
    code, out, err = run(capsys, "contexts", *paths, "--tol", "1e-5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: inclusion is not transitive")


def test_suite_failure_returns_two(files, capsys, monkeypatch):
    import toposq.suites as suites
    from toposq.suites import SuiteResult

    def rigged(dims, trials, seed, tol):
        return [SuiteResult("rigged", 2, trials, 1, ["witness: rigged"])]

    # The props handler imports run_all from the suites when it runs.
    monkeypatch.setattr(suites, "run_all", rigged)
    code, out, _ = run(capsys, "props", "--dims", "2", "--trials", "1")
    assert code == 2
    assert "rigged" in out


def test_internal_violation_returns_three(files, capsys, monkeypatch):
    from toposq import InternalInvariantViolation
    import toposq.cli as cli

    def boom(*args, **kwargs):
        raise InternalInvariantViolation("rigged failure")

    monkeypatch.setattr(cli, "operator_arrow", boom)
    code, _, err = run(
        capsys, "das-op", files["op"], "--contexts", files["eigen"]
    )
    assert code == 3
    assert "internal invariant violation" in err

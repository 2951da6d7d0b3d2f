"""The benchmark's four workloads: inputs from a seed, one operation, checks.

Constructing a workload is its set-up: it derives every input from the seed
and runs a small warm-up. ``prepare(i)`` builds the inputs of operation i
(untimed), ``run(inputs)`` is the timed operation, and ``check(i, out, ref)``
returns the problems found in its output (empty when correct) against the
recorded reference ``ref`` and the numpy oracles in ``oracle.py``.
``summary(i, out)`` is what ``tools.py record`` stores as the reference.

The library only ever sees the generated inputs (matrices, vectors, JSON
files); the seed never reaches it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
import toposq
import toposq.cli
from toposq import (
    Context,
    HermitianOperator,
    Projection,
    UnitVector,
    build_poset,
    check_containment,
    global_sections,
    operator_arrow,
    pseudo_state,
    value,
)
from toposq.demo import spin1_demo_doc
from toposq.serialization import arrow_to_doc, report_to_doc, value_to_doc

TOL = toposq.default_tolerance()
TRIAL_REFS = 100  # trials_d3 records a reference for its first 100 trials
PERES_PREFIX = 8  # k=9 already takes 7 s and k=24 does not finish


# ---------------------------------------------------------------- inputs


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian(dim, rng):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def unit_vector(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def block_atoms(u, bounds):
    """Projections onto consecutive column blocks of a unitary."""
    return [u[:, lo:hi] @ u[:, lo:hi].conj().T for lo, hi in zip(bounds, bounds[1:])]


def maximal_atoms(dim, rng):
    return block_atoms(haar_unitary(dim, rng), range(dim + 1))


def random_atoms(dim, rng):
    """Atoms of a random context with 2..dim atoms, as toposq.sampling draws them."""
    n_atoms = int(rng.integers(2, dim + 1))
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_atoms - 1, replace=False).tolist())
    return block_atoms(haar_unitary(dim, rng), [0, *cuts, dim])


def peres_bases():
    """The 24 orthogonal bases of the Peres 24-ray set in C^4.

    Rays are the {0, +-1}^4 vectors with 1, 2 or 4 nonzero entries whose
    first nonzero entry is +1, sorted lexicographically; a basis is a sorted
    4-tuple of ray indices, and bases come in lexicographic order.
    """
    rays = sorted(
        r for r in itertools.product((0, 1, -1), repeat=4)
        if sum(1 for x in r if x) in (1, 2, 4) and next(x for x in r if x) == 1
    )
    vecs = np.array(rays, dtype=float)
    bases = [
        b for b in itertools.combinations(range(len(rays)), 4)
        if all(vecs[i] @ vecs[j] == 0 for i, j in itertools.combinations(b, 2))
    ]
    return [[np.outer(vecs[i], vecs[i]) / (vecs[i] @ vecs[i]) for i in b] for b in bases]


def to_context(atoms):
    return Context([Projection(p) for p in atoms])


# ---------------------------------------------------------------- checks


def digest(items):
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def poset_arrays(poset):
    return list(poset.signature), [[atom.matrix for atom in ctx.atoms] for ctx in poset]


def report_problems(poset, a, psi, report, arrow_doc=None):
    """Check a containment report (and optionally an arrow document) over a
    poset against the trace-form order and the closed-form intervals."""
    ids, contexts = poset_arrays(poset)
    problems, down = oracle.poset_problems(ids, contexts, poset.strict_pairs())
    support = oracle.support_points(ids, contexts, psi)
    rows = [(r.context_id, r.point_index, r.intervals) for r in report.rows]
    if {(c, i) for c, i, _ in rows} != {(c, i) for c in ids for i in support[c]}:
        problems.append("report rows differ from the pseudo-state support")
    problems += oracle.interval_problems(ids, contexts, a, rows, down)[0]
    if arrow_doc is not None:
        problems += oracle.interval_problems(ids, contexts, a, doc_rows(arrow_doc), down)[0]
    expected = float((psi.conj() @ (a @ psi)).real)
    if abs(report.expectation - expected) > TOL:
        problems.append(f"expectation {report.expectation!r} != {expected!r}")
    if not report.ok:
        problems.append(f"containment report has {len(report.violations)} violation(s)")
    return problems


def doc_rows(arrow_doc):
    for cid, per_point in arrow_doc.items():
        for point, pair in per_point.items():
            yield cid, int(point), [(w, pair["mu"][w], pair["nu"][w]) for w in pair["mu"]]


def report_summary(poset, report):
    intervals = [iv for row in report.rows for iv in row.intervals]
    return {
        "signature": digest(poset.signature),
        "n_contexts": len(poset),
        "n_strict_pairs": len(poset.strict_pairs()),
        "rows": len(report.rows),
        "intervals": len(intervals),
        "violations": len(report.violations),
        "expectation": report.expectation,
        "mu_sum": sum(lo for _, lo, _ in intervals),
        "nu_sum": sum(hi for _, _, hi in intervals),
    }


def reference_problems(got, ref, where="reference"):
    """Compare a summary with its recorded reference (floats to 1e-9)."""
    if isinstance(ref, dict):
        if set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [p for k in ref for p in reference_problems(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if len(got) != len(ref):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [p for k, (g, r) in enumerate(zip(got, ref)) for p in reference_problems(g, r, f"{where}[{k}]")]
    if isinstance(ref, float):
        if abs(got - ref) > TOL * max(1.0, abs(ref)):
            return [f"{where}: {got!r} != {ref!r}"]
        return []
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


# ---------------------------------------------------------------- workloads


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    trace_ops = 1
    spawns = False  # whether operations run in child processes

    def __init__(self, seed, workdir, invariants):
        self.seed = seed
        self.workdir = workdir
        self.invariants = invariants

    def traced(self, i):
        """The operation the traced run wraps; by default the timed one."""
        return self.run(self.prepare(i))

    def doc_bytes(self, out):
        return 0

    def layer_extras(self, timed):
        """Per-layer metrics measured outside the traced operations, each
        time taken with ``timed(fn)``."""
        return {}


class ClosureD6(Workload):
    """The coarsening closure of one Haar-random maximal context at dim 6,
    with the call sequence of ``toposq value``."""

    name = "closure_d6"
    dim = 6

    def __init__(self, seed, workdir, invariants):
        super().__init__(seed, workdir, invariants)
        self.inputs = self._inputs(np.random.default_rng(seed), self.dim)
        self.run(self._inputs(np.random.default_rng(seed), 3))

    @staticmethod
    def _inputs(rng, dim):
        return maximal_atoms(dim, rng), hermitian(dim, rng), unit_vector(dim, rng)

    def prepare(self, i):
        return self.inputs

    def run(self, inputs):
        atoms, a, psi = inputs
        op, vec = HermitianOperator(a), UnitVector(psi)
        poset = build_poset([to_context(atoms)], close_coarsening=True)
        arrow = operator_arrow(op, poset)
        state = pseudo_state(vec, poset)
        val = value(arrow, state)
        report = check_containment(vec, op, poset)
        doc = json.dumps({**arrow_to_doc(arrow), "report": report_to_doc(report)}, sort_keys=True)
        return poset, arrow, state, val, report, doc

    def check(self, i, out, ref):
        poset, arrow, state, val, report, doc = out
        atoms, a, psi = self.inputs
        inv = self.invariants
        problems = []
        if (len(poset), len(poset.strict_pairs())) != (inv["n_contexts"], inv["n_strict_pairs"]):
            problems.append(f"poset has {len(poset)} contexts, {len(poset.strict_pairs())} pairs")
        ids, contexts = poset_arrays(poset)
        if not oracle.Atoms(contexts + [atoms]).inclusion()[:, -1].all():
            problems.append("a context of the closure is not a coarsening of the seed")
        arrow_doc = json.loads(doc)["arrow"]
        n_intervals = sum(len(pair["mu"]) for per in arrow_doc.values() for pair in per.values())
        if n_intervals != inv["arrow_intervals"]:
            problems.append(f"arrow has {n_intervals} intervals")
        support = oracle.support_points(ids, contexts, psi)
        if any(set(state.component(c)) != support[c] for c in ids):
            problems.append("pseudo-state differs from the overlap oracle")
        if any(set(val.component(c)) != {arrow.pair(c, i) for i in support[c]} for c in ids):
            problems.append("value differs from the arrow on the pseudo-state")
        problems += report_problems(poset, a, psi, report, arrow_doc)
        if ref is not None:
            problems += reference_problems(self.summary(i, out), ref)
        return problems

    def summary(self, i, out):
        return report_summary(out[0], out[4])

    def doc_bytes(self, out):
        return len(out[5])


class TrialsD3(Workload):
    """Acceptance-8 trials: a random dim-3 vector, operator and two-seed
    coarsening poset, then check_containment."""

    name = "trials_d3"
    trace_ops = 40

    def __init__(self, seed, workdir, invariants):
        super().__init__(seed, workdir, invariants)
        for i in range(3):
            self.run(self._inputs(np.random.default_rng([seed, 1, i])))

    @staticmethod
    def _inputs(rng):
        psi, a = unit_vector(3, rng), hermitian(3, rng)
        return psi, a, [random_atoms(3, rng) for _ in range(2)]

    def prepare(self, i):
        return self.inputs_of(self.seed, i)

    @classmethod
    def inputs_of(cls, seed, i):
        return cls._inputs(np.random.default_rng([seed, 0, i]))

    def run(self, inputs):
        psi, a, seeds = inputs
        vec, op = UnitVector(psi), HermitianOperator(a)
        poset = build_poset([to_context(s) for s in seeds], close_coarsening=True)
        return poset, check_containment(vec, op, poset)

    def check(self, i, out, ref):
        poset, report = out
        psi, a, seeds = self.prepare(i)
        bell = {2: 2, 3: 5}
        expected = sum(bell[len(s)] - 1 for s in seeds)
        problems = [] if len(poset) == expected else [f"poset has {len(poset)} contexts, not {expected}"]
        ids, contexts = poset_arrays(poset)
        incl = oracle.Atoms(contexts + seeds).inclusion()
        if not (incl[:, -1] | incl[:, -2]).all():
            problems.append("a context is not a coarsening of either seed")
        problems += report_problems(poset, a, psi, report)
        if ref is not None and i < len(ref):
            problems += reference_problems(self.summary(i, out), ref[i], f"trial {i}")
        return problems

    def summary(self, i, out):
        return report_summary(*out)


class KsPeres(Workload):
    """Intersection closure of the Peres bases, section search on the first
    PERES_PREFIX bases, and a commuting control with exactly 4 sections."""

    name = "ks_peres"

    def __init__(self, seed, workdir, invariants):
        super().__init__(seed, workdir, invariants)
        self.bases = peres_bases()
        self.control = maximal_atoms(4, np.random.default_rng(seed))
        self._brute = {}
        poset = build_poset([to_context(self.control)], close_coarsening=True)
        global_sections(poset)

    def prepare(self, i):
        return self.bases, self.control

    def run(self, inputs):
        bases, control = inputs
        full = build_poset([to_context(b) for b in bases], close_intersection=True)
        prefix = build_poset([to_context(b) for b in bases[:PERES_PREFIX]], close_intersection=True)
        prefix_sections = global_sections(prefix)
        control_poset = build_poset([to_context(control)], close_coarsening=True)
        return full, prefix, prefix_sections, control_poset, global_sections(control_poset)

    def _section_problems(self, label, poset, sections, expected):
        ids, contexts = poset_arrays(poset)
        problems, _ = oracle.poset_problems(ids, contexts, poset.strict_pairs())
        if len(sections) != expected:
            problems.append(f"{label}: {len(sections)} sections, not {expected}")
        key = digest(ids)
        if key not in self._brute:
            self._brute[key] = oracle.brute_force_sections(contexts)
        maximal, choices = self._brute[key]
        got = sorted(tuple(s[ids[m]].index for m in maximal) for s in sections)
        if got != choices:
            problems.append(f"{label}: sections differ from the brute-force enumeration")
        return problems

    def check(self, i, out, ref):
        full, prefix, prefix_sections, control, control_sections = out
        inv = self.invariants
        problems = []
        for label, poset in (("peres", full), ("prefix", prefix), ("control", control)):
            if [len(poset), len(poset.strict_pairs())] != inv[label][:2]:
                problems.append(f"{label}: {len(poset)} contexts, {len(poset.strict_pairs())} pairs")
        ids, contexts = poset_arrays(full)
        problems += oracle.poset_problems(ids, contexts, full.strict_pairs())[0]
        problems += self._section_problems("prefix", prefix, prefix_sections, inv["prefix"][2])
        problems += self._section_problems("control", control, control_sections, inv["control"][2])
        if ref is not None:
            problems += reference_problems(self.summary(i, out), ref)
        return problems

    def summary(self, i, out):
        full, prefix, prefix_sections, control, control_sections = out
        return {
            "peres": [len(full), len(full.strict_pairs())],
            "prefix": [len(prefix), len(prefix.strict_pairs()), len(prefix_sections)],
            "control": [len(control), len(control.strict_pairs()), len(control_sections)],
            "control_signature": digest(control.signature),
        }


def _matrix_doc(m):
    return {"dim": len(m), "entries": [[[z.real, z.imag] for z in row] for row in m.tolist()]}


class CliOneshot(Workload):
    """One fresh ``python -m toposq.cli`` process per operation, cycling
    through value, das-op and spin1-demo on JSON files written at set-up."""

    name = "cli_oneshot"
    subcommands = ("value", "das-op", "spin1-demo")
    trace_ops = 3
    spawns = True

    def __init__(self, seed, workdir, invariants):
        super().__init__(seed, workdir, invariants)
        rng = np.random.default_rng(seed)
        atoms, a, psi = maximal_atoms(4, rng), hermitian(4, rng), unit_vector(4, rng)
        low, mid, high = np.sort(rng.standard_normal(3))
        u = haar_unitary(4, rng)
        repeated = u @ np.diag([low, mid, mid, high]) @ u.conj().T
        self.arrays = {"atoms": atoms, "a": a, "psi": psi, "repeated": repeated}
        workdir.mkdir(parents=True, exist_ok=True)
        files = {
            "context": {"atoms": [_matrix_doc(p) for p in atoms]},
            "operator": _matrix_doc(a),
            "state": {"dim": 4, "amplitudes": [[z.real, z.imag] for z in psi.tolist()]},
            "repeated": _matrix_doc(repeated),
        }
        path = {}
        for name, doc in files.items():
            path[name] = str(workdir / f"{name}.json")
            Path(path[name]).write_text(json.dumps(doc))
        closure = ["--contexts", path["context"], "--close-coarsening", "--format", "json"]
        self.argv = {
            "value": ["value", path["operator"], path["state"], *closure],
            "das-op": ["das-op", path["repeated"], *closure],
            "spin1-demo": ["spin1-demo", "--format", "json"],
        }
        root = Path(toposq.__file__).resolve().parent.parent
        self.env = {**os.environ, "PYTHONPATH": str(root)}
        self.cwd = str(root.parent)
        self.expected = self._library_docs()
        self._docs_checked = None
        self.run("spin1-demo")

    def _library_docs(self):
        arr = self.arrays
        vec, op = UnitVector(arr["psi"]), HermitianOperator(arr["a"])
        poset = build_poset([to_context(arr["atoms"])], close_coarsening=True)
        arrow = operator_arrow(op, poset)
        val = value(arrow, pseudo_state(vec, poset))
        report = check_containment(vec, op, poset)
        self._poset, self._report = poset, report
        docs = {
            "value": {**value_to_doc(val), "report": report_to_doc(report)},
            "das-op": arrow_to_doc(operator_arrow(HermitianOperator(arr["repeated"]), poset)),
            "spin1-demo": spin1_demo_doc(),
        }
        return json.loads(json.dumps(docs))

    def _check_docs(self):
        """Oracle checks of the in-process library documents, done once."""
        arr = self.arrays
        poset = self._poset
        problems = report_problems(poset, arr["a"], arr["psi"], self._report)
        ids, contexts = poset_arrays(poset)
        _, down = oracle.poset_problems(ids, contexts, poset.strict_pairs())
        rows = doc_rows(self.expected["das-op"]["arrow"])
        problems += oracle.interval_problems(ids, contexts, arr["repeated"], rows, down)[0]
        if not self.expected["spin1-demo"]["report"]["ok"]:
            problems.append("spin1-demo report is not ok")
        return problems

    def prepare(self, i):
        return self.subcommands[i % len(self.subcommands)]

    def run(self, sub):
        proc = subprocess.run(
            [sys.executable, "-m", "toposq.cli", *self.argv[sub]], env=self.env, cwd=self.cwd,
            capture_output=True, text=True, timeout=120,
        )
        return sub, proc.returncode, proc.stdout, proc.stderr

    def in_process(self, sub):
        """The same argv through toposq.cli.main in this interpreter."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = toposq.cli.main(self.argv[sub])
        return sub, code, buffer.getvalue(), ""

    def traced(self, i):
        return self.in_process(self.prepare(i))

    def check(self, i, out, ref):
        if self._docs_checked is None:
            self._docs_checked = self._check_docs()
        problems = list(self._docs_checked)
        sub, code, stdout, stderr = out
        if code != 0:
            return problems + [f"{sub} exited {code}: {stderr.strip()[-200:]}"]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return problems + [f"{sub} printed no JSON document"]
        if doc != self.expected[sub]:
            problems.append(f"{sub} output differs from the in-process library result")
        if ref is not None:
            problems += reference_problems(self.summary(i, out), {sub: ref[sub]})
        return problems

    def summary(self, i, out):
        return {out[0]: digest(json.loads(out[2]))}

    def doc_bytes(self, out):
        return len(out[2].encode())

    def layer_extras(self, timed):
        """Start-up layers from process versus in-process times."""

        def wall(fn):
            return statistics.median(timed(fn) for _ in range(3))

        extras = {}
        import_cmd = [sys.executable, "-c", "import toposq"]
        extras["cli.import_s"] = wall(
            lambda: subprocess.run(import_cmd, env=self.env, cwd=self.cwd, check=True)
        )
        process = in_proc = 0.0
        for sub in self.subcommands:
            p = wall(lambda: self.run(sub))
            q = wall(lambda: self.in_process(sub))
            extras[f"cli.{sub}.process_s"] = p
            extras[f"cli.{sub}.in_process_s"] = q
            process += p
            in_proc += q
        extras["cli.startup_share"] = (process - in_proc) / process
        return extras


WORKLOADS = {w.name: w for w in (ClosureD6, TrialsD3, KsPeres, CliOneshot)}

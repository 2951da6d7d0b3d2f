"""Independent checks of toposq's outputs, computed with numpy alone.

Nothing here imports toposq. The checks work on raw atom matrices, so a fault
in the library's inclusion relation, restriction tables, arrow or section
search cannot hide by also corrupting the check.

The order is decided by the trace form: P_b <= P_a iff tr(P_a P_b) = rank P_b.
It cancels to about 1e-8, so it is only trusted on generic inputs, where every
trace is either an integer or far from one; ``TRACE_TOL`` reflects that.
"""

from __future__ import annotations

import itertools

import numpy as np

TRACE_TOL = 1e-6
VALUE_TOL = 1e-9


class Atoms:
    """The atoms of a list of contexts, stacked for the trace-form tests.

    ``contexts`` is a sequence of sequences of (d, d) projection matrices.
    """

    def __init__(self, contexts):
        mats = [np.asarray(p, dtype=np.complex128) for ctx in contexts for p in ctx]
        self.stack = np.array(mats)
        self.owner = np.repeat(np.arange(len(contexts)), [len(ctx) for ctx in contexts])
        self.offsets = np.concatenate([[0], np.cumsum([len(ctx) for ctx in contexts])])
        flat = self.stack.reshape(len(mats), -1)
        trace = (flat @ flat.conj().T).real
        self.rank = np.rint(np.diagonal(trace)).astype(int)
        # below[a, b]: atom b lies under atom a.
        self.below = np.abs(trace - self.rank[None, :]) < TRACE_TOL

    def __len__(self):
        return len(self.offsets) - 1

    def atoms_of(self, c):
        return range(self.offsets[c], self.offsets[c + 1])

    def inclusion(self):
        """incl[s, p]: context s is included in context p (p is finer)."""
        member = np.zeros((len(self), len(self.owner)), dtype=int)
        member[self.owner, np.arange(len(self.owner))] = 1
        covered = (member @ self.below.astype(int)) > 0
        n_atoms = member.sum(axis=1)
        return (covered.astype(int) @ member.T) == n_atoms[None, :]

    def containing_atom(self, a, c):
        """Local index of the atom of context c that contains global atom a."""
        hits = [j for j, b in enumerate(self.atoms_of(c)) if self.below[b, a]]
        return hits[0] if len(hits) == 1 else None


def poset_problems(ids, contexts, strict_pairs):
    """Compare a poset's strict pairs with the trace-form order.

    Returns (problems, down) where down maps each id to the ids below it.
    """
    atoms = Atoms(contexts)
    incl = atoms.inclusion()
    problems = []
    n = len(ids)
    for s, p in zip(*np.nonzero(incl & incl.T)):
        if s < p:
            problems.append(f"contexts {ids[s]} and {ids[p]} are the same context")
    expected = {(ids[s], ids[p]) for s, p in zip(*np.nonzero(incl)) if s != p}
    got = set(map(tuple, strict_pairs))
    if got != expected:
        problems.append(
            f"strict pairs differ from the trace-form order: "
            f"{len(got - expected)} extra, {len(expected - got)} missing"
        )
    down = {ids[p]: {ids[s] for s in range(n) if incl[s, p]} for p in range(n)}
    return problems, down


def spectral_clusters(a, tol=VALUE_TOL):
    """Distinct eigenvalues of a Hermitian matrix (gaps <= tol merged, mean
    value) with orthonormal bases of their eigenspaces."""
    values, vectors = np.linalg.eigh(np.asarray(a, dtype=np.complex128))
    clusters = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[clusters[-1][-1]] > tol:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return [(float(np.mean(values[c])), vectors[:, c]) for c in clusters]


def atom_intervals(stack, a, tol=VALUE_TOL):
    """Closed-form arrow interval of every atom Q: [min, max] of the
    eigenvalues of A whose eigenspaces overlap Q (||Q U|| > tol)."""
    clusters = spectral_clusters(a, tol)
    overlap = np.array(
        [np.linalg.svd(stack @ basis, compute_uv=False)[:, 0] > tol for _, basis in clusters]
    ).T
    values = np.array([v for v, _ in clusters])
    mu = np.array([values[row].min() for row in overlap])
    nu = np.array([values[row].max() for row in overlap])
    return mu, nu


def interval_problems(ids, contexts, a, rows, down, tol=VALUE_TOL):
    """Check arrow rows against the closed form.

    ``rows`` yields (context_id, point_index, intervals) with intervals a
    sequence of (subcontext_id, mu, nu). Each row must cover exactly the
    down-set of its context, and each interval must match the closed form
    at the atom of the subcontext that contains the point's atom.
    """
    atoms = Atoms(contexts)
    mu, nu = atom_intervals(atoms.stack, a, tol)
    index = {cid: k for k, cid in enumerate(ids)}
    problems = []
    checked = 0
    for cid, point, intervals in rows:
        a_global = atoms.offsets[index[cid]] + point
        if {w for w, _, _ in intervals} != down[cid]:
            problems.append(f"row ({cid}, {point}) does not cover the down-set of {cid}")
            continue
        for w, lo, hi in intervals:
            j = atoms.containing_atom(a_global, index[w])
            if j is None:
                problems.append(f"row ({cid}, {point}): no atom of {w} contains the point")
                continue
            b = atoms.offsets[index[w]] + j
            checked += 1
            if abs(lo - mu[b]) > tol or abs(hi - nu[b]) > tol:
                problems.append(
                    f"row ({cid}, {point}) at {w}: [{lo!r}, {hi!r}] "
                    f"!= closed form [{mu[b]!r}, {nu[b]!r}]"
                )
    return problems, checked


def support_points(ids, contexts, psi, tol=VALUE_TOL):
    """Per context, the atoms that psi overlaps: the pseudo-state component."""
    psi = np.asarray(psi, dtype=np.complex128)
    return {
        cid: {i for i, q in enumerate(ctx) if np.linalg.norm(np.asarray(q) @ psi) > tol}
        for cid, ctx in zip(ids, contexts)
    }


def brute_force_sections(contexts):
    """Brute-force global sections: enumerate one point per maximal context
    and keep the choices on which every smaller context receives the same
    restriction from every maximal context above it.

    Returns the sorted list of choices, each a tuple of atom indices of the
    maximal contexts in input order, with the maximal context indices.
    """
    atoms = Atoms(contexts)
    incl = atoms.inclusion()
    n = len(contexts)
    maximal = [c for c in range(n) if not any(incl[c, p] and p != c for p in range(n))]
    choices = np.array(
        list(itertools.product(*(range(len(contexts[m])) for m in maximal))), dtype=int
    ).reshape(-1, len(maximal))
    keep = np.ones(len(choices), dtype=bool)
    for w in range(n):
        if w in maximal:
            continue
        images = []
        for k, m in enumerate(maximal):
            if incl[w, m]:
                table = np.array(
                    [atoms.containing_atom(a, w) for a in atoms.atoms_of(m)]
                )
                images.append(table[choices[:, k]])
        for other in images[1:]:
            keep &= other == images[0]
    return maximal, [tuple(row) for row in choices[keep]]


def set_partitions(n):
    """All set partitions of range(n), as tuples of blocks."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        for k in range(len(rest)):
            yield rest[:k] + (rest[k] + (n - 1,),) + rest[k + 1:]
        yield rest + ((n - 1,),)


def coarsening_closure_summary(seeds, a, psi, tol=VALUE_TOL):
    """Report totals for the coarsening closure of generic seed contexts,
    computed on set partitions of each seed's atoms without any poset.

    Generic seeds share no coarsening and no two of their coarsenings are
    comparable across seeds, so each seed contributes its own partitions.
    Returns the counts and interval sums that ``workloads.report_summary``
    records for check_containment over that closure.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    totals = {"n_contexts": 0, "n_strict_pairs": 0, "rows": 0, "intervals": 0,
              "mu_sum": 0.0, "nu_sum": 0.0}
    for atoms in seeds:
        parts = [p for p in set_partitions(len(atoms)) if len(p) >= 2]
        blocks = sorted({b for p in parts for b in p})
        stack = np.array([sum(np.asarray(atoms[i]) for i in b) for b in blocks])
        mu, nu = atom_intervals(stack, a, tol)
        index = {b: k for k, b in enumerate(blocks)}
        for p in parts:
            down = [q for q in parts if all(any(set(b) <= set(c) for c in q) for b in p)]
            totals["n_contexts"] += 1
            totals["n_strict_pairs"] += len(down) - 1
            for b in p:
                if np.linalg.norm(stack[index[b]] @ psi) <= tol:
                    continue
                totals["rows"] += 1
                for q in down:
                    c = next(c for c in q if set(b) <= set(c))
                    totals["intervals"] += 1
                    totals["mu_sum"] += mu[index[c]]
                    totals["nu_sum"] += nu[index[c]]
    return totals

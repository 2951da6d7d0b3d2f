#!/usr/bin/env python3
"""Fixed-seed benchmark for toposq.

    python3 perfbench/run.py --workload closure_d6 --seed 0 --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and the README) against the toposq
sources in ``src/`` of the checkout that holds this file. The untimed set-up
runs SETUP_REPEATS times; then operations run back to back, one client in a
closed loop, until their summed time reaches ``--seconds``. Every output is
checked against ``reference.json`` and the numpy oracles. Times are reported
at a reference host speed (see ``Speed``), and as measured.

With ``--trace 1`` a fixed number of operations runs untraced and then
traced, and the per-layer metrics come from the spans of the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
the environment it ran in, is written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
K_REF_S = 0.005  # calibration kernel time that defines the reference speed
KERNEL_LOOPS = 150
SAMPLE_EVERY_S = 0.25
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
    }


def tail(times):
    """The highest of a few percentiles with at least 10 samples beyond it,
    as (percentile, value), or None when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[min(n - 1, int(n * pct / 100))]
    return None


def checked(workload, i, out, ref):
    """Problems in one output; an exception in the check counts as one."""
    if isinstance(out, Exception):
        return [f"operation {i} raised {type(out).__name__}: {out}"]
    try:
        return workload.check(i, out, ref)
    except Exception as exc:  # a broken output must count as a failure
        return [f"checking operation {i} raised {type(exc).__name__}: {exc}"]


def attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # counted in `failed`, with its message
        return exc


class Speed:
    """The host's speed over time, from a fixed calibration kernel.

    On a shared host a core's speed drifts by up to 2x over tens of seconds,
    which no run length averages away. While sampling, a SIGALRM timer runs
    the kernel every SAMPLE_EVERY_S, also in the middle of an operation;
    each sample is the fastest of three kernel runs. ``scaled(t0, t1)`` is
    the time in [t0, t1] outside the samples, each stretch between two
    samples multiplied by K_REF_S / k, with k the mean of their kernel times.
    The kernel is the small complex matmul and spectral norm that dominate
    toposq's profile, in a Python loop.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._norm = np.linalg.norm
        self._a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.samples = []  # (start, end, kernel seconds)
        self._sampling = False
        self.sample()

    def sample(self, *_signal_args):
        if self._sampling:  # a timer signal arrived during a slow sample
            return
        self._sampling = True
        norm, a, b = self._norm, self._a, self._b
        start = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(KERNEL_LOOPS):
                norm(a @ b - b, 2)
            best = min(best, time.perf_counter() - t0)
        self.samples.append((start, time.perf_counter(), best))
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    @contextlib.contextmanager
    def held(self, hold):
        """Hold samples while a child process works: a sample in this
        process would slow the child down and miss the time it ran. A held
        sample runs as soon as the block ends."""
        if hold:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            if hold:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def kernels(self):
        return [k for _, _, k in self.samples]

    def timed(self, fn):
        """fn() between two samples; returns the time it took at the
        reference speed."""
        self.sample()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        self.sample()
        return self.scaled(t0, t1)[1]

    def scaled(self, t0, t1):
        """(raw, scaled): the time in [t0, t1] outside the samples, as
        measured and at the reference speed."""
        raw = scaled = 0.0
        for (_, left, k0), (right, _, k1) in zip(self.samples, self.samples[1:]):
            overlap = min(t1, right) - max(t0, left)
            if overlap > 0:
                raw += overlap
                scaled += overlap * 2 * K_REF_S / (k0 + k1)
        return raw, scaled


def timed_run(workload, seconds, speed, ref):
    rusage = resource.RUSAGE_CHILDREN if workload.name == "cli_oneshot" else resource.RUSAGE_SELF
    spans, problems, failed, busy = [], [], 0, 0.0
    with speed:
        while not spans or busy < seconds:
            i = len(spans)
            inputs = workload.prepare(i)
            with speed.held(workload.spawns):
                t0 = time.perf_counter()
                out = attempt(workload.run, inputs)
                spans.append((t0, time.perf_counter()))
            busy += spans[-1][1] - spans[-1][0]
            peak_kb = resource.getrusage(rusage).ru_maxrss  # before the check adds its own
            found = checked(workload, i, out, ref)
            failed += bool(found)
            problems += found
    raw, scaled = zip(*(speed.scaled(t0, t1) for t0, t1 in spans))
    metrics = {
        "op_p50_s": (statistics.median(scaled), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    extra = {
        "fail_ratio": (failed / len(spans), "ratio"),
        "op_wall_p50_s": (statistics.median(raw), "s"),
        "ops_per_wall_s": (len(raw) / sum(raw), "1/s"),
        "kernel_min_s": (min(speed.kernels()), "s"),
        "kernel_max_s": (max(speed.kernels()), "s"),
    }
    pct = tail(scaled)
    if pct is not None:
        extra[f"op_tail_s (p{pct[0]:g} of {len(scaled)})"] = (pct[1], "s")
    return len(spans), failed, problems, metrics, extra, None


def unit_of(key, val):
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_bytes"):
        return "B"
    return "count" if isinstance(val, int) else "ratio"


def traced_run(workload, seed, speed, ref):
    from tracing import Spans, Tracer, layer_metrics, layer_table

    problems, failed, doc_bytes = [], 0, 0
    walls = {}  # traced -> (raw, scaled) seconds of the pass
    op_scale = []  # reference-speed time / measured time of each traced operation
    tracer = Tracer()
    for traced in (False, True):
        if traced:
            tracer.install([sys.modules[type(workload).__module__]])
        raw = scaled = 0.0
        try:
            for i in range(workload.trace_ops):
                tracer.op_id = i
                t0 = time.perf_counter()
                out = attempt(workload.traced, i)
                t1 = time.perf_counter()
                speed.sample()
                raw += t1 - t0
                scaled += speed.scaled(t0, t1)[1]
                if traced:
                    op_scale.append(speed.scaled(t0, t1)[1] / (t1 - t0))
                found = checked(workload, i, out, ref)
                failed += bool(found)
                problems += found
                if traced and not found:
                    doc_bytes += workload.doc_bytes(out)
        finally:
            tracer.uninstall()
        walls[traced] = raw, scaled
    spans = Spans(tracer, op_scale)
    metrics = layer_metrics(spans)
    metrics["serialization.doc_bytes"] = doc_bytes
    metrics.update(workload.layer_extras(speed.timed))
    metrics["trace.overhead_ratio"] = (walls[True][1] - walls[False][1]) / walls[False][1]
    tracer.save(OUT / f"{workload.name}-seed{seed}-spans.npz")
    metrics = {k: (v, unit_of(k, v)) for k, v in metrics.items()}
    extra = {"traced_s": (walls[True][1], "s"), "untraced_s": (walls[False][1], "s"),
             "traced_wall_s": (walls[True][0], "s"), "untraced_wall_s": (walls[False][0], "s")}
    table = layer_table(spans, walls[True][1])
    return 2 * workload.trace_ops, failed, problems, metrics, extra, table


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # One CPU for this process and the CLI children that inherit it, so the
    # calibration kernel measures the core the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "toposq" / "__init__.py").is_file():
        print(f"error: no toposq sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import toposq

    if Path(toposq.__file__).resolve().parent != SRC / "toposq":
        print(f"error: imported toposq from {toposq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    invariants = reference["invariants"].get(cls.name)
    ref = reference["seeds"].get(str(args.seed), {}).get(cls.name)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    OUT.mkdir(exist_ok=True)

    speed = Speed()
    spans = []
    with speed:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            with speed.held(cls.spawns):
                t0 = time.perf_counter()
                workload = cls(args.seed, OUT / "work", invariants)
                spans.append((t0, time.perf_counter()))
    if args.trace:
        attempted, failed, problems, metrics, extra, table = traced_run(workload, args.seed, speed, ref)
        # A layer function the workload never calls has no time metric.
        metrics = {k: v for k, v in metrics.items() if k in reported or v != (0.0, "s")}
    else:
        raw, scaled = zip(*(speed.scaled(t0, t1) for t0, t1 in spans))
        setup_s = import_s * K_REF_S / speed.samples[0][2] + statistics.median(scaled)
        attempted, failed, problems, metrics, extra, table = timed_run(
            workload, args.seconds, speed, ref
        )
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        extra = {"setup_wall_s": (import_s + statistics.median(raw), "s"), **extra}

    for problem in problems[:20]:
        print(f"problem: {problem}")
    width = max(len(k) for k in [*metrics, *extra])
    for key, (val, unit) in [*metrics.items(), *extra.items()]:
        print(f"{key:<{width}}  {val:.6g} {unit}")
    if table:
        print(f"{'layer':<14} {'calls':>9} {'self_s':>9} {'attr_s':>9} {'self%':>6} {'attr%':>6}")
        for layer, row in table.items():
            print(f"{layer:<14} {row['calls']:>9} {row['self_s']:>9.4f} {row['attributed_s']:>9.4f} "
                  f"{100 * row['self_share']:>6.1f} {100 * row['attributed_share']:>6.1f}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }
    record = {
        **result,
        "workload": cls.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in [*metrics.items(), *extra.items()]},
        "layers": table,
        "problems": problems,
    }
    name = f"{cls.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

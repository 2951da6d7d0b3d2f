#!/usr/bin/env python3
"""Steadiness, comparison and reference tooling for the toposq benchmark.

    python3 perfbench/tools.py runs --seeds 0-9 --save runs.json
        Run every workload once per seed and print each end-to-end metric's
        median, quartiles and spread (IQR / median) against its bound.
    python3 perfbench/tools.py compare BASE.json NEW.json
        Compare two saved sets of runs against the bounds in BENCHMARK.json.
        More failed operations in NEW than in BASE is a failure.
    python3 perfbench/tools.py paired --parent DIR --change DIR
        Run parent and change checkouts in 10 pairs on seeds 0-9,
        alternating which runs first, and apply the win rule: the change
        wins at least 9 of 10 pairs, the medians differ by more than the
        parent's IQR, and no more operations fail than at the parent.
    python3 perfbench/tools.py record --seeds 0-15
        Recompute the per-seed references in reference.json from the
        current sources, refusing any output the oracles reject.

Set files are JSON: {workload: {metric: [value per run]}}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAIRS = 10


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def declared(root=ROOT):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def workload_names(root=ROOT):
    return [w["name"] for w in declared(root)["workloads"]]


def run_once(root, workload, seed, seconds):
    """One benchmark run in a fresh interpreter; returns its result object."""
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base, new, better):
    """Relative change, positive when new is worse than base."""
    change = (new - base) / base
    return change if better == "lower" else -change


def cmd_runs(args):
    bench = declared()
    runs = {}
    for workload in workload_names():
        runs[workload] = {}
        for seed in seed_list(args.seeds):
            result = run_once(ROOT, workload, seed, bench["run_seconds"])
            for key, metric in result["metrics"].items():
                runs[workload].setdefault(key, []).append(metric["value"])
            runs[workload].setdefault("failed", []).append(result["failed"])
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    report_spread(runs, bench)


def report_spread(runs, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<12} {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, metrics in runs.items():
        for key, bound in bounds.items():
            q1, q2, q3 = quartiles(metrics[key])
            spread = (q3 - q1) / q2
            flag = "" if spread < bound / 3 else ("  (> bound/3)" if spread < bound else "  (> bound)")
            print(f"{workload:<12} {key:<12} {q2:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f} {bound:>6}{flag}")


def cmd_compare(args):
    bench = declared()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    status = 0
    print(f"{'workload':<12} {'metric':<12} {'base':>11} {'new':>11} {'worse_by':>9} {'bound':>6}  verdict")
    for workload in base:
        base_failed, new_failed = sum(base[workload]["failed"]), sum(new[workload]["failed"])
        if new_failed > base_failed:
            print(f"{workload:<12} {'failed':<12} {base_failed:>11} {new_failed:>11}  FAILURES")
            status = 1
        for m in bench["end_to_end"]:
            b, n = base[workload][m["name"]], new[workload][m["name"]]
            bq1, bmed, bq3 = quartiles(b)
            change = worse_by(bmed, statistics.median(n), m["better"])
            if change > m["bound"]:
                verdict, status = "REGRESSION", 1
            elif (bq3 - bq1) / bmed > m["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:<12} {m['name']:<12} {bmed:>11.5g} {statistics.median(n):>11.5g} "
                  f"{change:>9.3f} {m['bound']:>6}  {verdict}")
    return status


def cmd_paired(args):
    bench = declared(args.parent)
    for workload in workload_names(args.parent):
        sides = {"parent": {}, "change": {}}
        failed = {"parent": 0, "change": 0}
        for seed in range(PAIRS):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                result = run_once(root, workload, seed, bench["run_seconds"])
                failed[side] += result["failed"]
                for key, metric in result["metrics"].items():
                    sides[side].setdefault(key, []).append(metric["value"])
        more_failures = failed["change"] > failed["parent"]
        print(f"{workload:<12} failed: parent {failed['parent']}, change {failed['change']}"
              f"{'  (no gain can be claimed)' if more_failures else ''}")
        for m in bench["end_to_end"]:
            p, c = sides["parent"][m["name"]], sides["change"][m["name"]]
            wins = sum(worse_by(pv, cv, m["better"]) < 0 for pv, cv in zip(p, c))
            q1, pmed, q3 = quartiles(p)
            cmed = statistics.median(c)
            gain = (not more_failures and wins >= 0.9 * len(p)
                    and worse_by(pmed, cmed, m["better"]) < 0 and abs(cmed - pmed) > q3 - q1)
            print(f"{workload:<12} {m['name']:<12} parent {pmed:.5g} [{q1:.5g}, {q3:.5g}]  "
                  f"change {cmed:.5g}  wins {wins}/{len(p)}  {'GAIN' if gain else 'no claim'}")


def cmd_record(args):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    for seed in seed_list(args.seeds):
        entry = reference["seeds"].setdefault(str(seed), {})
        for name in workloads.WORKLOADS:
            cls = workloads.WORKLOADS[name]
            w = cls(seed, ROOT / ".perfbench-out" / "work", reference["invariants"][name])
            count = {"trials_d3": workloads.TRIAL_REFS, "cli_oneshot": 3}.get(name, 1)
            summaries = []
            for i in range(count):
                out = w.run(w.prepare(i))
                problems = w.check(i, out, None)
                if problems:
                    raise SystemExit(f"{name} seed {seed} op {i}: {problems[:5]}")
                summaries.append(w.summary(i, out))
            if name == "trials_d3":
                entry[name] = summaries
            elif name == "cli_oneshot":
                entry[name] = {k: v for s in summaries for k, v in s.items()}
            else:
                entry[name] = summaries[0]
            print(f"recorded {name} seed {seed}", flush=True)
        path.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--save")
    p.set_defaults(func=cmd_runs)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("paired")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.set_defaults(func=cmd_paired)
    p = sub.add_parser("record")
    p.add_argument("--seeds", default="0-15")
    p.set_defaults(func=cmd_record)
    args = parser.parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())

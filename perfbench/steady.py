"""Steadiness self-check: is every end-to-end metric inside its bound?

Runs ``run.py`` on each workload once per seed, in sets.  Within a set the
workloads take turns seed by seed, so a change in host speed during the set
hits every workload alike; the sets run one after the other, as two
benchmark sessions of the same code would.  For every end-to-end metric it
reports, per set, the spread between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound in ``BENCHMARK.json``: a spread above a third of the bound
is marked ``wide``, above the bound ``EXCEEDS``.  With two or more sets it
also reports how much worse each later set's median is than the first
set's, and flags a drift above the bound.  A workload with a flagged metric
is listed under ``dropped`` with its measured spreads and drifts.  With
``--trace-runs`` it also makes traced runs and reports the median tracing
overhead per workload.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --sets 2 --out steady.json
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads service_mixed
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def status(value: float, bound: float) -> str:
    if value > bound:
        return "EXCEEDS"
    return "wide" if value > bound / 3 else "ok"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report as JSON")
    args = parser.parse_args(argv)

    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    # values[workload][metric] holds one list of values per set.
    values = {w: {name: [] for name in metrics} for w in workloads}
    incorrect = {w: 0 for w in workloads}
    walls = {w: [] for w in workloads}
    for set_index in range(args.sets):
        for w in workloads:
            for name in metrics:
                values[w][name].append([])
        for index in range(args.runs):
            seed = args.seed_base + set_index * args.runs + index
            for w in workloads:
                result = one_run(w, seed, args.seconds, 0)
                incorrect[w] += not result["correct"] or result["failed"] > 0
                walls[w].append(result["wall_s"])
                for name in metrics:
                    values[w][name][set_index].append(result["metrics"][name]["value"])

    report = {
        "runs": args.runs,
        "sets": args.sets,
        "seed_base": args.seed_base,
        "seconds": args.seconds,
        "workloads": {},
        "dropped": [],
    }
    for w in workloads:
        entry = {
            "incorrect_runs": incorrect[w],
            "run_wall_s": {"median": statistics.median(walls[w]), "max": max(walls[w])},
            "metrics": {},
        }
        flagged = {}
        for name, metric in metrics.items():
            bound = metric["bound"]
            sets = [spread(set_values) for set_values in values[w][name]]
            for set_index, stats in enumerate(sets):
                stats["status"] = status(stats["spread"], bound)
                stats["values"] = values[w][name][set_index]
                if stats["status"] == "EXCEEDS":
                    flagged[f"{name} spread (set {set_index + 1})"] = stats["spread"]
            drifts = [
                worsening(sets[0]["median"], later["median"], metric["better"])
                for later in sets[1:]
            ]
            for set_index, drift in enumerate(drifts, start=2):
                if drift > bound:
                    flagged[f"{name} drift (set {set_index})"] = drift
            entry["metrics"][name] = {"bound": bound, "sets": sets, "drifts": drifts}
            print(
                f"{w:14s} {name:16s} bound {bound:5.3f} | "
                + " | ".join(
                    f"median {s['median']:11.6g} spread {s['spread']:6.4f} {s['status']}"
                    for s in sets
                )
                + "".join(f" | drift {d:+7.4f} {status(d, bound)}" for d in drifts)
            )
        if args.trace_runs:
            overheads = [
                one_run(w, args.seed_base + index, args.seconds, 1)["metrics"][
                    "trace.overhead_ratio"
                ]["value"]
                for index in range(args.trace_runs)
            ]
            entry["trace_overhead_ratio_median"] = statistics.median(overheads)
            print(f"{w:14s} trace overhead median {entry['trace_overhead_ratio_median']:.4f}")
        if flagged or incorrect[w]:
            report["dropped"].append(
                {"workload": w, "flagged": flagged, "incorrect_runs": incorrect[w]}
            )
        report["workloads"][w] = entry
    # The full protocol makes 4 + 22 x (workloads) runs, spread evenly.
    per_run = statistics.median(wall for w in workloads for wall in walls[w])
    report["projected_protocol_s"] = (4 + 22 * len(workloads)) * per_run
    print(f"median run {per_run:.1f} s; full protocol ~{report['projected_protocol_s']:.0f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 1 if report["dropped"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""The interpreter that holds the engine, one session of a benchmark run.

``run.py`` spawns this script once per session and times it from spawn to
its ``READY`` line: that interval is the session's set-up (interpreter
start, imports, problem and engine construction, kernel compile, segment
load, service start).  Three modes:

* ``inproc`` runs repetitions of ``sweep_cold``, ``sweep_warm`` or
  ``nsga2_explore`` until the session's share of ``--seconds`` is used,
  each on a fresh engine, and prints one JSON report with per-repetition
  timings, the served front and its own peak RSS;
* ``service`` starts a :class:`~repro.service.DseService` on a loopback TCP
  port, prints the port, serves the load generator until a line arrives on
  stdin (or stdin closes), drains, and prints its report;
* ``setup`` does what ``inproc`` does before its ``READY`` line, then
  exits: an extra set-up sample.

Usage (normally only through ``run.py``)::

    python3 perfbench/child.py inproc '<json spec>'
    python3 perfbench/child.py service '<json spec>'
    python3 perfbench/child.py setup '<json spec>'
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.dse.exhaustive import ExhaustiveSearch  # noqa: E402
from repro.dse.nsga2 import Nsga2, Nsga2Settings  # noqa: E402
from repro.dse.problem import WbsnDseProblem  # noqa: E402
from repro.dse.runner import run_algorithm  # noqa: E402
from repro.engine import EvaluationEngine  # noqa: E402
from repro.experiments.casestudy import build_case_study_evaluator  # noqa: E402
from repro.service import DseService  # noqa: E402

import tracing  # noqa: E402

#: Chunk size of the exhaustive sweeps (16 chunks over a 131,072-design space).
SWEEP_CHUNK = 8192
#: NSGA-II shape of ``nsga2_explore``.
NSGA2_POPULATION = 96
NSGA2_GENERATIONS = 100


def build_problem(domains: dict, **engine_options) -> WbsnDseProblem:
    """The 6-node beacon case-study problem over the given node domains."""
    return WbsnDseProblem(
        build_case_study_evaluator(),
        **{name: tuple(values) for name, values in domains.items()},
        engine=EvaluationEngine(**engine_options),
    )


def front_signature(front) -> list:
    """A served front as plain JSON rows, membership and order preserved."""
    return [
        [list(design.genotype), list(design.objectives), bool(design.feasible),
         int(design.violation_count)]
        for design in front
    ]


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in kilobytes.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready(payload: dict) -> None:
    print("READY " + json.dumps(payload), flush=True)


# ------------------------------------------------------------------ inproc


def _new_problem(spec: dict) -> WbsnDseProblem:
    if spec["workload"] == "sweep_warm":
        return build_problem(spec["domains"], cache_dir=spec["cache_dir"])
    return build_problem(spec["domains"])


def _one_rep(spec: dict, problem: WbsnDseProblem) -> dict:
    """One timed operation: a sweep or an NSGA-II run on ``problem``."""
    stamps: list[int] = []
    if spec["workload"] == "nsga2_explore":
        algorithm = Nsga2(
            problem,
            Nsga2Settings(
                population_size=NSGA2_POPULATION,
                generations=NSGA2_GENERATIONS,
                seed=spec["seed"],
            ),
        )
        evaluate_batch = problem.evaluate_batch

        def stamped(genotypes):
            # One batch per generation: the stamps give per-generation time.
            stamps.append(time.perf_counter_ns())
            return evaluate_batch(genotypes)

        problem.evaluate_batch = stamped
        options = {}
    else:
        algorithm = ExhaustiveSearch(problem, chunk_size=SWEEP_CHUNK)
        # Per-chunk front updates: what a streaming consumer waits on.
        options = {"front_callback": lambda _archive, _cursor: stamps.append(
            time.perf_counter_ns())}
    before = problem.engine.stats.snapshot()
    started = time.perf_counter_ns()
    result = run_algorithm(algorithm, **options)
    ended = time.perf_counter_ns()
    delta = problem.engine.stats.snapshot() - before
    if spec["workload"] == "nsga2_explore":
        marks = stamps + [ended]
    else:
        marks = [started] + stamps
    return {
        "time_s": (ended - started) / 1e9,
        "requests": delta.genotype_requests,
        "hits": delta.genotype_cache_hits,
        "model_evaluations": delta.model_evaluations,
        "engine_model_evaluations": problem.engine.stats.model_evaluations,
        "latencies_ms": [(b - a) / 1e6 for a, b in zip(marks, marks[1:])],
        "front": front_signature(result.front),
    }


def run_inproc(spec: dict) -> dict:
    tracer = tracing.Tracer() if spec["trace"] else None
    problem = _new_problem(spec)
    backend = problem.engine.stats.array_backend
    ready({})
    deadline = time.perf_counter() + spec["seconds"]
    reps: list[dict] = []
    front = None
    fronts_equal = True
    # A traced session alternates untraced and traced repetitions, so it
    # needs at least one of each.
    minimum = 2 if tracer is not None else 1
    while len(reps) < minimum or time.perf_counter() < deadline:
        traced = tracer is not None and len(reps) % 2 == 1
        undo = None
        if traced:
            undo = tracing.install_engine_layers(tracer)
            tracer.phase = "setup"
        if problem is None:
            problem = _new_problem(spec)
        if traced:
            tracer.phase = "timed"
        try:
            rep = _one_rep(spec, problem)
        finally:
            if undo is not None:
                undo()
        # Every repetition meets a fresh engine.  The engine and its problem
        # reference each other, so the old pair (and its memo) is freed by
        # the cycle collector; collect now, outside the timed region, so no
        # repetition pays for its predecessor's garbage.
        problem = None
        gc.collect()
        rep["traced"] = traced
        if front is None:
            front = rep["front"]
        fronts_equal = fronts_equal and rep.pop("front") == front
        reps.append(rep)
    report = {
        "reps": reps,
        "front": front,
        "fronts_equal": fronts_equal,
        "peak_rss_mb": peak_rss_mb(),
        "array_backend": backend,
    }
    if tracer is not None:
        report["trace"] = {
            "timed": tracer.totals("timed"),
            "setup": tracer.totals("setup"),
            "counts": tracer.counts("timed"),
            "setup_counts": tracer.counts("setup"),
        }
        tracer.write(spec["spans_path"])
    return report


# ----------------------------------------------------------------- service


async def serve(spec: dict) -> dict:
    tracer = tracing.Tracer() if spec["trace"] else None
    problem = build_problem(spec["domains"])
    engine = problem.engine
    if tracer is not None:
        tracing.install_engine_layers(tracer)
        tracing.install_server_layers(tracer)
    service = DseService(problem, close_engine=True)
    await service.start()
    before = engine.stats.snapshot()
    ready({"port": service.port})
    # Any line (or end of file) on stdin asks for a graceful drain.
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    admission = service.admission.snapshot()
    await service.stop()
    delta = engine.stats.snapshot() - before
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "array_backend": engine.stats.array_backend,
        "admitted": admission["admitted"],
        "rejected": admission["rejected_overload"] + admission["rejected_draining"],
        "requests": delta.genotype_requests,
        "hits": delta.genotype_cache_hits,
        "model_evaluations": delta.model_evaluations,
    }
    if tracer is not None:
        batches = [
            span for span in tracer.spans
            if span["name"] == "engine" and span["parent"] is None
        ]
        turnaround = tracer.durations_ms("service.batcher.turnaround")
        report["trace"] = {
            "timed": tracer.totals("timed"),
            "counts": tracer.counts("timed"),
            "batches": len(batches),
            "batch_engine_s": sum(s["end_ns"] - s["start_ns"] for s in batches) / 1e9,
            "turnaround_ms_p50": statistics.median(turnaround) if turnaround else 0.0,
        }
        tracer.write(spec["spans_path"])
    return report


def main() -> None:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "inproc":
        report = run_inproc(spec)
    elif mode == "service":
        report = asyncio.run(serve(spec))
    elif mode == "setup":
        _new_problem(spec)
        ready({})
        report = {}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()

"""The repository benchmark: default-engine sweeps, NSGA-II and a service load.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (inputs are drawn from ``--seed``; the program only ever sees the
generated domains, genotypes and seeds):

* ``sweep_cold``: exhaustive sweep (8,192-row chunks) of a 131,072-design
  6-node beacon space on a fresh default engine, so every row is a memo miss.
  The seed picks 2 of the 8 default compression ratios; the frequencies
  are the 4 and 8 MHz defaults (see ``SWEEP_FREQUENCIES_HZ``).
* ``sweep_warm``: the same space, swept by fresh engines that warm-start
  from a persistent cache segment spilled once before the sessions.  Zero
  model evaluations: memo lookups, segment load and pruning do all the work.
* ``nsga2_explore``: NSGA-II (population 96, 100 generations, seeded by the
  workload seed) over the full default 6-node space, on the object path.
* ``service_mixed``: a ``DseService`` in its own interpreter over the
  ``sweep_cold`` space, driven by two closed-loop client connections
  (see ``loadgen.py``).

A run is four sessions; each spawns the interpreter that holds the engine
(``child.py``) and gives it a quarter of ``--seconds``.  In-process
figures are taken over all untraced repetitions of the run; service
figures are medians over its sessions.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics:

* ``setup_s``: median spawn-to-ready time of eight interpreters (the four
  sessions, each preceded by one that only sets up and stops): interpreter,
  imports, problem and engine, kernel compile, segment load, service start;
* ``designs_per_s``: designs served per second of the timed region
  (engine ``genotype_requests`` for sweeps and NSGA-II; evaluate rows
  replied for the service);
* ``latency_p50_ms`` / ``latency_p95_ms``: the time a user waits for the
  next result: an evaluate request from send to decoded reply on the
  service, a streamed front update (one 8,192-row chunk) on sweeps, a
  generation on NSGA-II.  The tail is p95, or the highest percentile with
  at least ten samples beyond it when there are fewer than 200 samples.
  In-process, p50 is the mean of the repetitions' own medians (see
  ``inproc_latency``);
* ``peak_rss_mb``: median peak RSS of the engine-holding interpreters.

``failed_frac`` is printed in the summary and carried by the result's
``attempted``/``failed`` counts.  With ``--trace 1``, every other
repetition (or service session) runs with the wrappers of ``tracing.py``
installed, and the last line carries the per-layer metrics, averaged per
traced repetition, plus the tracing overhead (traced over untraced median
time).  Correctness is checked outside the timed region on every run, and
a failed check makes the run fail.  Spans and a full result record are
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("sweep_cold", "sweep_warm", "nsga2_explore", "service_mixed")
SESSIONS = 4
#: The two highest default frequencies: the only pair under which every
#: design of the sweep space is feasible.  Feasibility is set by the
#: frequencies alone (mixed pairs keep 1/8 of the space, so pruning sees
#: 56% fewer rows), so drawing them from the seed would change the
#: workload's cost from run to run; the seed draws the compression ratios.
SWEEP_FREQUENCIES_HZ = [4e6, 8e6]
#: A session's child is killed if it outlives its share of the run by this.
SESSION_GRACE_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ inputs


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program will see, drawn from the workload seed."""
    import numpy as np

    from repro.dse.problem import DEFAULT_COMPRESSION_RATIOS

    if workload == "nsga2_explore":
        return {"domains": {}, "seed": seed}
    rng = np.random.default_rng(seed)
    ratios = sorted(float(v) for v in rng.choice(DEFAULT_COMPRESSION_RATIOS, 2, replace=False))
    return {
        "domains": {"compression_ratios": ratios, "frequencies_hz": SWEEP_FREQUENCIES_HZ},
        "seed": seed,
    }


# ---------------------------------------------------------------- sessions


class Session:
    """One spawned engine-holding interpreter, timed from spawn to READY."""

    def __init__(self, mode: str, spec: dict, limit_s: float) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, mode, json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self._watchdog = threading.Timer(limit_s, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"{mode} session failed to start")
        self.ready = json.loads(line[len("READY "):])

    def finish(self) -> dict:
        """Ask the child to stop, then return its JSON report."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        output = self.proc.stdout.read()
        self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"session exited with code {self.proc.returncode}")
        return json.loads(output.strip().splitlines()[-1])

    def close(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def setup_probe(mode: str, spec: dict, limit_s: float) -> float:
    """Spawn-to-READY time of one more interpreter that stops at once.

    Set-up is a few tenths of a second, so a run samples it more often
    than it has sessions.
    """
    session = Session(mode, spec, limit_s)
    session.finish()
    return session.setup_s


def tail_percentile(count: int) -> float:
    """p95, or the highest percentile with at least ten samples beyond it."""
    return max(50.0, min(95.0, 100.0 * (1.0 - 10.0 / count)))


def latency_metrics(samples: list[float]) -> dict:
    import numpy as np

    q = tail_percentile(len(samples))
    spread = np.percentile(samples, [10, 25, 50, 75, 90, 95, 99]).tolist()
    return {
        "latency_percentiles_ms": dict(zip(("p10", "p25", "p50", "p75", "p90", "p95", "p99"), spread)),
        "latency_p50_ms": float(np.percentile(samples, 50)),
        "latency_p95_ms": float(np.percentile(samples, q)),
        "latency_samples": len(samples),
        "latency_tail_percentile": q,
    }


def inproc_latency(reps: list) -> dict:
    """Latency figures of the in-process workloads, over every repetition.

    The tail is taken over all the repetitions' samples.  The p50 is the
    mean of each repetition's own median: the host switches between two
    speeds about 1.4x apart every few seconds, so the median of the pooled
    samples jumps between the two when a run spends about half its time in
    each, while the mean of per-repetition medians moves in proportion.
    """
    import numpy as np

    metrics = latency_metrics([sample for rep in reps for sample in rep["latencies_ms"]])
    metrics["latency_p50_ms"] = statistics.mean(
        float(np.median(rep["latencies_ms"])) for rep in reps
    )
    metrics["latency_tail_note"] = (
        f"p{metrics['latency_tail_percentile']:.4g} of {metrics['latency_samples']} samples"
    )
    return metrics


# ------------------------------------------------------- in-process runs


def reference_front(workload: str, inputs: dict) -> list:
    """The uncached-engine front the sessions' fronts must equal bitwise."""
    from child import (
        NSGA2_GENERATIONS,
        NSGA2_POPULATION,
        SWEEP_CHUNK,
        build_problem,
        front_signature,
    )
    from repro.dse.exhaustive import ExhaustiveSearch
    from repro.dse.nsga2 import Nsga2, Nsga2Settings
    from repro.dse.runner import run_algorithm

    problem = build_problem(inputs["domains"], genotype_cache=False)
    if workload == "nsga2_explore":
        settings = Nsga2Settings(
            population_size=NSGA2_POPULATION,
            generations=NSGA2_GENERATIONS,
            seed=inputs["seed"],
        )
        algorithm = Nsga2(problem, settings)
    else:
        algorithm = ExhaustiveSearch(problem, chunk_size=SWEEP_CHUNK)
    return json.loads(json.dumps(front_signature(run_algorithm(algorithm).front)))


def prepare_warm_segment(inputs: dict, cache_dir: str) -> dict:
    """Sweep once on a cache_dir engine and spill the segment (untimed set-up)."""
    from child import SWEEP_CHUNK, build_problem
    from repro.dse.exhaustive import ExhaustiveSearch
    from repro.dse.runner import run_algorithm

    started = time.perf_counter()
    problem = build_problem(inputs["domains"], cache_dir=cache_dir)
    run_algorithm(ExhaustiveSearch(problem, chunk_size=SWEEP_CHUNK))
    spill_started = time.perf_counter()
    path = problem.engine.spill_persistent_cache()
    ended = time.perf_counter()
    return {
        "prepare_s": ended - started,
        "spill_s": ended - spill_started,
        "segment_bytes": os.path.getsize(path),
    }


def run_inproc(args, inputs: dict) -> dict:
    extra: dict = {}
    cache_dir = None
    if args.workload == "sweep_warm":
        cache_dir = tempfile.mkdtemp(prefix="segment-", dir=OUT_DIR)
        extra.update(prepare_warm_segment(inputs, cache_dir))
    sessions = []
    setups = []
    try:
        for index in range(SESSIONS):
            spec = {
                "workload": args.workload,
                "seed": inputs["seed"],
                "domains": inputs["domains"],
                "seconds": args.seconds / SESSIONS,
                "trace": bool(args.trace),
                "cache_dir": cache_dir,
                "spans_path": os.path.join(
                    OUT_DIR, f"spans-{args.workload}-seed{args.seed}-s{index}.jsonl"
                ),
            }
            setups.append(setup_probe("setup", spec, SESSION_GRACE_S))
            session = Session("inproc", spec, args.seconds + SESSION_GRACE_S)
            sessions.append(session.finish())
            setups.append(session.setup_s)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    reference = reference_front(args.workload, inputs)
    reps = [rep for session in sessions for rep in session["reps"]]
    checks = {
        "fronts_equal_across_repetitions": all(s["fronts_equal"] for s in sessions),
        "front_equals_uncached_reference": all(s["front"] == reference for s in sessions),
    }
    if args.workload == "sweep_warm":
        checks["zero_model_evaluations"] = all(
            rep["engine_model_evaluations"] == 0 for rep in reps
        )
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "designs_per_s": sum(r["requests"] for r in plain) / sum(r["time_s"] for r in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }
    metrics.update(inproc_latency(plain))
    layers = None
    if args.trace:
        layers = inproc_layers(sessions, plain, traced, extra)
    return {
        "metrics": metrics,
        "layers": layers,
        "checks": checks,
        "attempted": len(reps),
        "failed": 0,
        "array_backend": sessions[0]["array_backend"],
        "front_size": len(reference),
        "rep_seconds": [[rep["time_s"] for rep in s["reps"]] for s in sessions],
        "extra": extra,
    }


def _layer_sums(sessions: list, key: str) -> dict:
    merged: dict = {}
    for session in sessions:
        for name, total in session.get("trace", {}).get(key, {}).items():
            if isinstance(total, dict):
                slot = merged.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
                for field in slot:
                    slot[field] += total[field]
            else:
                merged[name] = merged.get(name, 0) + total
    return merged


def stack_layers(timed: dict, counts: dict, units: list) -> dict:
    """Per-unit figures of the layers under the algorithms and the service.

    ``units`` are the traced repetitions (or service sessions); each carries
    its engine counter delta (``requests``, ``hits``, ``model_evaluations``).
    """
    n = len(units)

    def self_s(name):
        return timed.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return timed.get(name, {}).get("calls", 0) / n

    def count(name):
        return counts.get(name, 0) / n

    requests = sum(unit["requests"] for unit in units)
    rows_in = counts.get("dse.pareto.prune_rows_in", 0)
    layers = {name: 0.0 for name in tracing.LAYER_METRICS}
    layers.update(
        {
            "dse.space.index_matrix_s": self_s("dse.space.index_matrix"),
            "dse.space.index_matrix_rows": count("dse.space.index_matrix_rows"),
            "engine.calls": calls("engine"),
            "engine.rows_requested": count("engine.rows_requested"),
            "engine.self_s": self_s("engine"),
            "engine.memo_hit_ratio": (
                sum(unit["hits"] for unit in units) / requests if requests else 0.0
            ),
            "engine.model_evaluations": sum(u["model_evaluations"] for u in units) / n,
            "engine.materialise_s": self_s("engine.materialise"),
            "engine.designs_materialised": count("engine.designs_materialised"),
            "core.vectorized.kernel_s": self_s("core.vectorized.kernel"),
            "core.vectorized.kernel_rows": count("core.vectorized.kernel_rows"),
            "core.vectorized.kernel_calls": calls("core.vectorized.kernel"),
            "dse.pareto.prune_s": self_s("dse.pareto.prune"),
            "dse.pareto.prune_rows_in": rows_in / n,
            "dse.pareto.keep_ratio": (
                counts.get("dse.pareto.prune_rows_kept", 0) / rows_in if rows_in else 0.0
            ),
            "dse.pareto.rank_s": self_s("dse.pareto.rank"),
            "dse.nsga2.self_s": self_s("dse.nsga2"),
            "dse.exhaustive.self_s": self_s("dse.exhaustive"),
        }
    )
    return layers


def inproc_layers(sessions, plain, traced, extra) -> dict:
    timed = _layer_sums(sessions, "timed")
    setup = _layer_sums(sessions, "setup")
    setup_counts = _layer_sums(sessions, "setup_counts")
    n = len(traced)
    wall = sum(rep["time_s"] for rep in traced)
    layers = stack_layers(timed, _layer_sums(sessions, "counts"), traced)
    layers.update(
        {
            # Segment loads happen in each fresh engine's set-up, never
            # inside the timed sweep; the spill happens once, before the
            # sessions.
            "engine.persist.load_s": (
                setup.get("engine.persist.load", {}).get("wall_s", 0.0) / n
            ),
            "engine.persist.rows_loaded": (
                setup_counts.get("engine.persist.rows_loaded", 0) / n
            ),
            "engine.persist.bytes_loaded": (
                setup_counts.get("engine.persist.bytes_loaded", 0) / n
            ),
            "engine.persist.spill_s": extra.get("spill_s", 0.0),
            "trace.wall_s": wall / n,
            "trace.attributed_ratio": (
                sum(total["self_s"] for total in timed.values()) / wall
            ),
            "trace.overhead_ratio": (
                statistics.median(r["time_s"] for r in traced)
                / statistics.median(r["time_s"] for r in plain)
            ),
        }
    )
    return layers


# ------------------------------------------------------------ service run


def run_service(args, inputs: dict) -> dict:
    import numpy as np

    import loadgen
    from child import build_problem
    from repro.dse.random_search import RandomSearch
    from repro.dse.runner import run_algorithm

    reference_problem = build_problem(inputs["domains"])
    cardinalities = reference_problem.space.cardinalities.tolist()
    traced_pattern = [index % 2 == 0 and bool(args.trace) for index in range(SESSIONS)]
    sessions = []
    setups = []
    logs = []
    client_tracer = tracing.Tracer()
    for index, traced in enumerate(traced_pattern):
        spec = {
            "domains": inputs["domains"],
            "trace": traced,
            "spans_path": os.path.join(
                OUT_DIR, f"spans-service_mixed-seed{args.seed}-s{index}.jsonl"
            ),
        }
        setups.append(setup_probe("service", dict(spec, trace=False), SESSION_GRACE_S))
        session = Session("service", spec, args.seconds + SESSION_GRACE_S)
        setups.append(session.setup_s)
        undo = tracing.install_client_layers(client_tracer) if traced else None
        try:
            # Every session is a fresh cold service replaying the same
            # seeded request sequence from its start.
            log = asyncio.run(
                loadgen.drive(
                    session.ready["port"],
                    loadgen.make_scripts(inputs["seed"], cardinalities),
                    args.seconds / SESSIONS,
                    client_tracer if traced else None,
                )
            )
        finally:
            if undo is not None:
                undo()
            report = session.finish()
        report["traced"] = traced
        sessions.append(report)
        log["traced"] = traced
        logs.append(log)
    if args.trace:
        client_tracer.write(
            os.path.join(OUT_DIR, f"spans-service_mixed-seed{args.seed}-client.jsonl")
        )

    # Correctness, outside the timed region: every evaluate reply against an
    # in-process evaluate_batch_columns of the same genotypes, and every
    # sweep front against an in-process run of the same random sweep.
    evaluates = [item for log in logs for item in log["evaluates"]]
    requested = np.unique(np.concatenate([genotypes for genotypes, _ in evaluates]), axis=0)
    batch = reference_problem.evaluate_batch_columns(requested)
    expected = {
        tuple(genotype): (tuple(objectives), feasible, violations)
        for genotype, objectives, feasible, violations in zip(
            batch.genotypes.tolist(),
            batch.objectives.tolist(),
            batch.feasible.tolist(),
            batch.violation_counts.tolist(),
        )
    }
    replies_match = True
    for genotypes, rows in evaluates:
        for genotype, row in zip(genotypes.tolist(), rows):
            key = tuple(genotype)
            if row.genotype != key or expected[key] != (
                row.objectives, row.feasible, row.violation_count
            ):
                replies_match = False
        replies_match = replies_match and len(genotypes) == len(rows)
    sweeps_match = True
    for params, front in (item for log in logs for item in log["sweeps"]):
        result = run_algorithm(RandomSearch(reference_problem, **params))
        served = [(row.genotype, row.objectives, row.feasible) for row in front]
        local = [(d.genotype, d.objectives, d.feasible) for d in result.front]
        sweeps_match = sweeps_match and served == local
    checks = {
        "evaluate_replies_equal_in_process_rows": replies_match,
        "sweep_fronts_equal_in_process_runs": sweeps_match,
    }

    # Each session is one service interpreter under one stretch of load, so
    # the figures are per-session medians.  Unlike a sweep repetition, a
    # session has enough requests for its own p95, and dropping half of the
    # sessions would halve the samples behind the thin tail above p90.
    plain = [log for log in logs if not log["traced"]]
    plain_sessions = [s for s in sessions if not s["traced"]]
    per_session = [latency_metrics(log["latencies_ms"]) for log in plain]
    metrics = {
        "setup_s": statistics.median(setups),
        "designs_per_s": statistics.median(log["rows"] / log["load_s"] for log in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain_sessions),
    }
    metrics.update(latency_metrics([sample for log in plain for sample in log["latencies_ms"]]))
    for name in ("latency_p50_ms", "latency_p95_ms"):
        metrics[name] = statistics.median(session[name] for session in per_session)
    tails = [session["latency_tail_percentile"] for session in per_session]
    counts = [session["latency_samples"] for session in per_session]
    metrics["latency_tail_note"] = (
        f"median over {len(per_session)} sessions of p{min(tails):.4g}-p{max(tails):.4g}, "
        f"{min(counts)}-{max(counts)} samples each"
    )
    layers = None
    if args.trace:
        layers = service_layers(sessions, logs, client_tracer)
    return {
        "metrics": metrics,
        "layers": layers,
        "checks": checks,
        "attempted": sum(log["attempted"] for log in logs),
        "failed": sum(log["failed"] for log in logs),
        "array_backend": sessions[0]["array_backend"],
        "evaluate_rows": sum(log["rows"] for log in logs),
        "sweeps": sum(len(log["sweeps"]) for log in logs),
        "extra": {},
    }


def service_layers(sessions, logs, client_tracer) -> dict:
    traced = [s for s in sessions if s["traced"]]
    traced_logs = [log for log in logs if log["traced"]]
    n = len(traced)
    timed = _layer_sums(traced, "timed")
    counts = _layer_sums(traced, "counts")
    wall = sum(log["load_s"] for log in traced_logs)
    batches = sum(s["trace"]["batches"] for s in traced)
    client_decode_s = (
        client_tracer.totals().get("service.client.decode", {}).get("self_s", 0.0)
    )
    layers = stack_layers(timed, counts, traced)
    layers.update(
        {
            "service.protocol.decode_s": (
                timed.get("service.protocol.decode", {}).get("self_s", 0.0) / n
            ),
            "service.protocol.encode_s": (
                timed.get("service.protocol.encode", {}).get("self_s", 0.0) / n
            ),
            "service.protocol.bytes_in": counts.get("service.protocol.bytes_in", 0) / n,
            "service.protocol.bytes_out": counts.get("service.protocol.bytes_out", 0) / n,
            "service.client.decode_s": client_decode_s / n,
            "service.batcher.turnaround_ms_p50": statistics.median(
                s["trace"]["turnaround_ms_p50"] for s in traced
            ),
            "service.batcher.items_per_batch": (
                counts.get("service.batcher.items", 0) / batches if batches else 0.0
            ),
            "service.batcher.engine_s": sum(s["trace"]["batch_engine_s"] for s in traced) / n,
            "service.admission.admitted": sum(s["admitted"] for s in traced) / n,
            "service.admission.rejected": sum(s["rejected"] for s in traced) / n,
            "trace.wall_s": wall / n,
            # Two processes and two threads work at once here, so the share
            # can exceed 1: it is the traced layers' busy time per second.
            "trace.attributed_ratio": (
                sum(total["self_s"] for total in timed.values()) + client_decode_s
            ) / wall,
            "trace.overhead_ratio": (
                statistics.median(log["load_s"] / log["rows"] for log in traced_logs)
                / statistics.median(
                    log["load_s"] / log["rows"] for log in logs if not log["traced"]
                )
            ),
        }
    )
    return layers


# ------------------------------------------------------------------- main


def host_context(array_backend: str) -> dict:
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "array_backend": array_backend,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args) -> int:
    """Run every workload in turn, each in its own ``run.py`` process."""
    codes = [
        subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
        ).returncode
        for workload in WORKLOADS
    ]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = load_spec()

    inputs = make_inputs(args.workload, args.seed)
    if args.workload == "service_mixed":
        outcome = run_service(args, inputs)
    else:
        outcome = run_inproc(args, inputs)
    correct = all(outcome["checks"].values())
    host = host_context(outcome["array_backend"])

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = outcome["layers"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = outcome["metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    failed_frac = outcome["failed"] / outcome["attempted"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} | cpus={host['usable_cpus']} python={host['python']} "
        f"numpy={host['numpy']} backend={host['array_backend']}"
    )
    for name, metric in metrics.items():
        note = f"  ({outcome['metrics']['latency_tail_note']})" if name == "latency_p95_ms" else ""
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}{note}")
    print(
        f"  {'failed_frac':36s} {failed_frac:.6g} ratio "
        f"({outcome['failed']}/{outcome['attempted']} operations)"
    )
    for check, passed in outcome["checks"].items():
        print(f"  check {check}: {'ok' if passed else 'FAILED'}")

    record = dict(
        outcome,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=host,
        inputs=inputs,
        failed_frac=failed_frac,
        correct=correct,
    )
    with open(
        os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as handle:
        json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

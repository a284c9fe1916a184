"""Run a full design-space exploration campaign on the case-study network.

The script explores the joint node/MAC design space of the six-node WBSN with
NSGA-II driven by the analytical model, prints a digest of the detected
energy / quality / delay trade-offs, and translates a few representative
Pareto designs into concrete deployment recommendations (per-node compression
ratios and frequencies, MAC orders, expected battery lifetime).

Run with::

    python examples/dse_campaign.py

Repeated campaigns can warm-start from disk: pass a directory to
``EvaluationEngine(cache_dir=...)`` (or ``run_algorithm(cache_dir=...)``)
and every evaluated design is spilled to a per-fingerprint column segment
when the engine closes — a re-run of the campaign serves those designs
without touching the model, with a bitwise-identical front::

    python examples/dse_campaign.py .dse-cache

A second argument bounds the cache directory's size in megabytes: after the
run, the oldest segments beyond the budget are garbage-collected
(:func:`repro.engine.prune_cache_dir`), never touching the segment this
campaign's engine loaded::

    python examples/dse_campaign.py .dse-cache 64

Sweeping far past the old exhaustive ceiling is fine now: generation is
streaming end to end, so ``ExhaustiveSearch`` on the full 33.5M-design
six-node space (or ``RandomSearch``, which draws its distinct genotypes
lazily) holds only the running front plus one chunk in memory —
``max_configurations`` is a soft threshold that warns
(``ExhaustiveCapWarning``) and proceeds, a time-cost reminder rather
than a memory guard.  Pass ``run_algorithm(..., array_backend="cupy")``
(or any ``repro.core.array_backend.register_backend``-ed name) to
compute the column kernels on another array library.
"""

from __future__ import annotations

import sys

from repro.dse import Nsga2, Nsga2Settings, WbsnDseProblem, run_algorithm
from repro.engine import EvaluationEngine, prune_cache_dir
from repro.experiments.casestudy import build_case_study_evaluator
from repro.shimmer import BatteryModel


def main(cache_dir: str | None = None, cache_budget_mb: float | None = None) -> None:
    evaluator = build_case_study_evaluator()
    # Engines own real resources (a worker pool and shared-memory segments
    # with the "sharded" backend); run_algorithm(close_engine=True)
    # releases them deterministically when the run finishes, even on failure.
    # With a cache_dir the engine also warm-starts from (and, on close,
    # spills to) the persistent cache tier, so repeated campaigns reuse
    # every design this one computes.
    engine = EvaluationEngine(cache_dir=cache_dir)
    problem = WbsnDseProblem(evaluator, record_evaluations=True, engine=engine)
    settings = Nsga2Settings(population_size=48, generations=25, seed=11)

    print(
        f"design space size: {problem.space.size:,} configurations "
        f"({len(problem.space)} tunable parameters)"
    )
    result = run_algorithm(Nsga2(problem, settings), close_engine=True)
    print(
        f"explored {result.evaluations} configurations in {result.wall_clock_s:.1f} s "
        f"({result.evaluations_per_second:.0f} served/s, "
        f"{result.model_evaluations} raw model evaluations)"
    )
    print(
        "evaluation-engine cache: "
        f"genotype hit rate {result.engine_stats.genotype_cache_hit_rate * 100:.0f}%"
    )
    if cache_dir is not None:
        # The engine loads the segment at bind time (before the timed run),
        # so report its lifetime counters, not the run delta.
        print(
            "persistent cache tier: "
            f"{engine.stats.rows_loaded_from_disk} rows warm-started from disk, "
            f"{engine.stats.persistent_cache_hits} designs served from them"
        )
        if cache_budget_mb is not None:
            removed = prune_cache_dir(
                cache_dir,
                max_bytes=int(cache_budget_mb * 1024 * 1024),
                keep=engine.loaded_segments,
            )
            print(
                f"cache directory pruned to {cache_budget_mb:g} MB: "
                f"{len(removed)} stale segment(s) removed"
            )
    front = sorted(result.front, key=lambda design: design.objectives[0])
    print(f"non-dominated designs found: {len(front)}")

    battery = BatteryModel()
    print()
    print("representative trade-offs (sorted by network energy):")
    header = (
        f"{'energy mJ/s':>12s} {'PRD metric':>11s} {'delay ms':>9s} "
        f"{'lifetime d':>11s}  configuration"
    )
    print(header)
    print("-" * 110)
    step = max(1, len(front) // 8)
    for design in front[::step]:
        energy_w, quality, delay_s = design.objectives
        node_configs = design.phenotype["node_configs"]
        mac_config = design.phenotype["mac_config"]
        summary = " ".join(
            f"{c.compression_ratio:.2f}@{c.microcontroller_frequency_mhz:.0f}M"
            for c in node_configs
        )
        lifetime = battery.lifetime_days(energy_w)
        print(
            f"{energy_w * 1e3:12.3f} {quality:11.2f} {delay_s * 1e3:9.1f} "
            f"{lifetime:11.1f}  payload={mac_config.payload_bytes}B "
            f"SO={mac_config.superframe_order}/BO={mac_config.beacon_order}  [{summary}]"
        )

    knee = min(
        front,
        key=lambda design: sum(
            value / max(1e-12, max(d.objectives[i] for d in front))
            for i, value in enumerate(design.objectives)
        ),
    )
    print()
    print("suggested balanced design (knee of the front):")
    print("  objectives:", tuple(round(v, 4) for v in knee.objectives))
    print("  MAC:", knee.phenotype["mac_config"])
    for index, config in enumerate(knee.phenotype["node_configs"]):
        print(f"  node-{index}: {config}")


if __name__ == "__main__":
    main(
        cache_dir=sys.argv[1] if len(sys.argv) > 1 else None,
        cache_budget_mb=float(sys.argv[2]) if len(sys.argv) > 2 else None,
    )

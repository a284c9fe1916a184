"""Figure 5 — energy / PRD / delay trade-offs and the baseline comparison.

The paper runs the DSE with its three-metric model and with a state-of-the-art
energy/delay model, and observes that the baseline's Pareto set only contains
about 7 % of the trade-offs exposed by the proposed model, because it cannot
see the application-quality dimension.  This experiment reproduces the
comparison on the case-study design space:

* NSGA-II driven by the full evaluator produces the reference three-objective
  front (the three scatter plots of Figure 5 are its 2-D projections),
* NSGA-II driven by the energy/delay baseline produces the baseline front,
  whose designs are then re-evaluated under the full model,
* the coverage metric quantifies which fraction of the reference trade-offs
  the baseline recovered (expected: a small minority),
* a multi-objective simulated-annealing run cross-checks that the search
  algorithm choice does not meaningfully change the front (Section 5.2's
  "no relevant difference" remark), via the hypervolume indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.pareto import front_contribution, hypervolume, pareto_front_indices
from repro.dse.problem import WbsnDseProblem
from repro.dse.runner import DseResult, run_algorithm
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
from repro.engine import EvaluationEngine, SharedGenotypeCache
from repro.experiments.casestudy import (
    build_baseline_evaluator,
    build_case_study_evaluator,
)
from repro.experiments.reporting import format_table

__all__ = ["Fig5Result", "run_fig5", "main"]


@dataclass(frozen=True)
class Fig5Result:
    """Outcome of the Figure 5 trade-off comparison."""

    full_model_front: tuple[tuple[float, ...], ...]
    baseline_front_full_objectives: tuple[tuple[float, ...], ...]
    baseline_coverage: float
    nsga2_result: DseResult
    baseline_result: DseResult
    annealing_result: DseResult
    nsga2_hypervolume: float
    annealing_hypervolume: float
    #: designs the baseline exploration served from the full model's shared
    #: genotype cache (0 when the problems do not share a cache)
    baseline_shared_cache_hits: int = 0

    @property
    def projections(self) -> dict[str, list[tuple[float, float]]]:
        """The three 2-D projections plotted by the paper's Figure 5."""
        energy_delay = [(p[0], p[2]) for p in self.full_model_front]
        energy_prd = [(p[0], p[1]) for p in self.full_model_front]
        prd_delay = [(p[1], p[2]) for p in self.full_model_front]
        return {
            "energy-delay": energy_delay,
            "energy-prd": energy_prd,
            "prd-delay": prd_delay,
        }

    @property
    def algorithm_hypervolume_gap(self) -> float:
        """Relative hypervolume gap between NSGA-II and simulated annealing."""
        reference = max(self.nsga2_hypervolume, 1e-12)
        return abs(self.nsga2_hypervolume - self.annealing_hypervolume) / reference


def run_fig5(
    population_size: int = 48,
    generations: int = 30,
    annealing_iterations: int = 1500,
    theta: float = 0.5,
    seed: int = 3,
    cache_dir: str | Path | None = None,
) -> Fig5Result:
    """Regenerate the Figure 5 comparison.

    Both explorations route through a shared
    :class:`~repro.engine.EvaluationEngine` per problem: the NSGA-II run and
    the simulated-annealing cross-check reuse the full-model problem's caches
    (the annealing walk revisits many configurations the genetic run already
    evaluated).

    The full and baseline problems additionally share **one**
    :class:`~repro.engine.SharedGenotypeCache`: they differ only in their
    objective sets, so every genotype the full model computes is served to
    the baseline exploration with its objective vector projected to
    (energy, delay) — identical floats, fewer model evaluations.

    ``cache_dir`` plugs both engines into the persistent cache tier
    (:mod:`repro.engine.persist`): the full run's designs are spilled to
    the evaluators' shared-fingerprint segment and the baseline exploration
    warm-starts from it — the cross-problem projection that the in-memory
    shared cache performs, across processes.  A repeated ``run_fig5`` with
    the same directory warm-starts the full run too.
    """
    shared_cache = SharedGenotypeCache()
    full_engine = EvaluationEngine(shared_cache=shared_cache)
    full_problem = WbsnDseProblem(
        build_case_study_evaluator(theta=theta),
        record_evaluations=True,
        engine=full_engine,
    )
    baseline_problem = WbsnDseProblem(
        build_baseline_evaluator(theta=theta),
        record_evaluations=True,
        engine=EvaluationEngine(shared_cache=shared_cache),
    )
    if cache_dir is not None:
        # Warm-start the full exploration from a previous campaign's
        # segment (first run: silent cold start).
        full_engine.load_persistent_cache(cache_dir)
    nsga2_settings = Nsga2Settings(
        population_size=population_size, generations=generations, seed=seed
    )
    full_result = run_algorithm(Nsga2(full_problem, nsga2_settings))
    if cache_dir is not None:
        # Spill the full run's designs, then warm-start the baseline from
        # the segment: the problems share one evaluation fingerprint, so
        # the baseline's (energy, delay) rows are column projections of the
        # full model's three-objective rows — the same floats the shared
        # in-memory cache would have served.
        full_problem.engine.spill_persistent_cache(cache_dir)
        baseline_problem.engine.load_persistent_cache(cache_dir)
    # The "trade-offs detected by the proposed model" are the non-dominated
    # set over everything the exploration evaluated, mirroring the scatter
    # plots of Figure 5.
    full_history = [d for d in full_problem.history if d.feasible]
    full_objectives = [d.objectives for d in full_history]
    full_front = [
        full_objectives[i] for i in pareto_front_indices(full_objectives)
    ]
    if not full_front:
        raise RuntimeError("the full-model exploration produced no feasible design")

    baseline_result = run_algorithm(Nsga2(baseline_problem, nsga2_settings))
    annealing_result = run_algorithm(
        MultiObjectiveSimulatedAnnealing(
            full_problem,
            SimulatedAnnealingSettings(iterations=annealing_iterations, seed=seed),
        )
    )

    # The baseline's Pareto set, re-evaluated under the full three-metric
    # model so the fronts are comparable.
    baseline_history = [d for d in baseline_problem.history if d.feasible]
    baseline_objectives = [d.objectives for d in baseline_history]
    baseline_front_designs = [
        baseline_history[i] for i in pareto_front_indices(baseline_objectives)
    ]
    baseline_full_objectives = [
        full_problem.evaluate(design.genotype).objectives
        for design in baseline_front_designs
    ]
    # Share of the combined Pareto front that the baseline contributes: the
    # baseline's designs are legitimate energy/delay trade-offs, but without
    # the application-quality metric they amount to only a small fraction of
    # the trade-offs the full model exposes.
    coverage = front_contribution(full_front, baseline_full_objectives)

    # Hypervolume comparison between the two search algorithms on the full
    # model, using a shared reference point slightly beyond the union.
    annealing_front = [
        design.objectives for design in annealing_result.front if design.feasible
    ]
    union = full_front + annealing_front
    reference = tuple(
        1.05 * max(point[dim] for point in union) + 1e-9 for dim in range(3)
    )
    nsga2_hv = hypervolume(full_front, reference)
    annealing_hv = hypervolume(annealing_front, reference) if annealing_front else 0.0

    baseline_stats = baseline_result.engine_stats
    return Fig5Result(
        full_model_front=tuple(full_front),
        baseline_front_full_objectives=tuple(baseline_full_objectives),
        baseline_coverage=coverage,
        nsga2_result=full_result,
        baseline_result=baseline_result,
        annealing_result=annealing_result,
        nsga2_hypervolume=nsga2_hv,
        annealing_hypervolume=annealing_hv,
        baseline_shared_cache_hits=(
            baseline_stats.shared_cache_hits if baseline_stats is not None else 0
        ),
    )


def main() -> Fig5Result:
    """Print the Figure 5 summary."""
    result = run_fig5()
    print("Figure 5 — Pareto trade-offs: proposed model vs energy/delay baseline")
    rows = [
        [
            f"{point[0] * 1e3:.2f}",
            f"{point[1]:.2f}",
            f"{point[2] * 1e3:.0f}",
        ]
        for point in sorted(result.full_model_front)[:15]
    ]
    print("sample of the full-model Pareto front:")
    print(format_table(["energy [mJ/s]", "PRD metric", "delay [ms]"], rows))
    print(
        f"full-model front size: {len(result.full_model_front)} "
        f"({result.nsga2_result.evaluations} designs served, "
        f"{result.nsga2_result.model_evaluations} model evaluations, "
        f"{result.nsga2_result.evaluations_per_second:.0f} served/s, "
        f"{result.nsga2_result.model_evaluations_per_second:.0f} model eval/s)"
    )
    nsga2_stats = result.nsga2_result.engine_stats
    print(
        "engine cache (NSGA-II run): "
        f"genotype hit rate {nsga2_stats.genotype_cache_hit_rate * 100:.0f}%"
    )
    print(
        f"baseline front size: {len(result.baseline_front_full_objectives)} "
        f"({result.baseline_result.evaluations} evaluations, "
        f"{result.baseline_shared_cache_hits} served from the full model's "
        "shared genotype cache)"
    )
    print(
        f"fraction of the full-model trade-offs recovered by the baseline: "
        f"{result.baseline_coverage * 100:.1f}% (paper: ~7%)"
    )
    print(
        "NSGA-II vs simulated annealing hypervolume gap: "
        f"{result.algorithm_hypervolume_gap * 100:.1f}% "
        "(paper: no relevant difference)"
    )
    return result


if __name__ == "__main__":
    main()

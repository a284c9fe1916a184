"""Design-space exploration framework.

The paper's thesis is that a fast, accurate system-level model lets standard
multi-objective optimisation algorithms explore the WBSN design space in
minutes instead of months.  This package provides the exploration machinery:

* :mod:`repro.dse.space` — discrete parameter domains and design spaces,
* :mod:`repro.dse.problem` — the optimisation-problem interface and its
  instantiation on the WBSN evaluator (three objectives) and on the
  energy/delay baseline (two objectives),
* :mod:`repro.dse.pareto` — dominance, front extraction, crowding distance,
  hypervolume and front-comparison utilities,
* :mod:`repro.dse.nsga2` — the NSGA-II genetic algorithm,
* :mod:`repro.dse.simulated_annealing` — an archive-based multi-objective
  simulated annealing,
* :mod:`repro.dse.random_search` / :mod:`repro.dse.exhaustive` — baselines
  and exact enumeration for small spaces,
* :mod:`repro.dse.runner` — a thin orchestration layer with timing.

Every algorithm evaluates through the shared
:class:`~repro.engine.EvaluationEngine` (see :mod:`repro.engine`): problems
expose a batch path (``evaluate_batch``) backed by a genotype memo cache,
and the runner reports cache-aware throughput.
"""

from repro.dse.space import DesignSpace, ParameterDomain
from repro.dse.problem import EvaluatedDesign, OptimizationProblem, WbsnDseProblem
from repro.dse.pareto import (
    crowding_distance,
    dominates,
    hypervolume,
    pareto_front_indices,
    front_coverage,
)
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
from repro.dse.random_search import RandomSearch
from repro.dse.exhaustive import ExhaustiveCapWarning, ExhaustiveSearch
from repro.dse.runner import DseResult, run_algorithm
from repro.engine import EngineStats, EvaluationEngine

__all__ = [
    "DesignSpace",
    "ParameterDomain",
    "OptimizationProblem",
    "WbsnDseProblem",
    "EvaluatedDesign",
    "dominates",
    "pareto_front_indices",
    "crowding_distance",
    "hypervolume",
    "front_coverage",
    "Nsga2",
    "Nsga2Settings",
    "MultiObjectiveSimulatedAnnealing",
    "SimulatedAnnealingSettings",
    "RandomSearch",
    "ExhaustiveCapWarning",
    "ExhaustiveSearch",
    "DseResult",
    "run_algorithm",
    "EvaluationEngine",
    "EngineStats",
]

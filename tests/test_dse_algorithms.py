"""Tests of the search algorithms on a small, exactly solvable problem."""

from __future__ import annotations

import pytest

from repro.dse.exhaustive import ExhaustiveCapWarning, ExhaustiveSearch
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.pareto import front_coverage, pareto_front_indices
from repro.dse.problem import EvaluatedDesign, OptimizationProblem, WbsnDseProblem
from repro.dse.random_search import RandomSearch
from repro.dse.runner import run_algorithm
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
from repro.dse.space import DesignSpace, ParameterDomain
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import build_case_study_evaluator


class ToyProblem(OptimizationProblem):
    """A two-objective problem whose Pareto front is known exactly.

    The genotype encodes two integers ``a, b`` in ``[0, 15]``; the objectives
    are ``(a + b, (15 - a) + (15 - b))`` so every genotype lies on a line and
    the Pareto front is the whole diagonal ``a + b = constant`` sweep — more
    precisely, every point is non-dominated against points with a different
    sum, and the front of the *whole* space is every (a, b) pair.  A third
    gene adds a constraint: designs with ``flag == 1`` are infeasible.
    """

    def __init__(self) -> None:
        self.space = DesignSpace(
            [
                ParameterDomain("a", tuple(range(16))),
                ParameterDomain("b", tuple(range(16))),
                ParameterDomain("flag", (0, 1)),
            ]
        )
        self.n_objectives = 2
        self.evaluations = 0

    def evaluate(self, genotype) -> EvaluatedDesign:
        self.evaluations += 1
        values = self.space.decode(genotype)
        a, b, flag = values["a"], values["b"], values["flag"]
        feasible = flag == 0
        objectives = (float(a + b), float((15 - a) + (15 - b)))
        if not feasible:
            objectives = (objectives[0] + 100.0, objectives[1] + 100.0)
        return EvaluatedDesign(
            genotype=self.space.validate_genotype(genotype),
            objectives=objectives,
            feasible=feasible,
            phenotype=values,
        )


@pytest.fixture()
def toy_problem() -> ToyProblem:
    return ToyProblem()


def _true_front(problem: ToyProblem):
    designs = [
        problem.evaluate(genotype)
        for genotype in problem.space.enumerate_genotypes()
    ]
    feasible = [design for design in designs if design.feasible]
    objectives = [design.objectives for design in feasible]
    return [objectives[i] for i in pareto_front_indices(objectives)]


class TestExhaustiveSearch:
    def test_finds_the_exact_front(self, toy_problem):
        front = ExhaustiveSearch(toy_problem).run()
        objectives = sorted(design.objectives for design in front)
        assert objectives == sorted(_true_front(toy_problem))
        assert all(design.feasible for design in front)

    def test_warns_on_oversized_spaces_and_proceeds(self, toy_problem):
        with pytest.warns(ExhaustiveCapWarning):
            front = ExhaustiveSearch(toy_problem, max_configurations=10).run()
        objectives = sorted(design.objectives for design in front)
        assert objectives == sorted(_true_front(toy_problem))


class TestNsga2:
    def test_finds_most_of_the_true_front(self, toy_problem):
        settings = Nsga2Settings(population_size=40, generations=25, seed=1)
        front = Nsga2(toy_problem, settings).run()
        coverage = front_coverage(
            _true_front(toy_problem), [design.objectives for design in front]
        )
        assert coverage >= 0.6
        assert all(design.feasible for design in front)

    def test_is_deterministic_for_a_seed(self, toy_problem):
        settings = Nsga2Settings(population_size=20, generations=10, seed=7)
        first = Nsga2(ToyProblem(), settings).run()
        second = Nsga2(ToyProblem(), settings).run()
        assert sorted(d.genotype for d in first) == sorted(d.genotype for d in second)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            Nsga2Settings(population_size=2)
        with pytest.raises(ValueError):
            Nsga2Settings(mutation_rate=1.5)

    def test_survivor_dedup_builds_no_gene_matrix(self):
        """Survivors are deduplicated by genotype tuple: on a seeded run of
        the default problem with no refill, environmental selection calls
        neither ``index_matrix`` nor ``design_keys``."""
        problem = WbsnDseProblem(build_case_study_evaluator(), engine=EvaluationEngine())
        settings = Nsga2Settings(population_size=24, generations=5, seed=3)
        algorithm = Nsga2(problem, settings)
        calls = {"index_matrix": 0, "design_keys": 0, "evaluate": 0}
        selecting = [False]

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += selecting[0]
                return original(*args, **kwargs)

            return wrapper

        space = problem.space
        space.index_matrix = counted("index_matrix", space.index_matrix)
        space.design_keys = counted("design_keys", space.design_keys)
        problem.evaluate = counted("evaluate", problem.evaluate)
        select = algorithm._environmental_selection
        pool_sizes: list[int] = []

        def selection(combined, matrix):
            pool_sizes.append(len(combined))
            selecting[0] = True
            try:
                return select(combined, matrix)
            finally:
                selecting[0] = False

        algorithm._environmental_selection = selection
        front = algorithm.run()
        assert front
        assert pool_sizes == [2 * settings.population_size] * settings.generations
        # ``evaluate`` is the refill's only call: none ran.
        assert calls == {"index_matrix": 0, "design_keys": 0, "evaluate": 0}


class TestSimulatedAnnealing:
    def test_archive_contains_only_feasible_non_dominated_designs(self, toy_problem):
        settings = SimulatedAnnealingSettings(iterations=800, seed=2)
        front = MultiObjectiveSimulatedAnnealing(toy_problem, settings).run()
        assert front
        assert all(design.feasible for design in front)
        objectives = [design.objectives for design in front]
        assert sorted(pareto_front_indices(objectives)) == list(range(len(objectives)))

    def test_covers_a_reasonable_part_of_the_front(self, toy_problem):
        settings = SimulatedAnnealingSettings(iterations=1500, seed=3)
        front = MultiObjectiveSimulatedAnnealing(toy_problem, settings).run()
        coverage = front_coverage(
            _true_front(toy_problem), [design.objectives for design in front]
        )
        assert coverage >= 0.4

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSettings(iterations=0)
        with pytest.raises(ValueError):
            SimulatedAnnealingSettings(cooling_rate=1.5)


class TestRandomSearchAndRunner:
    def test_random_search_front_is_non_dominated(self, toy_problem):
        front = RandomSearch(toy_problem, samples=300, seed=0).run()
        objectives = [design.objectives for design in front]
        assert sorted(pareto_front_indices(objectives)) == list(range(len(objectives)))

    def test_runner_reports_evaluation_counts(self, toy_problem):
        result = run_algorithm(RandomSearch(toy_problem, samples=100, seed=0))
        assert result.evaluations > 0
        assert result.wall_clock_s >= 0.0
        assert result.evaluations_per_second > 0
        assert len(result.objective_vectors) == len(result.front)

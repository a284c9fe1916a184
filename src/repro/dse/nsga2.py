"""NSGA-II multi-objective genetic algorithm.

The paper employs genetic algorithms (among others) for the exploration; this
is a standard NSGA-II implementation operating on the integer genotypes of a
:class:`~repro.dse.space.DesignSpace`: constrained binary-tournament
selection, uniform crossover, random-reset mutation, fast non-dominated
sorting and crowding-distance truncation.

Evaluation is generation-at-a-time: each generation's offspring genotypes are
produced first (selection and variation never look at a child's objectives)
and then evaluated as one batch through
:meth:`~repro.dse.problem.OptimizationProblem.evaluate_batch`, so the shared
evaluation engine can deduplicate, serve cache hits and push the misses
through its vectorized fast path (or the scalar model).
Duplicate-genotype memoisation is the engine's job — the algorithm no longer
carries a private cache.  Selection itself leans on the NumPy Pareto kernels
of :mod:`repro.dse.pareto`: non-dominated sorting and crowding run on
broadcasted dominance matrices, so generation turnover stays array-bound
rather than Python-bound.  The objective matrix is carried *alongside* the
population across generations — built once per batch of freshly evaluated
offspring and thereafter sliced with index arrays — so rank/crowding
selection consumes the matrix directly instead of re-extracting objective
tuples from the design objects every generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dse.pareto import crowding_distance, non_dominated_sort, pareto_front_indices
from repro.dse.problem import EvaluatedDesign, OptimizationProblem

__all__ = ["Nsga2Settings", "Nsga2"]


@dataclass(frozen=True)
class Nsga2Settings:
    """Hyper-parameters of the genetic algorithm.

    Attributes:
        population_size: individuals per generation.
        generations: number of generations after the initial population.
        crossover_probability: probability of recombining a pair of parents.
        mutation_rate: per-gene random-reset probability.
        seed: random seed (the whole run is deterministic for a given seed).
    """

    population_size: int = 60
    generations: int = 40
    crossover_probability: float = 0.9
    mutation_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.generations < 0:
            raise ValueError("generations cannot be negative")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")


class Nsga2:
    """NSGA-II over a discrete design space."""

    def __init__(
        self, problem: OptimizationProblem, settings: Nsga2Settings | None = None
    ) -> None:
        self.problem = problem
        self.settings = settings if settings is not None else Nsga2Settings()
        self._rng = np.random.default_rng(self.settings.seed)

    # ------------------------------------------------------------------ API

    def run(self) -> list[EvaluatedDesign]:
        """Run the optimisation and return the final non-dominated set."""
        population, matrix = self._initial_population()
        for _ in range(self.settings.generations):
            offspring, offspring_matrix = self._make_offspring(population, matrix)
            population, matrix = self._environmental_selection(
                population + offspring, np.vstack([matrix, offspring_matrix])
            )
        # Final-front extraction rides the skyline kernel dispatch in
        # repro.dse.pareto (sort-based for <=2 objectives, divide-and-conquer
        # above the base size for k>=3) — membership and ordering are
        # identical to the blockwise dominance matrices it replaces.
        front = pareto_front_indices(matrix)
        return [population[index] for index in front]

    # ------------------------------------------------------------- internals

    @staticmethod
    def _objective_matrix(designs: list[EvaluatedDesign]) -> np.ndarray:
        """Objective rows of freshly evaluated designs, as one float matrix."""
        return np.asarray([design.objectives for design in designs], dtype=float)

    def _initial_population(self) -> tuple[list[EvaluatedDesign], np.ndarray]:
        genotypes = [
            self.problem.space.random_genotype(self._rng)
            for _ in range(self.settings.population_size)
        ]
        designs = self.problem.evaluate_batch(genotypes)
        return designs, self._objective_matrix(designs)

    def _ranks_and_crowding(
        self, matrix: np.ndarray
    ) -> tuple[list[int], list[float]]:
        fronts = non_dominated_sort(matrix)
        ranks = [0] * len(matrix)
        crowding = [0.0] * len(matrix)
        for rank, front in enumerate(fronts):
            front_distances = crowding_distance(matrix[front])
            for position, index in enumerate(front):
                ranks[index] = rank
                crowding[index] = front_distances[position]
        return ranks, crowding

    def _tournament(
        self,
        population: list[EvaluatedDesign],
        ranks: list[int],
        crowding: list[float],
    ) -> EvaluatedDesign:
        first, second = self._rng.integers(0, len(population), size=2)
        # Constrained tournament: feasible beats infeasible, then rank, then
        # crowding distance.
        def key(index: int) -> tuple[int, int, float]:
            design = population[index]
            return (0 if design.feasible else 1, ranks[index], -crowding[index])

        winner = first if key(int(first)) <= key(int(second)) else second
        return population[int(winner)]

    def _crossover(
        self, parent_a: tuple[int, ...], parent_b: tuple[int, ...]
    ) -> tuple[int, ...]:
        if self._rng.random() > self.settings.crossover_probability:
            return parent_a
        mask = self._rng.random(len(parent_a)) < 0.5
        child = [
            gene_a if use_a else gene_b
            for gene_a, gene_b, use_a in zip(parent_a, parent_b, mask)
        ]
        return tuple(child)

    def _make_offspring(
        self, population: list[EvaluatedDesign], matrix: np.ndarray
    ) -> tuple[list[EvaluatedDesign], np.ndarray]:
        ranks, crowding = self._ranks_and_crowding(matrix)
        children: list[tuple[int, ...]] = []
        for _ in range(self.settings.population_size):
            parent_a = self._tournament(population, ranks, crowding)
            parent_b = self._tournament(population, ranks, crowding)
            child = self._crossover(parent_a.genotype, parent_b.genotype)
            children.append(
                self.problem.space.mutate_genotype(
                    child, self._rng, self.settings.mutation_rate
                )
            )
        designs = self.problem.evaluate_batch(children)
        return designs, self._objective_matrix(designs)

    def _environmental_selection(
        self, combined: list[EvaluatedDesign], matrix: np.ndarray
    ) -> tuple[list[EvaluatedDesign], np.ndarray]:
        # Duplicate genotypes quickly take over an elitist population on a
        # discrete space; keeping a single copy of each preserves diversity.
        seen: set[tuple[int, ...]] = set()
        unique_indices: list[int] = []
        for index, design in enumerate(combined):
            if design.genotype in seen:
                continue
            seen.add(design.genotype)
            unique_indices.append(index)
        combined = [combined[index] for index in unique_indices]
        matrix = matrix[unique_indices]
        if len(combined) < self.settings.population_size:
            extra_rows: list[tuple[float, ...]] = []
            while len(combined) < self.settings.population_size:
                genotype = self.problem.space.random_genotype(self._rng)
                if genotype in seen:
                    continue
                design = self.problem.evaluate(genotype)
                seen.add(genotype)
                combined.append(design)
                extra_rows.append(design.objectives)
            matrix = np.vstack([matrix, np.asarray(extra_rows, dtype=float)])

        fronts = non_dominated_sort(matrix)
        survivors: list[EvaluatedDesign] = []
        survivor_indices: list[int] = []
        for front in fronts:
            if len(survivors) + len(front) <= self.settings.population_size:
                survivors.extend(combined[i] for i in front)
                survivor_indices.extend(front)
                continue
            # Partial front: keep the most spread-out individuals.
            distances = crowding_distance(matrix[front])
            order = sorted(
                range(len(front)), key=lambda pos: distances[pos], reverse=True
            )
            remaining = self.settings.population_size - len(survivors)
            survivors.extend(combined[front[pos]] for pos in order[:remaining])
            survivor_indices.extend(front[pos] for pos in order[:remaining])
            break
        return survivors, matrix[survivor_indices]

"""NSGA-II multi-objective genetic algorithm.

The paper employs genetic algorithms (among others) for the exploration; this
is a standard NSGA-II implementation operating on the integer genotypes of a
:class:`~repro.dse.space.DesignSpace`: constrained binary-tournament
selection, uniform crossover, random-reset mutation, fast non-dominated
sorting and crowding-distance truncation.

A generation is one :meth:`Nsga2._make_offspring` and one
:meth:`Nsga2._environmental_selection`:

* The tournament keys ``(infeasible, rank, -crowding)`` of the population
  are built once, as a list.  One loop then makes every child: two binary
  tournaments, an optional uniform crossover, and the random-reset loop
  that ``mutate_genotype`` shares
  (:meth:`~repro.dse.space.DesignSpace.random_reset`).  Children of valid
  parents are not validated again, and the loop adds no Python work per
  draw beyond the draw call itself.
* The children are evaluated with **one**
  :meth:`~repro.dse.problem.OptimizationProblem.evaluate_batch` call per
  generation, and one more for the initial population, so a wrapper set
  on the problem instance sees every generation (``perfbench`` times them
  that way).  The engine dedups the batch, serves its cache hits and
  computes the misses in one go.  The population stays the list of design
  objects that call returns, and its objective matrix travels alongside,
  sliced with index arrays.
* Survivors are deduplicated by genotype tuple, keeping first occurrences
  in order (one ``dict`` pass, exact on spaces of any size, with no gene
  matrix built).  Fresh random designs refill the pool when fewer than a
  population remain, and rank and crowding distance truncate it.

A seed fixes the whole run, and the run makes the textbook loop's draws in
its order, so the fronts match it design for design.  A tournament pair is
two scalar ``rng.integers(0, n)`` calls: they yield the values and the
final bit-generator state of one ``rng.integers(0, n, size=2)`` call,
without NumPy's per-call size handling.  The reset loop draws per gene as
``mutate_genotype`` always has, and the dedup keeps the same first
occurrences in the same order.  ``tests/test_nsga2_stream.py`` pins the
NumPy behaviour and the streams of seeded runs.
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
        # repro.dse.pareto (sort-based for <=2 objectives, the sort-filter
        # skyline above the base size for k>=3) — membership and ordering
        # are identical to the blockwise dominance matrices it replaces.
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

    def _tournament_keys(
        self, population: list[EvaluatedDesign], matrix: np.ndarray
    ) -> list[tuple[int, int, float]]:
        """Constrained-tournament keys, the smaller winning: feasible before
        infeasible, then the lower rank, then the larger crowding distance."""
        keys: list[tuple[int, int, float]] = [(0, 0, 0.0)] * len(population)
        for rank, front in enumerate(non_dominated_sort(matrix)):
            for index, distance in zip(front, crowding_distance(matrix[front])):
                keys[index] = (0 if population[index].feasible else 1, rank, -distance)
        return keys

    def _make_offspring(
        self, population: list[EvaluatedDesign], matrix: np.ndarray
    ) -> tuple[list[EvaluatedDesign], np.ndarray]:
        keys = self._tournament_keys(population, matrix)
        genotypes = [design.genotype for design in population]
        size, genes = len(population), len(self.problem.space)
        random, integers = self._rng.random, self._rng.integers
        children: list[tuple[int, ...]] = []
        for _ in range(self.settings.population_size):
            first, second = integers(0, size), integers(0, size)
            parent = genotypes[first if keys[first] <= keys[second] else second]
            first, second = integers(0, size), integers(0, size)
            other = genotypes[first if keys[first] <= keys[second] else second]
            if random() <= self.settings.crossover_probability:
                mask = (random(genes) < 0.5).tolist()
                parent = [a if use_a else b for a, b, use_a in zip(parent, other, mask)]
            children.append(
                self.problem.space.random_reset(
                    parent, self._rng, self.settings.mutation_rate
                )
            )
        designs = self.problem.evaluate_batch(children)
        return designs, self._objective_matrix(designs)

    def _environmental_selection(
        self, combined: list[EvaluatedDesign], matrix: np.ndarray
    ) -> tuple[list[EvaluatedDesign], np.ndarray]:
        # Duplicate genotypes quickly take over an elitist population on a
        # discrete space; keeping a single copy of each preserves diversity.
        seen: dict[tuple[int, ...], int] = {}
        for index, design in enumerate(combined):
            seen.setdefault(design.genotype, index)
        unique_indices = list(seen.values())
        combined = [combined[index] for index in unique_indices]
        matrix = matrix[unique_indices]
        if len(combined) < self.settings.population_size:
            extra_rows: list[tuple[float, ...]] = []
            while len(combined) < self.settings.population_size:
                genotype = self.problem.space.random_genotype(self._rng)
                if genotype in seen:
                    continue
                design = self.problem.evaluate(genotype)
                seen[genotype] = len(combined)
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

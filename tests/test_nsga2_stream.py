"""The random stream of the genetic operators, pinned draw for draw.

NSGA-II draws each tournament pair as two scalar ``rng.integers(0, n)``
calls, and every mutation runs one random-reset loop.  These tests pin:

* the NumPy behaviour that makes the scalar pairs safe: they yield the
  values and the final bit-generator state of ``integers(0, n, size=2)``,
  so a NumPy upgrade that breaks this fails here, not in a golden diff;
* the mutation draws against the textbook per-gene loop;
* seeded runs, by the final bit-generator state, the engine's genotype
  request count and the front's design ids, recorded from the textbook
  loop (one ``size=2`` draw per tournament, ``mutate_genotype`` per child,
  survivors deduplicated through a set of genotype tuples);
* the evaluation contract: one ``evaluate_batch`` call per generation,
  which ``perfbench/child.py`` wraps to time generations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.problem import WbsnDseProblem
from repro.dse.simulated_annealing import (
    MultiObjectiveSimulatedAnnealing,
    SimulatedAnnealingSettings,
)
from repro.dse.space import DesignSpace, ParameterDomain
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import build_case_study_evaluator

from test_golden_fronts import NSGA2_SETTINGS, beacon_problem


def default_problem() -> WbsnDseProblem:
    return WbsnDseProblem(build_case_study_evaluator(), engine=EvaluationEngine())


def pcg64(state: int, inc: int, has_uint32: int, uinteger: int) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def front_ids(problem, front) -> list[int]:
    space = problem.space
    return space.design_keys(space.index_matrix([d.genotype for d in front])).tolist()


class TestScalarDrawPairs:
    @pytest.mark.parametrize(
        "bound", [2, 3, 96, 97, 2**31 - 1, 2**32 - 1, 2**32, 2**40]
    )
    def test_two_scalar_draws_equal_one_pair_draw(self, bound):
        for seed in range(50):
            pairs, scalars = np.random.default_rng(seed), np.random.default_rng(seed)
            for step in range(12):
                assert pairs.integers(0, bound, size=2).tolist() == [
                    int(scalars.integers(0, bound)),
                    int(scalars.integers(0, bound)),
                ]
                if step % 3 == 0:
                    assert pairs.random() == scalars.random()
                elif step % 3 == 1:
                    assert pairs.random(14).tolist() == scalars.random(14).tolist()
                else:
                    assert pairs.integers(0, 8) == scalars.integers(0, 8)
            assert pairs.bit_generator.state == scalars.bit_generator.state


class TestMutationDraws:
    def test_mutation_draws_match_the_per_gene_loop(self):
        """One ``random()`` per gene of a domain with more than one value,
        then ``integers(0, cardinality)`` below the rate; one-value domains
        draw nothing."""
        cardinalities = (3, 1, 2, 5, 1, 4)
        space = DesignSpace(
            [
                ParameterDomain(f"p{i}", tuple(range(size)))
                for i, size in enumerate(cardinalities)
            ]
        )
        for seed in range(20):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            genotype = (0,) * len(cardinalities)
            for _ in range(10):
                expected = list(genotype)
                for position, cardinality in enumerate(cardinalities):
                    if cardinality > 1 and reference.random() < 0.4:
                        expected[position] = int(reference.integers(0, cardinality))
                genotype = space.mutate_genotype(genotype, rng, 0.4)
                assert genotype == tuple(expected)
                assert all(type(gene) is int for gene in genotype)
            assert rng.bit_generator.state == reference.bit_generator.state


# Final bit-generator state, genotype requests and front design ids of the
# textbook loop.  The request count includes the problem's construction
# probe.
NSGA2_RECORDED = {
    7: (
        pcg64(
            170046911699042856073702601823045670624,
            261136684632268670825940853076396136793,
            0,
            3656603320,
        ),
        1057,
        [
            3334404026, 7621015380, 3329817562, 25224445930, 7763591127,
            33420146672, 16215110604, 7754860504, 7755169752, 3330210797,
            7620228948, 33688551400, 12192841717, 11919914973, 7763196863,
            21448556529, 25740443637, 3330210746, 3329925695, 33688550378,
            3594036826, 25476133834, 7620229332, 20647444407, 7763263422,
            8032026575, 7759363037, 7620568633, 11919755707, 3325229906,
            3728670643, 7759054040, 3325580855, 3334404700, 33523924984,
            7754809311, 7620577240, 11915562847, 25203471346, 7889078232,
            11915851644, 8040480765, 3325564767, 33390786522, 3460200376,
            3468623820, 3459386072, 7620961885, 3330188219, 7759068797,
            7755184766, 7624394932, 7889005140, 20644298743,
        ],
    ),
    11: (
        pcg64(
            132412433897048533196688948336042947602,
            7937318808080196428804369945471644491,
            1,
            484630682,
        ),
        1057,
        [
            33658959863, 3602579447, 3593979865, 3329978290, 3602543612,
            3329713084, 3598436312, 16214880178, 7893217272, 3195928506,
            20761604008, 29099878328, 25631259542, 21332033462, 3594340314,
            7624638458, 29099945938, 3334202292, 3325755351, 3330012504,
            25077511158, 3598571483, 3325545428, 3191734202, 16214880179,
            16215009172, 2256368615, 2218621718, 3619552150, 3329953721,
            16215041970, 3736793080, 7641757688, 3325556703, 3325544273,
            29368381392,
        ],
    ),
}


class TestRecordedStreams:
    @pytest.mark.parametrize("seed", sorted(NSGA2_RECORDED))
    def test_nsga2_on_the_default_problem(self, seed):
        state, requests, ids = NSGA2_RECORDED[seed]
        problem = default_problem()
        algorithm = Nsga2(problem, Nsga2Settings(96, 10, seed=seed))
        front = algorithm.run()
        assert algorithm._rng.bit_generator.state == state
        assert problem.engine.stats.genotype_requests == requests
        assert front_ids(problem, front) == ids

    def test_nsga2_on_the_golden_beacon_scenario(self):
        problem = beacon_problem()
        algorithm = Nsga2(problem, NSGA2_SETTINGS)
        front = algorithm.run()
        assert algorithm._rng.bit_generator.state == pcg64(
            87244102533871580714083252272448693713,
            47650611409575876553999889140290214363,
            1,
            2737004262,
        )
        assert problem.engine.stats.genotype_requests == 113
        assert front_ids(problem, front) == [63, 31, 22, 62, 30, 19]

    def test_simulated_annealing_shares_the_mutation_loop(self):
        problem = default_problem()
        algorithm = MultiObjectiveSimulatedAnnealing(
            problem, SimulatedAnnealingSettings(iterations=300, batch_size=8, seed=3)
        )
        front = algorithm.run()
        assert algorithm._rng.bit_generator.state == pcg64(
            172923946569815569338627321290066239410,
            222003063171874261427395693950637096479,
            0,
            646118387,
        )
        assert problem.engine.stats.genotype_requests == 254
        assert front_ids(problem, front) == [
            3467660563, 3468443947, 3464249611, 3325837614, 3467788587,
            3468050731, 12058379227, 12075168731, 16353346515, 11790090149,
            11756402605, 19406910397, 19809563581, 19406910270, 6512833465,
            2528998333, 10816312255, 8576770252, 8442552522, 7645603852,
            6521672526, 6525870924, 6530065266, 19950789401,
        ]


class TestEvaluationContract:
    def test_one_evaluate_batch_call_per_generation(self):
        """``evaluate_batch`` wrapped as perfbench does (an instance attribute
        taking one positional argument) sees the initial population and then
        one population of children per generation, and no other batch."""
        settings = Nsga2Settings(population_size=24, generations=5, seed=3)
        problem = default_problem()
        evaluate_batch = problem.evaluate_batch
        batch_sizes: list[int] = []

        def counted(genotypes):
            batch_sizes.append(len(genotypes))
            return evaluate_batch(genotypes)

        problem.evaluate_batch = counted
        front = Nsga2(problem, settings).run()
        assert batch_sizes == [settings.population_size] * (settings.generations + 1)
        reference = Nsga2(default_problem(), settings).run()
        assert [(d.genotype, d.objectives) for d in front] == [
            (d.genotype, d.objectives) for d in reference
        ]

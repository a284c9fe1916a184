"""Golden-front regression fixtures: exact membership *and* ordering.

Small seed-pinned reference fronts for one beacon-enabled and one CSMA/CA
scenario are committed under ``tests/golden/``; the tests recompute the
fronts and assert that every design matches the fixture exactly — genotype,
objective floats (bit for bit, via JSON round-tripped ``repr``), feasibility
— in the exact order the algorithms return them.  Any semantic drift in the
model, the kernels, the caches or the Pareto machinery shows up here as a
diff against a committed artifact.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/test_golden_fronts.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.nsga2 import Nsga2, Nsga2Settings
from repro.dse.pareto import use_skyline
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Node knobs shared by both golden scenarios (2 nodes, 64-point spaces).
NODE_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)

NSGA2_SETTINGS = Nsga2Settings(population_size=16, generations=6, seed=9)


def beacon_problem(
    engine: EvaluationEngine | None = None, **kwargs
) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=engine if engine is not None else EvaluationEngine(),
        **kwargs,
    )


def csma_problem(
    engine: EvaluationEngine | None = None, **kwargs
) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(60, 80),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=engine if engine is not None else EvaluationEngine(),
        **kwargs,
    )


SCENARIOS = {"beacon": beacon_problem, "csma": csma_problem}


def compute_fronts(scenario: str) -> dict[str, list[dict]]:
    """The golden payload: exhaustive and seeded NSGA-II fronts, in order."""
    fronts: dict[str, list[dict]] = {}
    for algorithm, run in (
        ("exhaustive", lambda p: ExhaustiveSearch(p).run()),
        ("nsga2", lambda p: Nsga2(p, NSGA2_SETTINGS).run()),
    ):
        front = run(SCENARIOS[scenario]())
        fronts[algorithm] = [
            {
                "genotype": list(design.genotype),
                "objectives": list(design.objectives),
                "feasible": design.feasible,
            }
            for design in front
        ]
    return fronts


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_front_matches_the_golden_fixture(scenario):
    fixture_path = GOLDEN_DIR / f"fronts_{scenario}.json"
    golden = json.loads(fixture_path.read_text())
    computed = compute_fronts(scenario)
    assert sorted(computed) == sorted(golden), "algorithm set drifted"
    for algorithm in sorted(golden):
        expected = golden[algorithm]
        actual = computed[algorithm]
        # Exact membership AND ordering: compare position by position.
        assert len(actual) == len(expected), (scenario, algorithm)
        for position, (want, got) in enumerate(zip(expected, actual)):
            assert got["genotype"] == want["genotype"], (
                scenario,
                algorithm,
                position,
            )
            # JSON stores repr-round-trippable floats: equality is bitwise.
            assert got["objectives"] == want["objectives"], (
                scenario,
                algorithm,
                position,
            )
            assert got["feasible"] == want["feasible"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("columnar", [False, True])
def test_columnar_sweep_matches_the_golden_fixture(scenario, columnar):
    """Both exhaustive sweep paths reproduce the committed front exactly.

    The columnar path prunes on raw objective columns and materialises only
    the survivors; the object path materialises every chunk.  Same fixture,
    same exactness — membership and ordering — for both, which pins the
    columnar seam against the committed artifacts.
    """
    golden = json.loads((GOLDEN_DIR / f"fronts_{scenario}.json").read_text())
    problem = SCENARIOS[scenario]()
    front = ExhaustiveSearch(problem, columnar=columnar).run()
    expected = golden["exhaustive"]
    assert len(front) == len(expected), (scenario, columnar)
    for position, (design, want) in enumerate(zip(front, expected)):
        assert list(design.genotype) == want["genotype"], (scenario, position)
        assert list(design.objectives) == want["objectives"], (scenario, position)
        assert design.feasible == want["feasible"]
    if columnar:
        # Lazy materialisation: only front designs became objects (the
        # constructor's all-zeros probe is already memoised, so it would be
        # served, not rebuilt, if it ever landed on a front).
        probe = tuple(0 for _ in range(len(problem.space)))
        assert problem.engine.stats.designs_materialised == sum(
            1 for design in front if design.genotype != probe
        )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scalar_loop_matches_the_golden_fixture(scenario):
    """Kernel-less problems, computed design by design on the scalar loop,
    reproduce the committed fronts the column kernel generated."""
    golden = json.loads((GOLDEN_DIR / f"fronts_{scenario}.json").read_text())
    for algorithm, run in (
        ("exhaustive", lambda p: ExhaustiveSearch(p).run()),
        ("nsga2", lambda p: Nsga2(p, NSGA2_SETTINGS).run()),
    ):
        problem = SCENARIOS[scenario](vectorized=False)
        front = run(problem)
        expected = golden[algorithm]
        assert len(front) == len(expected), (scenario, algorithm)
        for position, (design, want) in enumerate(zip(front, expected)):
            assert list(design.genotype) == want["genotype"], (
                scenario,
                algorithm,
                position,
            )
            assert list(design.objectives) == want["objectives"], (
                scenario,
                algorithm,
                position,
            )
            assert design.feasible == want["feasible"]
        assert problem.engine.stats.vectorized_designs == 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scalar_columnar_sweep_matches_the_golden_fixture(scenario):
    """Columnar sweep over the scalar loop: same committed front, and only
    its designs are materialised."""
    golden = json.loads((GOLDEN_DIR / f"fronts_{scenario}.json").read_text())
    problem = SCENARIOS[scenario](vectorized=False)
    front = ExhaustiveSearch(problem, columnar=True).run()
    expected = golden["exhaustive"]
    assert len(front) == len(expected), scenario
    for position, (design, want) in enumerate(zip(front, expected)):
        assert list(design.genotype) == want["genotype"], (scenario, position)
        assert list(design.objectives) == want["objectives"], (scenario, position)
        assert design.feasible == want["feasible"]
    assert problem.engine.stats.vectorized_designs == 0
    probe = tuple(0 for _ in range(len(problem.space)))
    assert problem.engine.stats.designs_materialised == sum(
        1 for design in front if design.genotype != probe
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("skyline", [False, True])
def test_skyline_toggle_reproduces_the_golden_fixture(scenario, skyline):
    """The committed fixtures hold with the skyline kernels on *and* off.

    The fixtures were generated before the sort-based pruning kernels
    existed; reproducing them with either kernel family proves the new
    dispatch is a bitwise drop-in — the fixtures never need regeneration.
    """
    golden = json.loads((GOLDEN_DIR / f"fronts_{scenario}.json").read_text())
    with use_skyline(skyline):
        computed = compute_fronts(scenario)
    for algorithm in sorted(golden):
        expected = golden[algorithm]
        actual = computed[algorithm]
        assert len(actual) == len(expected), (scenario, algorithm, skyline)
        for position, (want, got) in enumerate(zip(expected, actual)):
            assert got["genotype"] == want["genotype"], (
                scenario,
                algorithm,
                skyline,
                position,
            )
            assert got["objectives"] == want["objectives"], (
                scenario,
                algorithm,
                skyline,
                position,
            )
            assert got["feasible"] == want["feasible"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_explicit_backend_seam_matches_the_golden_fixture(scenario):
    """Kernels compiled through an explicitly named array backend (the
    seam's non-default entry point) reproduce the committed fronts —
    membership and ordering — proving the seam is a bitwise drop-in; the
    fixtures predate it and never need regeneration."""
    golden = json.loads((GOLDEN_DIR / f"fronts_{scenario}.json").read_text())
    problem = SCENARIOS[scenario](array_backend="numpy")
    assert problem.engine.stats.array_backend == "numpy"
    front = ExhaustiveSearch(problem).run()
    expected = golden["exhaustive"]
    assert len(front) == len(expected), scenario
    for position, (design, want) in enumerate(zip(front, expected)):
        assert list(design.genotype) == want["genotype"], (scenario, position)
        assert list(design.objectives) == want["objectives"], (
            scenario,
            position,
        )
        assert design.feasible == want["feasible"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_fronts_are_nonempty_and_feasible(scenario):
    golden = json.loads((GOLDEN_DIR / f"fronts_{scenario}.json").read_text())
    for algorithm, front in golden.items():
        assert front, (scenario, algorithm)
        assert all(design["feasible"] for design in front), (scenario, algorithm)


def main() -> None:
    """Regenerate the committed fixtures (intentional model changes only)."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in sorted(SCENARIOS):
        path = GOLDEN_DIR / f"fronts_{scenario}.json"
        path.write_text(json.dumps(compute_fronts(scenario), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

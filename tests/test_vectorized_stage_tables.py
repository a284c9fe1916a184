"""The factored column kernel: per-node stage tables compiled once.

A node's energy, quality loss, required transmission time and violated node
constraints depend only on that node's knobs and on the MAC configuration,
so :class:`~repro.core.vectorized.WbsnVectorizedKernel` computes them once
per (knob combination × MAC configuration) at compile time and a batch only
gathers from the tables.  Three properties are pinned here:

* a batch evaluation calls none of the per-node stage functions (the
  application columns, the MAC per-node quantities, the node energy model,
  the radio's transmission time) — compiling calls each once per node;
* kernels compiled over per-node domains of *different* cardinalities, with
  mixed applications and either MAC family, stay bitwise equal to the
  scalar evaluator on random batches with duplicate rows;
* the delay bound (9) is evaluated from each design's slot total and
  smallest slot count under ``delay_mode="max"``, and equals the scalar
  per-node delays and network metric bit for bit in both delay modes, also
  on spaces whose nodes hold different slot counts.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import slot_assignment, vectorized
from repro.core.evaluator import WBSNEvaluator
from repro.core.mac_abstraction import resolve_mac_column_kernels
from repro.core.metrics import balanced_aggregate_columns, network_delay_metric
from repro.core.node_model import NodeEnergyModel, RadioLinkModel
from repro.core.slot_assignment import assign_transmission_intervals, slot_count_columns
from repro.core.vectorized import WbsnVectorizedKernel
from repro.dse import space as space_module
from repro.dse.problem import (
    DEFAULT_BACKOFF_EXPONENT_PAIRS,
    DEFAULT_COMPRESSION_RATIOS,
    DEFAULT_FREQUENCIES_HZ,
    DEFAULT_ORDER_PAIRS,
    DEFAULT_PAYLOAD_BYTES,
    WbsnDseProblem,
    beacon_mac_parameterisation,
    csma_mac_parameterisation,
)
from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.space import DesignSpace, ParameterDomain
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Per MAC family: evaluator builder, second MAC domain, MAC config factory.
FAMILIES = {
    "beacon": (
        build_case_study_evaluator,
        DEFAULT_ORDER_PAIRS,
        WbsnDseProblem.build_mac_config,
    ),
    "csma": (
        build_csma_case_study_evaluator,
        DEFAULT_BACKOFF_EXPONENT_PAIRS,
        WbsnDseProblem.build_csma_mac_config,
    ),
}

COMPONENT_FIELDS = {"energy": "energy_w", "quality": "quality_loss", "delay": "delay_s"}


def _spy_on_stage_functions(monkeypatch, network) -> Counter:
    """Count every call of the per-node stage functions of ``network``."""
    calls: Counter = Counter()

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls in {type(node.application) for node in network.nodes}:
        spy(cls, "application_columns")
    mac_kernels = resolve_mac_column_kernels(network.mac_protocol)
    spy(type(mac_kernels), "per_node_quantity_columns")
    spy(NodeEnergyModel, "evaluate_columns")
    spy(RadioLinkModel, "transmission_time_columns")
    return calls


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batches_gather_without_running_a_stage(family, monkeypatch):
    build = FAMILIES[family][0]
    network = build(n_nodes=4, applications=("dwt", "cs", "cs", "dwt"))
    kwargs = {}
    if family == "csma":
        kwargs["mac_parameterisation"] = csma_mac_parameterisation()
    problem = WbsnDseProblem(network, engine=EvaluationEngine(), **kwargs)
    kernel = problem.vectorized_kernel
    rng = np.random.default_rng(3)
    matrix = problem.space.index_matrix(
        [problem.space.random_genotype(rng) for _ in range(256)]
    )

    calls = _spy_on_stage_functions(monkeypatch, network)
    columns = kernel.evaluate_columns(matrix)
    assert len(columns) == 256
    assert calls == Counter()

    # The spies do see the stages: a compile runs each one once per node.
    problem.set_array_backend("numpy")
    assert calls == Counter(
        {
            "application_columns": 4,
            "per_node_quantity_columns": 4,
            "evaluate_columns": 4,
            "transmission_time_columns": 4,
        }
    )
    assert problem.vectorized_kernel.stage_table_entries == kernel.stage_table_entries


def _subset(values):
    """A non-empty subset of ``values``, in a drawn order."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=4, unique=True)


@st.composite
def layouts(draw):
    """A network with per-node domains of different cardinalities."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n_nodes = draw(st.integers(1, 4))
    applications = draw(
        st.lists(st.sampled_from(("dwt", "cs")), min_size=n_nodes, max_size=n_nodes)
    )
    nodes = [
        (
            draw(_subset(DEFAULT_COMPRESSION_RATIOS)),
            draw(_subset(DEFAULT_FREQUENCIES_HZ)),
            draw(st.booleans()),  # knob order in the node's parameter map
        )
        for _ in range(n_nodes)
    ]
    payloads = draw(_subset(DEFAULT_PAYLOAD_BYTES))
    mac_pairs = draw(_subset(FAMILIES[family][1]))
    components = draw(
        st.sampled_from(
            (("energy", "quality", "delay"), ("energy", "delay"), ("delay", "quality"))
        )
    )
    return family, applications, nodes, payloads, mac_pairs, components


@settings(max_examples=40, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2**32 - 1))
def test_uneven_stage_tables_match_the_scalar_evaluator(layout, seed):
    family, applications, nodes, payloads, mac_pairs, components = layout
    build, _, mac_config_factory = FAMILIES[family]
    network = build(n_nodes=len(nodes), applications=tuple(applications))
    domains: list[ParameterDomain] = []
    node_parameters = []
    for index, (ratios, frequencies, frequency_first) in enumerate(nodes):
        domains += [
            ParameterDomain(f"node-{index}.compression_ratio", tuple(ratios)),
            ParameterDomain(f"node-{index}.frequency_hz", tuple(frequencies)),
        ]
        knobs = [("compression_ratio", 2 * index), ("frequency_hz", 2 * index + 1)]
        node_parameters.append(dict(knobs[::-1] if frequency_first else knobs))
    domains.append(ParameterDomain("mac.payload_bytes", tuple(payloads)))
    domains.append(ParameterDomain("mac.pair", tuple(mac_pairs)))
    penalty = 1e3
    kernel = WbsnVectorizedKernel.compile(
        network=network,
        node_parameters=node_parameters,
        frequency_column="frequency_hz",
        node_config_factory=lambda _index, values: WbsnDseProblem.build_node_config(
            values
        ),
        mac_positions=(2 * len(nodes), 2 * len(nodes) + 1),
        mac_config_factory=mac_config_factory,
        domains=domains,
        objective_components=components,
        infeasibility_penalty=penalty,
    )
    expected_entries = sum(len(r) * len(f) for r, f, _ in nodes) * (
        len(payloads) * len(mac_pairs)
    )
    assert kernel.stage_table_entries == expected_entries

    rng = np.random.default_rng(seed)
    cardinalities = [len(domain.values) for domain in domains]
    distinct = rng.integers(0, cardinalities, size=(24, len(domains)))
    matrix = distinct[rng.integers(0, len(distinct), size=48)]  # duplicates
    got = kernel.evaluate_columns(matrix)

    for row, genes in enumerate(matrix.tolist()):
        node_configs = [
            WbsnDseProblem.build_node_config(
                {
                    "compression_ratio": domains[2 * i].values[genes[2 * i]],
                    "frequency_hz": domains[2 * i + 1].values[genes[2 * i + 1]],
                }
            )
            for i in range(len(nodes))
        ]
        mac_config = mac_config_factory(
            domains[-2].values[genes[-2]], domains[-1].values[genes[-1]]
        )
        evaluation = network.evaluate(node_configs, mac_config)
        objectives = [
            getattr(evaluation.objectives, COMPONENT_FIELDS[name])
            for name in components
        ]
        if not evaluation.feasible:
            objectives = [value + penalty for value in objectives]
        assert got.objectives[row].tolist() == objectives  # exact, not approx
        assert bool(got.feasible[row]) == evaluation.feasible
        assert int(got.violation_counts[row]) == len(evaluation.violations)


# ---------------------------------------------------------------------------
# The id kernel: stage-table rows straight from design ids, and slot counts
# compiled into the stage tables.


def _problem(family: str, **kwargs) -> WbsnDseProblem:
    if family == "csma":
        kwargs["mac_parameterisation"] = csma_mac_parameterisation()
    network = FAMILIES[family][0](n_nodes=4, applications=("dwt", "cs", "cs", "dwt"))
    return WbsnDseProblem(network, engine=EvaluationEngine(), **kwargs)


def _edge_ids(size: int, rng: np.random.Generator) -> np.ndarray:
    """Ids 0 and size - 1, both sides of the first 8,192-row chunk edges,
    and random ids."""
    edges = [0, 1, size - 2, size - 1]
    for edge in (8192, 2 * 8192, 8 * 8192):
        edges += [edge - 1, edge, edge + 1]
    chosen = [i for i in edges if 0 <= i < size] + rng.integers(0, size, 40).tolist()
    return np.asarray(chosen, dtype=np.int64)


def _assert_columns_equal(got, want) -> None:
    assert got.objectives.tobytes() == want.objectives.tobytes()
    assert got.feasible.tolist() == want.feasible.tolist()
    assert got.violation_counts.tolist() == want.violation_counts.tolist()


def _assert_matches_scalar(columns, problem: WbsnDseProblem, genes) -> None:
    for row, genotype in enumerate(genes.tolist()):
        design = problem.compute_design(tuple(genotype))
        assert columns.objectives[row].tolist() == list(design.objectives)
        assert bool(columns.feasible[row]) == design.feasible
        assert int(columns.violation_counts[row]) == design.violation_count


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("sweep_space", [False, True], ids=["default", "sweep"])
def test_id_batches_match_gene_rows_and_the_scalar_evaluator(family, sweep_space):
    domains = {"compression_ratios": (0.2, 0.26), "frequencies_hz": (4e6, 8e6)}
    problem = _problem(family, **(domains if sweep_space else {}))
    kernel, space = problem.vectorized_kernel, problem.space
    ids = _edge_ids(space.size, np.random.default_rng(5))
    genes = space.decode_ids(ids)
    by_ids = kernel.evaluate_columns(ids)
    _assert_columns_equal(by_ids, kernel.evaluate_columns(genes))
    _assert_columns_equal(by_ids, problem.compute_columns_batch(space.ids(ids)))
    _assert_matches_scalar(by_ids, problem, genes)


@settings(max_examples=25, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2**32 - 1))
def test_uneven_layouts_build_the_same_rows_from_ids(layout, seed):
    """Nodes with their knobs in frequency-first order (one digit per knob)
    and domains of uneven cardinalities: ids, gene rows and the scalar
    evaluator agree bitwise."""
    family, applications, nodes, payloads, mac_pairs, components = layout
    build, _, mac_config_factory = FAMILIES[family]
    network = build(n_nodes=len(nodes), applications=tuple(applications))
    domains: list[ParameterDomain] = []
    node_parameters = []
    for index, (ratios, frequencies, frequency_first) in enumerate(nodes):
        domains += [
            ParameterDomain(f"node-{index}.compression_ratio", tuple(ratios)),
            ParameterDomain(f"node-{index}.frequency_hz", tuple(frequencies)),
        ]
        knobs = [("compression_ratio", 2 * index), ("frequency_hz", 2 * index + 1)]
        node_parameters.append(dict(knobs[::-1] if frequency_first else knobs))
    domains.append(ParameterDomain("mac.payload_bytes", tuple(payloads)))
    domains.append(ParameterDomain("mac.pair", tuple(mac_pairs)))
    kernel = WbsnVectorizedKernel.compile(
        network=network,
        node_parameters=node_parameters,
        frequency_column="frequency_hz",
        node_config_factory=lambda _index, values: WbsnDseProblem.build_node_config(
            values
        ),
        mac_positions=(2 * len(nodes), 2 * len(nodes) + 1),
        mac_config_factory=mac_config_factory,
        domains=domains,
        objective_components=components,
        infeasibility_penalty=1e3,
    )
    space = DesignSpace(domains)
    ids = _edge_ids(space.size, np.random.default_rng(seed))
    genes = space.decode_ids(ids)
    by_ids = kernel.evaluate_columns(ids)
    _assert_columns_equal(by_ids, kernel.evaluate_columns(genes))
    for row, genotype in enumerate(genes.tolist()):
        values = space.decode(genotype)
        node_configs = [
            WbsnDseProblem.build_node_config(
                {
                    "compression_ratio": values[f"node-{i}.compression_ratio"],
                    "frequency_hz": values[f"node-{i}.frequency_hz"],
                }
            )
            for i in range(len(nodes))
        ]
        mac_config = mac_config_factory(values["mac.payload_bytes"], values["mac.pair"])
        evaluation = network.evaluate(node_configs, mac_config)
        objectives = [
            getattr(evaluation.objectives, COMPONENT_FIELDS[name])
            for name in components
        ]
        if not evaluation.feasible:
            objectives = [value + 1e3 for value in objectives]
        assert by_ids.objectives[row].tolist() == objectives
        assert int(by_ids.violation_counts[row]) == len(evaluation.violations)


def test_exact_keys_beyond_int64_build_the_same_rows():
    """The 2**65-design 12-node space: exact Python-int keys, the decoded
    gene rows, the engine's path and the scalar evaluator agree bitwise."""
    problem = WbsnDseProblem(
        build_case_study_evaluator(n_nodes=12), engine=EvaluationEngine()
    )
    kernel, space = problem.vectorized_kernel, problem.space
    assert space.size == 2**65
    rng = np.random.default_rng(9)
    keys = [0, 1, 8191, 8192, 2**63 - 1, 2**63, space.size - 2, space.size - 1]
    keys += [int(a) * 2**33 + int(b) for a, b in rng.integers(0, 2**32, (12, 2))]
    keys = np.asarray(keys, dtype=object)
    genes = space.key_genes(keys)
    assert space.design_keys(genes).tolist() == keys.tolist()
    by_keys = kernel.evaluate_columns(keys)
    _assert_columns_equal(by_keys, kernel.evaluate_columns(genes))
    _assert_matches_scalar(by_keys, problem, genes)
    served = problem.evaluate_batch_columns([tuple(g) for g in genes.tolist()])
    assert served.ids.tolist() == keys.tolist()
    assert served.objectives.tobytes() == by_keys.objectives.tobytes()


def _mac_configs(problem: WbsnDseProblem) -> list:
    parameterisation = problem.mac_parameterisation
    return [
        parameterisation.config_factory(*values)
        for values in itertools.product(
            *(domain.values for domain in parameterisation.domains)
        )
    ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compiled_slot_tables_match_the_solver_on_every_row(family):
    """Slot counts, intervals and the slot cap are compiled with the
    solver's own arithmetic: every stage-table row (node, then knob
    combination, then MAC configuration) takes the scalar evaluator's
    required time for that node and configuration, and solved alone by
    :func:`assign_transmission_intervals` gives the compiled count and
    interval; every MAC configuration gives its cap."""
    problem = _problem(family)
    evaluator, kernel = problem.evaluator, problem.vectorized_kernel
    mac = evaluator.mac_protocol
    configs = _mac_configs(problem)
    tables = kernel.shareable_tables()
    counts, intervals = [], []
    for node, plan in enumerate(kernel._node_plans):
        for node_config, config in itertools.product(plan.config_objects, configs):
            stage = evaluator.evaluate_node_stage(node, node_config, config)
            solved = assign_transmission_intervals(
                [stage.required_time_s],
                mac.base_time_unit_s(config),
                mac.control_time_per_second(config),
                mac.max_assignable_time_per_second(config),
            )
            counts += solved.slot_counts
            intervals += solved.transmission_intervals_s
    assert len(counts) == kernel.stage_table_entries
    assert tables["stage.slot_counts"].tolist() == counts
    assert tables["stage.intervals_s"].tolist() == intervals
    caps = [
        min(
            1.0 - mac.control_time_per_second(config),
            mac.max_assignable_time_per_second(config),
        )
        for config in configs
    ]
    assert tables["mac.slot_cap"].tolist() == caps


def test_compiled_counts_keep_the_solver_epsilon():
    """Requirements that are whole numbers of slots up to rounding (``k *
    delta`` in floating point) take ``k`` slots, as in the scalar solver;
    without its ``- 1e-12`` some would take ``k + 1``."""
    base = np.repeat([0.1, 0.015, 1 / 3, 0.07, 0.0123], 40)
    required = base * np.tile(np.arange(1, 41), 5)
    assert (np.ceil(required / base) > np.tile(np.arange(1, 41), 5)).any()
    counts, intervals = slot_count_columns(required, base)
    for needed, delta, count, interval in zip(required, base, counts, intervals):
        solved = assign_transmission_intervals([needed], delta, 0.0)
        assert count == solved.slot_counts[0]
        assert interval == solved.transmission_intervals_s[0]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_id_batches_run_no_stage_no_solver_and_build_no_gene_row(family, monkeypatch):
    problem = _problem(family)
    kernel, space = problem.vectorized_kernel, problem.space
    ids = np.random.default_rng(4).integers(0, space.size, 512)
    calls = _spy_on_stage_functions(monkeypatch, problem.evaluator)

    def forbid(owner, name):
        def fail(*args, **kwargs):
            raise AssertionError(f"a kernel batch called {name}")

        monkeypatch.setattr(owner, name, fail)

    for name in ("decode_ids", "key_genes", "index_matrix"):
        forbid(DesignSpace, name)
    for name in ("decode_ids", "_gene_matrix"):
        forbid(space_module, name)
    for name in ("slot_count_columns", "slot_cap_columns"):
        forbid(vectorized, name)
        forbid(slot_assignment, name)
    forbid(slot_assignment, "assign_transmission_intervals")
    columns = kernel.evaluate_columns(ids)
    served = problem.evaluate_batch_columns(space.ids(ids))
    assert calls == Counter()
    assert len(columns) == len(served) == len(ids)
    assert served.objectives.tobytes() == columns.objectives.tobytes()


# ---------------------------------------------------------------------------
# The delay bound (9) from two integers per design: its slot total and, under
# delay_mode="max", its smallest slot count.

#: 6-node spaces (compression ratios 0.17 and 0.38, 8 MHz) whose nodes hold
#: different slot counts: MAC family, parameterisation and the compiled
#: counts.  The first beacon space has totals above the 7 GTSs of a
#: superframe and 128 of its 512 designs feasible.  Every other beacon space
#: of the suite gives each node one slot.
UNEVEN_SLOT_SPACES = {
    "beacon-1-7": (
        "beacon",
        beacon_mac_parameterisation(
            payload_bytes=(40, 100), order_pairs=((0, 6), (1, 6), (2, 8), (3, 3))
        ),
        {1, 2, 3, 4, 6, 7},
    ),
    "beacon-1-25": (
        "beacon",
        beacon_mac_parameterisation(
            payload_bytes=(40, 100), order_pairs=((0, 0), (0, 2), (1, 9))
        ),
        {1, 10, 12, 22, 25},
    ),
    "csma-1-4": ("csma", csma_mac_parameterisation(), {1, 2, 3, 4}),
}


def _with_delay_mode(network: WBSNEvaluator, delay_mode: str) -> WBSNEvaluator:
    return WBSNEvaluator(
        network.nodes, network.mac_protocol, theta=network.theta, delay_mode=delay_mode
    )


def _uneven_slot_problem(
    space: str, delay_mode: str, vectorized: bool = True
) -> WbsnDseProblem:
    family, mac_parameterisation, counts = UNEVEN_SLOT_SPACES[space]
    problem = WbsnDseProblem(
        _with_delay_mode(FAMILIES[family][0](), delay_mode),
        compression_ratios=(0.17, 0.38),
        frequencies_hz=(8e6,),
        mac_parameterisation=mac_parameterisation,
        engine=EvaluationEngine(),
        vectorized=vectorized,
    )
    if vectorized:
        tables = problem.vectorized_kernel.shareable_tables()
        assert set(tables["stage.slot_counts"].tolist()) == counts
    return problem


def _front_bits(front) -> list:
    return sorted(
        (design.genotype, np.asarray(design.objectives).view(np.int64).tolist())
        for design in front
    )


@pytest.mark.parametrize("delay_mode", ["max", "mean"])
@pytest.mark.parametrize("space", sorted(UNEVEN_SLOT_SPACES))
def test_uneven_slot_counts_match_the_scalar_evaluator(space, delay_mode):
    problem = _uneven_slot_problem(space, delay_mode)
    ids = np.arange(problem.space.size)
    columns = problem.vectorized_kernel.evaluate_columns(ids)
    designs = [
        problem.compute_design(tuple(genes))
        for genes in problem.space.decode_ids(ids).tolist()
    ]
    want = np.asarray([design.objectives for design in designs])
    assert columns.objectives.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert columns.feasible.tolist() == [design.feasible for design in designs]
    if space == "beacon-1-7":
        assert (problem.space.size, int(columns.feasible.sum())) == (512, 128)


@pytest.mark.parametrize("space", ["beacon-1-7", "csma-1-4"])
def test_fronts_under_mean_delay_match_with_the_kernel_off(space):
    fast = _uneven_slot_problem(space, "mean")
    slow = _uneven_slot_problem(space, "mean", vectorized=False)
    assert fast.supports_vectorized and not slow.supports_vectorized
    assert _front_bits(ExhaustiveSearch(fast).run()) == _front_bits(
        ExhaustiveSearch(slow).run()
    )


@pytest.fixture(scope="module")
def default_problems() -> dict[tuple[str, str], WbsnDseProblem]:
    """The default 6-node problem of each MAC family, in each delay mode."""
    problems = {}
    for family, delay_mode in itertools.product(sorted(FAMILIES), ("max", "mean")):
        kwargs = {}
        if family == "csma":
            kwargs["mac_parameterisation"] = csma_mac_parameterisation()
        network = _with_delay_mode(FAMILIES[family][0](), delay_mode)
        problems[family, delay_mode] = WbsnDseProblem(
            network, engine=EvaluationEngine(), **kwargs
        )
    return problems


@st.composite
def slot_count_matrices(draw):
    """Node-major ``(nodes, designs)`` slot counts with ties and zeros."""
    n_nodes = draw(st.integers(1, 12))
    n_designs = draw(st.integers(1, 4))
    pool = draw(st.lists(st.integers(0, 30), min_size=1, max_size=3))
    count = st.one_of(st.just(0), st.sampled_from(pool), st.integers(0, 30))
    values = draw(
        st.lists(count, min_size=n_nodes * n_designs, max_size=n_nodes * n_designs)
    )
    return np.asarray(values, dtype=np.int64).reshape(n_nodes, n_designs)


@settings(max_examples=100, deadline=None)
@given(counts=slot_count_matrices())
def test_delay_column_matches_the_scalar_delays_bit_for_bit(default_problems, counts):
    """Every count matrix under every MAC configuration of both default
    parameterisations: the MAC's elementwise delay, which the kernel
    tabulates at compile time (or calls per design where no table fits),
    taken at each design's smallest count and slot total under ``"max"``,
    or at every node's count and averaged left to right under ``"mean"``,
    is the scalar ``worst_case_delays`` plus ``network_delay_metric`` of
    each design."""
    for (_, delay_mode), problem in default_problems.items():
        kernel, mac = problem.vectorized_kernel, problem.evaluator.mac_protocol
        n_mac = len(kernel._mac_configs)
        batch = np.tile(counts, n_mac)  # every design under every configuration
        mac_index = np.repeat(np.arange(n_mac), counts.shape[1])
        total = batch.sum(axis=0)

        def delays(own_slots):
            return resolve_mac_column_kernels(mac).worst_case_delay_columns(
                own_slots, total, kernel._mac_table, mac_index
            )

        if delay_mode == "max":
            got = delays(batch.min(axis=0))
        else:
            got = balanced_aggregate_columns(delays(batch), 0.0)
        want = [
            network_delay_metric(
                mac.worst_case_delays(column.tolist(), kernel._mac_configs[index]),
                delay_mode,
            )
            for column, index in zip(batch.T, mac_index.tolist())
        ]
        assert got.view(np.int64).tolist() == np.asarray(want).view(np.int64).tolist()


def _record_delay_calls(monkeypatch, network) -> list:
    """Shapes of every call of the MAC's ``worst_case_delay_columns``:
    ``own_slots``, ``total_slots``, ``mac_index`` and the result."""
    mac_type = type(resolve_mac_column_kernels(network.mac_protocol))
    original = mac_type.worst_case_delay_columns
    calls = []

    def recorded(self, own_slots, total_slots, mac_table, mac_index, **kwargs):
        delays = original(self, own_slots, total_slots, mac_table, mac_index, **kwargs)
        shapes = (own_slots, total_slots, mac_index, delays)
        calls.append(tuple(np.shape(value) for value in shapes))
        return delays

    monkeypatch.setattr(mac_type, "worst_case_delay_columns", recorded)
    return calls


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_delay_method_runs_once_at_compile_time_on_the_grid(family, monkeypatch):
    """Where the delay table fits, the MAC delay method is called once, at
    compile time, on the (own count, total count, MAC configuration) grid,
    and never by a batch; a batch looks the delay up at one index per
    design under ``"max"`` (no ``(nodes, batch)`` float delay matrix) and
    one per node and design under ``"mean"``."""
    network = FAMILIES[family][0]()
    calls = _record_delay_calls(monkeypatch, network)
    looked_up = []
    take = np.take

    def recording_take(table, index, *args, **kwargs):
        if looked_up and table is looked_up[0]:
            looked_up.append(np.shape(index))
        return take(table, index, *args, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    ids = np.random.default_rng(6).integers(0, 2**30, 512)
    for delay_mode, index_shape in (("max", (512,)), ("mean", (6, 512))):
        calls.clear()
        problem = _problem_in_mode(family, delay_mode)
        kernel = problem.vectorized_kernel
        own, total = kernel._delay_grid
        n_mac = len(kernel._mac_configs)
        grid = (own, total, n_mac)
        assert calls == [((own, 1, 1), (1, total, 1), (1, 1, n_mac), calls[0][3])]
        assert np.broadcast_shapes(calls[0][3], grid) == grid
        table = kernel.shareable_tables()["delay.table"]
        assert table.shape == (own * total * n_mac,)
        calls.clear()
        looked_up[:] = [table]
        kernel.evaluate_columns(ids)
        assert calls == []
        assert looked_up[1:] == [index_shape]


@pytest.mark.parametrize("delay_mode", ["max", "mean"])
def test_spaces_past_the_table_budget_call_the_delay_method_per_batch(
    delay_mode, monkeypatch
):
    """One budget for both kinds of table: the beacon space with slot counts
    up to 25 has no delay table, and a batch calls the MAC delay method
    once, on one count per design under ``"max"`` and on the node-major
    count matrix under ``"mean"``; the space with counts up to 7 has one."""
    assert "delay.table" in _uneven_slot_problem(
        "beacon-1-7", delay_mode
    ).vectorized_kernel.shareable_tables()
    problem = _uneven_slot_problem("beacon-1-25", delay_mode)
    kernel = problem.vectorized_kernel
    assert kernel._delay_grid is None
    assert "delay.table" not in kernel.shareable_tables()
    calls = _record_delay_calls(monkeypatch, problem.evaluator)
    size = problem.space.size
    kernel.evaluate_columns(np.arange(size))
    own_shape = (size,) if delay_mode == "max" else (6, size)
    assert calls == [(own_shape, (size,), (size,), own_shape)]


# ---------------------------------------------------------------------------
# Node groups: one id split per group of nodes, the exact integer totals of
# each group compiled, and the delay bound (9) looked up on a grid.


def _problem_in_mode(family: str, delay_mode: str, **kwargs) -> WbsnDseProblem:
    if family == "csma":
        kwargs["mac_parameterisation"] = csma_mac_parameterisation()
    n_nodes = kwargs.pop("n_nodes", 6)
    network = _with_delay_mode(FAMILIES[family][0](n_nodes=n_nodes), delay_mode)
    return WbsnDseProblem(network, engine=EvaluationEngine(), **kwargs)


def _node_truth(network: WBSNEvaluator, kernel: WbsnVectorizedKernel, node: int):
    """Per (knob combination, MAC configuration) of ``node``: the scalar
    model's violated node constraints and, solved alone, its slot count."""
    mac = network.mac_protocol
    violations, counts = [], []
    for node_config, config in itertools.product(
        kernel._node_plans[node].config_objects, kernel._mac_configs
    ):
        stage = network.evaluate_node_stage(node, node_config, config)
        evaluation = stage.evaluation
        violations.append((not evaluation.schedulable) + (not evaluation.fits_memory))
        counts += assign_transmission_intervals(
            [stage.required_time_s],
            mac.base_time_unit_s(config),
            mac.control_time_per_second(config),
            mac.max_assignable_time_per_second(config),
        ).slot_counts
    shape = (-1, len(kernel._mac_configs))
    return np.reshape(violations, shape), np.reshape(counts, shape)


def _covering_genes(kernel, space: DesignSpace, mac_positions) -> np.ndarray:
    """Every design of a space of at most 2**17 designs; on larger spaces,
    design k sets every node to knob combination k // (MAC configurations)
    and the MAC configuration k % (MAC configurations), which reaches every
    row of a one-node group."""
    if space.size <= 2**17:
        return space.decode_ids(np.arange(space.size))
    n_mac = len(kernel._mac_configs)
    k = np.arange(max(len(plan.config_objects) for plan in kernel._node_plans) * n_mac)
    genes = np.zeros((len(k), len(space.cardinalities)), dtype=np.int64)
    for plan in kernel._node_plans:
        combo = k // n_mac % len(plan.config_objects)
        for position, stride in zip(plan.positions, plan.strides):
            genes[:, position] = combo // stride % space.cardinalities[position]
    mac_cardinalities = [int(space.cardinalities[p]) for p in mac_positions]
    for position, gene in zip(
        mac_positions, np.unravel_index(k % n_mac, mac_cardinalities)
    ):
        genes[:, position] = gene
    return genes


def _assert_tables_hold(kernel, network, space: DesignSpace, mac_positions) -> None:
    """Every group-table entry is the sum (violations, slot total) or the
    minimum (smallest count) of its members' scalar node values, every
    stage-table slot count is its node's, every phenotype is decoded from
    its group value to the node's own knob combination, and every
    delay-table entry is
    the MAC's elementwise delay at its grid point and the scalar delay of a
    node holding that many of that total."""
    tables = kernel.shareable_tables()
    truth = [_node_truth(network, kernel, n) for n in range(len(kernel._node_plans))]
    genes = _covering_genes(kernel, space, mac_positions)
    keys = space.design_keys(genes)
    group_rows, node_rows, mac_index = kernel._table_rows(
        *kernel._group_values(np.asarray(keys))
    )
    mac_cardinalities = [int(space.cardinalities[p]) for p in mac_positions]
    mac = np.ravel_multi_index([genes[:, p] for p in mac_positions], mac_cardinalities)
    assert mac_index.tolist() == mac.tolist()
    node_columns, mac_column = kernel.phenotype_columns(genes)
    assert mac_column.tolist() == [kernel._mac_configs[i] for i in mac.tolist()]
    violations, counts = [], []
    for plan, (node_violations, node_counts), column in zip(
        kernel._node_plans, truth, node_columns
    ):
        combo = sum(genes[:, p] * s for p, s in zip(plan.positions, plan.strides))
        assert column.tolist() == plan.config_objects[combo].tolist()
        violations.append(node_violations[combo, mac])
        counts.append(node_counts[combo, mac])
    violations, counts = np.asarray(violations), np.asarray(counts)
    assert tables["stage.slot_counts"][node_rows].tolist() == counts.tolist()
    for group, members in enumerate(kernel.node_groups):
        rows, members = group_rows[group], list(members)
        assert (
            tables["group.violations"][rows].tolist()
            == violations[members].sum(axis=0).tolist()
        )
        assert (
            tables["group.slot_total"][rows].tolist()
            == counts[members].sum(axis=0).tolist()
        )
        assert (
            tables["group.min_slots"][rows].tolist()
            == counts[members].min(axis=0).tolist()
        )
    # Every entry of every group table and stage table was checked.
    assert np.unique(group_rows).size == len(tables["group.violations"])
    assert np.unique(node_rows).size == len(tables["stage.slot_counts"])

    largest = [int(node_counts.max()) for _, node_counts in truth]
    n_mac = len(kernel._mac_configs)
    if (max(largest) + 1) * (sum(largest) + 1) * n_mac > 4096:
        assert kernel._delay_grid is None and "delay.table" not in tables
        return
    # The grid reaches every smallest (or own) count and every total.
    assert kernel._delay_grid == (max(largest) + 1, sum(largest) + 1)
    own, total, mac = np.indices((*kernel._delay_grid, n_mac)).reshape(3, -1)
    mac_columns = resolve_mac_column_kernels(network.mac_protocol)
    want = mac_columns.worst_case_delay_columns(own, total, kernel._mac_table, mac)
    table = tables["delay.table"]
    assert table.view(np.int64).tolist() == want.view(np.int64).tolist()
    for value, held, of, index in zip(table, own, total, mac):
        if held <= of:
            scalar = network.mac_protocol.worst_case_delays(
                [held, of - held], kernel._mac_configs[index]
            )[0]
            assert np.float64(scalar).view(np.int64) == value.view(np.int64)


#: The sweep space of ``perfbench`` (two knob values each, 4 and 8 MHz).
SWEEP_DOMAINS = {"compression_ratios": (0.2, 0.26), "frequencies_hz": (4e6, 8e6)}


@pytest.mark.parametrize("delay_mode", ["max", "mean"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("space", ["sweep", "default", "exact-keys"])
def test_group_and_delay_tables_hold_the_node_values(space, family, delay_mode):
    kwargs = {
        "sweep": SWEEP_DOMAINS,
        "default": {},
        "exact-keys": {"n_nodes": 12},
    }[space]
    problem = _problem_in_mode(family, delay_mode, **kwargs)
    if space == "exact-keys":
        assert problem.space.size >= 2**63
    n_genes = len(problem.space.cardinalities)
    _assert_tables_hold(
        problem.vectorized_kernel,
        problem.evaluator,
        problem.space,
        (n_genes - 2, n_genes - 1),
    )


@settings(max_examples=15, deadline=None)
@given(layout=layouts(), delay_mode=st.sampled_from(["max", "mean"]))
def test_uneven_layouts_hold_their_group_and_delay_tables(layout, delay_mode):
    """The uneven and frequency-first layouts of
    ``test_uneven_layouts_build_the_same_rows_from_ids``."""
    family, applications, nodes, payloads, mac_pairs, components = layout
    build, _, mac_config_factory = FAMILIES[family]
    network = _with_delay_mode(
        build(n_nodes=len(nodes), applications=tuple(applications)), delay_mode
    )
    domains: list[ParameterDomain] = []
    node_parameters = []
    for index, (ratios, frequencies, frequency_first) in enumerate(nodes):
        domains += [
            ParameterDomain(f"node-{index}.compression_ratio", tuple(ratios)),
            ParameterDomain(f"node-{index}.frequency_hz", tuple(frequencies)),
        ]
        knobs = [("compression_ratio", 2 * index), ("frequency_hz", 2 * index + 1)]
        node_parameters.append(dict(knobs[::-1] if frequency_first else knobs))
    domains.append(ParameterDomain("mac.payload_bytes", tuple(payloads)))
    domains.append(ParameterDomain("mac.pair", tuple(mac_pairs)))
    mac_positions = (2 * len(nodes), 2 * len(nodes) + 1)
    kernel = WbsnVectorizedKernel.compile(
        network=network,
        node_parameters=node_parameters,
        frequency_column="frequency_hz",
        node_config_factory=lambda _index, values: WbsnDseProblem.build_node_config(
            values
        ),
        mac_positions=mac_positions,
        mac_config_factory=mac_config_factory,
        domains=domains,
        objective_components=components,
    )
    _assert_tables_hold(kernel, network, DesignSpace(domains), mac_positions)


def test_the_sweep_space_splits_into_two_groups_of_three_nodes():
    """131,072 designs: 4 knob combinations per node and 32 MAC
    configurations give groups of 64 x 32 = 2,048 rows (a fourth node would
    make 8,192, past the 4,096-row budget); the default space keeps one
    node per group (32 x 32 = 1,024 rows, two nodes 32,768)."""
    sweep = _problem_in_mode("beacon", "max", **SWEEP_DOMAINS).vectorized_kernel
    assert sweep.node_groups == ((3, 4, 5), (0, 1, 2))
    assert sweep._splits == ((32, -1, 1), (64, 0, 0), (0, 1, 0))
    default = _problem_in_mode("beacon", "max").vectorized_kernel
    assert default.node_groups == tuple((node,) for node in range(5, -1, -1))


def _two_node_kernel(node_parameters, mac_positions, domains):
    network = build_case_study_evaluator(n_nodes=2)
    return network, WbsnVectorizedKernel.compile(
        network=network,
        node_parameters=node_parameters,
        frequency_column="frequency_hz",
        node_config_factory=lambda _index, values: WbsnDseProblem.build_node_config(
            values
        ),
        mac_positions=mac_positions,
        mac_config_factory=WbsnDseProblem.build_mac_config,
        domains=domains,
    )


def test_interleaved_nodes_share_a_group_and_a_split_node_is_unsupported():
    """Two nodes whose knobs interleave (node 0 at genes 0 and 2, node 1 at
    1 and 3) form one group, whose tables and batches stay exact; a node
    whose knobs sit on both sides of a MAC gene cannot be grouped, and the
    compile refuses it (the scalar path then serves the problem)."""
    knob = {"compression_ratio": (0.17, 0.26, 0.38), "frequency_hz": (4e6, 8e6)}
    interleaved = [
        ParameterDomain(f"node-{node}.{name}", knob[name])
        for name in knob
        for node in (0, 1)
    ] + [
        ParameterDomain("mac.payload_bytes", (40, 100)),
        ParameterDomain("mac.orders", ((3, 3), (4, 6))),
    ]
    node_parameters = [
        {"compression_ratio": 0, "frequency_hz": 2},
        {"compression_ratio": 1, "frequency_hz": 3},
    ]
    network, kernel = _two_node_kernel(node_parameters, (4, 5), interleaved)
    assert kernel.node_groups == ((0, 1),)
    space = DesignSpace(interleaved)
    _assert_tables_hold(kernel, network, space, (4, 5))
    ids = np.arange(space.size)
    genes = space.decode_ids(ids)
    _assert_columns_equal(kernel.evaluate_columns(ids), kernel.evaluate_columns(genes))
    for row, genotype in enumerate(genes.tolist()):
        values = space.decode(genotype)
        evaluation = network.evaluate(
            [
                WbsnDseProblem.build_node_config(
                    {name: values[f"node-{node}.{name}"] for name in knob}
                )
                for node in (0, 1)
            ],
            WbsnDseProblem.build_mac_config(
                values["mac.payload_bytes"], values["mac.orders"]
            ),
        )
        want = [getattr(evaluation.objectives, f) for f in COMPONENT_FIELDS.values()]
        got = kernel.evaluate_columns(ids[row : row + 1])  # no penalty
        assert got.objectives[0].tolist() == want
        assert bool(got.feasible[0]) == evaluation.feasible

    straddling = [interleaved[i] for i in (0, 4, 2, 1, 3, 5)]
    with pytest.raises(vectorized.VectorizedUnsupported, match="node 0"):
        _two_node_kernel(
            [
                {"compression_ratio": 0, "frequency_hz": 2},
                {"compression_ratio": 3, "frequency_hz": 4},
            ],
            (1, 5),
            straddling,
        )

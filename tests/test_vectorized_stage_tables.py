"""The factored column kernel: per-node stage tables compiled once.

A node's energy, quality loss, required transmission time and violated node
constraints depend only on that node's knobs and on the MAC configuration,
so :class:`~repro.core.vectorized.WbsnVectorizedKernel` computes them once
per (knob combination × MAC configuration) at compile time and a batch only
gathers from the tables.  Two properties are pinned here:

* a batch evaluation calls none of the per-node stage functions (the
  application columns, the MAC per-node quantities, the node energy model,
  the radio's transmission time) — compiling calls each once per node;
* kernels compiled over per-node domains of *different* cardinalities, with
  mixed applications and either MAC family, stay bitwise equal to the
  scalar evaluator on random batches with duplicate rows.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mac_abstraction import resolve_mac_column_kernels
from repro.core.node_model import NodeEnergyModel, RadioLinkModel
from repro.core.vectorized import WbsnVectorizedKernel
from repro.dse.problem import (
    DEFAULT_BACKOFF_EXPONENT_PAIRS,
    DEFAULT_COMPRESSION_RATIOS,
    DEFAULT_FREQUENCIES_HZ,
    DEFAULT_ORDER_PAIRS,
    DEFAULT_PAYLOAD_BYTES,
    WbsnDseProblem,
    csma_mac_parameterisation,
)
from repro.dse.space import ParameterDomain
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

"""Quickstart: evaluate one WBSN configuration with the system-level model.

The script builds the paper's six-node ECG-monitoring case study (three nodes
compressing with the DWT, three with compressed sensing, all on the Shimmer
platform, sharing a beacon-enabled IEEE 802.15.4 channel), evaluates a single
candidate configuration and prints the per-node energy breakdown, the GTS
allocation, the worst-case delays and the three network-level objectives.
It then compares that hand-picked candidate against a small random batch
through the batched :class:`~repro.engine.EvaluationEngine` — used as a
context manager, the recommended lifecycle: leaving the ``with`` block
closes the engine (spilling its persistent cache tier, when it has one).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.dse import WbsnDseProblem
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import build_case_study_evaluator
from repro.mac802154 import Ieee802154MacConfig
from repro.shimmer import ShimmerNodeConfig


def main() -> None:
    evaluator = build_case_study_evaluator()

    # chi_node per node: compression ratio and microcontroller frequency.
    node_configs = [
        ShimmerNodeConfig(compression_ratio=0.32, microcontroller_frequency_hz=8e6),
        ShimmerNodeConfig(compression_ratio=0.26, microcontroller_frequency_hz=8e6),
        ShimmerNodeConfig(compression_ratio=0.38, microcontroller_frequency_hz=8e6),
        ShimmerNodeConfig(compression_ratio=0.23, microcontroller_frequency_hz=8e6),
        ShimmerNodeConfig(compression_ratio=0.29, microcontroller_frequency_hz=4e6),
        ShimmerNodeConfig(compression_ratio=0.35, microcontroller_frequency_hz=8e6),
    ]
    # chi_mac: payload size, superframe order, beacon order.
    mac_config = Ieee802154MacConfig(payload_bytes=80, superframe_order=4, beacon_order=5)

    evaluation = evaluator.evaluate(node_configs, mac_config)

    print("Per-node evaluation")
    print("-" * 78)
    for node, delay in zip(evaluation.nodes, evaluation.delays_s):
        energy = node.energy
        print(
            f"{node.name} [{node.application_name.upper():3s}] "
            f"CR={node.node_config.compression_ratio:.2f} "
            f"f={node.node_config.microcontroller_frequency_mhz:.0f} MHz | "
            f"sensor {energy.sensor_w * 1e3:5.2f}  mcu {energy.microcontroller_w * 1e3:5.2f}  "
            f"mem {energy.memory_w * 1e3:5.2f}  radio {energy.radio_w * 1e3:5.2f}  "
            f"total {energy.total_mj_per_s:5.2f} mJ/s | "
            f"PRD {node.quality_loss:5.1f}% | worst-case delay {delay * 1e3:6.1f} ms"
        )

    print()
    print("GTS allocation (slots per superframe):", evaluation.assignment.slot_counts)
    print(
        "channel budget: "
        f"{evaluation.assignment.total_transmission_time_s * 1e3:.1f} ms/s allocated of "
        f"{evaluation.assignment.max_assignable_time_per_second * 1e3:.1f} ms/s assignable"
    )
    print()
    objectives = evaluation.objectives
    print("Network-level objectives (all to be minimised)")
    print(f"  energy  : {objectives.energy_mj_per_s:.3f} mJ/s")
    print(f"  quality : {objectives.quality_loss:.2f} (PRD metric)")
    print(f"  delay   : {objectives.delay_s * 1e3:.1f} ms")
    print()
    print("feasible:", evaluation.feasible)
    for violation in evaluation.violations:
        print("  violation:", violation)

    # Batched evaluation through the engine: the context manager closes the
    # engine on exit.
    with EvaluationEngine() as engine:
        problem = WbsnDseProblem(build_case_study_evaluator(), engine=engine)
        rng = np.random.default_rng(7)
        candidates = [problem.space.random_genotype(rng) for _ in range(64)]
        designs = problem.evaluate_batch(candidates)
        best = min(designs, key=lambda design: design.objectives[0])
        print()
        print(f"best of {len(designs)} random candidates (by energy):")
        print("  objectives:", tuple(round(v, 4) for v in best.objectives))
        print(
            f"  engine: {engine.stats.model_evaluations} model evaluations, "
            f"{engine.stats.vectorized_designs} through the columnar kernel"
        )


if __name__ == "__main__":
    main()

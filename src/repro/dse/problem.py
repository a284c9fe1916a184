"""Optimisation-problem layer bridging the design space and the evaluator.

The MAC half of the genotype is *pluggable*: a :class:`MacParameterisation`
names the MAC-owned domains and the factory decoding their values into a
``chi_mac`` object, so the same problem class explores beacon-enabled GTS
configurations (payload + superframe/beacon orders, the default) and
unslotted CSMA/CA configurations (payload + backoff-exponent windows, via
:func:`csma_mac_parameterisation`) — or any future protocol — without
touching the evaluation machinery.
"""

from __future__ import annotations

import abc
import hashlib
import pickle
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.baseline import EnergyDelayBaselineEvaluator
from repro.core.evaluator import NetworkEvaluation, WBSNEvaluator
from repro.core.vectorized import (
    VectorizedUnsupported,
    WbsnBatchColumns,
    WbsnVectorizedKernel,
)
from repro.dse.space import DesignSpace, ParameterDomain
from repro.engine import ColumnarBatchResult, EvaluationEngine
from repro.mac802154.config import Ieee802154MacConfig
from repro.mac802154.csma import CsmaMacConfig
from repro.shimmer.platform import ShimmerNodeConfig

__all__ = [
    "EvaluatedDesign",
    "MacParameterisation",
    "OptimizationProblem",
    "WbsnDseProblem",
    "beacon_mac_parameterisation",
    "csma_mac_parameterisation",
    "DEFAULT_BACKOFF_EXPONENT_PAIRS",
]

#: Default compression-ratio grid explored by the case study (Figure 3/4 sweep).
DEFAULT_COMPRESSION_RATIOS: tuple[float, ...] = (
    0.17,
    0.20,
    0.23,
    0.26,
    0.29,
    0.32,
    0.35,
    0.38,
)

#: Default MSP430 clock frequencies selectable on the Shimmer platform.
DEFAULT_FREQUENCIES_HZ: tuple[float, ...] = (1e6, 2e6, 4e6, 8e6)

#: Default MAC payload sizes explored by the DSE.
DEFAULT_PAYLOAD_BYTES: tuple[int, ...] = (40, 60, 80, 100)

#: Default (superframe order, beacon order) pairs explored by the DSE.
DEFAULT_ORDER_PAIRS: tuple[tuple[int, int], ...] = (
    (3, 3),
    (3, 4),
    (4, 4),
    (4, 5),
    (5, 5),
    (4, 6),
    (5, 6),
    (6, 6),
)

#: Default (macMinBE, macMaxBE) windows explored by CSMA-backed problems.
DEFAULT_BACKOFF_EXPONENT_PAIRS: tuple[tuple[int, int], ...] = (
    (2, 4),
    (3, 5),
    (3, 6),
    (4, 6),
)


@dataclass(frozen=True)
class MacParameterisation:
    """The MAC-owned slice of a design space and its decode rule.

    Attributes:
        name: protocol tag used in reports and fingerprints.
        domains: the MAC parameter domains, in genotype order (their names
            conventionally carry a ``mac.`` prefix).
        config_factory: maps one value per domain (in the same order) to the
            ``chi_mac`` configuration object.
    """

    name: str
    domains: tuple[ParameterDomain, ...]
    config_factory: Callable[..., Any] = field(compare=False)

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValueError("a MAC parameterisation needs at least one domain")

    def decode(self, values: dict[str, Any]) -> Any:
        """Build the MAC configuration from decoded domain values."""
        return self.config_factory(
            *(values[domain.name] for domain in self.domains)
        )


def beacon_mac_parameterisation(
    payload_bytes: Sequence[int] = DEFAULT_PAYLOAD_BYTES,
    order_pairs: Sequence[tuple[int, int]] = DEFAULT_ORDER_PAIRS,
) -> MacParameterisation:
    """Beacon-enabled GTS parameterisation: payload plus (SFO, BCO) pairs."""
    return MacParameterisation(
        name="beacon",
        domains=(
            ParameterDomain("mac.payload_bytes", tuple(payload_bytes)),
            ParameterDomain("mac.orders", tuple(order_pairs)),
        ),
        config_factory=WbsnDseProblem.build_mac_config,
    )


def csma_mac_parameterisation(
    payload_bytes: Sequence[int] = DEFAULT_PAYLOAD_BYTES,
    backoff_exponent_pairs: Sequence[tuple[int, int]] = DEFAULT_BACKOFF_EXPONENT_PAIRS,
) -> MacParameterisation:
    """Unslotted CSMA/CA parameterisation: payload plus backoff windows."""
    return MacParameterisation(
        name="csma",
        domains=(
            ParameterDomain("mac.payload_bytes", tuple(payload_bytes)),
            ParameterDomain("mac.backoff_exponents", tuple(backoff_exponent_pairs)),
        ),
        config_factory=WbsnDseProblem.build_csma_mac_config,
    )


@dataclass(frozen=True)
class EvaluatedDesign:
    """One evaluated candidate.

    Attributes:
        genotype: the encoded configuration.
        objectives: the objective vector (all components to be minimised).
        feasible: whether every model constraint is satisfied.
        phenotype: the decoded configuration (node configs and MAC config).
        violation_count: number of violated model constraints (``0`` iff
            feasible); ``None`` on hand-built designs that never went
            through an evaluation path.
    """

    genotype: tuple[int, ...]
    objectives: tuple[float, ...]
    feasible: bool
    phenotype: dict[str, Any]
    violation_count: int | None = None


class OptimizationProblem(abc.ABC):
    """A minimisation problem over a discrete design space."""

    #: the underlying design space
    space: DesignSpace
    #: number of objective components returned by :meth:`evaluate`
    n_objectives: int
    #: designs served so far (cache hits included); problems backed by an
    #: evaluation engine keep this in sync with the engine's request counter,
    #: while raw model work is reported separately by the engine stats.
    evaluations: int = 0
    #: the evaluation engine routing this problem's evaluations, when any.
    engine: EvaluationEngine | None = None
    #: whether :meth:`evaluate_batch_columns` is available — engine-backed
    #: problems override this; search algorithms that can prune on raw
    #: columns consult it before choosing the columnar sweep path.
    supports_columnar: bool = False

    @abc.abstractmethod
    def evaluate(self, genotype: Sequence[int]) -> EvaluatedDesign:
        """Evaluate one candidate configuration."""

    def evaluate_batch(
        self, genotypes: Sequence[Sequence[int]]
    ) -> list[EvaluatedDesign]:
        """Evaluate a batch of candidates, preserving the input order.

        The default calls :meth:`evaluate` once per *distinct* genotype in
        the batch (evaluation must be deterministic, so duplicates — which
        elitist populations produce in bulk — are served from the first
        result); engine-backed problems override it to also cache across
        batches and dispatch through the engine's execution backend.
        """
        memo: dict[tuple[int, ...], EvaluatedDesign] = {}
        results: list[EvaluatedDesign] = []
        for genotype in genotypes:
            key = tuple(int(gene) for gene in genotype)
            design = memo.get(key)
            if design is None:
                design = self.evaluate(genotype)
                memo[key] = design
            results.append(design)
        return results


class WbsnDseProblem(OptimizationProblem):
    """The case-study exploration problem of Section 5.2.

    The tunable parameters are, per node, the compression ratio and the
    microcontroller frequency, plus the shared MAC payload size and
    superframe/beacon orders.  The objective vector is produced by the
    supplied evaluator: three components (energy, PRD, delay) with the full
    model, two (energy, delay) with the baseline model.

    Args:
        evaluator: a :class:`~repro.core.evaluator.WBSNEvaluator` or
            :class:`~repro.core.baseline.EnergyDelayBaselineEvaluator`.
        compression_ratios: admissible per-node compression ratios.
        frequencies_hz: admissible per-node microcontroller frequencies.
        payload_bytes: admissible MAC payload sizes (beacon default only).
        order_pairs: admissible ``(superframe order, beacon order)`` pairs
            (beacon default only).
        mac_parameterisation: the MAC-owned domains and decode rule; defaults
            to the beacon-enabled parameterisation built from
            ``payload_bytes`` / ``order_pairs``.  Pass
            :func:`csma_mac_parameterisation` (with an evaluator whose MAC
            protocol is the unslotted CSMA/CA model) to explore
            contention-based configurations.
        infeasibility_penalty: constant added to every objective of an
            infeasible candidate so that unconstrained algorithms still rank
            them behind feasible ones.
        record_evaluations: keep every evaluated design in :attr:`history`
            (used by the Figure 5 experiment to extract the overall
            non-dominated set seen during a run).
        engine: the :class:`~repro.engine.EvaluationEngine` routing every
            evaluation (a private serial engine with the genotype cache is
            created if omitted).
        vectorized: compile the columnar fast-path kernel for this problem
            so the engine can evaluate whole batches with NumPy array
            kernels.  The fast path is floating-point-identical to the
            scalar path; ``False`` forces scalar evaluation everywhere.
        array_backend: array-backend choice for the columnar kernel — a
            registered backend name (:mod:`repro.core.array_backend`), an
            ``xp``-style namespace module, or ``None`` for the seam default
            (NumPy).  Ignored when ``vectorized=False``.
    """

    def __init__(
        self,
        evaluator: WBSNEvaluator | EnergyDelayBaselineEvaluator,
        compression_ratios: Sequence[float] = DEFAULT_COMPRESSION_RATIOS,
        frequencies_hz: Sequence[float] = DEFAULT_FREQUENCIES_HZ,
        payload_bytes: Sequence[int] = DEFAULT_PAYLOAD_BYTES,
        order_pairs: Sequence[tuple[int, int]] = DEFAULT_ORDER_PAIRS,
        mac_parameterisation: MacParameterisation | None = None,
        infeasibility_penalty: float = 1e3,
        record_evaluations: bool = False,
        engine: EvaluationEngine | None = None,
        vectorized: bool = True,
        array_backend: str | ModuleType | None = None,
    ) -> None:
        self.engine = engine if engine is not None else EvaluationEngine()
        self.evaluator = evaluator
        self.n_nodes = len(evaluator.nodes)
        self.compression_ratios = tuple(compression_ratios)
        self.frequencies_hz = tuple(frequencies_hz)
        if mac_parameterisation is None:
            # The beacon defaults exist only to build the default
            # parameterisation; with an explicit one they play no role, so
            # they are not kept as (misleading) attributes.
            self.payload_bytes: tuple[int, ...] | None = tuple(payload_bytes)
            self.order_pairs: tuple[tuple[int, int], ...] | None = tuple(order_pairs)
            self.mac_parameterisation = beacon_mac_parameterisation(
                self.payload_bytes, self.order_pairs
            )
        else:
            self.payload_bytes = None
            self.order_pairs = None
            self.mac_parameterisation = mac_parameterisation
        self.infeasibility_penalty = infeasibility_penalty
        self.record_evaluations = record_evaluations
        self.history: list[EvaluatedDesign] = []
        self.evaluations = 0
        self.objective_components: tuple[str, ...] = (
            ("energy", "delay")
            if isinstance(evaluator, EnergyDelayBaselineEvaluator)
            else ("energy", "quality", "delay")
        )

        domains: list[ParameterDomain] = []
        for index in range(self.n_nodes):
            domains.append(
                ParameterDomain(f"node-{index}.compression_ratio", self.compression_ratios)
            )
            domains.append(
                ParameterDomain(f"node-{index}.frequency_hz", self.frequencies_hz)
            )
        domains.extend(self.mac_parameterisation.domains)
        self.space = DesignSpace(domains)
        self.vectorized_kernel = (
            self._compile_kernel(array_backend) if vectorized else None
        )
        self.engine.bind(self)

        # The probe goes through the engine like every other evaluation (it
        # warms the caches and is counted as model work by the stats), but it
        # bypasses :meth:`evaluate` so it can never skew the run accounting
        # (`evaluations`, `history`) even with ``record_evaluations=True``.
        probe = self.engine.evaluate(tuple(0 for _ in range(len(self.space))))
        self.n_objectives = len(probe.objectives)

    # ------------------------------------------------------------------ API

    #: Gene-to-configuration factories shared by the scalar decode and the
    #: vectorized kernel's phenotype tables, so the two paths cannot drift.

    @staticmethod
    def build_node_config(values: dict[str, Any]) -> ShimmerNodeConfig:
        """``{CR, f_uC}`` values (short parameter names) to a node config."""
        return ShimmerNodeConfig(
            compression_ratio=values["compression_ratio"],
            microcontroller_frequency_hz=values["frequency_hz"],
        )

    @staticmethod
    def build_mac_config(
        payload_bytes: int, orders: tuple[int, int]
    ) -> Ieee802154MacConfig:
        """Beacon MAC domain values to a ``chi_mac`` configuration."""
        superframe_order, beacon_order = orders
        return Ieee802154MacConfig(
            payload_bytes=payload_bytes,
            superframe_order=superframe_order,
            beacon_order=beacon_order,
        )

    @staticmethod
    def build_csma_mac_config(
        payload_bytes: int, backoff_exponents: tuple[int, int]
    ) -> CsmaMacConfig:
        """CSMA MAC domain values to a ``chi_mac`` configuration."""
        macMinBE, macMaxBE = backoff_exponents
        return CsmaMacConfig(
            payload_bytes=payload_bytes, macMinBE=macMinBE, macMaxBE=macMaxBE
        )

    def decode(
        self, genotype: Sequence[int]
    ) -> tuple[list[ShimmerNodeConfig], Any]:
        """Decode a genotype into node configurations and a MAC configuration."""
        values = self.space.decode(genotype)
        node_configs = [
            self.build_node_config(
                {
                    "compression_ratio": values[f"node-{index}.compression_ratio"],
                    "frequency_hz": values[f"node-{index}.frequency_hz"],
                }
            )
            for index in range(self.n_nodes)
        ]
        mac_config = self.mac_parameterisation.decode(values)
        return node_configs, mac_config

    def evaluate(self, genotype: Sequence[int]) -> EvaluatedDesign:
        """Evaluate one candidate through the shared evaluation engine."""
        design = self.engine.evaluate(genotype)
        self._record(design)
        return design

    def evaluate_batch(
        self, genotypes: Sequence[Sequence[int]]
    ) -> list[EvaluatedDesign]:
        """Evaluate a batch through the engine (dedup, caches, fast path)."""
        designs = self.engine.evaluate_many(genotypes)
        self.evaluations += len(designs)
        if self.record_evaluations:
            self.history.extend(designs)
        return designs

    @property
    def supports_columnar(self) -> bool:
        """Whether batches can be served as raw columns instead of objects.

        Engine-backed problems always can — all three compute paths feed
        :meth:`~repro.engine.EvaluationEngine.evaluate_many_columnar` —
        except when the run records every evaluated design in
        :attr:`history` (``record_evaluations=True``), which needs the
        materialised objects the columnar path exists to avoid.
        """
        return self.engine is not None and not self.record_evaluations

    def evaluate_batch_columns(
        self,
        genotypes: Sequence[Sequence[int]],
        *,
        prune_to_front: bool = False,
        include_infeasible: bool = True,
    ) -> "ColumnarBatchResult":
        """Evaluate a batch into raw column rows (dedup, caches, fast path).

        The columnar sibling of :meth:`evaluate_batch`: one row per
        genotype, in order, with no design object built until the caller
        materialises its survivors
        (:meth:`~repro.engine.ColumnarBatchResult.materialise`).

        ``prune_to_front`` / ``include_infeasible`` are passed through to
        :meth:`~repro.engine.EvaluationEngine.evaluate_many_columnar`: on a
        worker-pruning backend the result then holds only the batch's
        locally non-dominated rows (distinct genotypes, duplicates
        collapsed); on any other backend the hint is a no-op.  Either way
        every served genotype counts as an evaluation — pruning changes
        what is shipped, not what is computed.
        """
        if not self.supports_columnar:
            raise RuntimeError(
                "this problem cannot serve columnar batch results: it needs "
                "an evaluation engine, and record_evaluations=False (the "
                "history records materialised design objects, which the "
                "columnar path exists to avoid building)"
            )
        result = self.engine.evaluate_many_columnar(
            genotypes,
            prune_to_front=prune_to_front,
            include_infeasible=include_infeasible,
        )
        self.evaluations += len(genotypes)
        return result

    def compute_design(self, genotype: Sequence[int]) -> EvaluatedDesign:
        """Raw model evaluation of one genotype (no run accounting).

        This is the pure compute path the engine calls on a genotype-cache
        miss — it may run in a worker process, so it must not touch
        :attr:`history` or :attr:`evaluations`.
        """
        node_configs, mac_config = self.decode(genotype)
        evaluation: NetworkEvaluation = self.evaluator.evaluate(node_configs, mac_config)
        objectives = tuple(self.evaluator.objective_vector(evaluation))
        if not evaluation.feasible:
            objectives = tuple(
                value + self.infeasibility_penalty for value in objectives
            )
        return EvaluatedDesign(
            genotype=self.space.validate_genotype(genotype),
            objectives=objectives,
            feasible=evaluation.feasible,
            phenotype={
                "node_configs": tuple(node_configs),
                "mac_config": mac_config,
            },
            violation_count=len(evaluation.violations),
        )

    def set_array_backend(self, backend: str | ModuleType | None) -> None:
        """Recompile the columnar kernel onto a different array backend.

        The runner-level seam entry point
        (``run_algorithm(array_backend=...)``): the kernel is recompiled so
        its stage/MAC tables live on the new backend, and the resolved
        backend name is restamped on the engine stats.  Only available for
        problems that compiled a vectorized kernel in the first place.
        """
        if self.vectorized_kernel is None:
            raise RuntimeError(
                "this problem has no compiled vectorized kernel to rebind"
            )
        kernel = self._compile_kernel(backend)
        if kernel is None:  # pragma: no cover - compile succeeded once already
            raise RuntimeError("kernel recompilation failed on the new backend")
        self.vectorized_kernel = kernel
        self.engine.stats.array_backend = kernel.backend_name

    @property
    def supports_vectorized(self) -> bool:
        """Whether a columnar kernel is compiled for this problem."""
        return self.vectorized_kernel is not None

    def evaluation_fingerprint(self) -> bytes | None:
        """Content hash identifying this problem's evaluation semantics.

        Two problems with equal fingerprints produce bitwise-identical
        penalised objective *components* for every genotype: the fingerprint
        covers the underlying network model (nodes, platform parameters, MAC
        protocol, aggregation weights), the full design-space layout and the
        infeasibility penalty — but deliberately **not** the objective
        component selection, which is exactly what the Figure-5 full/baseline
        pair differs in.  The shared genotype cache
        (:class:`~repro.engine.SharedGenotypeCache`) keys on it so rows
        computed by one problem can safely serve another, with objective
        columns projected per problem.  Returns ``None`` when the model is
        not canonically serialisable (no sharing, never wrong sharing).
        """
        network = getattr(self.evaluator, "full_evaluator", self.evaluator)
        try:
            payload = pickle.dumps(
                (
                    tuple(
                        (domain.name, domain.values)
                        for domain in self.space.domains
                    ),
                    # The decode rules matter: equal domains with different
                    # genotype-to-configuration mappings must not collide,
                    # on either the MAC side (the parameterisation factory)
                    # or the node side (the problem class and its node
                    # factory — subclasses may override either).  Classes
                    # and functions pickle by qualified name; unpicklable
                    # factories (lambdas) make the fingerprint None — no
                    # sharing, never wrong sharing.
                    type(self),
                    type(self).build_node_config,
                    self.mac_parameterisation.name,
                    self.mac_parameterisation.config_factory,
                    self.infeasibility_penalty,
                    network,
                ),
                protocol=4,
            )
        except Exception:
            return None
        return hashlib.sha256(payload).digest()

    def compute_columns_batch(
        self, genotypes: Sequence[Sequence[int]]
    ) -> WbsnBatchColumns:
        """Raw columnar evaluation of a batch (no run accounting).

        The batched counterpart of :meth:`compute_design`: the compiled
        kernel evaluates every genotype column-wise and returns the
        objective / feasibility / violation columns as-is — the engine
        threads them through its caches and Pareto pruning, and
        :meth:`materialise_designs` builds objects for the rows a caller
        asks for.  An empty batch returns empty columns without invoking
        the kernel.
        """
        kernel = self.vectorized_kernel
        if kernel is None:
            raise RuntimeError("this problem has no compiled vectorized kernel")
        matrix = self.space.index_matrix(genotypes)
        if len(matrix) == 0:
            return WbsnBatchColumns.empty(kernel.n_objectives)
        return kernel.evaluate_columns(matrix)

    def materialise_designs(
        self, matrix: "np.ndarray", batch: WbsnBatchColumns
    ) -> list[EvaluatedDesign]:
        """Build design objects from a validated index matrix and its columns.

        The only place the engine turns column rows into
        :class:`EvaluatedDesign` objects, whichever path computed them, so
        phenotype decoding and object allocation always stay in the parent
        process.  Phenotypes come from the kernel's lookup tables (repeated
        knob settings share one frozen configuration instance) or, without
        a compiled kernel, from :meth:`decode` — never from a model call.
        """
        kernel = self.vectorized_kernel
        if kernel is not None:
            node_columns, mac_column = kernel.phenotype_columns(matrix)
            node_config_rows = zip(*node_columns)
        else:
            decoded = [self.decode(genotype) for genotype in matrix.tolist()]
            node_config_rows = (tuple(nodes) for nodes, _ in decoded)
            mac_column = [mac_config for _, mac_config in decoded]
        genotype_rows = map(tuple, matrix.tolist())
        objective_rows = map(tuple, batch.objectives.tolist())
        feasible_flags = batch.feasible.tolist()
        violation_rows = batch.violation_counts.tolist()
        return [
            EvaluatedDesign(
                genotype=genotype,
                objectives=objectives,
                feasible=feasible,
                phenotype={"node_configs": node_configs, "mac_config": mac_config},
                violation_count=violations,
            )
            for genotype, objectives, feasible, violations, node_configs, mac_config
            in zip(
                genotype_rows,
                objective_rows,
                feasible_flags,
                violation_rows,
                node_config_rows,
                mac_column,
            )
        ]

    # ------------------------------------------------------------- internals

    def _compile_kernel(
        self, array_backend: str | ModuleType | None = None
    ) -> WbsnVectorizedKernel | None:
        """Compile the columnar kernel, or fall back for unsupported models."""
        network = getattr(self.evaluator, "full_evaluator", self.evaluator)
        mac_domain_count = len(self.mac_parameterisation.domains)
        try:
            return WbsnVectorizedKernel.compile(
                network=network,
                node_parameters=[
                    {
                        "compression_ratio": 2 * index,
                        "frequency_hz": 2 * index + 1,
                    }
                    for index in range(self.n_nodes)
                ],
                frequency_column="frequency_hz",
                node_config_factory=lambda _index, values: self.build_node_config(
                    values
                ),
                mac_positions=tuple(
                    2 * self.n_nodes + offset for offset in range(mac_domain_count)
                ),
                mac_config_factory=self.mac_parameterisation.config_factory,
                domains=self.space.domains,
                objective_components=self.objective_components,
                infeasibility_penalty=self.infeasibility_penalty,
                backend=array_backend,
            )
        except VectorizedUnsupported:
            return None

    def _record(self, design: EvaluatedDesign) -> None:
        """Account one served design to this run."""
        self.evaluations += 1
        if self.record_evaluations:
            self.history.append(design)

"""Vectorized columnar evaluation fast path of the analytical model.

The scalar :class:`~repro.core.evaluator.WBSNEvaluator` allocates a tower of
frozen dataclasses per candidate — fine for one evaluation, wasteful for the
tens of thousands the design-space exploration pushes through a batch.  This
module "compiles" everything static about a problem once and then evaluates
an entire batch of genotypes with a handful of NumPy array operations.

The model factors by node: a node's energy, quality loss and radio time
(equations (3)-(7)) depend only on that node's own knobs and on the MAC
configuration.  Only slot assignment, the delay bound (9) and the balanced
aggregate (8) couple the nodes.  The kernel exploits that split:

1. at compile time, for every node, the application models
   (:class:`~repro.core.application.VectorizedApplicationModel`), the MAC
   per-node quantities (:class:`~repro.core.mac_abstraction.VectorizedMACModel`),
   the node energy model and the radio's transmission time run **once** over
   every (knob combination × MAC configuration) pair of that node.  The
   results are kept as node-major **stage tables** of total energy, quality
   loss, required transmission time and violation count.  Size rule: per
   node, knob combinations × MAC configurations rows (4 × 32 = 128 per node
   on the 131,072-design sweep space, 32 × 32 = 1,024 on the default
   space), concatenated over the nodes;
2. a batch's ``(batch, genes)`` gene-index matrix becomes one
   ``(nodes, batch)`` matrix of stage-table rows — the node's table offset,
   plus its knob combination times the MAC configuration count, plus the
   MAC configuration — and each quantity is one gather from its table;
3. slot assignment, the delay bound and the equation-(8) aggregation run on
   the gathered matrices, with the per-MAC-configuration scalars gathered
   through the same MAC index;
4. the caller materialises result objects only for the designs it keeps —
   this module returns plain column arrays, never per-design objects.

**Invariant:** every stage mirrors the scalar model operation for operation
(same order, same epsilons, multiplication instead of ``pow``), and a stage
table entry is the very float the per-row evaluation would compute (the
stages are elementwise), so the fast path is floating-point-identical to the
scalar path — same seed, same fronts, bit for bit — which the parity suite
in ``tests/test_vectorized.py`` enforces.  When a problem's components do not
implement the column protocols the compile step raises
:class:`VectorizedUnsupported` and callers fall back to the scalar path.
MAC column support is discovered through the pluggable ``column_kernels``
hook of the MAC abstraction
(:func:`~repro.core.mac_abstraction.resolve_mac_column_kernels`) — the kernel
never names a concrete MAC model, so both the beacon-enabled 802.15.4 model
and the unslotted CSMA/CA model (and any future protocol advertising
kernels) take the same fast path.

When does each path win?  The scalar path is right for single evaluations
and tiny batches; the columnar path
wins as soon as batches reach tens of genotypes, because the per-candidate
Python and allocation overhead collapses into a handful of array operations.

The engine hands ``evaluate_columns`` only its cache misses, so warm rows
never reach a table gather.  ``shareable_tables`` lets the sharded backend
(:mod:`repro.engine.sharded`) move the stage and MAC tables into a
``multiprocessing.shared_memory`` arena so worker-process kernels gather
from one shared copy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from types import ModuleType
from typing import Any, Callable, Mapping, Sequence

from repro.core.array_backend import backend_name, resolve_backend, xp as np

from repro.core.application import VectorizedApplicationModel
from repro.core.evaluator import NodeConfigLike, NodeDescription, WBSNEvaluator
from repro.core.mac_abstraction import (
    VectorizedMACModel,
    resolve_mac_column_kernels,
)
from repro.core.metrics import (
    balanced_aggregate_columns,
    network_delay_metric_columns,
)
from repro.core.slot_assignment import assign_transmission_interval_columns

__all__ = [
    "VectorizedUnsupported",
    "WbsnBatchColumns",
    "WbsnVectorizedKernel",
    "as_row_indices",
]

#: The per-node stage tables, by shared-table slot name.
_STAGE_TABLES = (
    "stage.energy_w",
    "stage.quality_loss",
    "stage.required_time_s",
    "stage.violations",
)


def as_row_indices(rows: Any) -> np.ndarray:
    """Normalise a row selection: integer indices, or a boolean mask.

    The single definition of the row-selection rule shared by every column
    container's ``take``/``materialise`` — a boolean array selects the rows
    where it is ``True``; anything else is coerced to integer indices.
    """
    rows = np.asarray(rows)
    if rows.dtype == bool:
        return np.flatnonzero(rows)
    return rows.astype(np.int64, copy=False)


class VectorizedUnsupported(TypeError):
    """Raised when a problem's components cannot take the columnar fast path."""


@dataclass(frozen=True)
class WbsnBatchColumns:
    """Column results of one vectorized batch evaluation.

    Attributes:
        objectives: penalised objective vectors, shape ``(batch, n_obj)``.
        feasible: per-candidate feasibility flags.
        violation_counts: number of violated model constraints per candidate
            (node schedulability, node memory fit, MAC budget), matching the
            length of the scalar evaluation's ``violations`` tuple.
    """

    objectives: np.ndarray
    feasible: np.ndarray
    violation_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.objectives)

    @classmethod
    def empty(cls, n_objectives: int) -> "WbsnBatchColumns":
        """Zero-row columns — the result of an empty (or all-cached) batch."""
        return cls(
            objectives=np.empty((0, n_objectives)),
            feasible=np.empty(0, dtype=bool),
            violation_counts=np.empty(0, dtype=np.int64),
        )

    def take(self, rows: Any) -> "WbsnBatchColumns":
        """Row subset of the columns, by integer indices or a boolean mask
        (fancy-indexed, preserving order)."""
        rows = as_row_indices(rows)
        return WbsnBatchColumns(
            objectives=self.objectives[rows],
            feasible=self.feasible[rows],
            violation_counts=self.violation_counts[rows],
        )


@dataclass(frozen=True)
class _NodePlan:
    """One node's knob layout and phenotype lookup table."""

    #: genotype position of each knob
    positions: tuple[int, ...]
    #: row-major stride of each knob over the node's knob combinations
    strides: tuple[int, ...]
    #: node-config objects over the flattened knob combinations
    config_objects: np.ndarray


class WbsnVectorizedKernel:
    """Compiled columnar evaluator of one WBSN exploration problem.

    Build instances through :meth:`compile`, which validates that every
    component supports the column protocols and precomputes the stage and
    MAC tables.  The kernel is stateless after compilation and therefore
    safe to share (and to pickle alongside its problem).
    """

    def __init__(
        self,
        *,
        theta: float,
        delay_mode: str,
        node_plans: Sequence[_NodePlan],
        stage_tables: Mapping[str, np.ndarray],
        mac_positions: Sequence[int],
        mac_strides: Sequence[int],
        mac_configs: Sequence[Any],
        mac_config_objects: np.ndarray,
        mac_columns: VectorizedMACModel,
        mac_table: Any,
        base_time_unit_s: np.ndarray,
        control_time_per_second: np.ndarray,
        max_assignable_time_per_second: np.ndarray,
        objective_components: tuple[str, ...],
        infeasibility_penalty: float,
        array_namespace: ModuleType | None = None,
    ) -> None:
        # The array-backend seam: resolved once (at compile time) and
        # threaded through every column kernel the batch evaluation drives.
        # Only the *name* is pickled (modules are not picklable); worker
        # processes re-resolve the namespace on unpickle.
        self._xp = resolve_backend(array_namespace)
        self.backend_name = backend_name(self._xp)
        self._theta = theta
        self._delay_mode = delay_mode
        self._node_plans = tuple(node_plans)
        self._stage_tables = dict(stage_tables)
        self._mac_positions = tuple(mac_positions)
        self._mac_strides = tuple(mac_strides)
        self._mac_configs = tuple(mac_configs)
        self._mac_config_objects = mac_config_objects
        self._mac_columns = mac_columns
        self._mac_table = mac_table
        self._base_time_unit_s = base_time_unit_s
        self._control_time_per_second = control_time_per_second
        self._max_assignable_time_per_second = max_assignable_time_per_second
        self.objective_components = objective_components
        self.infeasibility_penalty = infeasibility_penalty
        # Stage-table row of node n for a batch row: offset[n] plus, per
        # knob k, gene[positions[k, n]] * strides[k, n] (strides scaled by
        # the MAC configuration count), plus the MAC configuration.  Nodes
        # with fewer knobs pad with a zero stride.
        n_mac = len(self._mac_configs)
        knob_count = max(len(plan.positions) for plan in self._node_plans)
        positions = np.zeros((knob_count, len(self._node_plans)), dtype=np.int64)
        strides = np.zeros_like(positions)
        offsets = np.zeros(len(self._node_plans), dtype=np.int64)
        offset = 0
        for node, plan in enumerate(self._node_plans):
            positions[: len(plan.positions), node] = plan.positions
            strides[: len(plan.strides), node] = [s * n_mac for s in plan.strides]
            offsets[node] = offset
            offset += len(plan.config_objects) * n_mac
        self._knob_positions = self._xp.asarray(positions)
        self._knob_strides = self._xp.asarray(strides)
        self._node_offsets = self._xp.asarray(offsets)

    # ------------------------------------------------------------ compile

    @classmethod
    def compile(
        cls,
        *,
        network: WBSNEvaluator,
        node_parameters: Sequence[Mapping[str, int]],
        frequency_column: str,
        node_config_factory: Callable[[int, Mapping[str, Any]], NodeConfigLike],
        mac_positions: Sequence[int],
        mac_config_factory: Callable[..., Any],
        domains: Sequence[Any],
        objective_components: Sequence[str] = ("energy", "quality", "delay"),
        infeasibility_penalty: float = 0.0,
        backend: str | ModuleType | None = None,
    ) -> "WbsnVectorizedKernel":
        """Compile a network and a design-space layout into a kernel.

        Args:
            network: the scalar evaluator whose model the kernel mirrors.
            node_parameters: per node, a mapping from column name (the domain
                name stripped of its ``node-<i>.`` prefix) to the domain's
                position in the genotype.
            frequency_column: which column name carries ``f_uC``.
            node_config_factory: builds the per-node configuration object for
                a ``(node index, {column name: value})`` pair — used for the
                phenotype lookup tables.
            mac_positions: genotype positions of the MAC-owned domains, in
                the order expected by ``mac_config_factory``.
            mac_config_factory: builds one MAC configuration object from one
                value per MAC domain.
            domains: the genotype domains, in order — anything shaped like
                :class:`repro.dse.space.ParameterDomain` (``values`` plus a
                ``float_values`` numeric lookup table).
            objective_components: which of ``energy`` / ``quality`` /
                ``delay`` make up the objective vector, in order.
            infeasibility_penalty: constant added to every objective of an
                infeasible candidate (mirrors the problem layer).
            backend: array backend for the column kernels — ``None`` for
                the default (NumPy), a name registered with
                :func:`repro.core.array_backend.register_backend`, or an
                already-resolved ``xp`` namespace.  Resolved exactly once,
                here, and threaded through every column kernel the compiled
                evaluation drives.

        Raises:
            VectorizedUnsupported: when an application or the MAC protocol
                does not implement the column protocols, or the objective
                components are unknown.
        """
        unknown = set(objective_components) - {"energy", "quality", "delay"}
        if unknown:
            raise VectorizedUnsupported(
                f"unknown objective components: {sorted(unknown)}"
            )
        xp = resolve_backend(backend)
        mac_protocol = network.mac_protocol
        # Column support is discovered through the protocol (the
        # ``column_kernels`` hook), never by matching concrete MAC classes:
        # any protocol advertising kernels — the beacon-enabled model, the
        # unslotted CSMA/CA model, or a delegate object — plugs in here.
        mac_columns = resolve_mac_column_kernels(mac_protocol)
        if mac_columns is None:
            raise VectorizedUnsupported(
                f"MAC model {type(mac_protocol).__name__} has no column kernels"
            )
        if len(node_parameters) != len(network.nodes):
            raise VectorizedUnsupported(
                "node_parameters must describe every node of the network"
            )

        # Distinct MAC configurations: cross product of the MAC domains,
        # with per-configuration scalars computed through the exact scalar
        # model methods (bit-identical by construction).
        mac_cardinalities = [len(domains[pos].values) for pos in mac_positions]
        mac_configs: list[Any] = []
        for combo in np.ndindex(*mac_cardinalities):
            values = [
                domains[pos].values[gene] for pos, gene in zip(mac_positions, combo)
            ]
            mac_configs.append(mac_config_factory(*values))
        for config in mac_configs:
            mac_protocol.validate_config(config)
        mac_config_objects = np.empty(len(mac_configs), dtype=object)
        mac_config_objects[:] = mac_configs
        mac_table = mac_columns.compile_mac_table(mac_configs, xp=xp)

        node_plans: list[_NodePlan] = []
        stage_parts: list[tuple[np.ndarray, ...]] = []
        for index, (description, parameters) in enumerate(
            zip(network.nodes, node_parameters)
        ):
            if not isinstance(description.application, VectorizedApplicationModel):
                raise VectorizedUnsupported(
                    f"application {type(description.application).__name__} "
                    "has no column kernels"
                )
            if frequency_column not in parameters:
                raise VectorizedUnsupported(
                    f"node {index} does not expose the '{frequency_column}' column"
                )
            tables: dict[str, np.ndarray] = {}
            for name, position in parameters.items():
                table = domains[position].float_values
                if table is None:
                    raise VectorizedUnsupported(
                        f"domain at position {position} is not numeric"
                    )
                tables[name] = xp.asarray(table)
            # Phenotype lookup: one config object per combination of the
            # node's knobs, addressed by the flattened gene indices.
            positions = tuple(parameters.values())
            cardinalities = [len(domains[pos].values) for pos in positions]
            objects = np.empty(int(np.prod(cardinalities)), dtype=object)
            for flat, combo in enumerate(np.ndindex(*cardinalities)):
                values = {
                    name: domains[pos].values[gene]
                    for (name, pos), gene in zip(parameters.items(), combo)
                }
                config = node_config_factory(index, values)
                # The scalar path validates every configuration it evaluates;
                # the batch path validates the (finite) table of reachable
                # configurations once, here, so both paths reject the same
                # inputs.
                description.application.validate_config(config)
                objects[flat] = config
            node_plans.append(
                _NodePlan(
                    positions=positions,
                    strides=_strides(cardinalities),
                    config_objects=objects,
                )
            )
            # The node's stage-table rows: every knob combination (row-major,
            # like the phenotype table) times every MAC configuration.
            genes = np.indices(cardinalities).reshape(len(cardinalities), -1)
            config_columns = {
                name: xp.repeat(tables[name][xp.asarray(column)], len(mac_configs))
                for name, column in zip(parameters, genes)
            }
            mac_index = xp.tile(xp.arange(len(mac_configs)), len(objects))
            stage_parts.append(
                _node_stage_columns(
                    description,
                    config_columns,
                    config_columns[frequency_column],
                    mac_columns,
                    mac_table,
                    mac_index,
                    xp=xp,
                )
            )

        return cls(
            theta=network.theta,
            delay_mode=network.delay_mode,
            node_plans=node_plans,
            stage_tables={
                name: xp.concatenate(parts)
                for name, parts in zip(_STAGE_TABLES, zip(*stage_parts))
            },
            mac_positions=mac_positions,
            mac_strides=_strides(mac_cardinalities),
            mac_configs=mac_configs,
            mac_config_objects=mac_config_objects,
            mac_columns=mac_columns,
            mac_table=mac_table,
            base_time_unit_s=xp.asarray(
                [mac_protocol.base_time_unit_s(c) for c in mac_configs], dtype=float
            ),
            control_time_per_second=xp.asarray(
                [mac_protocol.control_time_per_second(c) for c in mac_configs],
                dtype=float,
            ),
            max_assignable_time_per_second=xp.asarray(
                [mac_protocol.max_assignable_time_per_second(c) for c in mac_configs],
                dtype=float,
            ),
            objective_components=tuple(objective_components),
            infeasibility_penalty=float(infeasibility_penalty),
            array_namespace=xp,
        )

    # ----------------------------------------------------------------- API

    @property
    def n_objectives(self) -> int:
        """Number of objective components produced per candidate."""
        return len(self.objective_components)

    def evaluate_columns(self, index_matrix: np.ndarray) -> WbsnBatchColumns:
        """Evaluate a validated ``(batch, genes)`` gene-index matrix into
        objective/feasibility columns.

        The engine hands the kernel its cache misses only, so cached rows
        never reach a column gather.  A zero-row matrix short-circuits into
        empty columns without invoking any kernel stage — no zero-length
        gathers reach NumPy.
        """
        if len(index_matrix) == 0:
            return WbsnBatchColumns.empty(self.n_objectives)
        xp = self._xp
        index_matrix = xp.asarray(index_matrix)
        mac_index = self._mac_flat_index(index_matrix, xp=xp)
        # One (nodes, batch) matrix of stage-table rows, then one gather per
        # quantity.
        rows = self._node_offsets[:, None] + mac_index
        genes = index_matrix.T
        for positions, strides in zip(self._knob_positions, self._knob_strides):
            rows += genes[positions] * strides[:, None]
        energy, quality, required, node_violations = (
            self._stage_tables[name][rows] for name in _STAGE_TABLES
        )

        assignment = assign_transmission_interval_columns(
            required.T,
            self._base_time_unit_s[mac_index],
            self._control_time_per_second[mac_index],
            self._max_assignable_time_per_second[mac_index],
            xp=xp,
        )
        violations = node_violations.sum(axis=0) + xp.where(assignment.feasible, 0, 1)
        theta = self._theta
        components = {
            "energy": lambda: balanced_aggregate_columns(energy, theta, xp=xp),
            "quality": lambda: balanced_aggregate_columns(quality, theta, xp=xp),
            "delay": lambda: network_delay_metric_columns(
                self._mac_columns.worst_case_delay_columns(
                    assignment.slot_counts, self._mac_table, mac_index, xp=xp
                ).T,
                self._delay_mode,
                xp=xp,
            ),
        }
        feasible = violations == 0
        penalised = [
            xp.where(feasible, column, column + self.infeasibility_penalty)
            for column in (components[name]() for name in self.objective_components)
        ]
        return WbsnBatchColumns(
            objectives=xp.stack(penalised, axis=1),
            feasible=feasible,
            violation_counts=violations,
        )

    def phenotype_columns(
        self, index_matrix: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Decoded configuration objects for a batch, as object columns.

        Returns one object column per node (the per-node configurations) and
        one column of MAC configuration objects.  All objects come from the
        compiled lookup tables, so repeated settings share one frozen
        instance across the whole batch.
        """
        node_columns: list[np.ndarray] = []
        for plan in self._node_plans:
            flat = np.zeros(len(index_matrix), dtype=np.int64)
            for position, stride in zip(plan.positions, plan.strides):
                flat += index_matrix[:, position] * stride
            node_columns.append(plan.config_objects[flat])
        return node_columns, self._mac_config_objects[self._mac_flat_index(index_matrix)]

    @property
    def stage_table_entries(self) -> int:
        """Entries per stage table: over all nodes, knob combinations × MAC
        configurations."""
        return len(self._stage_tables[_STAGE_TABLES[0]])

    # ------------------------------------------- shared-memory table hooks

    def shareable_tables(self) -> dict[str, np.ndarray]:
        """The kernel's numeric column tables, as one flat named mapping.

        These are every table a batch evaluation gathers from: the per-node
        stage tables, the per-MAC-configuration scalar tables and the
        compiled MAC table columns.  The sharded shared-memory backend
        (:class:`~repro.engine.sharded.ShardedVectorizedBackend`) packs them
        into one ``multiprocessing.shared_memory`` arena, and each worker
        unpickles its kernel with these tables bound to the attached arena
        views, so every worker's gathers read a single shared copy.  Object
        tables (the phenotype lookup objects) are deliberately excluded —
        workers return raw columns and never materialise designs.
        """
        tables: dict[str, np.ndarray] = {
            "mac.base_time_unit_s": self._base_time_unit_s,
            "mac.control_time_per_second": self._control_time_per_second,
            "mac.max_assignable_time_per_second": (
                self._max_assignable_time_per_second
            ),
            **self._stage_tables,
        }
        if is_dataclass(self._mac_table):
            for field in fields(self._mac_table):
                value = getattr(self._mac_table, field.name)
                if isinstance(value, np.ndarray) and value.dtype != object:
                    tables[f"mac_table.{field.name}"] = value
        return tables

    # ------------------------------------------------------------ internals

    def _mac_flat_index(
        self, index_matrix: np.ndarray, *, xp: ModuleType = np
    ) -> np.ndarray:
        flat = xp.zeros(len(index_matrix), dtype=np.int64)
        for position, stride in zip(self._mac_positions, self._mac_strides):
            flat += index_matrix[:, position] * stride
        return flat

    def __getstate__(self) -> dict:
        # Modules are not picklable: ship the backend *name* and re-resolve
        # the namespace where the kernel lands (worker processes resolve
        # against their own registry, so a worker without the backend's
        # library fails loudly instead of silently falling back).
        state = self.__dict__.copy()
        del state["_xp"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._xp = resolve_backend(self.backend_name)


def _node_stage_columns(
    description: NodeDescription,
    config_columns: Mapping[str, np.ndarray],
    frequency_hz: np.ndarray,
    mac_columns: VectorizedMACModel,
    mac_table: Any,
    mac_index: np.ndarray,
    *,
    xp: ModuleType,
) -> tuple[np.ndarray, ...]:
    """One node's stage columns over aligned knob and MAC-index columns.

    Returns, in :data:`_STAGE_TABLES` order, the node's total energy,
    quality loss, required transmission time and violated node constraints
    (schedulability, memory fit), each one entry per input row.
    """
    app = description.application.application_columns(
        description.input_stream_bytes_per_second, config_columns
    )
    mac_quantities = mac_columns.per_node_quantity_columns(
        app.output_stream_bytes_per_second, mac_table, mac_index, xp=xp
    )
    energy_model = description.energy_model
    energy = energy_model.evaluate_columns(
        sampling_rate_hz=description.sampling_rate_hz,
        microcontroller_frequency_hz=frequency_hz,
        duty_cycle=app.duty_cycle,
        memory_accesses_per_second=app.memory_accesses_per_second,
        memory_bytes=app.memory_bytes,
        output_stream_bytes_per_second=app.output_stream_bytes_per_second,
        mac=mac_quantities,
        xp=xp,
    )
    required = energy_model.radio.transmission_time_columns(
        app.output_stream_bytes_per_second
        + mac_quantities.data_overhead_bytes_per_second
    )
    violations = xp.where(app.duty_cycle <= 1.0, 0, 1) + xp.where(
        xp.less_equal(app.memory_bytes, energy_model.ram_bytes), 0, 1
    )
    shape = (len(mac_index),)
    return (
        xp.broadcast_to(energy.total_w, shape),
        xp.broadcast_to(app.quality_loss, shape),
        xp.broadcast_to(required, shape),
        xp.broadcast_to(violations, shape).astype(np.int64),
    )


def _strides(cardinalities: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides flattening multi-domain gene indices."""
    strides = [1] * len(cardinalities)
    for position in range(len(cardinalities) - 2, -1, -1):
        strides[position] = strides[position + 1] * cardinalities[position + 1]
    return tuple(strides)

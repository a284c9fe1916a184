"""Vectorized columnar evaluation fast path of the analytical model.

The scalar :class:`~repro.core.evaluator.WBSNEvaluator` allocates a tower of
frozen dataclasses per candidate — fine for one evaluation, wasteful for the
tens of thousands the design-space exploration pushes through a batch.  This
module "compiles" everything static about a problem once — the per-node
descriptions, the per-domain value lookup tables, the distinct MAC
configurations — into column arrays, and then evaluates an entire batch of
genotypes with NumPy array kernels:

1. genotypes are validated into an integer index matrix ``(batch, genes)``;
2. per-domain lookup tables turn gene columns into value columns (compression
   ratios, clock frequencies) and the MAC genes into a row index into a
   precompiled per-configuration table;
3. the application models produce ``phi_out`` / resource usage / PRD columns
   (:class:`~repro.core.application.VectorizedApplicationModel`), the MAC
   model produces ``Omega`` / ``Psi`` columns
   (:class:`~repro.core.mac_abstraction.VectorizedMACModel`), the node energy
   model evaluates equations (3)-(7) column-wise, and the slot-assignment /
   delay-bound / equation-(8) aggregation stages run on ``(batch, nodes)``
   matrices;
4. the caller materialises result objects only for the designs it keeps —
   this module returns plain column arrays, never per-design objects.

**Invariant:** every kernel mirrors the scalar model operation for operation
(same order, same epsilons, multiplication instead of ``pow``), so the fast
path is floating-point-identical to the scalar path — same seed, same fronts,
bit for bit — which the parity suite in ``tests/test_vectorized.py``
enforces.  When a problem's components do not implement the column protocols
the compile step raises :class:`VectorizedUnsupported` and callers fall back
to the scalar path.  MAC column support is discovered through the pluggable
``column_kernels`` hook of the MAC abstraction
(:func:`~repro.core.mac_abstraction.resolve_mac_column_kernels`) — the kernel
never names a concrete MAC model, so both the beacon-enabled 802.15.4 model
and the unslotted CSMA/CA model (and any future protocol advertising
kernels) take the same fast path.

When does each path win?  The scalar path (plus the engine's node-stage
cache) is right for single evaluations and tiny batches; the columnar path
wins as soon as batches reach tens of genotypes, because the per-candidate
Python and allocation overhead collapses into a handful of array operations.

The engine hands ``evaluate_columns`` only its cache misses, so warm rows
never reach a table gather.  ``shareable_tables`` /
``adopt_shared_tables`` let the sharded backend
(:mod:`repro.engine.sharded`) move the compiled lookup tables into a
``multiprocessing.shared_memory`` arena so worker-process kernels gather
from one shared copy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
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
    """Compiled per-node lookup tables and column hooks."""

    description: NodeDescription
    application: VectorizedApplicationModel
    #: ``(column name, genotype position, value lookup table)`` per knob
    columns: tuple[tuple[str, int, np.ndarray], ...]
    #: name of the column carrying the microcontroller frequency
    frequency_column: str
    #: node-config objects over the flattened cross product of the knobs
    config_objects: np.ndarray
    #: stride per knob used to flatten gene indices into ``config_objects``
    strides: tuple[int, ...]

    def group_key(self) -> tuple:
        """Nodes sharing this key evaluate as one ``(batch, group)`` matrix."""
        return (
            id(self.application),
            id(self.description.energy_model),
            self.description.sampling_rate_hz,
            self.description.sample_width_bytes,
            tuple(name for name, _, _ in self.columns),
        )

    def tables_equal(self, other: "_NodePlan") -> bool:
        """Whether two plans share identical value lookup tables."""
        return all(
            np.array_equal(mine, theirs)
            for (_, _, mine), (_, _, theirs) in zip(self.columns, other.columns)
        )


class WbsnVectorizedKernel:
    """Compiled columnar evaluator of one WBSN exploration problem.

    Build instances through :meth:`compile`, which validates that every
    component supports the column protocols and precomputes the lookup
    tables.  The kernel is stateless after compilation and therefore safe to
    share (and to pickle alongside its problem).
    """

    def __init__(
        self,
        *,
        network: WBSNEvaluator,
        node_plans: Sequence[_NodePlan],
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
        self._network = network
        self._node_plans = tuple(node_plans)
        # Nodes sharing application/platform/tables evaluate as one matrix:
        # the case-study networks collapse to one group per firmware, so the
        # per-node Python overhead becomes per-*group*.
        groups: dict[tuple, list[int]] = {}
        for index, plan in enumerate(self._node_plans):
            key = plan.group_key()
            members = groups.setdefault(key, [])
            if members and not self._node_plans[members[0]].tables_equal(plan):
                # Same models but different knob tables: keep separate.
                groups[key + (index,)] = [index]
                continue
            members.append(index)
        self._node_groups = tuple(tuple(members) for members in groups.values())
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

        node_plans: list[_NodePlan] = []
        for index, (description, parameters) in enumerate(
            zip(network.nodes, node_parameters)
        ):
            application = description.application
            if not isinstance(application, VectorizedApplicationModel):
                raise VectorizedUnsupported(
                    f"application {type(application).__name__} has no column kernels"
                )
            if frequency_column not in parameters:
                raise VectorizedUnsupported(
                    f"node {index} does not expose the '{frequency_column}' column"
                )
            columns: list[tuple[str, int, np.ndarray]] = []
            for name, position in parameters.items():
                table = domains[position].float_values
                if table is None:
                    raise VectorizedUnsupported(
                        f"domain at position {position} is not numeric"
                    )
                # Lookup tables live on the compile-time backend (a no-op
                # view for NumPy, a device upload for accelerator backends).
                columns.append((name, position, xp.asarray(table)))
            # Phenotype lookup: one config object per combination of the
            # node's knobs, addressed by the flattened gene indices.
            cardinalities = [len(domains[pos].values) for _, pos, _ in columns]
            strides = _strides(cardinalities)
            objects = np.empty(int(np.prod(cardinalities)), dtype=object)
            for flat, combo in enumerate(np.ndindex(*cardinalities)):
                values = {
                    name: domains[pos].values[gene]
                    for (name, pos, _), gene in zip(columns, combo)
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
                    description=description,
                    application=application,
                    columns=tuple(columns),
                    frequency_column=frequency_column,
                    config_objects=objects,
                    strides=strides,
                )
            )

        # Distinct MAC configurations: cross product of the MAC domains,
        # with per-configuration scalars computed through the exact scalar
        # model methods (bit-identical by construction).
        mac_cardinalities = [len(domains[pos].values) for pos in mac_positions]
        mac_strides = _strides(mac_cardinalities)
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
        base_time_unit = xp.asarray(
            [mac_protocol.base_time_unit_s(c) for c in mac_configs], dtype=float
        )
        control_time = xp.asarray(
            [mac_protocol.control_time_per_second(c) for c in mac_configs],
            dtype=float,
        )
        max_assignable = xp.asarray(
            [mac_protocol.max_assignable_time_per_second(c) for c in mac_configs],
            dtype=float,
        )
        return cls(
            network=network,
            node_plans=node_plans,
            mac_positions=mac_positions,
            mac_strides=mac_strides,
            mac_configs=mac_configs,
            mac_config_objects=mac_config_objects,
            mac_columns=mac_columns,
            mac_table=mac_table,
            base_time_unit_s=base_time_unit,
            control_time_per_second=control_time,
            max_assignable_time_per_second=max_assignable,
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
        network = self._network
        batch = len(index_matrix)
        node_count = len(self._node_plans)
        mac_index = self._mac_flat_index(index_matrix, xp=xp)
        base_time_unit = self._base_time_unit_s[mac_index]
        control_time = self._control_time_per_second[mac_index]
        max_assignable = self._max_assignable_time_per_second[mac_index]
        mac_columns = self._mac_columns

        energy_columns: list[np.ndarray | None] = [None] * node_count
        quality_columns: list[np.ndarray | None] = [None] * node_count
        required_matrix = xp.empty((batch, node_count))
        violations = xp.zeros(batch, dtype=np.int64)
        for members in self._node_groups:
            plan = self._node_plans[members[0]]
            description = plan.description
            # One gathered (batch, group) matrix per knob: every elementwise
            # kernel below then serves the whole group in one pass.
            config_columns = {
                name: xp.stack(
                    [
                        table[index_matrix[:, position]]
                        for _, position, table in (
                            self._node_plans[m].columns[knob] for m in members
                        )
                    ],
                    axis=1,
                )
                for knob, (name, _, _) in enumerate(plan.columns)
            }
            app = plan.application.application_columns(
                description.input_stream_bytes_per_second, config_columns
            )
            mac_quantities = mac_columns.per_node_quantity_columns(
                app.output_stream_bytes_per_second,
                self._mac_table,
                mac_index[:, None],
                xp=xp,
            )
            energy = description.energy_model.evaluate_columns(
                sampling_rate_hz=description.sampling_rate_hz,
                microcontroller_frequency_hz=config_columns[plan.frequency_column],
                duty_cycle=app.duty_cycle,
                memory_accesses_per_second=app.memory_accesses_per_second,
                memory_bytes=app.memory_bytes,
                output_stream_bytes_per_second=app.output_stream_bytes_per_second,
                mac=mac_quantities,
                xp=xp,
            )
            energy_total = energy.total_w
            required = description.energy_model.radio.transmission_time_columns(
                app.output_stream_bytes_per_second
                + mac_quantities.data_overhead_bytes_per_second
            )
            for position, node in enumerate(members):
                energy_columns[node] = energy_total[:, position]
                quality_columns[node] = app.quality_loss[:, position]
                required_matrix[:, node] = required[:, position]
            schedulable = app.duty_cycle <= 1.0
            violations += xp.where(schedulable, 0, 1).sum(axis=1)
            fits_memory = xp.less_equal(
                app.memory_bytes, description.energy_model.ram_bytes
            )
            if np.ndim(fits_memory) == 0:
                # Constant footprint: one verdict for the whole group.
                violations += 0 if bool(fits_memory) else len(members)
            else:
                violations += xp.where(fits_memory, 0, 1).sum(axis=1)

        assignment = assign_transmission_interval_columns(
            required_matrix,
            base_time_unit,
            control_time,
            max_assignable,
            xp=xp,
        )
        violations += xp.where(assignment.feasible, 0, 1)
        delays = mac_columns.worst_case_delay_columns(
            assignment.slot_counts, self._mac_table, mac_index, xp=xp
        )

        components = {
            "energy": lambda: balanced_aggregate_columns(
                energy_columns, network.theta, xp=xp
            ),
            "quality": lambda: balanced_aggregate_columns(
                quality_columns, network.theta, xp=xp
            ),
            "delay": lambda: network_delay_metric_columns(
                [delays[:, i] for i in range(delays.shape[1])],
                network.delay_mode,
                xp=xp,
            ),
        }
        feasible = violations == 0
        objective_columns = [
            components[name]() for name in self.objective_components
        ]
        penalised = [
            xp.where(feasible, column, column + self.infeasibility_penalty)
            for column in objective_columns
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
            for (name, position, _), stride in zip(plan.columns, plan.strides):
                flat += index_matrix[:, position] * stride
            node_columns.append(plan.config_objects[flat])
        return node_columns, self._mac_config_objects[self._mac_flat_index(index_matrix)]

    # ------------------------------------------- shared-memory table hooks

    def shareable_tables(self) -> dict[str, np.ndarray]:
        """The kernel's numeric column tables, as one flat named mapping.

        These are every float table a batch evaluation gathers from: the
        per-node knob lookup tables, the per-MAC-configuration scalar tables
        and the compiled MAC table columns.  The sharded shared-memory
        backend (:class:`~repro.engine.sharded.ShardedVectorizedBackend`)
        packs them into one ``multiprocessing.shared_memory`` arena so every
        worker's gathers read a single shared copy; feed the attached views
        back through :meth:`adopt_shared_tables`.  Object tables (the
        phenotype lookup objects) are deliberately excluded — workers return
        raw columns and never materialise designs.
        """
        tables: dict[str, np.ndarray] = {
            "mac.base_time_unit_s": self._base_time_unit_s,
            "mac.control_time_per_second": self._control_time_per_second,
            "mac.max_assignable_time_per_second": (
                self._max_assignable_time_per_second
            ),
        }
        for node, plan in enumerate(self._node_plans):
            for knob, (_, _, table) in enumerate(plan.columns):
                tables[f"node{node}.knob{knob}"] = table
        if is_dataclass(self._mac_table):
            for field in fields(self._mac_table):
                value = getattr(self._mac_table, field.name)
                if isinstance(value, np.ndarray) and value.dtype != object:
                    tables[f"mac_table.{field.name}"] = value
        return tables

    def adopt_shared_tables(self, tables: Mapping[str, np.ndarray]) -> None:
        """Rebind the kernel's column tables to externally provided views.

        ``tables`` maps the slot names of :meth:`shareable_tables` to arrays
        holding the same values (typically zero-copy views into a shared
        memory segment attached by a worker process).  Unknown slots are
        ignored and missing slots keep their current arrays, so a partial
        mapping is safe.  Values must be identical to the compiled tables —
        the hook relocates storage, it never changes semantics.
        """
        self._base_time_unit_s = tables.get(
            "mac.base_time_unit_s", self._base_time_unit_s
        )
        self._control_time_per_second = tables.get(
            "mac.control_time_per_second", self._control_time_per_second
        )
        self._max_assignable_time_per_second = tables.get(
            "mac.max_assignable_time_per_second",
            self._max_assignable_time_per_second,
        )
        plans = []
        for node, plan in enumerate(self._node_plans):
            columns = tuple(
                (name, position, tables.get(f"node{node}.knob{knob}", table))
                for knob, (name, position, table) in enumerate(plan.columns)
            )
            plans.append(replace(plan, columns=columns))
        # The group structure is index-based and the replacement tables hold
        # identical values, so the compiled grouping stays valid as-is.
        self._node_plans = tuple(plans)
        if is_dataclass(self._mac_table):
            updates = {
                field.name: tables[f"mac_table.{field.name}"]
                for field in fields(self._mac_table)
                if f"mac_table.{field.name}" in tables
            }
            if updates:
                self._mac_table = replace(self._mac_table, **updates)

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


def _strides(cardinalities: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides flattening multi-domain gene indices."""
    strides = [1] * len(cardinalities)
    for position in range(len(cardinalities) - 2, -1, -1):
        strides[position] = strides[position + 1] * cardinalities[position + 1]
    return tuple(strides)

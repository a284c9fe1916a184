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
   the node energy model, the radio's transmission time and the per-node
   part of slot assignment (:func:`~repro.core.slot_assignment.slot_count_columns`)
   run **once** over every (knob combination × MAC configuration) pair of
   that node.  The results are kept as five node-major **stage tables**:
   total energy, quality loss, violation count, slot count ``k(n)`` and
   transmission interval ``k(n) * delta`` (the required transmission time
   is read only at compile time, to solve the slot count).  Size
   rule: per node, knob combinations × MAC configurations rows (4 × 32 =
   128 per node on the 131,072-design sweep space, 32 × 32 = 1,024 on the
   default space), concatenated over the nodes.  The slot cap
   ``min(1 - Delta_control, max_assignable)`` is compiled once per MAC
   configuration;
2. a batch of design ids becomes one ``(nodes, batch)`` matrix of
   stage-table rows straight from the mixed-radix digits of the ids
   (:func:`~repro.dse.space.split_digit`): a node whose knobs sit at
   consecutive genotype positions is one digit, its knob combination, and
   the MAC domains are one more, the MAC configuration; a node's row is its
   table offset plus its knob combination times the MAC configuration
   count plus the MAC configuration.  Gene-index rows are first packed
   into their ids (:func:`~repro.dse.space.pack_keys`).  Each quantity is then one gather from its table;
3. slot assignment is the left-to-right interval sum and the slack test
   against the gathered cap (:func:`~repro.core.slot_assignment.slot_budget_columns`);
   the equation-(8) aggregation runs on the gathered matrices, and the
   delay bound (9) on two integers per design, its slot total and its
   smallest slot count (under ``delay_mode="max"`` the MAC column
   protocol's contract makes the smallest count's delay the largest), or
   on the whole count matrix under ``"mean"``; per-MAC-configuration
   scalars are gathered through the same MAC index;
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

The engine hands ``evaluate_columns`` only its cache misses, as design ids,
so warm rows never reach a table gather and no gene row is built for a
miss.  ``shareable_tables`` names every numeric table a batch gathers
from, in one flat mapping.
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
from repro.core.metrics import balanced_aggregate_columns
from repro.core.slot_assignment import (
    slot_budget_columns,
    slot_cap_columns,
    slot_count_columns,
)

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
    "stage.violations",
    "stage.slot_counts",
    "stage.intervals_s",
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
        slot_cap: np.ndarray,
        cardinalities: Sequence[int],
        objective_components: tuple[str, ...],
        infeasibility_penalty: float,
        array_namespace: ModuleType | None = None,
    ) -> None:
        # The array-backend seam: resolved once (at compile time) and
        # threaded through every column kernel the batch evaluation drives.
        # Only the *name* is pickled (modules are not picklable); a copy
        # re-resolves the namespace on unpickle.
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
        self._slot_cap = slot_cap
        self._cardinalities = tuple(int(c) for c in cardinalities)
        self.objective_components = objective_components
        self.infeasibility_penalty = infeasibility_penalty
        # An id's digits, least significant first, as [radix, owner, scale]:
        # a digit adds scale x its value to its owner's index (node n's
        # table row, or for -1 the MAC configuration).  A gene joins the
        # digit below when it has the same owner and its scale is radix x
        # scale of that digit; unread genes are digits of owner None.
        n_mac = len(self._mac_configs)
        owners: dict[int, tuple[int, int]] = {}
        readers = [
            (node, plan.positions, [stride * n_mac for stride in plan.strides])
            for node, plan in enumerate(self._node_plans)
        ] + [(-1, self._mac_positions, self._mac_strides)]
        for owner, positions, scales in readers:
            for position, scale in zip(positions, scales):
                if position in owners:
                    raise VectorizedUnsupported(f"gene {position} is read twice")
                owners[position] = (owner, scale)
        self._digits: list[list] = []
        for position in range(len(self._cardinalities) - 1, -1, -1):
            owner, scale = owners.get(position, (None, 0))
            digit = self._digits[-1] if self._digits else None
            if digit and digit[1] == owner and digit[0] * digit[2] == scale:
                digit[0] *= self._cardinalities[position]
            else:
                self._digits.append([self._cardinalities[position], owner, scale])
        offsets = np.cumsum([0] + [len(p.config_objects) * n_mac for p in node_plans])
        self._node_offsets = self._xp.asarray(offsets[:-1, None])

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
        base_time_unit_s, control_time_per_second, max_assignable_time_per_second = (
            xp.asarray([getattr(mac_protocol, name)(c) for c in mac_configs], float)
            for name in (
                "base_time_unit_s",
                "control_time_per_second",
                "max_assignable_time_per_second",
            )
        )

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
                    base_time_unit_s,
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
            slot_cap=slot_cap_columns(
                control_time_per_second, max_assignable_time_per_second, xp=xp
            ),
            cardinalities=[len(domain.values) for domain in domains],
            objective_components=tuple(objective_components),
            infeasibility_penalty=float(infeasibility_penalty),
            array_namespace=xp,
        )

    # ----------------------------------------------------------------- API

    @property
    def n_objectives(self) -> int:
        """Number of objective components produced per candidate."""
        return len(self.objective_components)

    def evaluate_columns(self, batch: np.ndarray) -> WbsnBatchColumns:
        """Evaluate a batch into objective/feasibility columns.

        ``batch`` holds design ids — a 1-D ``int64`` array, or on a space
        beyond ``int64`` ids the exact Python ints of an object array — or
        a validated ``(batch, genes)`` gene-index matrix, whose rows are
        packed into their ids first.  Neither is checked here.  The engine
        hands the kernel its cache misses only, so cached rows never reach
        a column gather.  A zero-row batch short-circuits into empty
        columns without invoking any kernel stage — no zero-length gathers
        reach NumPy.
        """
        if len(batch) == 0:
            return WbsnBatchColumns.empty(self.n_objectives)
        xp = self._xp
        rows, mac_index = self._stage_rows(xp.asarray(batch))
        energy, quality, node_violations, slot_counts, intervals = (
            xp.take(self._stage_tables[name], rows) for name in _STAGE_TABLES
        )
        slots_fit = slot_budget_columns(
            intervals, xp.take(self._slot_cap, mac_index), xp=xp
        )
        violations = node_violations.sum(axis=0) + xp.where(slots_fit, 0, 1)
        theta = self._theta
        components = {
            "energy": lambda: balanced_aggregate_columns(energy, theta, xp=xp),
            "quality": lambda: balanced_aggregate_columns(quality, theta, xp=xp),
            "delay": lambda: self._delay_column(slot_counts, mac_index),
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
        rows, mac_index = self._stage_rows(np.asarray(index_matrix))
        knobs = (rows - self._node_offsets) // len(self._mac_configs)
        columns = [plan.config_objects[k] for plan, k in zip(self._node_plans, knobs)]
        return columns, self._mac_config_objects[mac_index]

    @property
    def stage_table_entries(self) -> int:
        """Entries per stage table: over all nodes, knob combinations × MAC
        configurations."""
        return len(self._stage_tables[_STAGE_TABLES[0]])

    # ------------------------------------------------------- table access

    def shareable_tables(self) -> dict[str, np.ndarray]:
        """The kernel's numeric column tables, as one flat named mapping.

        These are every table a batch evaluation gathers from: the five
        per-node stage tables, the per-MAC-configuration slot cap and the
        compiled MAC table columns.  Object tables (the phenotype lookup
        objects) are excluded: a batch evaluation returns raw columns and
        never reads them.
        """
        tables = {"mac.slot_cap": self._slot_cap, **self._stage_tables}
        if is_dataclass(self._mac_table):
            for field in fields(self._mac_table):
                value = getattr(self._mac_table, field.name)
                if isinstance(value, np.ndarray) and value.dtype != object:
                    tables[f"mac_table.{field.name}"] = value
        return tables

    # ------------------------------------------------------------ internals

    def _stage_rows(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(nodes, batch)`` stage-table rows and the MAC configuration
        index of a batch, from the digits of its design ids."""
        # Imported here: repro.dse imports this module.
        from repro.dse.space import pack_keys, split_digit

        xp = self._xp
        ids = pack_keys(batch, self._cardinalities) if batch.ndim == 2 else batch
        rows = xp.zeros((len(self._node_plans), len(ids)), dtype=np.int64)
        mac_index = xp.zeros(len(ids), dtype=np.int64)
        for radix, owner, scale in self._digits:
            ids, digit = split_digit(ids, radix)
            if owner is not None:
                digit = digit.astype(np.int64, copy=False)
                digit *= scale
                target = mac_index if owner < 0 else rows[owner]
                target += digit
        rows += self._node_offsets
        rows += mac_index
        return rows, mac_index

    def _delay_column(
        self, slot_counts: np.ndarray, mac_index: np.ndarray
    ) -> np.ndarray:
        """The network delay metric of a batch from its ``(nodes, batch)``
        slot counts.

        Under ``"max"`` the MAC delay runs once per design, at its smallest
        count: the column protocol's contract makes that node's delay the
        largest.  Under ``"mean"`` it runs on the whole matrix, averaged over
        the nodes left to right as
        :func:`~repro.core.metrics.network_delay_metric` does.
        """
        total = slot_counts.sum(axis=0)

        def delays(own_slots: np.ndarray) -> np.ndarray:
            return self._mac_columns.worst_case_delay_columns(
                own_slots, total, self._mac_table, mac_index, xp=self._xp
            )

        if self._delay_mode == "max":
            return delays(slot_counts.min(axis=0))
        if self._delay_mode == "mean":
            return balanced_aggregate_columns(delays(slot_counts), 0.0, xp=self._xp)
        raise ValueError("mode must be 'max' or 'mean'")

    def __getstate__(self) -> dict:
        # Modules are not picklable: ship the backend *name* and re-resolve
        # the namespace where the kernel lands (against that interpreter's
        # own registry, so one without the backend's library fails loudly
        # instead of silently falling back).
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
    base_time_unit_s: np.ndarray,
    *,
    xp: ModuleType,
) -> tuple[np.ndarray, ...]:
    """One node's stage columns over aligned knob and MAC-index columns.

    Returns, in :data:`_STAGE_TABLES` order, the node's total energy,
    quality loss, violated node constraints (schedulability, memory fit),
    slot count and transmission interval, each one entry per input row.
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
        xp.broadcast_to(violations, shape).astype(np.int64),
        *slot_count_columns(
            xp.broadcast_to(required, shape), base_time_unit_s[mac_index], xp=xp
        ),
    )


def _strides(cardinalities: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides flattening multi-domain gene indices."""
    strides = [1] * len(cardinalities)
    for position in range(len(cardinalities) - 2, -1, -1):
        strides[position] = strides[position + 1] * cardinalities[position + 1]
    return tuple(strides)

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
   that node: total energy, quality loss, violation count, slot count
   ``k(n)`` and transmission interval ``k(n) * delta`` (the required
   transmission time is read only here, to solve the slot count);
2. the design id's node digits, least significant first, form **node
   groups**: consecutive digits that hold whole nodes and whose knob
   combinations × MAC configurations fit one table of ``_TABLE_ROWS``
   (4,096) rows — two groups of three nodes on the 131,072-design sweep
   space (64 × 32 = 2,048 rows each), one node per group on the default
   space (32 × 32 = 1,024; two nodes would need 32,768).  A group row is
   its value (the members' knobs as one mixed-radix number) times the MAC
   configuration count plus the MAC configuration.  Per group the kernel
   keeps each member's float **stage tables** (energy, quality loss,
   transmission interval, and the slot count the ``"mean"`` delay reads)
   over the group's rows, concatenated over the nodes in node order, and
   three exact integer **group tables**: violated node constraints, slot
   total and smallest slot count.  The slot cap ``min(1 - Delta_control,
   max_assignable)`` is compiled once per MAC configuration.  The MAC's
   elementwise delay is tabulated once, over (own count, total count, MAC
   configuration) for every count and total the nodes can reach, when that
   grid fits the same budget: the **delay table**.  A grid past the budget
   keeps the MAC's per-design call;
3. a batch of design ids takes one split per group
   (:func:`~repro.dse.space.split_digit`: a floor division and a
   multiply-subtract), one per MAC digit, and none for the most
   significant digit; gene-index rows are first packed into their ids
   (:func:`~repro.dse.space.pack_keys`).  The group values give one
   ``(groups, batch)`` matrix of group-table rows and one ``(nodes,
   batch)`` matrix of stage-table rows; each quantity is then one gather;
4. slot assignment is the left-to-right interval sum and the slack test
   against the gathered cap (:func:`~repro.core.slot_assignment.slot_budget_columns`);
   the equation-(8) aggregation runs on the gathered float matrices, left to
   right over the nodes; the group totals add (violations, slot total) or
   take their minimum (smallest count) over the groups, and the delay bound
   (9) is the delay at the design's smallest count and slot total under
   ``delay_mode="max"`` (the MAC column protocol's contract makes it the
   largest), or at every node's count, averaged, under ``"mean"`` — a
   delay-table lookup, or the MAC's call where no table fits;
5. the caller materialises result objects only for the designs it keeps —
   this module returns plain column arrays, never per-design objects;
   phenotypes come from per-node object tables over the group values.

**Invariant:** every stage mirrors the scalar model operation for operation
(same order, same epsilons, multiplication instead of ``pow``), a stage or
delay table entry is the very float the per-row evaluation would compute (the
stages and the MAC delay are elementwise), and group totals are exact
integers, so the fast path is floating-point-identical to the
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

import math
from collections import Counter
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

#: The stage tables a batch gathers floats from, per node.
_FLOAT_STAGES = ("stage.energy_w", "stage.quality_loss", "stage.intervals_s")

#: The group tables: per node group, exact integer totals over its members.
_GROUP_TABLES = ("group.violations", "group.slot_total", "group.min_slots")

#: Row budget of one compiled table: a node group's values × MAC
#: configurations, and the delay table's (own count, total count, MAC
#: configuration) grid.
_TABLE_ROWS = 4096


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
    component supports the column protocols and precomputes the stage,
    group, delay and MAC tables.  The kernel is stateless after compilation
    and therefore safe to share (and to pickle alongside its problem).
    """

    def __init__(
        self,
        *,
        theta: float,
        delay_mode: str,
        node_plans: Sequence[_NodePlan],
        splits: Sequence[tuple[int, int | None, int]],
        node_groups: Sequence[tuple[int, ...]],
        phenotypes: Sequence[np.ndarray],
        tables: Mapping[str, np.ndarray],
        delay_grid: tuple[int, int] | None,
        mac_configs: Sequence[Any],
        mac_config_objects: np.ndarray,
        mac_columns: VectorizedMACModel,
        mac_table: Any,
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
        self._splits = tuple(splits)
        #: The node groups, each its member nodes in node order.
        self.node_groups = tuple(node_groups)
        self._phenotypes = tuple(phenotypes)
        self._tables = dict(tables)
        self._mac_configs = tuple(mac_configs)
        self._mac_config_objects = mac_config_objects
        self._mac_columns = mac_columns
        self._mac_table = mac_table
        self._cardinalities = tuple(int(c) for c in cardinalities)
        self.objective_components = objective_components
        self.infeasibility_penalty = infeasibility_penalty
        n_mac = len(self._mac_configs)
        self._n_mac = n_mac
        # The delay table's (own count, total count) extent; it is laid out
        # (own count, total count, MAC configuration), row-major.
        self._delay_grid = delay_grid
        # A node's stage-table section holds its group's rows; a group's
        # section of the group tables holds the same rows.
        group_of = {node: g for g, nodes in enumerate(node_groups) for node in nodes}
        self._node_group = self._xp.asarray([group_of[n] for n in sorted(group_of)])
        sizes = [len(table) * n_mac for table in self._phenotypes]
        node_offsets = np.cumsum([0] + sizes)[:-1]
        group_offsets = np.cumsum([0] + [sizes[nodes[0]] for nodes in node_groups])
        self._node_offsets = self._xp.asarray(node_offsets[:, None])
        self._group_offsets = self._xp.asarray(group_offsets[:-1, None])

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
                does not implement the column protocols, the objective
                components are unknown, or a node's knobs are split by a
                gene of another owner.
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
        stage_parts: list[dict[str, np.ndarray]] = []
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
            # The node's stage rows: every knob combination (row-major, like
            # the phenotype table) times every MAC configuration.
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

        cardinalities = [len(domain.values) for domain in domains]
        splits, groups = _node_groups(
            node_plans,
            mac_positions,
            _strides(mac_cardinalities),
            cardinalities,
            len(mac_configs),
        )
        tables = _group_tables(groups, stage_parts, len(mac_configs), xp=xp)
        tables["mac.slot_cap"] = slot_cap_columns(
            control_time_per_second, max_assignable_time_per_second, xp=xp
        )
        counts = [int(part["slot_counts"].max()) for part in stage_parts]
        delay_grid = (max(counts) + 1, sum(counts) + 1)
        if delay_grid[0] * delay_grid[1] * len(mac_configs) <= _TABLE_ROWS:
            tables["delay.table"] = _delay_table(
                mac_columns, mac_table, delay_grid, len(mac_configs), xp=xp
            )
        else:
            delay_grid = None
        phenotypes = [None] * len(node_plans)
        for nodes, knobs in groups:
            for node, column in zip(nodes, knobs):
                phenotypes[node] = node_plans[node].config_objects[column]
        return cls(
            theta=network.theta,
            delay_mode=network.delay_mode,
            node_plans=node_plans,
            splits=splits,
            node_groups=[nodes for nodes, _ in groups],
            phenotypes=phenotypes,
            tables=tables,
            delay_grid=delay_grid,
            mac_configs=mac_configs,
            mac_config_objects=mac_config_objects,
            mac_columns=mac_columns,
            mac_table=mac_table,
            cardinalities=cardinalities,
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
        group_rows, node_rows, mac_index = self._table_rows(
            *self._group_values(xp.asarray(batch))
        )
        energy, quality, intervals = (
            xp.take(self._tables[name], node_rows) for name in _FLOAT_STAGES
        )
        slots_fit = slot_budget_columns(
            intervals, xp.take(self._tables["mac.slot_cap"], mac_index), xp=xp
        )
        violations = xp.take(self._tables["group.violations"], group_rows).sum(axis=0)
        violations += ~slots_fit
        theta = self._theta
        components = {
            "energy": lambda: balanced_aggregate_columns(energy, theta, xp=xp),
            "quality": lambda: balanced_aggregate_columns(quality, theta, xp=xp),
            "delay": lambda: self._delay_column(group_rows, node_rows, mac_index),
        }
        feasible = violations == 0
        columns = [components[name]() for name in self.objective_components]
        if not feasible.all():
            penalty = self.infeasibility_penalty
            columns = [xp.where(feasible, c, c + penalty) for c in columns]
        return WbsnBatchColumns(
            objectives=xp.stack(columns, axis=1),
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
        values, mac_index = self._group_values(np.asarray(index_matrix))
        columns = [
            table[values[group]]
            for table, group in zip(self._phenotypes, self._node_group.tolist())
        ]
        return columns, self._mac_config_objects[mac_index]

    @property
    def stage_table_entries(self) -> int:
        """Stage rows compiled: over all nodes, knob combinations × MAC
        configurations (each per-node stage function runs once over a node's
        rows)."""
        return len(self._mac_configs) * sum(
            len(plan.config_objects) for plan in self._node_plans
        )

    # ------------------------------------------------------- table access

    def shareable_tables(self) -> dict[str, np.ndarray]:
        """The kernel's numeric column tables, as one flat named mapping.

        These are every table a batch evaluation gathers from: the four
        stage tables (per node, over its group's rows), the three group
        tables, the delay table where one was compiled, the
        per-MAC-configuration slot cap and the compiled MAC table columns
        (read by the MAC's delay call where no delay table fits).  Object
        tables (the phenotype lookup objects) are excluded: a batch
        evaluation returns raw columns and never reads them.
        """
        tables = dict(self._tables)
        if is_dataclass(self._mac_table):
            for field in fields(self._mac_table):
                value = getattr(self._mac_table, field.name)
                if isinstance(value, np.ndarray) and value.dtype != object:
                    tables[f"mac_table.{field.name}"] = value
        return tables

    # ------------------------------------------------------------ internals

    def _group_values(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(groups, batch)`` group values and the MAC configuration
        index of a batch: one split of its design ids per group."""
        # Imported here: repro.dse imports this module.
        from repro.dse.space import pack_keys, split_digit

        xp = self._xp
        ids = pack_keys(batch, self._cardinalities) if batch.ndim == 2 else batch
        values = xp.empty((len(self.node_groups), len(ids)), dtype=np.int64)
        mac_index = xp.zeros(len(ids), dtype=np.int64)
        for radix, target, scale in self._splits:
            # The most significant split (radix 0) is the rest of the id.
            ids, digit = split_digit(ids, radix) if radix else (None, ids)
            if target is None:
                continue
            if target >= 0:
                values[target] = digit
            else:
                digit = digit.astype(np.int64, copy=False)
                mac_index += digit if scale == 1 else digit * scale
        return values, mac_index

    def _table_rows(
        self, values: np.ndarray, mac_index: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group-table rows ``(groups, batch)``, stage-table rows ``(nodes,
        batch)`` and the MAC index, from group values (overwritten)."""
        values *= self._n_mac
        values += mac_index
        node_rows = values[self._node_group]
        node_rows += self._node_offsets
        values += self._group_offsets
        return values, node_rows, mac_index

    def _delay_column(
        self, group_rows: np.ndarray, node_rows: np.ndarray, mac_index: np.ndarray
    ) -> np.ndarray:
        """The network delay metric of a batch.

        Under ``"max"`` one delay per design, at its smallest count: the
        column protocol's contract makes that node's delay the largest.
        Under ``"mean"`` one per node, averaged left to right as
        :func:`~repro.core.metrics.network_delay_metric` does.
        """
        xp = self._xp
        total = xp.take(self._tables["group.slot_total"], group_rows).sum(axis=0)
        if self._delay_mode == "max":
            own = xp.take(self._tables["group.min_slots"], group_rows).min(axis=0)
            return self._delays(own, total, mac_index)
        if self._delay_mode == "mean":
            own = xp.take(self._tables["stage.slot_counts"], node_rows)
            delays = self._delays(own, total, mac_index)
            return balanced_aggregate_columns(delays, 0.0, xp=xp)
        raise ValueError("mode must be 'max' or 'mean'")

    def _delays(
        self, own: np.ndarray, total: np.ndarray, mac_index: np.ndarray
    ) -> np.ndarray:
        """Elementwise delay of a node holding ``own`` of ``total`` slots: a
        delay-table lookup, or where no table fits, the MAC's own call."""
        if self._delay_grid is None:
            return self._mac_columns.worst_case_delay_columns(
                own, total, self._mac_table, mac_index, xp=self._xp
            )
        index = own * (self._delay_grid[1] * self._n_mac)
        index += total * self._n_mac + mac_index
        return self._xp.take(self._tables["delay.table"], index)

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


def _node_groups(
    node_plans: Sequence[_NodePlan],
    mac_positions: Sequence[int],
    mac_strides: Sequence[int],
    cardinalities: Sequence[int],
    n_mac: int,
) -> tuple[list[tuple[int, int | None, int]], list[tuple[tuple[int, ...], np.ndarray]]]:
    """An id's splits, least significant first, and its node groups.

    A split is ``(radix, target, scale)``: ``target`` is a group index, -1
    for a MAC digit (adding ``scale`` × its value to the MAC configuration
    index) or ``None`` for unread genes; the most significant split has
    radix 0, the rest of the id.  Consecutive node digits join one group
    while it holds whole nodes and its values × MAC configurations fit
    :data:`_TABLE_ROWS` (a node too large for the budget is a group alone).
    A group is its member nodes, in node order, and their knob combination
    at each group value, ``(members, values)``.
    """
    owners: dict[int, tuple[int, int]] = {}
    readers = [
        (node, plan.positions, plan.strides) for node, plan in enumerate(node_plans)
    ] + [(-1, mac_positions, mac_strides)]
    for owner, positions, scales in readers:
        for position, scale in zip(positions, scales):
            if position in owners:
                raise VectorizedUnsupported(f"gene {position} is read twice")
            owners[position] = (owner, scale)
    # The id's digits as [radix, owner, scale]: a digit adds scale × its
    # value to its owner's index (node n's knob combination, or for -1 the
    # MAC configuration).  A gene joins the digit below when it has the
    # same owner and its scale is radix × scale of that digit.
    digits: list[list] = []
    for position in range(len(cardinalities) - 1, -1, -1):
        owner, scale = owners.get(position, (None, 0))
        digit = digits[-1] if digits else None
        if digit and digit[1] == owner and digit[0] * digit[2] == scale:
            digit[0] *= cardinalities[position]
        else:
            digits.append([cardinalities[position], owner, scale])

    pending = Counter(owner for _, owner, _ in digits)
    splits: list[list] = []
    groups: list[list] = []  # per group, its digits
    unfinished: set[int] = set()  # nodes of the last group with digits to come
    for radix, owner, scale in digits:
        pending[owner] -= 1
        if owner is None or owner < 0:
            if unfinished:
                raise VectorizedUnsupported(
                    f"the knobs of node {min(unfinished)} are split by another gene"
                )
            splits.append([radix, owner, scale])
            continue
        split = splits[-1] if splits else None
        if (
            split is None
            or split[1] is None
            or split[1] < 0
            or not unfinished
            and split[0] * len(node_plans[owner].config_objects) * n_mac > _TABLE_ROWS
        ):
            groups.append([])
            split = [1, len(groups) - 1, 0]
            splits.append(split)
        groups[split[1]].append((radix, owner, scale))
        split[0] *= radix
        if pending[owner]:
            unfinished.add(owner)
        else:
            unfinished.discard(owner)
    splits[-1][0] = 0

    node_groups = []
    for group in groups:
        nodes = sorted({node for _, node, _ in group})
        values = np.arange(math.prod(radix for radix, _, _ in group))
        knobs = np.zeros((len(nodes), len(values)), dtype=np.int64)
        for radix, node, scale in group:
            values, digit = np.divmod(values, radix)
            knobs[nodes.index(node)] += digit * scale
        node_groups.append((tuple(nodes), knobs))
    return [tuple(split) for split in splits], node_groups


def _group_tables(
    groups: Sequence[tuple[tuple[int, ...], np.ndarray]],
    stage_parts: Sequence[Mapping[str, np.ndarray]],
    n_mac: int,
    *,
    xp: ModuleType,
) -> dict[str, np.ndarray]:
    """The stage and group tables, over the groups' rows.

    A group row is a group value times the MAC configuration count plus
    the MAC configuration.  Each node's stage rows are gathered onto its
    group's rows (its knob combination at each group value) and
    concatenated over the nodes in node order; each group's exact integer
    totals over its members (violated node constraints, slot total,
    smallest slot count) are concatenated over the groups.
    """
    stage: dict[int, dict[str, np.ndarray]] = {}
    totals: list[tuple[np.ndarray, ...]] = []
    for nodes, knobs in groups:
        rows = (knobs[:, :, None] * n_mac + np.arange(n_mac)).reshape(len(nodes), -1)
        for node, node_rows in zip(nodes, rows):
            stage[node] = {
                name: xp.take(column, xp.asarray(node_rows))
                for name, column in stage_parts[node].items()
            }
        violations, counts = (
            xp.stack([stage[node][name] for node in nodes])
            for name in ("violations", "slot_counts")
        )
        totals.append(
            (violations.sum(axis=0), counts.sum(axis=0), counts.min(axis=0))
        )
    tables = {
        f"stage.{name}": xp.concatenate([stage[node][name] for node in sorted(stage)])
        for name in ("energy_w", "quality_loss", "slot_counts", "intervals_s")
    }
    for name, parts in zip(_GROUP_TABLES, zip(*totals)):
        tables[name] = xp.concatenate(parts)
    return tables


def _delay_table(
    mac_columns: VectorizedMACModel,
    mac_table: Any,
    grid: tuple[int, int],
    n_mac: int,
    *,
    xp: ModuleType,
) -> np.ndarray:
    """The MAC's elementwise delay at every (own count, total count, MAC
    configuration) of the grid, flattened row-major: one call."""
    own, total = (xp.arange(size, dtype=np.int64) for size in grid)
    delays = mac_columns.worst_case_delay_columns(
        own[:, None, None],
        total[None, :, None],
        mac_table,
        xp.arange(n_mac, dtype=np.int64)[None, None, :],
        xp=xp,
    )
    return xp.ascontiguousarray(xp.broadcast_to(delays, (*grid, n_mac))).reshape(-1)


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
) -> dict[str, np.ndarray]:
    """One node's stage columns over aligned knob and MAC-index columns.

    Returns the node's total energy, quality loss, violated node
    constraints (schedulability, memory fit), slot count and transmission
    interval, by name, each one entry per input row.
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
    slot_counts, intervals = slot_count_columns(
        xp.broadcast_to(required, shape), base_time_unit_s[mac_index], xp=xp
    )
    return {
        "energy_w": xp.broadcast_to(energy.total_w, shape),
        "quality_loss": xp.broadcast_to(app.quality_loss, shape),
        "violations": xp.broadcast_to(violations, shape).astype(np.int64),
        "slot_counts": slot_counts,
        "intervals_s": intervals,
    }


def _strides(cardinalities: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides flattening multi-domain gene indices."""
    strides = [1] * len(cardinalities)
    for position in range(len(cardinalities) - 2, -1, -1):
        strides[position] = strides[position + 1] * cardinalities[position + 1]
    return tuple(strides)

"""MAC-layer abstraction of the network model (Section 3.2).

The paper abstracts any (TDMA-like) MAC protocol by four quantities, all
functions of the node output stream ``phi_out`` and of the protocol
configuration ``chi_mac``:

* the data overhead ``Omega(phi_out, chi_mac)`` — packet headers and framing,
* the control overheads ``Psi_c->n`` and ``Psi_n->c`` — control traffic
  received from / sent to the coordinator,
* the timing overhead ``Delta_control(chi_mac)`` — the fraction of each second
  during which the channel is unavailable for data,
* the base time unit ``delta`` — the granularity at which transmission
  intervals can be assigned.

Concrete protocols (IEEE 802.15.4 beacon-enabled mode, the unslotted CSMA/CA
adaptation) implement :class:`MACProtocolModel`.

Vectorized column support is *pluggable* and discovered through the protocol,
never hard-coded to a concrete model: a MAC model advertises its column
kernels via :meth:`MACProtocolModel.column_kernels` (by default the model
itself, when it satisfies :class:`VectorizedMACModel`), and the columnar fast
path resolves them with :func:`resolve_mac_column_kernels`.  A model may also
delegate to a separate compiled-kernel object — the evaluator only ever talks
to the returned :class:`VectorizedMACModel`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Protocol, Sequence, runtime_checkable

from repro.core.array_backend import xp as np

__all__ = [
    "MACQuantities",
    "MACProtocolModel",
    "MACQuantityColumns",
    "VectorizedMACModel",
    "resolve_mac_column_kernels",
]


@dataclass(frozen=True)
class MACQuantities:
    """The per-node MAC abstraction evaluated for a concrete configuration.

    Attributes:
        data_overhead_bytes_per_second: ``Omega(phi_out, chi_mac)``.
        control_coordinator_to_node_bytes_per_second: ``Psi_c->n(chi_mac)``.
        control_node_to_coordinator_bytes_per_second: ``Psi_n->c(chi_mac)``.
    """

    data_overhead_bytes_per_second: float
    control_coordinator_to_node_bytes_per_second: float
    control_node_to_coordinator_bytes_per_second: float

    def __post_init__(self) -> None:
        if (
            min(
                self.data_overhead_bytes_per_second,
                self.control_coordinator_to_node_bytes_per_second,
                self.control_node_to_coordinator_bytes_per_second,
            )
            < 0
        ):
            raise ValueError("MAC overheads cannot be negative")


class MACProtocolModel(abc.ABC):
    """Abstract analytical model of a MAC protocol."""

    #: human-readable protocol name
    name: str = "abstract-mac"

    @abc.abstractmethod
    def per_node_quantities(
        self, output_stream_bytes_per_second: float, mac_config: Any
    ) -> MACQuantities:
        """Evaluate ``Omega`` and ``Psi`` for one node."""

    @abc.abstractmethod
    def base_time_unit_s(self, mac_config: Any) -> float:
        """``delta``: the granularity of transmission-interval assignment."""

    @abc.abstractmethod
    def control_time_per_second(self, mac_config: Any) -> float:
        """``Delta_control``: channel time unavailable for data, per second."""

    @abc.abstractmethod
    def max_assignable_time_per_second(self, mac_config: Any) -> float:
        """Protocol cap on the total assignable transmission time per second.

        For beacon-enabled IEEE 802.15.4 this is ``7/16 * SD / BI`` (at most
        seven guaranteed time slots per superframe).
        """

    @abc.abstractmethod
    def worst_case_delays(
        self,
        slot_counts: Sequence[int],
        mac_config: Any,
    ) -> list[float]:
        """Per-node worst-case data delay for a given slot assignment.

        The default network model cannot define the delay function in general
        (it depends on the traffic pattern); concrete protocols implement the
        appropriate bound — equation (9) for the 802.15.4 case study.
        """

    def validate_config(self, mac_config: Any) -> None:
        """Optional hook to reject malformed MAC configurations early."""

    def column_kernels(self) -> "VectorizedMACModel | None":
        """The compiled-kernel object serving this model's column protocols.

        The default returns the model itself when it implements
        :class:`VectorizedMACModel`, and ``None`` otherwise (scalar-only
        models).  Override to delegate the column kernels to a separate
        object; the vectorized fast path discovers support exclusively
        through this hook (via :func:`resolve_mac_column_kernels`), so new
        protocols plug in without touching the evaluator.
        """
        return self if isinstance(self, VectorizedMACModel) else None


@dataclass(frozen=True)
class MACQuantityColumns:
    """``Omega`` and ``Psi`` evaluated column-wise for a batch of candidates.

    The fields mirror :class:`MACQuantities`; every field is one value column
    with one entry per candidate of the batch.
    """

    data_overhead_bytes_per_second: np.ndarray
    control_coordinator_to_node_bytes_per_second: np.ndarray
    control_node_to_coordinator_bytes_per_second: np.ndarray


@runtime_checkable
class VectorizedMACModel(Protocol):
    """MAC models that can evaluate their abstraction column-wise.

    A protocol first compiles the distinct MAC configurations of a design
    space into an opaque table of per-configuration columns
    (:meth:`compile_mac_table`); the column kernels then gather from that
    table through a ``mac_index`` column (one table row index per candidate).
    Implementations must mirror the scalar methods operation for operation so
    the vectorized fast path stays floating-point-identical.

    The delay kernel is elementwise, and every implementation keeps one
    contract: for a fixed slot total and MAC configuration, a node's delay
    never rises with its own slot count.  The compiled kernel relies on it
    to evaluate ``delay_mode="max"`` once per design, at the design's
    smallest count, and that value is the scalar maximum over the nodes bit
    for bit as long as every float step on the way is monotone under
    round-to-nearest (int to float, multiplication by a non-negative table
    value, ``ceil``, ``maximum``, addition, division of a positive value).
    The compiled kernel also tabulates the delay method once, at compile
    time, on the broadcast grid of every (own count, total count, MAC
    index) its space reaches, and a batch looks the delay up instead of
    calling it, so the method must stay a pure elementwise function of those
    three arguments (and the compiled MAC table): no state, no dependence
    on the batch's shape or on other elements.

    Every kernel accepts the ``xp`` array namespace resolved through the
    backend seam (:mod:`repro.core.array_backend`) as a keyword argument —
    the compiled design-space kernel threads the namespace it was compiled
    for, so MAC kernels run on the same backend as the rest of the column
    pipeline.
    """

    def compile_mac_table(self, mac_configs: Sequence[Any], **kwargs: Any) -> Any:
        """Precompute per-configuration columns for the distinct configs."""
        ...  # pragma: no cover - protocol

    def per_node_quantity_columns(
        self,
        output_stream_bytes_per_second: np.ndarray,
        mac_table: Any,
        mac_index: np.ndarray,
        **kwargs: Any,
    ) -> MACQuantityColumns:
        """Evaluate ``Omega`` and ``Psi`` for one node over a batch."""
        ...  # pragma: no cover - protocol

    def worst_case_delay_columns(
        self,
        own_slots: np.ndarray,
        total_slots: np.ndarray,
        mac_table: Any,
        mac_index: np.ndarray,
        **kwargs: Any,
    ) -> np.ndarray:
        """Worst-case delay of a node holding ``own_slots`` of its design's
        ``total_slots``, elementwise, ``inf`` where ``own_slots`` is 0.

        The three arrays broadcast against each other: one entry per
        design, a node-major ``(nodes, batch)`` count matrix against
        per-design totals and indices, or the compile-time grid of
        ``(own, 1, 1)`` counts, ``(1, total, 1)`` totals and ``(1, 1,
        configurations)`` indices.  The result may keep a broadcast shape
        (the caller broadcasts it); it is only ever read elementwise.
        """
        ...  # pragma: no cover - protocol


def resolve_mac_column_kernels(mac_protocol: Any) -> "VectorizedMACModel | None":
    """Discover the column kernels of a MAC protocol, if it has any.

    Resolution is protocol-based: the :meth:`MACProtocolModel.column_kernels`
    hook is consulted first (letting models delegate to a separate compiled
    object), and duck-typed protocols without the hook are accepted when they
    satisfy :class:`VectorizedMACModel` directly.  Returns ``None`` for
    scalar-only models, in which case callers fall back to the scalar path.
    """
    hook = getattr(mac_protocol, "column_kernels", None)
    if callable(hook):
        kernels = hook()
        return kernels if isinstance(kernels, VectorizedMACModel) else None
    if isinstance(mac_protocol, VectorizedMACModel):
        return mac_protocol
    return None

"""Analytical model of the beacon-enabled IEEE 802.15.4 MAC (Section 4.2).

The class maps the protocol onto the abstract MAC quantities of the network
model:

* data overhead: 13 bytes (11-byte header + 2-byte checksum) per data frame,
  hence ``Omega = 13 * phi_out / L_payload``;
* control overhead: no node-to-coordinator control traffic; the coordinator
  sends one acknowledgement (4 bytes) per data frame and ``1 / BI`` beacons
  per second, hence ``Psi_c->n = 4 * phi_out / L_payload + L_beacon / BI``;
* time discretisation: the base unit ``delta`` is one superframe slot
  (``SD / 16``), granted once per beacon interval;
* timing overhead: everything that is not an allocatable GTS slot — beacons,
  the contention access period (at least nine slots) and the inactive period;
* global cap: at most seven GTS slots per superframe, i.e.
  ``sum_n Delta_tx(n) <= 7/16 * SD / BI``;
* delay: the worst-case bound of equation (9).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Any, Sequence

from repro.core.array_backend import xp as np

from repro.core.delay import worst_case_tdma_delay
from repro.core.mac_abstraction import (
    MACProtocolModel,
    MACQuantities,
    MACQuantityColumns,
)
from repro.mac802154.config import Ieee802154MacConfig
from repro.mac802154.constants import ACK_BYTES, MAC_OVERHEAD_BYTES, MAX_GTS_SLOTS

__all__ = ["BeaconEnabledMacModel", "BeaconMacTable"]


@dataclass(frozen=True)
class BeaconMacTable:
    """Per-configuration columns compiled from distinct MAC configurations.

    One row per distinct ``chi_mac``; the column kernels gather rows through
    a per-candidate index column.
    """

    payload_bytes: np.ndarray
    beacon_bytes_per_second: np.ndarray
    slot_duration_s: np.ndarray
    beacon_interval_s: np.ndarray


class BeaconEnabledMacModel(MACProtocolModel):
    """IEEE 802.15.4 beacon-enabled (GTS) instantiation of the MAC model."""

    name = "ieee802154-beacon-enabled"

    def validate_config(self, mac_config: Any) -> None:
        if not isinstance(mac_config, Ieee802154MacConfig):
            raise TypeError(
                "mac_config must be an Ieee802154MacConfig, got "
                f"{type(mac_config).__name__}"
            )

    # -------------------------------------------------------- MAC quantities

    def per_node_quantities(
        self, output_stream_bytes_per_second: float, mac_config: Ieee802154MacConfig
    ) -> MACQuantities:
        """Evaluate ``Omega`` and ``Psi`` for one node (Section 4.2)."""
        self.validate_config(mac_config)
        if output_stream_bytes_per_second < 0:
            raise ValueError("output stream cannot be negative")
        frames_per_second = output_stream_bytes_per_second / mac_config.payload_bytes
        data_overhead = MAC_OVERHEAD_BYTES * frames_per_second
        acknowledgements = ACK_BYTES * frames_per_second
        beacons = mac_config.beacon_bytes * mac_config.superframes_per_second
        return MACQuantities(
            data_overhead_bytes_per_second=data_overhead,
            control_coordinator_to_node_bytes_per_second=acknowledgements + beacons,
            control_node_to_coordinator_bytes_per_second=0.0,
        )

    # ------------------------------------------------------- column kernels

    def compile_mac_table(
        self,
        mac_configs: Sequence[Ieee802154MacConfig],
        *,
        xp: ModuleType = np,
    ) -> BeaconMacTable:
        """Precompute the per-configuration columns of the vectorized path.

        Every entry is produced by the exact scalar expressions of the
        per-candidate methods, so gathering from the table is bit-identical
        to evaluating the configuration scalar-wise.  The table's columns
        live on the ``xp`` backend the kernel was compiled for.
        """
        for config in mac_configs:
            self.validate_config(config)
        return BeaconMacTable(
            payload_bytes=xp.asarray(
                [float(config.payload_bytes) for config in mac_configs], dtype=float
            ),
            beacon_bytes_per_second=xp.asarray(
                [
                    config.beacon_bytes * config.superframes_per_second
                    for config in mac_configs
                ],
                dtype=float,
            ),
            slot_duration_s=xp.asarray(
                [config.slot_duration_s for config in mac_configs], dtype=float
            ),
            beacon_interval_s=xp.asarray(
                [config.beacon_interval_s for config in mac_configs], dtype=float
            ),
        )

    def per_node_quantity_columns(
        self,
        output_stream_bytes_per_second: np.ndarray,
        mac_table: BeaconMacTable,
        mac_index: np.ndarray,
        *,
        xp: ModuleType = np,
    ) -> MACQuantityColumns:
        """Column-wise :meth:`per_node_quantities` (same operation order)."""
        phi_out = xp.asarray(output_stream_bytes_per_second, dtype=float)
        frames_per_second = phi_out / mac_table.payload_bytes[mac_index]
        data_overhead = MAC_OVERHEAD_BYTES * frames_per_second
        acknowledgements = ACK_BYTES * frames_per_second
        beacons = mac_table.beacon_bytes_per_second[mac_index]
        return MACQuantityColumns(
            data_overhead_bytes_per_second=data_overhead,
            control_coordinator_to_node_bytes_per_second=acknowledgements + beacons,
            control_node_to_coordinator_bytes_per_second=xp.zeros_like(phi_out),
        )

    def worst_case_delay_columns(
        self,
        own_slots: np.ndarray,
        total_slots: np.ndarray,
        mac_table: BeaconMacTable,
        mac_index: np.ndarray,
        *,
        xp: ModuleType = np,
    ) -> np.ndarray:
        """Elementwise equation (9): the other nodes hold ``total - own``
        slots, and the control time is what ``total`` slots leave of the
        beacon interval."""
        slot_duration = xp.take(mac_table.slot_duration_s, mac_index)
        beacon_interval = xp.take(mac_table.beacon_interval_s, mac_index)
        used = total_slots * slot_duration
        control_per_superframe = xp.maximum(0.0, beacon_interval - used)
        other_slots = total_slots - own_slots
        waiting_for_others = other_slots * slot_duration
        recurrences_spanned = xp.maximum(1.0, xp.ceil(other_slots / MAX_GTS_SLOTS))
        delays = waiting_for_others + recurrences_spanned * control_per_superframe
        return xp.where(own_slots == 0, np.inf, delays)

    # ------------------------------------------------------ time structure

    def base_time_unit_s(self, mac_config: Ieee802154MacConfig) -> float:
        """Channel seconds per second granted by one GTS slot per superframe."""
        self.validate_config(mac_config)
        return mac_config.slot_duration_s / mac_config.beacon_interval_s

    def max_assignable_time_per_second(
        self, mac_config: Ieee802154MacConfig
    ) -> float:
        """``7/16 * SD / BI``: the GTS capacity of the superframe."""
        self.validate_config(mac_config)
        return (
            MAX_GTS_SLOTS
            * mac_config.slot_duration_s
            / mac_config.beacon_interval_s
        )

    def control_time_per_second(self, mac_config: Ieee802154MacConfig) -> float:
        """``Delta_control``: beacon, CAP and inactive time per second."""
        self.validate_config(mac_config)
        return 1.0 - self.max_assignable_time_per_second(mac_config)

    # ---------------------------------------------------------------- delay

    def control_time_per_superframe_s(
        self, slot_counts: Sequence[int], mac_config: Ieee802154MacConfig
    ) -> float:
        """Channel time per beacon interval not used by the allocated GTSs."""
        self.validate_config(mac_config)
        used = sum(slot_counts) * mac_config.slot_duration_s
        return max(0.0, mac_config.beacon_interval_s - used)

    def worst_case_delays(
        self, slot_counts: Sequence[int], mac_config: Ieee802154MacConfig
    ) -> list[float]:
        """Equation (9): worst-case data delay per node."""
        self.validate_config(mac_config)
        control_per_superframe = self.control_time_per_superframe_s(
            slot_counts, mac_config
        )
        total_slots = sum(slot_counts)
        delays: list[float] = []
        for own in slot_counts:
            delays.append(
                worst_case_tdma_delay(
                    own_slots=own,
                    other_slots_total=total_slots - own,
                    slot_duration_s=mac_config.slot_duration_s,
                    slots_per_recurrence=MAX_GTS_SLOTS,
                    control_time_per_recurrence_s=control_per_superframe,
                )
            )
        return delays

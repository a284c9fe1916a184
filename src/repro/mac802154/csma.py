"""Statistical model of slotted CSMA/CA contention access.

Section 3.2 remarks that the assignment-based network model also covers
contention access protocols: the transmission intervals ``Delta_tx`` can be
determined statistically as the average channel time a node successfully
grabs per second, as analysed by Buratti [19] for the beacon-enabled
CSMA/CA mode.  This module provides such a statistical characterisation so
that the same evaluator can explore CAP-based configurations; it is an
extension of the paper's case study (which uses GTSs only) and is exercised by
the ablation benchmarks.

The model is a fixed-point approximation in the spirit of Bianchi-style
analyses: each of the ``N`` contending nodes attempts a transmission in a
backoff slot with probability ``tau``; an attempt succeeds when no other node
attempts in the same slot and the channel is found idle.

Two abstractions live here:

* :class:`SlottedCsmaModel` — the standalone average-throughput estimate of
  the contention access period inside a beacon-enabled superframe;
* :class:`UnslottedCsmaMacModel` — a full :class:`~repro.core.mac_abstraction.
  MACProtocolModel` of the *unslotted* (non-beacon) CSMA/CA mode, so the same
  evaluator and design-space exploration that drive the GTS case study can
  explore contention-based WBSN configurations.  Its ``chi_mac`` is
  :class:`CsmaMacConfig` (payload size plus the backoff-exponent window); the
  analytical quantities are the backoff expectation, the CCA busy/failure
  probabilities and the retry/collision overheads, all mapped onto the
  abstract ``Omega`` / ``Psi`` / ``Delta`` quantities of the network model.

The unslotted model also implements the vectorized column protocols
(:class:`~repro.core.mac_abstraction.VectorizedMACModel`): the distinct MAC
configurations of a design space are compiled once into a
:class:`CsmaMacTable` through the exact scalar per-configuration methods, and
the per-candidate kernels mirror the scalar math operation for operation, so
the columnar fast path stays floating-point-identical to the scalar path
(``tests/test_vectorized_csma.py`` and ``tests/test_parity_fuzz.py`` enforce
this bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Any, Sequence

from repro.core.array_backend import xp as np

from repro.core.mac_abstraction import (
    MACProtocolModel,
    MACQuantities,
    MACQuantityColumns,
)
from repro.mac802154.config import Ieee802154MacConfig
from repro.mac802154.constants import (
    ACK_BYTES,
    CCA_TIME_S,
    MAC_OVERHEAD_BYTES,
    MAX_BACKOFF_EXPONENT,
    MAX_MAC_PAYLOAD_BYTES,
    MIN_CAP_SLOTS,
    PHY_BIT_RATE_BPS,
    SLOTS_PER_SUPERFRAME,
    TURNAROUND_TIME_S,
    UNIT_BACKOFF_PERIOD_S,
)

__all__ = [
    "CsmaEstimate",
    "SlottedCsmaModel",
    "CsmaMacConfig",
    "CsmaMacTable",
    "UnslottedCsmaMacModel",
]

#: Duration of one CSMA/CA backoff period (20 symbols of 16 us).
BACKOFF_PERIOD_S = UNIT_BACKOFF_PERIOD_S

#: Probability cap keeping the fixed-point expressions away from division by
#: zero when the contention estimate saturates.
_MAX_PROBABILITY = 1.0 - 1e-9


@dataclass(frozen=True)
class CsmaEstimate:
    """Average-behaviour estimate of the contention access period.

    Attributes:
        attempt_probability: per-backoff-slot transmission probability
            ``tau`` of each node.
        success_probability: probability that an attempt succeeds (no
            collision).
        successful_time_per_second_s: average channel time per second that a
            single node successfully uses for its own frames — the statistical
            ``Delta_tx`` of the network model.
        expected_retransmissions: average number of extra transmissions per
            delivered frame caused by collisions.
    """

    attempt_probability: float
    success_probability: float
    successful_time_per_second_s: float
    expected_retransmissions: float


class SlottedCsmaModel:
    """Average-throughput model of the slotted CSMA/CA contention period."""

    def __init__(
        self,
        macMinBE: int = 3,
        macMaxBE: int = 5,
        max_backoffs: int = 4,
    ) -> None:
        if not 0 <= macMinBE <= macMaxBE:
            raise ValueError("backoff exponents must satisfy 0 <= minBE <= maxBE")
        if max_backoffs < 0:
            raise ValueError("max_backoffs cannot be negative")
        self.macMinBE = macMinBE
        self.macMaxBE = macMaxBE
        self.max_backoffs = max_backoffs

    def cap_time_per_second(self, mac_config: Ieee802154MacConfig) -> float:
        """Channel seconds per second available to the contention period."""
        cap_slots = SLOTS_PER_SUPERFRAME - 0  # full active period minus CFP
        # The case-study CFP is handled separately; here we conservatively use
        # the minimum CAP mandated by the standard.
        cap_slots = max(MIN_CAP_SLOTS, cap_slots - 7)
        return (
            cap_slots
            * mac_config.slot_duration_s
            / mac_config.beacon_interval_s
        )

    def frame_time_s(self, mac_config: Ieee802154MacConfig) -> float:
        """On-air time of one data frame plus its acknowledgement."""
        frame_bytes = mac_config.payload_bytes + MAC_OVERHEAD_BYTES + ACK_BYTES
        return 8.0 * frame_bytes / PHY_BIT_RATE_BPS

    def estimate(
        self,
        n_nodes: int,
        offered_load_bytes_per_second: float,
        mac_config: Ieee802154MacConfig,
    ) -> CsmaEstimate:
        """Estimate the statistical ``Delta_tx`` of each contending node.

        Args:
            n_nodes: number of nodes contending in the CAP.
            offered_load_bytes_per_second: per-node application output stream.
            mac_config: the MAC configuration (payload size and orders).
        """
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if offered_load_bytes_per_second < 0:
            raise ValueError("offered load cannot be negative")

        frame_time = self.frame_time_s(mac_config)
        frames_per_second = offered_load_bytes_per_second / mac_config.payload_bytes
        cap_share = self.cap_time_per_second(mac_config)
        if cap_share <= 0.0:
            return CsmaEstimate(0.0, 0.0, 0.0, 0.0)

        # Average backoff window over the allowed backoff stages.
        mean_window = sum(
            (2 ** min(self.macMinBE + stage, self.macMaxBE)) / 2.0
            for stage in range(self.max_backoffs + 1)
        ) / (self.max_backoffs + 1)

        # Demand-limited attempt probability: a node only attempts when it has
        # a frame queued, which happens `frames_per_second * cycle` times per
        # CAP second; saturation caps the probability via the backoff window.
        saturation_tau = 1.0 / (mean_window + 1.0)
        demand_tau = min(
            saturation_tau, frames_per_second * frame_time / max(cap_share, 1e-9)
        )
        tau = max(1e-9, min(saturation_tau, demand_tau))

        success = (1.0 - tau) ** (n_nodes - 1)
        effective_throughput_share = tau * success
        successful_time = cap_share * effective_throughput_share / max(tau, 1e-12)
        # Normalise so the per-node share never exceeds an equal split of the
        # CAP nor the node's own demand.
        successful_time = min(
            successful_time, cap_share / n_nodes, frames_per_second * frame_time
        )
        expected_retx = (1.0 - success) / max(success, 1e-9)
        return CsmaEstimate(
            attempt_probability=tau,
            success_probability=success,
            successful_time_per_second_s=successful_time,
            expected_retransmissions=expected_retx,
        )


@dataclass(frozen=True)
class CsmaMacConfig:
    """``chi_mac = {L_payload, macMinBE, macMaxBE}`` for unslotted CSMA/CA.

    Attributes:
        payload_bytes: MAC payload carried by each data frame (``L_payload``).
        macMinBE: initial backoff exponent of the CSMA/CA algorithm.
        macMaxBE: largest backoff exponent reachable through backoff stages.
    """

    payload_bytes: int = 80
    macMinBE: int = 3
    macMaxBE: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.payload_bytes <= MAX_MAC_PAYLOAD_BYTES:
            raise ValueError(
                f"payload_bytes must be in [1, {MAX_MAC_PAYLOAD_BYTES}], "
                f"got {self.payload_bytes}"
            )
        if not 0 <= self.macMinBE <= self.macMaxBE <= MAX_BACKOFF_EXPONENT:
            raise ValueError(
                "backoff exponents must satisfy "
                f"0 <= macMinBE <= macMaxBE <= {MAX_BACKOFF_EXPONENT}"
            )


@dataclass(frozen=True)
class CsmaMacTable:
    """Per-configuration columns compiled from distinct CSMA configurations.

    One row per distinct ``chi_mac``, produced by the exact scalar
    per-configuration methods of :class:`UnslottedCsmaMacModel` (bit-identical
    to per-candidate scalar evaluation by construction); the column kernels
    gather rows through a per-candidate index column.
    """

    payload_bytes: np.ndarray
    expected_transmissions: np.ndarray
    delivery_probability: np.ndarray
    access_delay_s: np.ndarray


class UnslottedCsmaMacModel(MACProtocolModel):
    """Analytical model of the unslotted (non-beacon) CSMA/CA MAC mode.

    The model maps contention access onto the abstract network-model
    quantities the same way the beacon-enabled model maps GTS access:

    * the *backoff expectation* — the mean contention window over the allowed
      backoff stages — caps the per-backoff-period attempt probability
      ``tau``, which is otherwise demand-limited at a nominal per-node
      offered load (a model-level constant, so the abstraction stays a pure
      function of ``chi_mac`` and compiles into per-configuration tables);
    * the *CCA probabilities* — the probability that a clear-channel
      assessment finds the channel busy (``alpha``) and the resulting
      channel-access-failure probability ``alpha^(m+1)`` — determine how many
      CCAs and backoff periods one access procedure consumes (both
      stage-weighted by ``alpha^k``) and how often the procedure must restart
      before the frame wins the channel (``1 / (1 - alpha^(m+1))`` expected
      procedures per transmission; a failed procedure defers the frame rather
      than dropping it, so the byte accounting stays collision-driven while
      the time/delay accounting pays for the restarts);
    * the *retry/collision terms* — the per-attempt collision probability and
      the truncated-retry expectation ``E[tx]`` — inflate the data overhead
      ``Omega``: every retransmission resends the MAC header *and* the
      payload, which flows into the radio-energy equations and the channel
      time demanded from the assignment problem;
    * acknowledgements of delivered frames make up ``Psi_c->n``; unslotted
      mode sends no beacons and no node-to-coordinator control traffic;
    * the *base time unit* ``delta`` is one frame transaction (data frame +
      turnaround + acknowledgement) per second — the granularity at which the
      statistical transmission intervals of Section 3.2 are assigned;
    * the *timing overhead* is the contention inefficiency: the expected
      backoff/CCA/turnaround/ACK channel time per delivered frame, expressed
      as the fraction ``1 - eta`` of each second unusable for data.

    Args:
        n_contenders: number of nodes contending for the channel (the network
            size of the scenario under exploration).
        max_backoffs: ``macMaxCSMABackoffs`` — CCA retries per transmission.
        max_frame_retries: ``macMaxFrameRetries`` — retransmissions per frame.
        nominal_load_bytes_per_second: representative per-node offered load
            at which the contention fixed point is evaluated (WBSN streams
            are far from saturation; the demand-limited ``tau`` mirrors
            :class:`SlottedCsmaModel`).  The saturation bound still applies
            when the nominal load exceeds what the backoff window admits.
    """

    name = "ieee802154-unslotted-csma"

    def __init__(
        self,
        n_contenders: int,
        max_backoffs: int = 4,
        max_frame_retries: int = 3,
        nominal_load_bytes_per_second: float = 200.0,
    ) -> None:
        if n_contenders <= 0:
            raise ValueError("n_contenders must be positive")
        if max_backoffs < 0:
            raise ValueError("max_backoffs cannot be negative")
        if max_frame_retries < 0:
            raise ValueError("max_frame_retries cannot be negative")
        if nominal_load_bytes_per_second < 0:
            raise ValueError("nominal_load_bytes_per_second cannot be negative")
        self.n_contenders = n_contenders
        self.max_backoffs = max_backoffs
        self.max_frame_retries = max_frame_retries
        self.nominal_load_bytes_per_second = nominal_load_bytes_per_second

    def validate_config(self, mac_config: Any) -> None:
        if not isinstance(mac_config, CsmaMacConfig):
            raise TypeError(
                "mac_config must be a CsmaMacConfig, got "
                f"{type(mac_config).__name__}"
            )

    # -------------------------------------------- per-configuration scalars
    #
    # Everything below this banner is a pure function of ``chi_mac`` and the
    # model constants.  The vectorized path never recomputes these formulas:
    # :meth:`compile_mac_table` evaluates them once per distinct
    # configuration, so the gathered columns are bit-identical to the scalar
    # path by construction.

    def frame_time_s(self, mac_config: CsmaMacConfig) -> float:
        """On-air time of one data frame (payload plus MAC overhead)."""
        frame_bytes = mac_config.payload_bytes + MAC_OVERHEAD_BYTES
        return 8.0 * frame_bytes / PHY_BIT_RATE_BPS

    def ack_time_s(self) -> float:
        """On-air time of one acknowledgement frame."""
        return 8.0 * ACK_BYTES / PHY_BIT_RATE_BPS

    def transaction_time_s(self, mac_config: CsmaMacConfig) -> float:
        """Channel time of one complete transaction: data + turnaround + ACK."""
        return self.frame_time_s(mac_config) + TURNAROUND_TIME_S + self.ack_time_s()

    def mean_backoff_window(self, mac_config: CsmaMacConfig) -> float:
        """Backoff expectation: mean contention window over the stages."""
        total = 0.0
        for stage in range(self.max_backoffs + 1):
            total += float(2 ** min(mac_config.macMinBE + stage, mac_config.macMaxBE))
        return total / (self.max_backoffs + 1)

    def attempt_probability(self, mac_config: CsmaMacConfig) -> float:
        """Per-backoff-period transmission probability ``tau`` of one node.

        Demand-limited: a node attempts when it has a frame queued, which at
        the nominal offered load happens ``frames_per_second`` times per
        second; the backoff expectation caps the probability at its
        saturation value.
        """
        saturation = 1.0 / (self.mean_backoff_window(mac_config) / 2.0 + 1.0)
        frames_per_second = (
            self.nominal_load_bytes_per_second / mac_config.payload_bytes
        )
        demand = frames_per_second * UNIT_BACKOFF_PERIOD_S
        return max(1e-9, min(saturation, demand))

    def cca_busy_probability(self, mac_config: CsmaMacConfig) -> float:
        """CCA probability ``alpha``: the assessment finds the channel busy.

        A transaction occupies several backoff periods; in stationarity one
        other node occupies a given period with the renewal share
        ``tau * occupancy / (1 + tau * occupancy)``, and the CCA observes the
        superposition of the other nodes' occupancies.
        """
        others = self.n_contenders - 1
        if others == 0:
            return 0.0
        tau = self.attempt_probability(mac_config)
        occupancy = self.transaction_time_s(mac_config) / UNIT_BACKOFF_PERIOD_S
        share = tau * occupancy / (1.0 + tau * occupancy)
        busy = 1.0 - (1.0 - share) ** others
        return min(busy, _MAX_PROBABILITY)

    def channel_access_failure_probability(self, mac_config: CsmaMacConfig) -> float:
        """``alpha^(m+1)``: every allowed CCA found the channel busy."""
        return self.cca_busy_probability(mac_config) ** (self.max_backoffs + 1)

    def access_restart_factor(self, mac_config: CsmaMacConfig) -> float:
        """Expected access procedures per transmission.

        A procedure that exhausts its ``m+1`` CCAs defers the frame and
        starts over, so the count is geometric in the channel-access-failure
        probability: ``1 / (1 - alpha^(m+1))``.  (``alpha`` is capped below
        one, so the factor stays finite; hopeless configurations surface as
        vanishing contention efficiency, not as division by zero.)
        """
        return 1.0 / (1.0 - self.channel_access_failure_probability(mac_config))

    def expected_cca_attempts(self, mac_config: CsmaMacConfig) -> float:
        """Expected CCAs per access procedure: stage ``k`` runs w.p. ``alpha^k``."""
        alpha = self.cca_busy_probability(mac_config)
        return sum(alpha**stage for stage in range(self.max_backoffs + 1))

    def expected_backoff_periods(self, mac_config: CsmaMacConfig) -> float:
        """Expected backoff periods per access procedure.

        Consistent with :meth:`expected_cca_attempts`: stage ``k`` is reached
        with probability ``alpha^k`` and contributes half its contention
        window, ``alpha^k * W_k / 2`` periods with
        ``W_k = 2^min(macMinBE + k, macMaxBE)`` — the same half-window
        convention as :meth:`mean_backoff_window` and
        :class:`SlottedCsmaModel` (``W_k / 2`` rather than the uniform-draw
        mean ``(W_k - 1) / 2``; the half-period difference is a deliberate
        simplification shared by every backoff expression in this module).
        """
        alpha = self.cca_busy_probability(mac_config)
        total = 0.0
        for stage in range(self.max_backoffs + 1):
            window = float(
                2 ** min(mac_config.macMinBE + stage, mac_config.macMaxBE)
            )
            total += alpha**stage * (window / 2.0)
        return total

    def collision_probability(self, mac_config: CsmaMacConfig) -> float:
        """Probability that an attempt collides with another node's attempt."""
        others = self.n_contenders - 1
        if others == 0:
            return 0.0
        tau = self.attempt_probability(mac_config)
        collision = 1.0 - (1.0 - tau) ** others
        return min(collision, _MAX_PROBABILITY)

    def expected_transmissions_per_frame(self, mac_config: CsmaMacConfig) -> float:
        """``E[tx] >= 1``: transmissions per frame under truncated retries."""
        collision = self.collision_probability(mac_config)
        return sum(collision**retry for retry in range(self.max_frame_retries + 1))

    def delivery_probability(self, mac_config: CsmaMacConfig) -> float:
        """Probability that a frame is delivered within the retry budget."""
        collision = self.collision_probability(mac_config)
        return 1.0 - collision ** (self.max_frame_retries + 1)

    def contention_overhead_per_attempt_s(self, mac_config: CsmaMacConfig) -> float:
        """Expected backoff + CCA channel time consumed by one transmission.

        One access procedure costs its stage-weighted backoff periods plus
        its stage-weighted CCAs; failed procedures defer and restart, so the
        whole term is scaled by the expected number of procedures per
        transmission (:meth:`access_restart_factor`).
        """
        backoff = self.expected_backoff_periods(mac_config) * UNIT_BACKOFF_PERIOD_S
        cca = self.expected_cca_attempts(mac_config) * CCA_TIME_S
        return (backoff + cca) * self.access_restart_factor(mac_config)

    def access_delay_s(self, mac_config: CsmaMacConfig) -> float:
        """Expected contention latency of delivering one frame."""
        expected_tx = self.expected_transmissions_per_frame(mac_config)
        per_attempt = self.contention_overhead_per_attempt_s(mac_config)
        return expected_tx * (per_attempt + self.transaction_time_s(mac_config))

    def contention_efficiency(self, mac_config: CsmaMacConfig) -> float:
        """``eta``: fraction of channel time usable for data airtime.

        Per delivered frame the channel carries ``E[tx]`` data-frame airtimes
        (retransmitted bytes are accounted as ``Omega`` data overhead, hence
        "useful" for the assignment budget) and spends the backoff, CCA,
        turnaround and acknowledgement times on contention machinery.
        """
        expected_tx = self.expected_transmissions_per_frame(mac_config)
        useful = expected_tx * self.frame_time_s(mac_config)
        overhead = expected_tx * (
            self.contention_overhead_per_attempt_s(mac_config)
            + TURNAROUND_TIME_S
            + self.ack_time_s()
        )
        return useful / (useful + overhead)

    # -------------------------------------------------------- MAC quantities

    def per_node_quantities(
        self, output_stream_bytes_per_second: float, mac_config: CsmaMacConfig
    ) -> MACQuantities:
        """Evaluate ``Omega`` and ``Psi`` for one node.

        Retransmissions resend the MAC header *and* the payload, so both the
        header overhead and the payload copies beyond the first count as data
        overhead — these are the collision energy terms of the model (the
        extra bytes flow into the radio TX energy and the channel time
        demanded from the assignment problem).  The coordinator acknowledges
        delivered frames only.
        """
        self.validate_config(mac_config)
        if output_stream_bytes_per_second < 0:
            raise ValueError("output stream cannot be negative")
        frames_per_second = output_stream_bytes_per_second / mac_config.payload_bytes
        expected_tx = self.expected_transmissions_per_frame(mac_config)
        delivery = self.delivery_probability(mac_config)
        retransmitted_frames = frames_per_second * (expected_tx - 1.0)
        data_overhead = (
            MAC_OVERHEAD_BYTES * frames_per_second * expected_tx
            + mac_config.payload_bytes * retransmitted_frames
        )
        acknowledgements = ACK_BYTES * (frames_per_second * delivery)
        return MACQuantities(
            data_overhead_bytes_per_second=data_overhead,
            control_coordinator_to_node_bytes_per_second=acknowledgements,
            control_node_to_coordinator_bytes_per_second=0.0,
        )

    # ------------------------------------------------------ time structure

    def base_time_unit_s(self, mac_config: CsmaMacConfig) -> float:
        """``delta``: one frame transaction per second of channel time."""
        self.validate_config(mac_config)
        return self.transaction_time_s(mac_config)

    def max_assignable_time_per_second(self, mac_config: CsmaMacConfig) -> float:
        """``eta``: the contention-limited share of the channel."""
        self.validate_config(mac_config)
        return self.contention_efficiency(mac_config)

    def control_time_per_second(self, mac_config: CsmaMacConfig) -> float:
        """``Delta_control = 1 - eta``: contention machinery per second."""
        self.validate_config(mac_config)
        return 1.0 - self.contention_efficiency(mac_config)

    # ---------------------------------------------------------------- delay

    def worst_case_delays(
        self, slot_counts: Sequence[int], mac_config: CsmaMacConfig
    ) -> list[float]:
        """Per-node worst-case data delay for a statistical assignment.

        A node granted ``k`` transactions per second delivers a frame at most
        every ``1/k`` seconds; each delivery additionally pays the expected
        contention latency (backoffs, CCAs, retries).  Nodes with no
        assigned transaction never deliver (infinite delay).
        """
        self.validate_config(mac_config)
        access = self.access_delay_s(mac_config)
        delays: list[float] = []
        for own in slot_counts:
            if own == 0:
                delays.append(float("inf"))
            else:
                delays.append(1.0 / own + access)
        return delays

    # ------------------------------------------------------- column kernels

    def compile_mac_table(
        self,
        mac_configs: Sequence[CsmaMacConfig],
        *,
        xp: ModuleType = np,
    ) -> CsmaMacTable:
        """Precompute the per-configuration columns of the vectorized path.

        Every entry is produced by the exact scalar per-configuration
        methods, so gathering from the table is bit-identical to evaluating
        the configuration scalar-wise.  The table's columns live on the
        ``xp`` backend the kernel was compiled for.
        """
        for config in mac_configs:
            self.validate_config(config)
        return CsmaMacTable(
            payload_bytes=xp.asarray(
                [float(config.payload_bytes) for config in mac_configs], dtype=float
            ),
            expected_transmissions=xp.asarray(
                [
                    self.expected_transmissions_per_frame(config)
                    for config in mac_configs
                ],
                dtype=float,
            ),
            delivery_probability=xp.asarray(
                [self.delivery_probability(config) for config in mac_configs],
                dtype=float,
            ),
            access_delay_s=xp.asarray(
                [self.access_delay_s(config) for config in mac_configs], dtype=float
            ),
        )

    def per_node_quantity_columns(
        self,
        output_stream_bytes_per_second: np.ndarray,
        mac_table: CsmaMacTable,
        mac_index: np.ndarray,
        *,
        xp: ModuleType = np,
    ) -> MACQuantityColumns:
        """Column-wise :meth:`per_node_quantities` (same operation order)."""
        phi_out = xp.asarray(output_stream_bytes_per_second, dtype=float)
        frames_per_second = phi_out / mac_table.payload_bytes[mac_index]
        expected_tx = mac_table.expected_transmissions[mac_index]
        delivery = mac_table.delivery_probability[mac_index]
        retransmitted_frames = frames_per_second * (expected_tx - 1.0)
        data_overhead = (
            MAC_OVERHEAD_BYTES * frames_per_second * expected_tx
            + mac_table.payload_bytes[mac_index] * retransmitted_frames
        )
        acknowledgements = ACK_BYTES * (frames_per_second * delivery)
        return MACQuantityColumns(
            data_overhead_bytes_per_second=data_overhead,
            control_coordinator_to_node_bytes_per_second=acknowledgements,
            control_node_to_coordinator_bytes_per_second=xp.zeros_like(phi_out),
        )

    def worst_case_delay_columns(
        self,
        own_slots: np.ndarray,
        total_slots: np.ndarray,
        mac_table: CsmaMacTable,
        mac_index: np.ndarray,
        *,
        xp: ModuleType = np,
    ) -> np.ndarray:
        """Elementwise :meth:`worst_case_delays`: ``1/own + access``, whatever
        the total."""
        access = xp.take(mac_table.access_delay_s, mac_index)
        delays = 1.0 / xp.maximum(own_slots, 1) + access
        return xp.where(own_slots == 0, np.inf, delays)

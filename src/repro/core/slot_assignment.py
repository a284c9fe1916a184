"""Transmission-interval assignment problem (equations (1)-(2)).

Given the per-node data requirement (output stream plus MAC data overhead) and
the protocol's time discretisation ``delta``, the MAC must choose an integer
number of base time units ``k(n)`` per node such that

    Delta_tx(n) = k(n) * delta >= T_tx(phi_out(n) + Omega(phi_out(n), chi_mac))

subject to the protocol's global budget (equation (2)):

    sum_n Delta_tx(n) + Delta_control(chi_mac) <= 1 second per second

and to any additional protocol cap (e.g. at most seven GTS slots per
IEEE 802.15.4 superframe).

The column form is the scalar solver's arithmetic in three parts.  A node's
``k(n)`` and ``Delta_tx(n)`` depend on its requirement and ``delta`` alone,
and the cap on the MAC configuration alone, so the column kernel
(:mod:`repro.core.vectorized`) runs :func:`slot_count_columns` and
:func:`slot_cap_columns` at compile time, per stage-table row and per MAC
configuration; a batch runs only :func:`slot_budget_columns`, the interval
sum and slack test that couple the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import ModuleType
from typing import Sequence

from repro.core.array_backend import xp as np

__all__ = [
    "SlotAssignment",
    "assign_transmission_intervals",
    "slot_budget_columns",
    "slot_cap_columns",
    "slot_count_columns",
]


@dataclass(frozen=True)
class SlotAssignment:
    """Result of the transmission-interval assignment.

    Attributes:
        slot_counts: the integers ``k(n)``, one per node.
        transmission_intervals_s: the ``Delta_tx(n) = k(n) * delta`` values,
            expressed as channel seconds per second.
        base_time_unit_s: the discretisation ``delta`` (per second of
            operation).
        control_time_per_second: ``Delta_control`` used for the budget check.
        max_assignable_time_per_second: protocol cap on the summed intervals.
        feasible: whether both the per-node requirements and the global budget
            are satisfied.
        slack_s: unused assignable time per second (negative when the budget
            is exceeded).
    """

    slot_counts: tuple[int, ...]
    transmission_intervals_s: tuple[float, ...]
    base_time_unit_s: float
    control_time_per_second: float
    max_assignable_time_per_second: float
    feasible: bool
    slack_s: float

    @property
    def total_transmission_time_s(self) -> float:
        """Sum of all assigned transmission intervals per second."""
        return float(sum(self.transmission_intervals_s))


def assign_transmission_intervals(
    required_transmission_times_s: Sequence[float],
    base_time_unit_s: float,
    control_time_per_second: float,
    max_assignable_time_per_second: float | None = None,
) -> SlotAssignment:
    """Solve the assignment problem with the minimal feasible ``k(n)``.

    Args:
        required_transmission_times_s: per-node ``T_tx(phi_out + Omega)``,
            i.e. the channel seconds per second each node needs.
        base_time_unit_s: the discretisation ``delta`` (channel seconds per
            second granted by one slot).
        control_time_per_second: ``Delta_control(chi_mac)``.
        max_assignable_time_per_second: optional protocol cap on
            ``sum_n Delta_tx(n)``; defaults to ``1 - Delta_control``.

    Returns:
        A :class:`SlotAssignment`; ``feasible`` is ``False`` when the minimal
        assignment violates the budget (the assignment itself is still
        reported so the DSE can quantify by how much).
    """
    if base_time_unit_s <= 0:
        raise ValueError("base_time_unit_s must be positive")
    if control_time_per_second < 0:
        raise ValueError("control_time_per_second cannot be negative")
    if any(required < 0 for required in required_transmission_times_s):
        raise ValueError("required transmission times cannot be negative")

    budget_cap = 1.0 - control_time_per_second
    if max_assignable_time_per_second is None:
        max_assignable_time_per_second = budget_cap
    cap = min(budget_cap, max_assignable_time_per_second)

    slot_counts: list[int] = []
    intervals: list[float] = []
    for required in required_transmission_times_s:
        # The minimal integer number of base units covering the requirement.
        # A node with no data still receives zero slots (it stays silent).
        count = int(math.ceil(required / base_time_unit_s - 1e-12)) if required > 0 else 0
        slot_counts.append(count)
        intervals.append(count * base_time_unit_s)

    total = float(sum(intervals))
    slack = cap - total
    feasible = slack >= -1e-12 and cap >= 0
    return SlotAssignment(
        slot_counts=tuple(slot_counts),
        transmission_intervals_s=tuple(intervals),
        base_time_unit_s=base_time_unit_s,
        control_time_per_second=control_time_per_second,
        max_assignable_time_per_second=max_assignable_time_per_second,
        feasible=feasible,
        slack_s=slack,
    )


def slot_count_columns(
    required: np.ndarray, base: np.ndarray, *, xp: ModuleType = np
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise minimal ``k(n)`` and ``Delta_tx(n) = k(n) * delta`` of
    aligned requirement and ``delta`` arrays."""
    counts = xp.where(required > 0, xp.ceil(required / base - 1e-12), 0.0)
    counts = counts.astype(np.int64)
    return counts, counts * base


def slot_cap_columns(
    control_time_per_second: np.ndarray,
    max_assignable_time_per_second: np.ndarray,
    *,
    xp: ModuleType = np,
) -> np.ndarray:
    """Elementwise cap on the summed intervals: ``min(1 - Delta_control,
    max_assignable)``."""
    budget_cap = 1.0 - xp.asarray(control_time_per_second, dtype=float)
    return xp.minimum(budget_cap, xp.asarray(max_assignable_time_per_second, float))


def slot_budget_columns(
    intervals: np.ndarray, cap: np.ndarray, *, xp: ModuleType = np
) -> np.ndarray:
    """Whether each candidate's ``(nodes, batch)`` intervals, summed left to
    right over the nodes, fit its cap: the scalar solver's slack test."""
    total = xp.zeros(intervals.shape[1])
    for column in intervals:
        xp.add(total, column, out=total)
    return (cap - total >= -1e-12) & (cap >= 0)

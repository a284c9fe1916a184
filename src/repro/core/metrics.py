"""System-level evaluation metrics (Section 3.4, equation (8)).

The network-level objectives combine the per-node metrics into a single
figure per dimension while penalising unbalanced designs: equation (8)
defines the network energy as the mean node consumption plus ``theta`` times
its sample standard deviation, and the paper applies the same construction to
the application-quality (PRD) metric.  The delay dimension is aggregated with
the maximum (or mean) of the per-node delay bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import ModuleType
from typing import Literal, Sequence

from repro.core.array_backend import xp as np

__all__ = [
    "balanced_aggregate",
    "balanced_aggregate_columns",
    "network_delay_metric",
    "NetworkObjectives",
]


def balanced_aggregate(values: Sequence[float], theta: float = 1.0) -> float:
    """Mean plus ``theta`` times the sample standard deviation (equation (8)).

    Args:
        values: per-node metric values (energy in W, PRD in percent, ...).
        theta: non-negative weight of the balance term; ``theta = 0`` reduces
            the metric to the plain average.

    Returns:
        The balanced aggregate.  A single-node network has no imbalance, so
        the standard-deviation term is zero by definition.
    """
    if theta < 0:
        raise ValueError("theta cannot be negative")
    values = list(values)
    if not values:
        raise ValueError("values must not be empty")
    count = len(values)
    mean = sum(values) / count
    if count == 1 or theta == 0.0:
        return mean
    # The square is spelt as a product (not ``** 2``) so the scalar and the
    # column-wise aggregates are floating-point-identical on every platform:
    # ``x * x`` is correctly rounded, ``pow(x, 2.0)`` need not be.
    variance = sum((value - mean) * (value - mean) for value in values) / (count - 1)
    return mean + theta * math.sqrt(variance)


def balanced_aggregate_columns(
    value_columns: Sequence[np.ndarray],
    theta: float = 1.0,
    *,
    xp: ModuleType = np,
) -> np.ndarray:
    """Column-wise :func:`balanced_aggregate` over per-node value columns.

    Args:
        value_columns: one column per node, each holding one value per
            candidate of the batch.
        theta: non-negative weight of the balance term.
        xp: array namespace resolved through the backend seam
            (:mod:`repro.core.array_backend`); defaults to NumPy.

    The accumulation order matches the scalar aggregate exactly (left-to-right
    over nodes), so the result column is floating-point-identical to
    per-candidate scalar calls; each sum accumulates in place in one
    workspace.  With ``theta = 0`` the result is the plain mean, the
    ``"mean"`` of :func:`network_delay_metric`.
    """
    if theta < 0:
        raise ValueError("theta cannot be negative")
    columns = list(value_columns)
    if not columns:
        raise ValueError("value_columns must not be empty")
    count = len(columns)
    mean = xp.zeros_like(columns[0], dtype=float)
    for column in columns:
        xp.add(mean, column, out=mean)
    xp.divide(mean, count, out=mean)
    if count == 1 or theta == 0.0:
        return mean
    squares = xp.zeros_like(mean)
    delta = xp.empty_like(mean)
    for column in columns:
        xp.subtract(column, mean, out=delta)
        xp.multiply(delta, delta, out=delta)
        xp.add(squares, delta, out=squares)
    xp.divide(squares, count - 1, out=squares)
    return mean + theta * xp.sqrt(squares, out=squares)


def network_delay_metric(
    delays_s: Sequence[float], mode: Literal["max", "mean"] = "max"
) -> float:
    """Aggregate the per-node delay bounds into a network-level metric."""
    delays = list(delays_s)
    if not delays:
        raise ValueError("delays_s must not be empty")
    if mode == "max":
        return max(delays)
    if mode == "mean":
        return sum(delays) / len(delays)
    raise ValueError("mode must be 'max' or 'mean'")


@dataclass(frozen=True)
class NetworkObjectives:
    """The three system-level objectives explored by the DSE.

    Attributes:
        energy_w: balanced network energy metric (equation (8)), in watt.
        quality_loss: balanced network application-quality metric (PRD for
            the ECG case study), in percent.
        delay_s: network delay metric, in seconds.
    """

    energy_w: float
    quality_loss: float
    delay_s: float

    @property
    def energy_mj_per_s(self) -> float:
        """Energy metric in the mJ/s unit used by the paper's plots."""
        return self.energy_w * 1e3

    def as_tuple(self) -> tuple[float, float, float]:
        """Objective vector (energy, quality, delay), all to be minimised."""
        return (self.energy_w, self.quality_loss, self.delay_s)

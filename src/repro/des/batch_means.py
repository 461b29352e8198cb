"""Confidence intervals via the batch-means method.

The paper reports 95% confidence intervals for all simulation curves computed
with batch means: a long steady-state run is cut into a moderate number of
batches, the per-batch averages are treated as (approximately) independent
normal samples, and a Student-t interval is formed around their grand mean.

:class:`BatchMeansEstimator` supports both usage styles:

* feed individual observations and let the estimator cut them into a fixed
  number of batches (used for packet-delay tallies), or
* feed pre-computed batch means directly (used for time-weighted measures
  where the simulator aggregates each batch itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ConfidenceInterval", "BatchMeansEstimator"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``mean +/- half_width``."""

    mean: float
    half_width: float
    confidence_level: float
    batches: int

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Return whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    @property
    def relative_half_width(self) -> float:
        """Half width divided by the absolute mean (``inf`` for a zero mean)."""
        if self.mean == 0:
            return math.inf
        return self.half_width / abs(self.mean)


class BatchMeansEstimator:
    """Collects batch means and produces Student-t confidence intervals.

    Parameters
    ----------
    confidence_level:
        Coverage of the interval, e.g. ``0.95`` as in the paper.
    """

    def __init__(self, confidence_level: float = 0.95) -> None:
        if not 0.0 < confidence_level < 1.0:
            raise ValueError("confidence level must be strictly between 0 and 1")
        self._confidence_level = confidence_level
        self._batch_means: list[float] = []

    # ------------------------------------------------------------------ #
    # Feeding data
    # ------------------------------------------------------------------ #
    def add_batch_mean(self, value: float) -> None:
        """Add one pre-computed batch mean."""
        self._batch_means.append(float(value))

    def add_observations(self, observations, batches: int = 10) -> None:
        """Cut raw observations into ``batches`` equal batches and add their means.

        Observations that do not fill the last batch are dropped, mirroring the
        standard batch-means procedure.
        """
        values = [float(v) for v in observations]
        if batches < 2:
            raise ValueError("at least two batches are required")
        batch_size = len(values) // batches
        if batch_size == 0:
            raise ValueError(
                f"not enough observations ({len(values)}) for {batches} batches"
            )
        for index in range(batches):
            chunk = values[index * batch_size : (index + 1) * batch_size]
            self.add_batch_mean(sum(chunk) / len(chunk))

    @property
    def batch_count(self) -> int:
        return len(self._batch_means)

    @property
    def batch_means(self) -> list[float]:
        return list(self._batch_means)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def mean(self) -> float:
        """Return the grand mean of all batch means."""
        if not self._batch_means:
            raise ValueError("no batch means recorded")
        return sum(self._batch_means) / len(self._batch_means)

    def confidence_interval(self) -> ConfidenceInterval:
        """Return the Student-t confidence interval around the grand mean.

        With fewer than two batches the half width is infinite (the interval is
        uninformative but well defined), so callers never have to special-case
        short runs.
        """
        if not self._batch_means:
            raise ValueError("no batch means recorded")
        n = len(self._batch_means)
        grand_mean = self.mean()
        if n < 2:
            return ConfidenceInterval(
                mean=grand_mean,
                half_width=math.inf,
                confidence_level=self._confidence_level,
                batches=n,
            )
        variance = sum((value - grand_mean) ** 2 for value in self._batch_means) / (n - 1)
        standard_error = math.sqrt(variance / n)
        from scipy import stats  # deferred: scipy.stats costs ~1 s to import

        quantile = stats.t.ppf(0.5 + self._confidence_level / 2.0, df=n - 1)
        return ConfidenceInterval(
            mean=grand_mean,
            half_width=float(quantile) * standard_error,
            confidence_level=self._confidence_level,
            batches=n,
        )

    def reset(self) -> None:
        """Discard all recorded batch means."""
        self._batch_means.clear()

"""Transient analysis of CTMCs via uniformisation (Jensen's method).

Uniformisation expresses the transient distribution of a CTMC as a Poisson
mixture of powers of the uniformised DTMC,

    pi(t) = sum_{k >= 0} PoissonPMF(k; Lambda t) * pi(0) P^k,

with ``P = I + Q / Lambda`` and ``Lambda >= max_i |q_ii|``.  The weights are
Fox & Glynn's ("Computing Poisson probabilities", CACM 1988): anchored at the
mode and recursed outward, so ``exp(-Lambda t)`` never underflows and one
series covers any horizon.  The series is truncated left and right of the
mode, each side once a certified bound puts its excluded tail below ``tol/2``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.markov.solvers import uniformization_rate

__all__ = [
    "poisson_series",
    "poisson_truncation_point",
    "poisson_window",
    "transient_distribution",
    "uniformize",
]


def uniformize(generator, rate: float | None = None) -> tuple[sp.csr_matrix, float]:
    """Return the uniformised DTMC matrix ``P`` and the uniformisation rate.

    Parameters
    ----------
    generator:
        CTMC generator matrix (dense or sparse).
    rate:
        Uniformisation rate ``Lambda``; must be at least the largest exit rate.
        Chosen automatically when omitted.
    """
    if sp.issparse(generator):
        q = generator.tocsr().astype(float)
    else:
        q = sp.csr_matrix(np.asarray(generator, dtype=float))
    lam = uniformization_rate(q) if rate is None else float(rate)
    max_exit = float(np.max(np.abs(q.diagonal()))) if q.shape[0] else 0.0
    if lam < max_exit:
        raise ValueError(
            f"uniformisation rate {lam} is smaller than the maximum exit rate {max_exit}"
        )
    if lam <= 0:
        # Degenerate chain with no transitions at all.
        return sp.eye(q.shape[0], format="csr"), 1.0
    p = sp.eye(q.shape[0], format="csr") + q.multiply(1.0 / lam)
    return p.tocsr(), lam


def poisson_truncation_point(mean: float, tol: float) -> int:
    """Return a ``k`` such that the Poisson CDF at ``k`` exceeds ``1 - tol``.

    The coverage is certified by a geometric tail bound: beyond the mode the
    PMF decays at least geometrically, so ``P(X > k)`` is at most
    ``pmf(k + 1) / (1 - mean / (k + 2))``.  The walk moves ``k`` upward one
    term at a time (incremental log-PMF updates) until the bound falls below
    ``tol``.  Small means start at the mode, so the result is the smallest
    ``k`` the bound certifies.  Large means -- the paper preset's 26k-state
    chain pushes ``Lambda * t`` into the tens of thousands -- start at the
    Cornish-Fisher normal-approximation quantile, so the walk takes
    O(sqrt(mean)) steps at worst.  Either way the bound is conservative: the
    result may exceed the smallest admissible ``k`` by a few terms, which
    only costs the caller some vanishing-weight series terms, and the
    guarantee ``CDF(k) >= 1 - tol`` holds without relying on a
    floating-point CDF sum.
    """
    if not 0 <= mean < np.inf:
        raise ValueError("mean must be finite and non-negative")
    if mean == 0:
        return 0

    from math import lgamma, log, sqrt

    k = int(mean)
    if mean > 32.0:
        from scipy.special import ndtri

        # Cornish-Fisher expansion of the Poisson quantile: the normal
        # quantile z corrected for the skewness 1 / sqrt(mean).  For smaller
        # means this start often lies past the end the walk would certify.
        z = max(0.0, float(ndtri(min(1.0 - tol, 1.0 - 1e-16))))
        k = int(mean + z * sqrt(mean) + (z * z - 1.0) / 6.0) + 1
        k = max(k, int(mean) + 1)

    log_mean = log(mean)
    log_pmf_next = -mean + (k + 1) * log_mean - lgamma(k + 2.0)
    guard = k + int(12.0 * sqrt(mean) + 30.0)
    while k < guard:
        ratio = mean / (k + 2.0)
        log_tail_bound = log_pmf_next - log(1.0 - ratio)
        if log_tail_bound <= log(tol):
            break
        k += 1
        log_pmf_next += log_mean - log(k + 1.0)
    return k


def poisson_window(mean: float, tol: float) -> tuple[int, np.ndarray]:
    """Return ``(left, weights)``: ``weights[i]`` is the Poisson probability of
    ``left + i``, renormalised over the window the weights cover.

    The weights are anchored at the mode with unit weight and recursed outward
    (Fox & Glynn), so ``exp(-mean)`` is never formed and ``mean`` has no upper
    limit.  The right end is :func:`poisson_truncation_point`; the left end is
    certified by the geometric decay of the PMF below the mode.
    """
    if not 0 <= mean < np.inf:
        raise ValueError("mean must be finite and non-negative")
    if not tol > 0:
        raise ValueError("tol must be positive")
    mode = int(mean)
    right = max(mode, poisson_truncation_point(mean, 0.5 * tol))
    upper = np.cumprod(np.append(1.0, mean / np.arange(mode + 1, right + 1)))
    # Below the mode every ratio p[j - 1] / p[j] = j / mean is at most
    # r = left / mean < 1, so P(X < left) <= p[left] r / (1 - r); and
    # p[left] <= weight / total, the partial sum underestimating the normaliser.
    lower = []
    weight = 1.0
    total = upper.sum()
    left = mode
    while left > 0:
        ratio = left / mean
        if ratio < 1.0 and weight * ratio <= 0.5 * tol * (1.0 - ratio) * total:
            break
        weight *= ratio
        left -= 1
        lower.append(weight)
        total += weight
    window = np.append(lower[::-1], upper)
    return left, window / window.sum()


def poisson_series(
    pt, pi: np.ndarray, mean: float, tol: float, *, first_step: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Return ``sum_k w_k pi P^k`` over :func:`poisson_window` and the
    number of ``pt @ term`` products spent (``pt`` is ``P^T`` as CSR).

    ``first_step`` optionally supplies ``pi P`` computed by the caller (not
    counted).  The sum is renormalised to absorb the truncated tails.  ``pi``
    is never written and the result is always a fresh array.
    """
    left, weights = poisson_window(mean, tol)
    right = left + len(weights) - 1
    result = weights[0] * pi if left == 0 else np.zeros_like(pi)
    term = pi
    products = 0
    for k in range(1, right + 1):
        if k == 1 and first_step is not None:
            term = first_step
        else:
            term = pt @ term
            products += 1
        if k >= left:
            result += weights[k - left] * term
    total = result.sum()
    if total > 0:
        result /= total
    return result, products


def transient_distribution(
    generator,
    initial: np.ndarray | Sequence[float],
    time: float,
    *,
    tol: float = 1e-12,
) -> np.ndarray:
    """Return the CTMC state distribution at ``time`` starting from ``initial``.

    Parameters
    ----------
    generator:
        CTMC generator matrix.
    initial:
        Initial probability vector.
    time:
        Elapsed time; must be non-negative.
    tol:
        Truncation error bound for the Poisson series.
    """
    if time < 0:
        raise ValueError("time must be non-negative")
    pi0 = np.asarray(initial, dtype=float)
    if pi0.ndim != 1:
        raise ValueError("initial distribution must be a vector")
    total = pi0.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("initial distribution must have positive finite mass")
    pi0 = pi0 / total

    p, lam = uniformize(generator)
    if pi0.shape[0] != p.shape[0]:
        raise ValueError("initial distribution length does not match number of states")
    if time == 0:
        return pi0.copy()
    result, _ = poisson_series(p.T.tocsr(), pi0, lam * time, tol)
    return result

"""Distribution estimators and mixture-weight fitting.

Covers the three estimation jobs the models need: additive smoothing
for cluster-given-category distributions, exact maximum-likelihood
normalization within clusters, and an exponentiated-gradient EM loop
for mixture weights.  Each takes count arrays and returns float64
vectors.

Counts are exact integers and each probability is rounded once, in the
estimator's one division; a ``Fraction`` count (an uneven split over
clusters) stays exact until then.

The EM update is ``theta_j <- theta_j * (eta * (grad_j - 1) + 1)``
with a learning rate ``eta`` in (0, 1]; ``eta = 1`` is the classic EM
step.  Because the weighted gradient satisfies ``sum_j theta_j *
grad_j = 1`` identically, the update keeps the weights on the
probability simplex without renormalization, and restricting eta to at
most 1 keeps every component nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _nonnegative(counts) -> np.ndarray:
    f = np.asarray(counts)
    if (f < 0).any():
        raise ValueError("negative count in distribution estimate")
    return f


def ele_distribution(counts) -> np.ndarray:
    """Additively smoothed distribution: (f + 1/2) / (F + m/2).

    ``counts`` is a 1-D array with one count per outcome, so ``m`` is
    its length; an outcome absent from it is no outcome.  Computed as
    ``(2f + 1) / (2F + m)`` and returned as float64: int64 counts below
    2**53 give the correctly rounded float of each exact ratio, as
    Python's ``int / int`` does, and an object array of Python ints and
    ``Fraction``s stays exact until the one rounding to float64.
    Defined even when every count is zero (gives the uniform
    distribution).
    """
    f = _nonnegative(counts)
    if not len(f):
        raise ValueError("cannot smooth an empty count table")
    return np.asarray((2 * f + 1) / (2 * f.sum() + len(f)), np.float64)


def mle_distribution(freqs) -> np.ndarray:
    """Relative-frequency distribution ``f / F`` of a 1-D count array.

    Rounds as ``ele_distribution`` does.  Raises if the total mass is
    zero: an empty cluster has no conditional word distribution.
    """
    f = _nonnegative(freqs)
    total = f.sum()
    if total == 0:
        raise ValueError("cannot normalize a zero-mass frequency table")
    return np.asarray(f / total, np.float64)


def mle_word_distribution(freqs: np.ndarray, cluster: int) -> np.ndarray:
    """Word distribution of one cluster from the m x V distributed
    frequencies: a vector over the vocabulary, 0 at non-members."""
    return mle_distribution(freqs[cluster])


def loglik_grad(counts, probs, theta):
    """Per-token-average log likelihood of a mixture and its gradient
    with respect to the component weights.

    ``counts`` has one entry per token type, ``probs`` one row per
    mixture component, ``theta`` the component weights.  Returns
    ``(L, grad)`` where ``L = (1/N) sum_t c_t log(mix_t)`` and
    ``grad_j = (1/N) sum_t c_t p_jt / mix_t``.  Raises ValueError if
    any token type has zero probability under the whole mixture.
    """
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    mix = theta @ probs
    if np.any(mix <= 0.0):
        raise ValueError("mixture probability vanished for a token type")
    total = float(counts.sum())
    loglik = float(counts @ np.log(mix)) / total
    grad = (probs @ (counts / mix)) / total
    return loglik, grad


def _evaluate(counts, probs, theta):
    loglik, grad = loglik_grad(counts, probs, theta)
    # the weighted gradient always averages to one over the simplex
    assert abs(float(np.asarray(theta) @ grad) - 1.0) <= 1e-10
    return loglik, grad


def em_step(theta: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """One multiplicative weight update; stays on the simplex."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    updated = theta * (eta * (grad - 1.0) + 1.0)
    assert abs(float(updated.sum()) - 1.0) <= 1e-12
    assert np.all(updated >= 0.0)
    return updated


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the fitting loop.

    eta: learning rate in (0, 1]; 1 gives the classic update.
    max_iterations: hard cap on weight updates.
    tolerance: stop once the likelihood moves less than this.
    initial_theta: starting weights; uniform when omitted.
    """

    eta: float = 1.0
    max_iterations: int = 100
    tolerance: float = 1e-8
    initial_theta: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        # an int exactly, as a CLI option is: no bool, no float, no NaN
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations!r}"
            )
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class EmResult:
    theta: tuple[float, ...]
    iterations: int
    log_likelihood: float
    converged: bool


def em_fit(
    components,
    counts,
    config: EmConfig | None = None,
    trace: list | None = None,
) -> EmResult:
    """Fit mixture weights to the counts of n token types.

    ``components`` is an m x n matrix whose row j holds component j's
    probability of each type; only the weights move.  ``counts`` holds
    the n types' positive counts.  A count that is not positive or a
    type no component covers raises ValueError naming its column;
    shapes that do not match raise one too.  Runs until the likelihood
    improvement drops below the tolerance or the iteration cap is hit.
    At ``eta = 1`` the likelihood is checked to be non-decreasing.  When
    ``trace`` is a list, an ``(evaluation, log_likelihood)`` pair is
    appended for every likelihood evaluation, starting with the initial
    weights.
    """
    cfg = config or EmConfig()
    probs = np.asarray(components, np.float64)
    counts = np.asarray(counts)
    if probs.ndim != 2 or counts.shape != probs.shape[1:] or 0 in probs.shape:
        raise ValueError(
            "need an m x n component matrix and n counts, m and n at least 1; "
            f"got shapes {probs.shape} and {counts.shape}"
        )
    bad = np.flatnonzero(~(counts > 0))
    if bad.size:
        raise ValueError(f"column {bad[0]} has non-positive count {counts[bad[0]]}")
    uncovered = np.flatnonzero(probs.sum(axis=0) <= 0.0)
    if uncovered.size:
        raise ValueError(
            f"column {uncovered[0]} has zero probability under every component"
        )
    counts = counts.astype(np.float64)
    m = len(probs)
    if cfg.initial_theta is not None:
        theta = np.ascontiguousarray(cfg.initial_theta, dtype=np.float64)
        if theta.shape != (m,):
            raise ValueError("initial weights do not match component count")
        # stated as what must hold, so that a NaN weight fails it
        if not ((theta >= 0).all() and abs(float(theta.sum()) - 1.0) <= 1e-9):
            raise ValueError("initial weights must form a distribution")
    else:
        theta = np.full(m, 1.0 / m)

    loglik, grad = _evaluate(counts, probs, theta)
    if trace is not None:
        trace.append((1, loglik))
    updates = 0
    converged = False
    while updates < cfg.max_iterations:
        theta = em_step(theta, grad, cfg.eta)
        updates += 1
        previous = loglik
        loglik, grad = _evaluate(counts, probs, theta)
        if trace is not None:
            trace.append((updates + 1, loglik))
        if cfg.eta == 1.0:
            assert loglik >= previous - 1e-12
        if abs(loglik - previous) < cfg.tolerance:
            converged = True
            break
    return EmResult(tuple(float(x) for x in theta), updates, loglik, converged)

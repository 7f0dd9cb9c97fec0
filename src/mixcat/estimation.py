"""Distribution estimators and mixture-weight fitting.

Covers the three estimation jobs the models need: additive smoothing
for cluster-given-category distributions, exact maximum-likelihood
normalization within clusters, and an exponentiated-gradient EM loop
for mixture weights.

Counts are exact integers and each probability is rounded once, by
Python's correctly rounded ``int / int``; a ``Fraction`` count (an
uneven split over clusters) stays exact.

The EM update is ``theta_j <- theta_j * (eta * (grad_j - 1) + 1)``
with a learning rate ``eta`` in (0, 1]; ``eta = 1`` is the classic EM
step.  Because the weighted gradient satisfies ``sum_j theta_j *
grad_j = 1`` identically, the update keeps the weights on the
probability simplex without renormalization, and restricting eta to at
most 1 keeps every component nonnegative.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from mixcat.clustering import DistributedFrequencies


def ele_distribution(counts: Mapping) -> dict:
    """Additively smoothed distribution: (f + 1/2) / (F + m/2).

    ``m`` is the number of outcomes, taken to be exactly the keys of
    ``counts``; callers wanting smoothing over a wider support must
    pass explicit zero entries.  Computed as ``(2f + 1) / (2F + m)`` on
    the counts as given: integer counts give the correctly rounded
    float of each exact ratio, ``Fraction`` counts give exact
    ``Fraction``s.  Defined even when every count is zero (gives the
    uniform distribution).
    """
    if not counts:
        raise ValueError("cannot smooth an empty count table")
    if min(counts.values()) < 0:
        raise ValueError("negative count in distribution estimate")
    denom = 2 * sum(counts.values()) + len(counts)
    # keys with equal counts share one value object: trained models stay small
    values = {f: (2 * f + 1) / denom for f in set(counts.values())}
    return {key: values[f] for key, f in counts.items()}


def mle_distribution(freqs: Mapping) -> dict:
    """Relative-frequency distribution ``f / F``.

    Integer frequencies give the correctly rounded float of each exact
    ratio; ``Fraction`` frequencies give exact ``Fraction``s.  Raises
    if the total mass is zero: an empty cluster has no conditional
    word distribution.
    """
    if min(freqs.values(), default=0) < 0:
        raise ValueError("negative frequency in distribution estimate")
    total = sum(freqs.values())
    if total == 0:
        raise ValueError("cannot normalize a zero-mass frequency table")
    # keys with equal frequencies share one value object: models stay small
    values = {f: f / total for f in set(freqs.values())}
    return {key: values[f] for key, f in freqs.items()}


def mle_word_distribution(freqs: DistributedFrequencies, cluster: int) -> dict:
    """Word distribution of one cluster from its distributed frequencies."""
    return mle_distribution(freqs.cluster_words[cluster])


def pack_tokens(
    tokens: Iterable[str], dists: Sequence[Mapping[str, object]]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Collapse a token sequence into per-type counts and a component
    probability matrix.

    Aggregating by word type with multiplicity leaves every per-token
    sum unchanged while making the arithmetic order deterministic.
    Token types keep first-appearance order.  ``tokens`` may also be a
    ``{word: count}`` mapping, whose counts must be positive; its key
    order is the type order.  Every type must have positive probability
    under at least one component, otherwise no weight assignment can
    explain it; such tokens are a caller error (drop them upstream).
    """
    if not dists:
        raise ValueError("need at least one mixture component")
    counter = Counter(tokens)
    if not counter:
        raise ValueError("no tokens to estimate from")
    for word, count in counter.items():
        if count <= 0:
            raise ValueError(f"token {word!r} has non-positive count {count}")
    words = list(counter)
    counts = np.array([counter[w] for w in words], dtype=np.float64)
    probs = np.array(
        [[float(dist.get(w, 0.0)) for w in words] for dist in dists],
        dtype=np.float64,
    )
    uncovered = [w for t, w in enumerate(words) if probs[:, t].sum() <= 0.0]
    if uncovered:
        raise ValueError(
            "token types with zero probability under every component: "
            + ", ".join(sorted(uncovered)[:5])
        )
    return words, counts, probs


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


def _eval_packed(counts, probs, theta):
    loglik, grad = loglik_grad(counts, probs, theta)
    # the weighted gradient always averages to one over the simplex
    assert abs(float(np.asarray(theta) @ grad) - 1.0) <= 1e-10
    return loglik, grad


def log_likelihood(theta, dists, tokens) -> float:
    """Per-token-average natural-log likelihood of a mixture.

    ``(1/N) sum_t log(sum_j theta_j P_j(w_t))`` over the token
    sequence; ``dists`` holds one word-probability mapping per
    component.
    """
    _, counts, probs = pack_tokens(tokens, dists)
    loglik, _ = _eval_packed(counts, probs, theta)
    return loglik


def gradient(theta, dists, tokens) -> np.ndarray:
    """Gradient of ``log_likelihood`` in the mixture weights.

    Component j is ``(1/N) sum_t P_j(w_t) / sum_k theta_k P_k(w_t)``.
    """
    _, counts, probs = pack_tokens(tokens, dists)
    _, grad = _eval_packed(counts, probs, theta)
    return grad


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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class EmResult:
    theta: tuple[float, ...]
    iterations: int
    log_likelihood: float
    converged: bool


def em_fit(
    dists: Sequence[Mapping[str, object]],
    tokens: Iterable[str],
    config: EmConfig | None = None,
    trace: list | None = None,
) -> EmResult:
    """Fit mixture weights to a token sequence.

    ``dists`` are fixed per-cluster word distributions; only the
    weights move.  ``tokens`` is a token sequence or a ``{word: count}``
    mapping of positive counts; both give the same fit.  Runs until the
    likelihood improvement drops below the tolerance or the iteration cap is hit.  At ``eta = 1`` the
    likelihood is checked to be non-decreasing.  When ``trace`` is a
    list, an ``(evaluation, log_likelihood)`` pair is appended for
    every likelihood evaluation, starting with the initial weights.
    """
    cfg = config or EmConfig()
    _, counts, probs = pack_tokens(tokens, dists)
    m = len(dists)
    if cfg.initial_theta is not None:
        theta = np.ascontiguousarray(cfg.initial_theta, dtype=np.float64)
        if theta.shape != (m,):
            raise ValueError("initial weights do not match component count")
        if np.any(theta < 0) or abs(float(theta.sum()) - 1.0) > 1e-9:
            raise ValueError("initial weights must form a distribution")
    else:
        theta = np.full(m, 1.0 / m)

    loglik, grad = _eval_packed(counts, probs, theta)
    if trace is not None:
        trace.append((1, loglik))
    updates = 0
    converged = False
    while updates < cfg.max_iterations:
        theta = em_step(theta, grad, cfg.eta)
        updates += 1
        previous = loglik
        loglik, grad = _eval_packed(counts, probs, theta)
        if trace is not None:
            trace.append((updates + 1, loglik))
        if cfg.eta == 1.0:
            assert loglik >= previous - 1e-12
        if abs(loglik - previous) < cfg.tolerance:
            converged = True
            break
    return EmResult(tuple(float(x) for x in theta), updates, loglik, converged)

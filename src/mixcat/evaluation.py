"""Micro-averaged precision/recall, threshold sweeps, and break-even.

Evaluation pools decisions across every (document, category) pair:
precision is the share of positive decisions that were right, recall
the share of gold-positive pairs that were found.  Sweeping the
rejection threshold epsilon trades the two off; the break-even point
is the value where they meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from mixcat.corpus import LabeledCorpus
from mixcat.models import doc_term_table, table_scores


@dataclass(frozen=True)
class ContingencyCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


@dataclass(frozen=True)
class PrecisionRecall:
    """Micro-averaged precision and recall.

    An undefined ratio (empty denominator) is reported as 1.0 with the
    matching ``*_defined`` flag cleared: making no positive claims is
    vacuously precise.
    """

    precision: float
    recall: float
    precision_defined: bool = True
    recall_defined: bool = True


def pr_from_counts(counts: ContingencyCounts) -> PrecisionRecall:
    claimed = counts.tp + counts.fp
    relevant = counts.tp + counts.fn
    precision = counts.tp / claimed if claimed else 1.0
    recall = counts.tp / relevant if relevant else 1.0
    return PrecisionRecall(precision, recall, claimed > 0, relevant > 0)


@dataclass(frozen=True)
class CurvePoint:
    epsilon: float
    precision: float
    recall: float


@dataclass(frozen=True)
class PRCurve:
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class BreakEven:
    """Break-even value plus how it was obtained.

    kind is "exact" (a sweep point had precision == recall > 0; a
    point where both are 0 has no true positives and is skipped),
    "interpolated" (linear interpolation at a sign change of
    precision - recall), or "extrapolated" (no crossing anywhere: the
    midpoint of the closest pair, to be read with caution).
    """

    value: float
    kind: str


def default_epsilon_grid(maximum: float = 0.5, step: float = 0.005) -> tuple[float, ...]:
    """Evenly spaced thresholds from 0 to ``maximum`` inclusive, at most 10**6."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    if not (maximum >= 0 and math.isfinite(maximum)):
        raise ValueError("maximum must be nonnegative and finite")
    # the last index, kept a float so that an overflowing quotient stays inf
    last = maximum / step + 1e-9
    if last >= 1e6:
        raise ValueError(f"a grid to {maximum!r} in steps of {step!r} has over 10**6 points")
    return tuple(k * step for k in range(int(last) + 1))


def _validate_grid(grid: Sequence[float]) -> None:
    if len(grid) == 0:
        raise ValueError("epsilon grid is empty")
    if grid[0] != 0.0:
        raise ValueError("epsilon grid must start at 0")
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("epsilon grid must be strictly increasing")


def score_documents(models: Sequence, corpus: LabeledCorpus) -> dict:
    """Score every (document, category) pair once.

    Returns a map from (document index, category) to the normalized
    score (None when the document gave no evidence for that model).
    The test documents are counted once into a doc-term table; each
    model then scores all of them from its terms for the table's
    distinct words.  The scores equal ``classify_document``'s.
    """
    if not models:
        raise ValueError("no models to evaluate")
    if not corpus.documents:
        raise ValueError("no test documents to evaluate")
    seen = set()
    for model in models:
        if model.category in seen:
            raise ValueError(f"two models for category {model.category!r}")
        seen.add(model.category)
    table = doc_term_table(document.tokens for document in corpus.documents)
    per_model = [table_scores(model, table) for model in models]
    return {
        (index, model.category): scores[index]
        for index in range(len(corpus.documents))
        for model, scores in zip(models, per_model)
    }


def curve_from_scores(
    scores: Mapping, gold: Mapping, epsilon_grid: Sequence[float]
) -> PRCurve:
    """Micro-averaged precision and recall at every threshold of a grid.

    ``scores`` maps every (document, category) pair to its score (None
    for no evidence) and ``gold`` maps documents to their label sets.
    A None or NaN score is never claimed.
    At threshold epsilon a pair is claimed when its score exceeds
    epsilon (``threshold_outcome``), so the claimed pairs are a suffix
    of the sorted scores: one sort gives every point, with the same
    ratios as counting the thresholded pairs one by one.
    """
    grid = tuple(epsilon_grid)
    _validate_grid(grid)
    values, hits = [], []
    relevant = 0
    for (doc_id, category), score in scores.items():
        hit = category in gold[doc_id]
        relevant += hit
        # threshold_outcome claims neither None nor NaN at any epsilon
        if score is not None and not math.isnan(score):
            values.append(score)
            hits.append(hit)
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values)
    # true positives among the sorted pairs from each position on
    tail_hits = np.cumsum(np.asarray(hits, dtype=np.int64)[order][::-1])[::-1]
    tail_hits = np.append(tail_hits, 0).tolist()
    firsts = np.searchsorted(values[order], grid, side="right").tolist()
    points = []
    for epsilon, first in zip(grid, firsts):
        tp = tail_hits[first]
        claimed = len(values) - first
        counts = ContingencyCounts(
            tp, claimed - tp, relevant - tp, len(scores) - claimed - relevant + tp
        )
        pr = pr_from_counts(counts)
        points.append(CurvePoint(epsilon, pr.precision, pr.recall))
    return PRCurve(tuple(points))


def sweep(
    models: Sequence,
    corpus: LabeledCorpus,
    epsilon_grid: Sequence[float] | None = None,
) -> PRCurve:
    """Precision-recall curve over a grid of rejection thresholds."""
    grid = epsilon_grid if epsilon_grid is not None else default_epsilon_grid()
    gold = {
        index: document.labels for index, document in enumerate(corpus.documents)
    }
    return curve_from_scores(score_documents(models, corpus), gold, grid)


def break_even(curve: PRCurve) -> BreakEven:
    """Extract the precision = recall value from a swept curve."""
    points = curve.points
    if not points:
        raise ValueError("cannot take the break-even point of an empty curve")
    for point in points:
        if point.precision == point.recall and point.precision > 0.0:
            return BreakEven(point.precision, "exact")
    for a, b in zip(points, points[1:]):
        da = a.precision - a.recall
        db = b.precision - b.recall
        if da * db < 0:
            t = da / (da - db)
            return BreakEven(a.precision + t * (b.precision - a.precision),
                             "interpolated")
    closest = min(points, key=lambda p: abs(p.precision - p.recall))
    return BreakEven((closest.precision + closest.recall) / 2.0, "extrapolated")

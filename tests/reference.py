"""Reference implementations of accessors that only the tests need.

The count accessors read a ``FrequencyTable`` through its matrix, one
cell or one sum at a time, so the tests can state per-word facts
without the library keeping a per-word view of its counts.
``contingency`` and ``micro_pr`` pool decisions one (document,
category) pair at a time: the sweep's counts off one sort must agree
with them.  ``pack_tokens`` turns word-keyed mixture components and
tokens into the arrays ``em_fit`` takes.  ``from_member_sets`` builds a ``Clustering``'s member matrix
one member at a time, and ``sides`` and ``cluster_dicts`` read a
model's vectors as word-keyed dicts.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from mixcat import (
    Clustering,
    ContingencyCounts,
    Decision,
    PrecisionRecall,
    pr_from_counts,
)

OUTCOMES = ("positive", "negative", "unclassified")


def count(table, category: str, word: str) -> int:
    """f(w|c): occurrences of ``word`` in documents labeled ``category``."""
    row = table.categories.index(category)
    if word not in table.vocabulary:
        return 0
    return table.matrix[row, table.vocabulary.index(word)].item()


def word_total(table, word: str) -> int:
    """f(w): the word's count summed over categories."""
    if word not in table.vocabulary:
        return 0
    return table.matrix[:, table.vocabulary.index(word)].sum().item()


def category_total(table, category: str) -> int:
    """f(c): all token occurrences attributed to ``category``."""
    return table.matrix[table.categories.index(category)].sum().item()


def as_dict(table) -> dict[str, dict[str, int]]:
    """Nonzero counts as nested dicts, category -> word -> count.

    Each row lists its words in vocabulary order.
    """
    return {
        category: {w: n for w, n in zip(table.vocabulary, row) if n}
        for category, row in zip(table.categories, table.matrix.tolist())
    }


def pack_tokens(tokens, dists) -> tuple[np.ndarray, np.ndarray]:
    """``em_fit``'s arrays from a token sequence or ``{word: count}``
    mapping and one ``{word: probability}`` dict per component.

    Returns the m x n component matrix and the n counts, one column per
    distinct word in first-appearance (or key) order; a word a dict
    lacks has probability 0 under that component.
    """
    counter = Counter(tokens)
    probs = [[dist.get(word, 0.0) for word in counter] for dist in dists]
    return np.array(probs, np.float64), np.array(list(counter.values()))


def clusters_of(clustering, word: str) -> tuple[int, ...]:
    """Cluster indices holding ``word`` (empty if discarded or unknown)."""
    return clustering.assignments.get(word, ())


def from_member_sets(clusters, vocabulary, related_categories) -> Clustering:
    """Assemble a Clustering from explicit member sets, one member at a time.

    Vocabulary words outside every cluster are discarded, other members
    ignored.
    """
    clusters, vocabulary = tuple(clusters), tuple(vocabulary)
    member = np.zeros((len(clusters), len(vocabulary)), bool)
    for j, members in enumerate(clusters):
        for i, word in enumerate(vocabulary):
            member[j, i] = word in members
    return Clustering(
        vocabulary,
        tuple(related_categories) if related_categories is not None else None,
        member,
    )


def sides(model) -> tuple[dict[str, float], dict[str, float]]:
    """A ``wbm`` or ``cos`` model's two sides as ``{word: value}`` dicts."""
    return tuple(
        dict(zip(model.vocabulary, side.tolist()))
        for side in (model.positive, model.negative)
    )


def cluster_dicts(model) -> tuple[dict[str, float], ...]:
    """An ``fmm`` model's cluster word distributions as ``{member: probability}``."""
    vocabulary = model.clustering.vocabulary
    return tuple(
        dict(zip(compress(vocabulary, row), values.tolist()))
        for row, values in zip(model.clustering.member.tolist(), model.cluster_words)
    )


def cluster_vectors(clustering, cluster_words) -> tuple[list[float], ...]:
    """``{member: probability}`` dicts as the vectors an ``fmm`` model holds:
    each cluster's values at its members, in vocabulary order."""
    return tuple(
        [dist[w] for w in compress(clustering.vocabulary, row)]
        for row, dist in zip(clustering.member.tolist(), cluster_words)
    )


def pairs(counts: ContingencyCounts) -> int:
    return counts.tp + counts.fp + counts.fn + counts.tn


def _outcome_of(decision) -> str:
    outcome = decision.outcome if isinstance(decision, Decision) else decision
    if outcome not in OUTCOMES:
        raise ValueError(f"not a decision outcome: {outcome!r}")
    return outcome


def contingency(
    decisions: Mapping,
    gold: Mapping[object, frozenset | set],
    categories: Sequence[str] | None = None,
) -> ContingencyCounts:
    """Pool decisions into one contingency table.

    ``decisions`` maps (document id, category) to a Decision or a bare
    outcome string; ``gold`` maps document ids to their true label
    sets.  Every (document, category) pair must be decided, no more
    and no fewer; unclassified counts as not claiming the category.
    """
    if categories is None:
        categories = sorted({c for _, c in decisions})
    known = set(categories)
    for doc_id, category in decisions:
        if doc_id not in gold:
            raise ValueError(f"decision for unknown document {doc_id!r}")
        if category not in known:
            raise ValueError(f"decision for unknown category {category!r}")
    expected = len(gold) * len(known)
    if len(decisions) != expected:
        raise ValueError(
            f"need one decision per (document, category) pair: "
            f"expected {expected}, got {len(decisions)}"
        )
    tp = fp = fn = tn = 0
    for (doc_id, category), decision in decisions.items():
        positive = _outcome_of(decision) == "positive"
        relevant = category in gold[doc_id]
        if positive and relevant:
            tp += 1
        elif positive:
            fp += 1
        elif relevant:
            fn += 1
        else:
            tn += 1
    return ContingencyCounts(tp, fp, fn, tn)


def micro_pr(
    decisions: Mapping,
    gold: Mapping,
    categories: Sequence[str] | None = None,
) -> PrecisionRecall:
    """Micro-averaged precision and recall of a decision set."""
    return pr_from_counts(contingency(decisions, gold, categories))

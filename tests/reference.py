"""Reference implementations of accessors that only the tests need.

The count accessors read a ``FrequencyTable`` through its matrix, one
cell or one sum at a time, so the tests can state per-word facts
without the library keeping a per-word view of its counts.
``contingency`` and ``micro_pr`` pool decisions one (document,
category) pair at a time: the sweep's counts off one sort must agree
with them.  ``from_member_sets`` builds a ``Clustering`` one member at
a time, the reference for ``from_member_matrix``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

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


def word_freq(distributed, cluster: int, word: str):
    """A word's share in one cluster of a ``DistributedFrequencies``."""
    return distributed.cluster_words[cluster].get(word, 0)


def cluster_total(distributed, cluster: int):
    """The sum of one cluster's word shares."""
    return sum(distributed.cluster_words[cluster].values())


def clusters_of(clustering, word: str) -> tuple[int, ...]:
    """Cluster indices holding ``word`` (empty if discarded or unknown)."""
    return clustering.assignments.get(word, ())


def from_member_sets(clusters, vocabulary, related_categories) -> Clustering:
    """Assemble a Clustering from explicit member sets.

    Derives the assignment map; vocabulary words outside every cluster
    are discarded, other members ignored.
    """
    clusters = tuple(clusters)
    ids: dict[str, tuple[int, ...]] = {}
    for j, members in enumerate(clusters):
        single = (j,)  # shared by every word found in cluster j alone
        for word in members:
            ids[word] = ids[word] + single if word in ids else single
    return Clustering(
        len(clusters),
        tuple(vocabulary),
        tuple(related_categories) if related_categories is not None else None,
        {w: ids[w] for w in vocabulary if w in ids},
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

"""Word clustering schemes and per-cluster frequency distribution.

Two schemes are provided.  The threshold scheme builds one cluster per
category and assigns a word to every cluster whose related category
holds more than a ``gamma`` share of the word's occurrences; clusters
may overlap for gamma below 0.5 and are provably disjoint at or above
it.  The rank scheme (two categories only) builds three hard clusters
from top-frequency ranks.

Words no cluster accepts are *discarded*: they carry no category signal
and are skipped during classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from mixcat.counts import FrequencyTable


@dataclass(frozen=True)
class Clustering:
    """Cluster membership over a vocabulary.

    ``m`` counts the clusters, empty ones included.  ``related_categories``
    ties cluster i to category i for the threshold scheme and is None for
    the rank scheme.  ``assignments`` maps each non-discarded word to its
    cluster indices, in vocabulary order; ``clusters`` and ``discarded``
    are derived from it.
    """

    m: int
    vocabulary: tuple[str, ...]
    related_categories: tuple[str, ...] | None
    assignments: Mapping[str, tuple[int, ...]]

    @property
    def clusters(self) -> tuple[frozenset[str], ...]:
        items = self.assignments.items()
        return tuple(frozenset(w for w, js in items if j in js) for j in range(self.m))

    @property
    def discarded(self) -> frozenset[str]:
        return frozenset(self.vocabulary).difference(self.assignments)

    def clusters_of(self, word: str) -> tuple[int, ...]:
        """Cluster indices holding ``word`` (empty if discarded or unknown)."""
        return self.assignments.get(word, ())

    def is_hard(self) -> bool:
        """True when no word sits in more than one cluster."""
        return all(len(ids) == 1 for ids in self.assignments.values())


def from_member_sets(clusters, vocabulary, related_categories) -> Clustering:
    """Assemble a Clustering from explicit member sets.

    Derives the assignment map; vocabulary words outside every cluster
    are discarded, other members ignored.  Also the rebuild path for
    persisted models.
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


def soft_clusters(table: FrequencyTable, gamma: float) -> Clustering:
    """One cluster per category; a word joins cluster i when its share
    of occurrences in category i strictly exceeds ``gamma``.

    Requires 0 <= gamma < 1.  A word with zero frequency in a category
    never joins that category's cluster, and a word exceeding the
    threshold nowhere is discarded.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    clusters: list[set[str]] = [set() for _ in table.categories]
    for word in table.vocabulary:
        total = table.word_total(word)
        if total == 0:
            continue
        for i, category in enumerate(table.categories):
            f = table.count(category, word)
            if f > 0 and f / total > gamma:
                clusters[i].add(word)
    return from_member_sets(clusters, table.vocabulary, table.categories)


def rank_clusters(table: FrequencyTable, top_l: int, top_m: int) -> Clustering:
    """Three hard clusters from frequency ranks, for a two-category table.

    Cluster one holds words among the ``top_l`` most frequent in the
    first category but not among the ``top_m`` most frequent in the
    second; cluster two is the mirror image; cluster three holds the
    remaining vocabulary.  Rank lists contain only words with nonzero
    frequency, ordered by descending count with lexicographic
    tie-breaking.
    """
    if len(table.categories) != 2:
        raise ValueError("rank clustering is defined for exactly two categories")
    if top_l < 1 or top_m < 1:
        raise ValueError("rank cutoffs must be at least 1")

    def top(category: str, cutoff: int) -> set[str]:
        ranked = sorted(
            (w for w in table.vocabulary if table.count(category, w) > 0),
            key=lambda w: (-table.count(category, w), w),
        )
        return set(ranked[:cutoff])

    first, second = table.categories
    k1 = top(first, top_l) - top(second, top_m)
    k2 = top(second, top_l) - top(first, top_m)
    k3 = set(table.vocabulary) - k1 - k2
    return from_member_sets([k1, k2, k3], table.vocabulary, None)


@dataclass(frozen=True)
class DistributedFrequencies:
    """Per-cluster word frequencies as exact integer counts.

    For every assigned word the cluster shares sum back to the word's
    total count.  Only an uneven split makes a ``Fraction``; the binary
    protocol never does.  Rounding happens once, in the estimators.
    """

    cluster_words: tuple[dict[str, int | Fraction], ...]

    def word_freq(self, cluster: int, word: str) -> int | Fraction:
        return self.cluster_words[cluster].get(word, 0)

    def cluster_total(self, cluster: int) -> int | Fraction:
        return sum(self.cluster_words[cluster].values())


def distribute_frequencies(
    table: FrequencyTable, clustering: Clustering
) -> DistributedFrequencies:
    """Spread each word's total count over the clusters holding it.

    A word in a single cluster keeps its full count there.  A word in
    several clusters is split in proportion to its frequency in each
    cluster's related category, which is why this operation requires a
    threshold-scheme clustering.
    """
    if clustering.related_categories is None:
        raise ValueError("frequency distribution needs category-related clusters")
    rows: list[dict[str, int | Fraction]] = [{} for _ in range(clustering.m)]
    for word, ids in clustering.assignments.items():
        total = table.word_total(word)
        if len(ids) == 1:
            rows[ids[0]][word] = total
            continue
        weights = [table.count(clustering.related_categories[j], word) for j in ids]
        denom = sum(weights)
        for j, weight in zip(ids, weights):
            # assignment implies a positive count in the related category
            assert weight > 0, (word, j)
            share, rest = divmod(total * weight, denom)
            rows[j][word] = Fraction(total * weight, denom) if rest else share
    return DistributedFrequencies(tuple(rows))

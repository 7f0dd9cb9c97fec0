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
from typing import TYPE_CHECKING, Mapping

import numpy as np

from mixcat.counts import FrequencyTable

if TYPE_CHECKING:  # only an uneven split builds one; see distribute_frequencies
    from fractions import Fraction


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
    if not table.categories:  # no row to pack into the keys below
        return Clustering(0, table.vocabulary, (), {})
    cells = table.matrix
    # counts below 2**53 convert to float64 exactly and IEEE division is
    # correctly rounded, so each share equals Python's int / int; a word
    # with no occurrences gives 0/0, which joins nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        member = (cells > 0) & (cells / cells.sum(axis=0) > gamma)
    # one tuple per membership pattern, shared by every word that has it;
    # a word's pattern, packed into bytes, is its key
    packed = np.ascontiguousarray(np.packbits(member, axis=0).T)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    shared = [tuple(np.flatnonzero(member[:, i]).tolist()) for i in first.tolist()]
    found = map(shared.__getitem__, which.tolist())
    assignments = {word: ids for word, ids in zip(table.vocabulary, found) if ids}
    return Clustering(
        len(table.categories), table.vocabulary, table.categories, assignments
    )


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

    vocabulary = table.vocabulary
    n = len(vocabulary)
    # each word's position in Python's string order breaks count ties
    lexical_rank = np.empty(n, np.int64)
    lexical_rank[sorted(range(n), key=vocabulary.__getitem__)] = np.arange(n)

    def top(row: int, cutoff: int) -> np.ndarray:
        counts = table.matrix[row]
        ranked = np.flatnonzero(counts)
        ranked = ranked[np.lexsort((lexical_rank[ranked], -counts[ranked]))]
        return ranked[:cutoff]

    in_k1 = np.zeros(n, bool)
    in_k1[top(0, top_l)] = True
    in_k1[top(1, top_m)] = False
    in_k2 = np.zeros(n, bool)
    in_k2[top(1, top_l)] = True
    in_k2[top(0, top_m)] = False
    # k3, k1, k2 and both, indexed by in_k1 + 2 * in_k2
    shared = ((2,), (0,), (1,), (0, 1))
    found = map(shared.__getitem__, (in_k1 + 2 * in_k2).tolist())
    return Clustering(3, vocabulary, None, dict(zip(vocabulary, found)))


@dataclass(frozen=True)
class DistributedFrequencies:
    """Per-cluster word frequencies as exact integer counts.

    For every assigned word the cluster shares sum back to the word's
    total count.  Only an uneven split makes a ``Fraction``; the binary
    protocol never does.  Rounding happens once, in the estimators.
    """

    cluster_words: tuple[dict[str, int | Fraction], ...]


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
    totals = table.matrix.sum(axis=0).tolist()
    # Python ints from here on: total * weight may exceed the int64 range
    counts = dict(zip(table.categories, table.matrix.tolist()))
    related = [counts[c] for c in clustering.related_categories]
    rows: list[dict[str, int | Fraction]] = [{} for _ in range(clustering.m)]
    found = map(clustering.assignments.get, table.vocabulary)
    for column, (word, ids, total) in enumerate(zip(table.vocabulary, found, totals)):
        if ids is None:
            continue
        if len(ids) == 1:
            rows[ids[0]][word] = total
            continue
        weights = [related[j][column] for j in ids]
        denom = sum(weights)
        for j, weight in zip(ids, weights):
            # assignment implies a positive count in the related category
            assert weight > 0, (word, j)
            share, rest = divmod(total * weight, denom)
            if rest:
                from fractions import Fraction  # kept off the import path

                share = Fraction(total * weight, denom)
            rows[j][word] = share
    return DistributedFrequencies(tuple(rows))

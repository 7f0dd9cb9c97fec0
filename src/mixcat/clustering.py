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
from itertools import compress
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
        return max(map(len, self.assignments.values()), default=1) == 1


def from_member_matrix(member: np.ndarray, vocabulary, related_categories) -> Clustering:
    """Assemble a Clustering from an m x V boolean member matrix.

    Row j marks the words of ``vocabulary`` in cluster j; a word in no
    row is discarded.  Every word with the same membership pattern
    shares one index tuple.
    """
    vocabulary = tuple(vocabulary)
    if related_categories is not None:
        related_categories = tuple(related_categories)
    if not len(member):  # no row to pack into the keys below
        return Clustering(0, vocabulary, related_categories, {})
    # a word's pattern, packed into bytes, is its key; up to 64 clusters
    # it is one integer, which np.unique sorts about three times faster
    # than raw bytes
    packed = np.packbits(member, axis=0).T
    width = 8 * -(-packed.shape[1] // 8)
    padded = np.zeros((len(packed), width), np.uint8)
    padded[:, : packed.shape[1]] = packed
    keys = padded.view("<u8" if width == 8 else f"V{width}").ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    clusters = range(len(member))
    shared = [tuple(compress(clusters, bits)) for bits in member[:, first].T.tolist()]
    assigned = member.any(axis=0)
    found = map(shared.__getitem__, which.ravel()[assigned].tolist())
    assignments = dict(zip(compress(vocabulary, assigned.tolist()), found))
    return Clustering(len(member), vocabulary, related_categories, assignments)


def soft_clusters(table: FrequencyTable, gamma: float) -> Clustering:
    """One cluster per category; a word joins cluster i when its share
    of occurrences in category i strictly exceeds ``gamma``.

    Requires 0 <= gamma < 1.  A word with zero frequency in a category
    never joins that category's cluster, and a word exceeding the
    threshold nowhere is discarded.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    cells = table.matrix
    # counts below 2**53 convert to float64 exactly and IEEE division is
    # correctly rounded, so each share equals Python's int / int; a word
    # with no occurrences gives 0/0, which joins nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        member = (cells > 0) & (cells / cells.sum(axis=0) > gamma)
    return from_member_matrix(member, table.vocabulary, table.categories)


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
    member = np.array((in_k1, in_k2, ~(in_k1 | in_k2)))
    return from_member_matrix(member, vocabulary, None)


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

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

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from mixcat.counts import FrequencyTable


@dataclass(frozen=True, eq=False)
class Clustering:
    """Cluster membership over a vocabulary, as one read-only matrix.

    ``member`` is an m x V boolean matrix: row j marks the words of
    ``vocabulary`` in cluster j, and a word in no row is discarded.
    ``related_categories`` ties cluster i to category i for the
    threshold scheme and is None for the rank scheme.  ``m``,
    ``assignments``, ``clusters`` and ``discarded`` are derived from the
    matrix on each read and never kept; the library itself reads only
    the matrix.
    """

    vocabulary: tuple[str, ...]
    related_categories: tuple[str, ...] | None
    member: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.member.setflags(write=False)

    @property
    def m(self) -> int:
        """The number of clusters, empty ones included."""
        return len(self.member)

    @property
    def assignments(self) -> dict[str, tuple[int, ...]]:
        """Each non-discarded word's cluster indices, in vocabulary order."""
        clusters = range(self.m)
        return {
            word: tuple(compress(clusters, bits))
            for word, bits in zip(self.vocabulary, self.member.T.tolist())
            if True in bits
        }

    @property
    def clusters(self) -> tuple[frozenset[str], ...]:
        rows = self.member.tolist()
        return tuple(frozenset(compress(self.vocabulary, row)) for row in rows)

    @property
    def discarded(self) -> frozenset[str]:
        return frozenset(compress(self.vocabulary, (~self.member.any(axis=0)).tolist()))

    def is_hard(self) -> bool:
        """True when no word sits in more than one cluster."""
        return bool(self.member.sum(axis=0).max(initial=0) <= 1)

    def __eq__(self, other):
        if type(other) is not Clustering:
            return NotImplemented
        return (
            self.vocabulary == other.vocabulary
            and self.related_categories == other.related_categories
            and np.array_equal(self.member, other.member)  # shape and bits
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
    cells = table.matrix
    # counts below 2**53 convert to float64 exactly and IEEE division is
    # correctly rounded, so each share equals Python's int / int; a word
    # with no occurrences gives 0/0, which joins nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        member = (cells > 0) & (cells / cells.sum(axis=0) > gamma)
    return Clustering(table.vocabulary, table.categories, member)


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
    return Clustering(vocabulary, None, member)


def distribute_frequencies(table: FrequencyTable, clustering: Clustering) -> np.ndarray:
    """Spread each word's total count over the clusters holding it.

    Returns a read-only m x V matrix: row j holds cluster j's share of
    each word, 0 for a non-member.  A word in a single cluster keeps its
    full count there.  A word in several clusters is split in proportion
    to its frequency in each cluster's related category, which is why
    this operation requires a threshold-scheme clustering over the
    table's vocabulary, in its order.  The matrix is int64 unless some
    split is uneven, which only a table of three or more categories can
    have: it is then an object array of Python ints and exact
    ``Fraction``s.  Rounding happens once, in the estimators.
    """
    if clustering.related_categories is None:
        raise ValueError("frequency distribution needs category-related clusters")
    if clustering.vocabulary != table.vocabulary:
        raise ValueError("the clustering is not over the table's vocabulary")
    member = clustering.member
    order = [table.categories.index(c) for c in clustering.related_categories]
    weights = np.where(member, table.matrix[order], 0)
    totals = table.matrix.sum(axis=0)
    shares = np.where(member, totals, 0)
    split = np.flatnonzero(member.sum(axis=0) > 1)
    if split.size:
        # assignment implies a positive count in the related category
        assert (weights[:, split] > 0)[member[:, split]].all()
        # Python ints: total * weight may exceed the int64 range
        products = weights[:, split].astype(object) * totals[split].astype(object)
        denominators = weights[:, split].astype(object).sum(axis=0)
        shares[:, split] = products // denominators
        uneven = np.argwhere(products % denominators != 0).tolist()
        if uneven:
            from fractions import Fraction  # kept off the import path

            shares = shares.astype(object)
            for j, k in uneven:
                shares[j, split[k]] = Fraction(products[j, k], denominators[k])
    shares.setflags(write=False)
    return shares

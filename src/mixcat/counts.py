"""Word frequency statistics over labeled corpora.

Counts are exact integers; probabilities are derived later and never
stored here.  Per-document counting commutes, so tables built from any
document order agree, and a finished table is immutable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from mixcat.corpus import LabeledCorpus


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Per-category word counts as one read-only int64 matrix.

    ``matrix`` has one row per category and one column per vocabulary
    word, in the order of ``categories`` and ``vocabulary``; it is the
    only copy of the counts.  The word marginal f(w) is a column sum, so
    a token occurrence in a document with k labels contributes k to it.
    This keeps every per-category share f(w|c)/f(w) a proper fraction
    that sums to one over categories.
    """

    categories: tuple[str, ...]
    vocabulary: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)


def count_frequencies(corpus: LabeledCorpus) -> FrequencyTable:
    """Count token occurrences per category.

    A token in a document with several labels increments every labeled
    category's cell.  The vocabulary lists every token seen, in
    first-appearance order.
    """
    cells = {c: Counter() for c in corpus.categories}
    for doc in corpus.documents:
        for label in doc.labels:
            cells[label].update(doc.tokens)
    vocabulary = dict.fromkeys(chain.from_iterable(d.tokens for d in corpus.documents))
    return _table(cells, tuple(vocabulary))


def count_pools(pools: Sequence[tuple[str, Sequence[str]]]) -> FrequencyTable:
    """Build a table from named token pools, one pseudo-category per pool.

    Used for the binary protocol, where the two pools are a category's
    documents and its complement's.
    """
    cells: dict[str, Counter] = {}
    for name, tokens in pools:
        if name in cells:
            raise ValueError(f"duplicate pool name: {name!r}")
        cells[name] = Counter(tokens)
    # each row lists its words in first-appearance order
    vocabulary = dict.fromkeys(chain.from_iterable(cells.values()))
    return _table(cells, tuple(vocabulary))


def _table(cells: Mapping[str, Counter], vocabulary: tuple[str, ...]) -> FrequencyTable:
    """The table of ``cells``: their counts in one matrix, in vocabulary order."""
    n = len(vocabulary)
    matrix = np.empty((len(cells), n), np.int64)
    for row, counts in zip(matrix, cells.values()):
        row[:] = np.fromiter(map(counts.get, vocabulary, repeat(0)), np.int64, n)
    matrix.setflags(write=False)
    return FrequencyTable(tuple(cells), vocabulary, matrix)


def cluster_frequencies(table: FrequencyTable, clustering) -> np.ndarray:
    """Aggregate word counts into cluster counts.

    Returns the C x m int64 matrix of f(k|c): row i is the table's
    category i, column j cluster j, and a cluster's count is the sum of
    its member words' counts in that category.  Words the clustering
    discarded contribute nowhere.  ``clustering`` must be over the
    table's vocabulary, in its order.
    """
    if clustering.vocabulary != table.vocabulary:
        raise ValueError("the clustering is not over the table's vocabulary")
    return table.matrix @ clustering.member.T

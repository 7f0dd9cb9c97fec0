"""Word frequency statistics over labeled corpora.

Counts are exact integers; probabilities are derived later and never
stored here.  Per-document counting commutes, so tables built from any
document order agree, and a finished table is immutable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from mixcat.corpus import LabeledCorpus


@dataclass(frozen=True)
class FrequencyTable:
    """Per-category word counts with derived marginals.

    The word marginal f(w) is defined as the sum of the per-category
    cells, so a token occurrence in a document with k labels contributes
    k to it.  This keeps every per-category share f(w|c)/f(w) a proper
    fraction that sums to one over categories.
    """

    categories: tuple[str, ...]
    vocabulary: tuple[str, ...]
    _cells: dict[str, dict[str, int]] = field(repr=False)

    def count(self, category: str, word: str) -> int:
        """f(w|c): occurrences of ``word`` in documents labeled ``category``."""
        return self._cells[category].get(word, 0)

    def word_total(self, word: str) -> int:
        """f(w): the word's count summed over categories."""
        return sum(row.get(word, 0) for row in self._cells.values())

    def category_total(self, category: str) -> int:
        """f(c): all token occurrences attributed to ``category``."""
        return sum(self._cells[category].values())

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Counts as plain nested dicts (category -> word -> count)."""
        return {c: dict(row) for c, row in self._cells.items()}


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
    return FrequencyTable(corpus.categories, tuple(vocabulary), cells)


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
    return FrequencyTable(tuple(cells), tuple(vocabulary), cells)


def cluster_frequencies(
    table: FrequencyTable, clustering
) -> dict[tuple[str, int], int]:
    """Aggregate word counts into cluster counts.

    Returns f(k|c) for every (category, cluster index) pair, where a
    cluster's count is the sum of its member words' counts in that
    category.  Words the clustering discarded contribute nowhere.
    """
    out: dict[tuple[str, int], int] = {}
    for j, words in enumerate(clustering.clusters):
        for category in table.categories:
            out[(category, j)] = sum(table.count(category, w) for w in words)
    return out

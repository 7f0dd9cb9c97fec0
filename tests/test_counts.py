"""Frequency tables over corpora and token pools."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    FrequencyTable,
    complement_corpus,
    count_frequencies,
    count_pools,
    parse_corpus,
    soft_clusters,
    cluster_frequencies,
)
from mixcat.models import category_table
from reference import as_dict, category_total, count, word_total


class TestCountFrequencies:
    def test_fixture_counts(self, sports_corpus):
        table = count_frequencies(sports_corpus)
        expected_c1 = {"racket": 4, "stroke": 1, "shot": 2, "goal": 1, "kick": 0, "ball": 2}
        expected_c2 = {"racket": 0, "stroke": 0, "shot": 0, "goal": 3, "kick": 2, "ball": 2}
        for word, expected in expected_c1.items():
            assert count(table, "c1", word) == expected
        for word, expected in expected_c2.items():
            assert count(table, "c2", word) == expected
        assert category_total(table, "c1") == 10
        assert category_total(table, "c2") == 7

    def test_vocabulary_first_appearance_order(self, sports_corpus):
        table = count_frequencies(sports_corpus)
        assert table.vocabulary == ("racket", "stroke", "shot", "ball", "goal", "kick")

    def test_word_total_sums_categories(self, sports_corpus):
        table = count_frequencies(sports_corpus)
        assert word_total(table, "ball") == 4
        assert word_total(table, "racket") == 4
        assert word_total(table, "missing") == 0

    def test_multi_label_document_counts_into_every_label(self):
        corpus = parse_corpus(io.StringIO("a,b\tx x y\nb\ty\n"))
        table = count_frequencies(corpus)
        assert count(table, "a", "x") == 2
        assert count(table, "b", "x") == 2
        # the marginal doubles with the double counting, keeping
        # per-category shares summing to one
        assert word_total(table, "x") == 4
        assert count(table, "a", "x") / word_total(table, "x") == 0.5

    def test_as_dict(self, sports_corpus):
        table = count_frequencies(sports_corpus)
        nested = as_dict(table)
        assert nested["c2"]["kick"] == 2
        nested["c2"]["kick"] = 99
        assert count(table, "c2", "kick") == 2  # a copy, not a view


class TestCountPools:
    def test_binary_fixture(self, binary_table):
        assert binary_table.categories == ("c1", "~c1")
        assert count(binary_table, "c1", "racket") == 4
        assert count(binary_table, "~c1", "goal") == 3
        assert count(binary_table, "~c1", "racket") == 0
        assert category_total(binary_table, "~c1") == 7

    def test_duplicate_pool_name(self):
        with pytest.raises(ValueError, match="duplicate pool name"):
            count_pools([("a", ("x",)), ("a", ("y",))])

    def test_empty_pool_allowed(self):
        table = count_pools([("a", ("x",)), ("b", ())])
        assert category_total(table, "b") == 0


class TestCountMatrix:
    def test_the_matrix_is_the_only_copy_of_the_counts(self):
        fields = [f.name for f in dataclasses.fields(FrequencyTable)]
        assert fields == ["categories", "vocabulary", "matrix"]
        # no field-wise equality that could skip the matrix
        assert count_pools([("a", ("x",))]) != count_pools([("a", ("x", "x"))])

    def test_degenerate_tables(self):
        empty = count_frequencies(parse_corpus([]))
        assert empty.matrix.shape == (0, 0)
        unlabeled = count_frequencies(parse_corpus(["\tx y"], require_labels=False))
        assert unlabeled.matrix.shape == (0, 2)
        assert word_total(unlabeled, "x") == 0
        table = count_pools([("a", ("x", "x")), ("b", ())])
        assert table.matrix.tolist() == [[2], [0]]
        unknown = (count(table, "b", "y"), word_total(table, "y"), word_total(empty, "y"))
        assert unknown == (0, 0, 0)
        assert all(type(value) is int for value in unknown)
        assert type(category_total(table, "b")) is int

    def test_matrix_is_read_only(self, binary_table):
        with pytest.raises(ValueError, match="read-only"):
            binary_table.matrix[0, 0] = 99


class TestClusterFrequencies:
    def test_threshold_fixture(self, binary_table):
        clustering = soft_clusters(binary_table, 0.5)
        freqs = cluster_frequencies(binary_table, clustering)
        # k1 = {racket, stroke, shot}; k2 = {goal, kick}; ball discarded
        assert binary_table.categories == ("c1", "~c1")
        assert freqs.dtype == np.int64
        assert freqs.tolist() == [[7, 1], [0, 5]]
        # the discarded word's counts appear nowhere
        total = freqs.sum()
        assert total == 17 - word_total(binary_table, "ball")


# The hand-written counting loops both tables were built with before
# they were counted with Counter, kept as the reference: each returns
# (categories, vocabulary, cells).


def reference_count_frequencies(corpus):
    cells = {c: {} for c in corpus.categories}
    vocabulary = []
    seen = set()
    for doc in corpus.documents:
        for token in doc.tokens:
            if token not in seen:
                seen.add(token)
                vocabulary.append(token)
            for label in doc.labels:
                row = cells[label]
                row[token] = row.get(token, 0) + 1
    return corpus.categories, tuple(vocabulary), cells


def reference_count_pools(pools):
    cells = {}
    vocabulary = []
    seen = set()
    for name, tokens in pools:
        row = {}
        cells[name] = row
        for token in tokens:
            if token not in seen:
                seen.add(token)
                vocabulary.append(token)
            row[token] = row.get(token, 0) + 1
    return tuple(cells), tuple(vocabulary), cells


def assert_matches_reference(table, reference):
    categories, vocabulary, cells = reference
    assert table.categories == categories
    assert table.vocabulary == vocabulary
    nested = as_dict(table)
    for category in categories:
        # the same cells; the matrix lists each row's words in vocabulary order
        row = cells[category]
        assert list(nested[category].items()) == [(w, row[w]) for w in vocabulary if w in row]
        for word in vocabulary:
            cell = count(table, category, word)
            assert type(cell) is int
            assert cell == cells[category].get(word, 0)
    # the matrix holds the same cells, one row per category in order
    assert table.matrix.dtype == np.int64
    assert table.matrix.tolist() == [
        [cells[category].get(word, 0) for word in vocabulary] for category in categories
    ]
    for word in vocabulary:
        total = word_total(table, word)
        assert type(total) is int
        assert total == sum(row.get(word, 0) for row in cells.values())


TOKENS = st.lists(st.sampled_from(("x", "y", "z", "w")), max_size=6)
# label fields may be empty, list several labels or repeat one; bodies
# may be empty
CORPUS_LINES = st.lists(
    st.tuples(st.lists(st.sampled_from("abc"), max_size=3), TOKENS), max_size=8
).map(lambda docs: [f"{','.join(labels)}\t{' '.join(body)}" for labels, body in docs])


class TestCountersMatchTheReference:
    @given(CORPUS_LINES)
    def test_count_frequencies(self, lines):
        corpus = parse_corpus(lines, require_labels=False)
        table = count_frequencies(corpus)
        assert_matches_reference(table, reference_count_frequencies(corpus))

    @given(st.lists(TOKENS, max_size=4))
    def test_count_pools(self, pools):
        named = [(f"p{i}", tuple(tokens)) for i, tokens in enumerate(pools)]
        assert_matches_reference(count_pools(named), reference_count_pools(named))

    @given(CORPUS_LINES, st.booleans())
    def test_category_table(self, lines, positive_only):
        corpus = parse_corpus(lines, require_labels=False)
        for category in corpus.categories:
            positive, negative = complement_corpus(corpus, category, positive_only)
            reference = reference_count_pools(
                [(category, positive), ("~" + category, negative)]
            )
            table = category_table(corpus, category, positive_only)
            assert_matches_reference(table, reference)

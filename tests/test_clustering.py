"""Word clustering schemes and frequency distribution over clusters."""

import math
from fractions import Fraction
from itertools import compress

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    Clustering,
    cluster_frequencies,
    count_frequencies,
    count_pools,
    distribute_frequencies,
    parse_corpus,
    rank_clusters,
    soft_clusters,
)
from reference import clusters_of, count, from_member_sets, word_total


def _members(clustering):
    return [set(c) for c in clustering.clusters]


class TestThresholdClustering:
    def test_low_threshold_overlap(self, binary_table):
        clustering = soft_clusters(binary_table, 0.4)
        assert _members(clustering) == [
            {"racket", "stroke", "shot", "ball"},
            {"goal", "kick", "ball"},
        ]
        assert clustering.discarded == frozenset()
        assert clusters_of(clustering, "ball") == (0, 1)
        assert not clustering.is_hard()

    def test_zero_threshold_admits_every_occurring_word(self, binary_table):
        clustering = soft_clusters(binary_table, 0.0)
        assert _members(clustering) == [
            {"racket", "stroke", "shot", "goal", "ball"},
            {"goal", "kick", "ball"},
        ]

    def test_half_threshold_is_disjoint_and_discards_the_shared_word(self, binary_table):
        clustering = soft_clusters(binary_table, 0.5)
        assert _members(clustering) == [
            {"racket", "stroke", "shot"},
            {"goal", "kick"},
        ]
        assert clustering.discarded == frozenset({"ball"})
        assert clustering.is_hard()
        assert clusters_of(clustering, "ball") == ()

    def test_higher_threshold_same_fixture(self, binary_table):
        assert _members(soft_clusters(binary_table, 0.7)) == _members(
            soft_clusters(binary_table, 0.5)
        )

    def test_share_equal_to_threshold_does_not_join(self, binary_table):
        # "ball" sits at exactly half; the inequality is strict
        clustering = soft_clusters(binary_table, 0.5)
        assert "ball" in clustering.discarded

    def test_related_categories(self, binary_table):
        clustering = soft_clusters(binary_table, 0.4)
        assert clustering.related_categories == ("c1", "~c1")

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5])
    def test_threshold_range(self, binary_table, gamma):
        with pytest.raises(ValueError, match="gamma"):
            soft_clusters(binary_table, gamma)

    def test_disjoint_whenever_threshold_at_least_half(self):
        """Two shares cannot both exceed one half of the same total."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_cats = int(rng.integers(2, 5))
            n_words = int(rng.integers(2, 12))
            words = [f"w{i}" for i in range(n_words)]
            pools = []
            for c in range(n_cats):
                size = int(rng.integers(1, 30))
                picks = rng.integers(0, n_words, size=size)
                pools.append((f"c{c}", tuple(words[i] for i in picks)))
            table = count_pools(pools)
            gamma = float(rng.uniform(0.5, 0.99))
            clustering = soft_clusters(table, gamma)
            assert clustering.is_hard()
            # every non-discarded word's share really exceeds gamma
            for word, ids in clustering.assignments.items():
                j = ids[0]
                share = count(table, f"c{j}", word) / word_total(table, word)
                assert share > gamma


class TestRankClustering:
    def test_fixture_with_wide_cutoffs(self, binary_table):
        clustering = rank_clusters(binary_table, 5, 5)
        assert _members(clustering) == [
            {"racket", "stroke", "shot"},
            {"kick"},
            {"goal", "ball"},
        ]
        assert clustering.related_categories is None
        assert clustering.discarded == frozenset()
        assert clustering.is_hard()

    def test_narrow_cutoffs(self, binary_table):
        clustering = rank_clusters(binary_table, 1, 1)
        # most frequent in c1 is racket (4); in the complement, goal (3)
        assert _members(clustering) == [
            {"racket"},
            {"goal"},
            {"stroke", "shot", "kick", "ball"},
        ]

    def test_zero_frequency_words_never_ranked(self, binary_table):
        # racket never occurs in the complement, so even a cutoff
        # covering the whole vocabulary keeps it out of k2's source
        # list; were it ranked, it would block itself out of k1 too
        clustering = rank_clusters(binary_table, 6, 6)
        assert "racket" in clustering.clusters[0]

    def test_tie_broken_lexicographically(self):
        table = count_pools([("a", ("x", "y", "z", "z")), ("b", ("q",))])
        clustering = rank_clusters(table, 2, 1)
        # z outranks both x and y on count; x beats y alphabetically
        assert _members(clustering)[0] == {"z", "x"}

    def test_requires_two_categories(self):
        table = count_pools([("a", ("x",)), ("b", ("y",)), ("c", ("z",))])
        with pytest.raises(ValueError, match="two categories"):
            rank_clusters(table, 1, 1)

    def test_cutoffs_must_be_positive(self, binary_table):
        with pytest.raises(ValueError, match="at least 1"):
            rank_clusters(binary_table, 0, 1)

    def test_unbalanced_cutoffs_can_overlap(self):
        # w ranks second on both sides, so with the second cutoff below
        # the first it lands in both windows; the result is not hard
        table = count_pools(
            [("a", ("p", "p", "p", "w", "w")), ("b", ("q", "q", "q", "w", "w"))]
        )
        clustering = rank_clusters(table, 2, 1)
        assert clusters_of(clustering, "w") == (0, 1)
        assert not clustering.is_hard()


def _member_shares(distributed, clustering) -> list[dict]:
    """Each row of a distributed-frequency matrix at its cluster's members."""
    return [
        dict(zip(compress(clustering.vocabulary, bits), row[bits].tolist()))
        for bits, row in zip(clustering.member, distributed)
    ]


class TestDistributedFrequencies:
    def test_fixture_exact_values(self, binary_table):
        clustering = soft_clusters(binary_table, 0.4)
        distributed = distribute_frequencies(binary_table, clustering)
        k1, k2 = _member_shares(distributed, clustering)
        assert k1 == {
            "racket": Fraction(4),
            "stroke": Fraction(1),
            "shot": Fraction(2),
            "ball": Fraction(2),
        }
        assert k2 == {
            "goal": Fraction(4),
            "kick": Fraction(2),
            "ball": Fraction(2),
        }
        assert distributed.sum(axis=1).tolist() == [9, 8]
        assert distributed[1, binary_table.vocabulary.index("racket")] == 0
        assert not distributed.flags.writeable

    def test_single_cluster_word_keeps_full_count(self, binary_table):
        clustering = soft_clusters(binary_table, 0.4)
        distributed = distribute_frequencies(binary_table, clustering)
        # goal appears in both categories but clusters only one way
        column = binary_table.vocabulary.index("goal")
        assert distributed[1, column] == word_total(binary_table, "goal")

    def test_shares_sum_to_word_totals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_words = int(rng.integers(2, 10))
            words = [f"w{i}" for i in range(n_words)]
            pools = []
            for c in range(int(rng.integers(2, 4))):
                picks = rng.integers(0, n_words, size=int(rng.integers(1, 25)))
                pools.append((f"c{c}", tuple(words[i] for i in picks)))
            table = count_pools(pools)
            clustering = soft_clusters(table, float(rng.uniform(0.0, 0.5)))
            totals = distribute_frequencies(table, clustering).sum(axis=0).tolist()
            for word in clustering.assignments:
                total = totals[table.vocabulary.index(word)]
                assert total == word_total(table, word)

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_two_pool_tables_give_integer_counts(self, positive, negative, gamma):
        table = count_pools([("c", positive), ("~c", negative)])
        distributed = distribute_frequencies(table, soft_clusters(table, gamma))
        assert distributed.dtype == np.int64

    def test_uneven_split_keeps_exact_fractions(self):
        # w is in clusters a and b (2/5 each, over gamma) but not c (1/5),
        # so each of the two gets 5 * 2/4
        table = count_pools([("a", ("w", "w")), ("b", ("w", "w")), ("c", ("w",))])
        distributed = distribute_frequencies(table, soft_clusters(table, 0.3))
        assert distributed.dtype == object
        assert distributed.tolist() == [[Fraction(5, 2)], [Fraction(5, 2)], [0]]
        assert not distributed.flags.writeable

    def test_requires_related_categories(self, binary_table):
        clustering = rank_clusters(binary_table, 5, 5)
        with pytest.raises(ValueError, match="category-related"):
            distribute_frequencies(binary_table, clustering)

    def test_stages_refuse_a_clustering_over_another_vocabulary(self, binary_table):
        """Both stages read the member matrix by column, so the columns
        must be the table's words in the table's order."""
        clustering = soft_clusters(binary_table, 0.4)
        vocabulary = clustering.vocabulary
        for other in (vocabulary[::-1], vocabulary[:-1] + ("comet",)):
            moved = Clustering(other, clustering.related_categories, clustering.member)
            for stage in (cluster_frequencies, distribute_frequencies):
                with pytest.raises(ValueError, match="not over the table's vocabulary"):
                    stage(binary_table, moved)


class TestFromMemberSets:
    def test_rebuild_matches_original(self, binary_table):
        original = soft_clusters(binary_table, 0.4)
        rebuilt = from_member_sets(
            [set(c) for c in original.clusters],
            original.vocabulary,
            original.related_categories,
        )
        assert rebuilt == original
        assert list(rebuilt.assignments) == list(original.assignments)

    def test_assignments_follow_vocabulary_order(self):
        vocabulary = ("e", "d", "c", "b", "a")
        clusters = [{"a", "c", "x"}, {"c", "d"}, {"a"}]
        clustering = from_member_sets(clusters, vocabulary, None)
        # reference: test every vocabulary word against every cluster
        expected = {}
        for word in vocabulary:
            ids = tuple(j for j, members in enumerate(clusters) if word in members)
            if ids:
                expected[word] = ids
        assert list(clustering.assignments.items()) == list(expected.items())
        assert clustering.discarded == frozenset({"b", "e"})

    def test_uncovered_words_are_discarded(self):
        clustering = from_member_sets([{"a"}], ("a", "b"), ("c1",))
        assert clustering.discarded == frozenset({"b"})

    def test_clusters_are_derived_from_assignments(self):
        clusters = [{"a", "x"}, set(), {"a", "b"}]
        clustering = from_member_sets(clusters, ("a", "b"), None)
        assert clustering.m == 3
        # the empty cluster is kept; "x" is outside the vocabulary
        assert clustering.clusters == (
            frozenset({"a"}),
            frozenset(),
            frozenset({"a", "b"}),
        )


def _member_matrices():
    """m x V boolean matrices, m in 0-4 and 63-66, V up to 12."""
    clusters = st.one_of(st.integers(0, 4), st.integers(63, 66))
    return st.tuples(clusters, st.integers(0, 12)).flatmap(
        lambda shape: st.lists(
            st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)
        ).map(lambda bits: np.array(bits, bool).reshape(shape))
    )


class TestMemberMatrix:
    @given(member=_member_matrices(), related=st.booleans())
    def test_matches_the_member_set_reference(self, member, related):
        m, n = member.shape
        vocabulary = tuple(f"w{i}" for i in range(n))
        categories = tuple(f"c{j}" for j in range(m)) if related else None
        rows = member.tolist()
        clusters = [frozenset(w for w, bit in zip(vocabulary, row) if bit) for row in rows]
        expected = {}
        for word in vocabulary:
            ids = tuple(j for j, members in enumerate(clusters) if word in members)
            if ids:
                expected[word] = ids
        clustering = Clustering(vocabulary, categories, member)
        assert clustering.m == m
        assert list(clustering.assignments.items()) == list(expected.items())
        assert clustering.clusters == tuple(clusters)
        assert clustering.discarded == frozenset(vocabulary) - expected.keys()
        assert clustering.is_hard() is all(len(ids) == 1 for ids in expected.values())
        assert clustering == from_member_sets(clusters, vocabulary, categories)

    def test_equality_reads_vocabulary_categories_shape_and_bits(self):
        clustering = from_member_sets([{"a"}, {"b"}], "ab", "cd")
        assert clustering == from_member_sets([{"a"}, {"b"}], "ab", "cd")
        assert clustering != from_member_sets([{"a"}, {"a", "b"}], "ab", "cd")
        assert clustering != from_member_sets([{"a"}, {"b"}], "ab", None)
        assert clustering != from_member_sets([{"a"}, {"b"}], "abx", "cd")
        assert clustering != from_member_sets([{"a"}, {"b"}, set()], "ab", "cde")
        assert clustering != from_member_sets([{"a"}, {"b"}], "ba", "cd")

    def test_member_matrix_is_read_only(self, binary_table):
        clusterings = soft_clusters(binary_table, 0.4), rank_clusters(binary_table, 1, 1)
        for clustering in clusterings:
            with pytest.raises(ValueError, match="read-only"):
                clustering.member[0, 0] = True


# The per-word loops the stages ran before they worked over the count
# matrix, kept as the reference.  They read the table only through
# the reference ``count`` and ``word_total``.


def reference_soft_clusters(table, gamma):
    clusters = [set() for _ in table.categories]
    for word in table.vocabulary:
        total = word_total(table, word)
        if total == 0:
            continue
        for i, category in enumerate(table.categories):
            f = count(table, category, word)
            if f > 0 and f / total > gamma:
                clusters[i].add(word)
    return from_member_sets(clusters, table.vocabulary, table.categories)


def reference_rank_clusters(table, top_l, top_m):
    def top(category, cutoff):
        ranked = sorted(
            (w for w in table.vocabulary if count(table, category, w) > 0),
            key=lambda w: (-count(table, category, w), w),
        )
        return set(ranked[:cutoff])

    first, second = table.categories
    k1 = top(first, top_l) - top(second, top_m)
    k2 = top(second, top_l) - top(first, top_m)
    k3 = set(table.vocabulary) - k1 - k2
    return from_member_sets([k1, k2, k3], table.vocabulary, None)


def reference_cluster_frequencies(table, clustering):
    out = {}
    for j, words in enumerate(clustering.clusters):
        for category in table.categories:
            out[(category, j)] = sum(count(table, category, w) for w in words)
    return out


def reference_distribute_frequencies(table, clustering):
    rows = [{} for _ in range(clustering.m)]
    for word, ids in clustering.assignments.items():
        total = word_total(table, word)
        if len(ids) == 1:
            rows[ids[0]][word] = total
            continue
        weights = [count(table, clustering.related_categories[j], word) for j in ids]
        denom = sum(weights)
        for j, weight in zip(ids, weights):
            share, rest = divmod(total * weight, denom)
            rows[j][word] = Fraction(total * weight, denom) if rest else share
    return rows


def assert_same_clustering(clustering, reference):
    assert clustering == reference
    assert list(clustering.assignments.items()) == list(reference.assignments.items())
    for ids in clustering.assignments.values():
        assert all(type(j) is int for j in ids)


def assert_same_cells(actual, expected):
    """``actual.tolist() == expected``, with every cell of the same type."""
    cells = actual.tolist()
    assert cells == expected
    assert [list(map(type, row)) for row in cells] == [
        list(map(type, row)) for row in expected
    ]


def assert_same_cluster_frequencies(table, clustering):
    """The C x m int64 matrix holds the reference's ``{(c, j): f}``."""
    reference = reference_cluster_frequencies(table, clustering)
    expected = [
        [reference[category, j] for j in range(clustering.m)]
        for category in table.categories
    ]
    actual = cluster_frequencies(table, clustering)
    assert actual.dtype == np.int64
    assert_same_cells(actual, expected)


# words that tie on count and differ only in case, in a non-ASCII
# character or by a trailing character (NUL included, which a numpy
# string array would drop)
WORDS = ("a", "A", "ab", "a\x00", "\u00e9", "e\u0301", "ß", "ss", "z")
POOL = st.lists(st.sampled_from(WORDS), max_size=12)
GAMMAS = st.one_of(
    st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 2 / 3, math.nextafter(1.0, 0.0))),
    st.floats(0.0, 1.0, exclude_max=True),
)
# multi-label documents, unlabeled ones and empty bodies
CORPUS_LINES = st.lists(
    st.tuples(st.lists(st.sampled_from("abc"), max_size=3), POOL), max_size=8
).map(lambda docs: [f"{','.join(labels)}\t{' '.join(body)}" for labels, body in docs])


def _pool_table(pools):
    return count_pools([(f"p{i}", tuple(tokens)) for i, tokens in enumerate(pools)])


def _corpus_table(lines):
    return count_frequencies(parse_corpus(lines, require_labels=False))


class TestStagesMatchTheReference:
    def check_threshold_stages(self, table, gamma):
        clustering = soft_clusters(table, gamma)
        assert_same_clustering(clustering, reference_soft_clusters(table, gamma))
        assert_same_cluster_frequencies(table, clustering)
        # each reference row's words, 0 elsewhere; int64 unless a split is uneven
        rows = reference_distribute_frequencies(table, clustering)
        expected = [[row.get(w, 0) for w in table.vocabulary] for row in rows]
        uneven = any(type(v) is Fraction for row in rows for v in row.values())
        distributed = distribute_frequencies(table, clustering)
        assert distributed.dtype == (object if uneven else np.int64)
        assert_same_cells(distributed, expected)

    @given(st.lists(POOL, max_size=4), GAMMAS)
    def test_pool_tables(self, pools, gamma):
        self.check_threshold_stages(_pool_table(pools), gamma)

    @given(CORPUS_LINES, GAMMAS)
    def test_multi_label_tables(self, lines, gamma):
        self.check_threshold_stages(_corpus_table(lines), gamma)

    @given(POOL, POOL, st.integers(1, 10), st.integers(1, 10))
    def test_rank_clusters(self, first, second, top_l, top_m):
        table = _pool_table([first, second])
        clustering = rank_clusters(table, top_l, top_m)
        assert_same_clustering(clustering, reference_rank_clusters(table, top_l, top_m))
        assert_same_cluster_frequencies(table, clustering)

    @pytest.mark.parametrize("words", [WORDS, WORDS[::-1]], ids=["forward", "reversed"])
    def test_rank_ties_follow_python_string_order(self, words):
        # every word occurs once, so the order among them decides the cut
        table = count_pools([("p", words), ("q", ("q",))])
        for cutoff in range(1, len(words) + 1):
            clustering = rank_clusters(table, cutoff, 1)
            assert clustering.clusters[0] == frozenset(sorted(words)[:cutoff])

    @pytest.mark.parametrize("gamma", [0.0, math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize(
        "table",
        [
            _corpus_table([]),
            _corpus_table(["\tx y", "\t"]),
            _pool_table([[], []]),
            _pool_table([["x", "y", "x"], []]),
            _pool_table([[], ["y"]]),
        ],
        ids=["empty-corpus", "unlabeled", "empty-pools", "empty-second", "empty-first"],
    )
    def test_degenerate_tables(self, table, gamma):
        assert table.matrix.shape == (len(table.categories), len(table.vocabulary))
        self.check_threshold_stages(table, gamma)
        if len(table.categories) == 2:
            clustering = rank_clusters(table, 1, 1)
            assert_same_clustering(clustering, reference_rank_clusters(table, 1, 1))

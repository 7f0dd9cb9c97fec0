"""Word clustering schemes and frequency distribution over clusters."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    count_pools,
    distribute_frequencies,
    from_member_sets,
    rank_clusters,
    soft_clusters,
)


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
        assert clustering.clusters_of("ball") == (0, 1)
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
        assert clustering.clusters_of("ball") == ()

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
                share = table.count(f"c{j}", word) / table.word_total(word)
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
        assert clustering.clusters_of("w") == (0, 1)
        assert not clustering.is_hard()


class TestDistributedFrequencies:
    def test_fixture_exact_values(self, binary_table):
        clustering = soft_clusters(binary_table, 0.4)
        distributed = distribute_frequencies(binary_table, clustering)
        k1, k2 = distributed.cluster_words
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
        assert distributed.cluster_total(0) == 9
        assert distributed.cluster_total(1) == 8
        assert distributed.word_freq(1, "racket") == 0

    def test_single_cluster_word_keeps_full_count(self, binary_table):
        clustering = soft_clusters(binary_table, 0.4)
        distributed = distribute_frequencies(binary_table, clustering)
        # goal appears in both categories but clusters only one way
        assert distributed.word_freq(1, "goal") == binary_table.word_total("goal")

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
            distributed = distribute_frequencies(table, clustering)
            for word in clustering.assignments:
                total = sum(
                    distributed.word_freq(j, word)
                    for j in range(clustering.m)
                )
                assert total == table.word_total(word)

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_two_pool_tables_give_integer_counts(self, positive, negative, gamma):
        table = count_pools([("c", positive), ("~c", negative)])
        distributed = distribute_frequencies(table, soft_clusters(table, gamma))
        for j, row in enumerate(distributed.cluster_words):
            assert all(type(v) is int for v in row.values())
            assert type(distributed.cluster_total(j)) is int

    def test_requires_related_categories(self, binary_table):
        clustering = rank_clusters(binary_table, 5, 5)
        with pytest.raises(ValueError, match="category-related"):
            distribute_frequencies(binary_table, clustering)


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

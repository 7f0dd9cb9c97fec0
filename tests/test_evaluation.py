"""Pooled contingency counts, threshold sweeps, and break-even extraction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    BreakEven,
    ContingencyCounts,
    CurvePoint,
    Decision,
    PRCurve,
    break_even,
    classify_document,
    contingency,
    curve_from_scores,
    default_epsilon_grid,
    micro_pr,
    parse_corpus,
    pr_from_counts,
    score_documents,
    sweep,
    train_wbm,
)
from mixcat.models import threshold_outcome

GOLD = {"d1": {"a", "b"}, "d2": {"a", "c"}}
DECISIONS = {
    ("d1", "a"): "positive",
    ("d1", "b"): "positive",
    ("d1", "c"): "positive",
    ("d2", "a"): "positive",
    ("d2", "b"): "negative",
    ("d2", "c"): "unclassified",
}


def _random_corpus(rng, n_categories, n_docs):
    words = [f"w{i}" for i in range(8)]
    lines = []
    for d in range(n_docs):
        category = f"c{int(rng.integers(n_categories))}"
        # bias a third of the vocabulary toward the labeled category
        weights = np.ones(len(words))
        start = int(category[1]) * 2
        weights[start:start + 3] += 4
        weights /= weights.sum()
        tokens = rng.choice(words, size=int(rng.integers(4, 9)), p=weights)
        lines.append(f"{category}\t{' '.join(tokens)}")
    return parse_corpus(lines)


class TestContingency:
    def test_hand_fixture(self):
        counts = contingency(DECISIONS, GOLD)
        assert counts == ContingencyCounts(tp=3, fp=1, fn=1, tn=1)
        assert counts.pairs == 6

    def test_micro_averaged_ratios(self):
        pr = micro_pr(DECISIONS, GOLD)
        assert pr.precision == 0.75
        assert pr.recall == 0.75
        assert pr.precision_defined and pr.recall_defined

    def test_decision_objects_and_strings_are_interchangeable(self):
        wrapped = {
            pair: Decision(outcome, 0.1) for pair, outcome in DECISIONS.items()
        }
        assert contingency(wrapped, GOLD) == contingency(DECISIONS, GOLD)

    def test_insertion_order_irrelevant(self):
        reversed_decisions = dict(reversed(list(DECISIONS.items())))
        assert contingency(reversed_decisions, GOLD) == contingency(DECISIONS, GOLD)

    def test_unclassified_never_claims(self):
        counts = contingency(
            {("d", "a"): "unclassified", ("d", "b"): "unclassified"},
            {"d": {"a"}},
        )
        assert counts == ContingencyCounts(tp=0, fp=0, fn=1, tn=1)

    def test_every_pair_must_be_decided(self):
        partial = dict(DECISIONS)
        del partial[("d2", "b")]
        with pytest.raises(ValueError, match="one decision per"):
            contingency(partial, GOLD)

    def test_unknown_document(self):
        with pytest.raises(ValueError, match="unknown document"):
            contingency({("ghost", "a"): "positive"}, GOLD)

    def test_unknown_category(self):
        with pytest.raises(ValueError, match="unknown category"):
            contingency(
                {("d1", "z"): "positive"}, GOLD, categories=("a", "b", "c")
            )

    def test_malformed_outcome(self):
        with pytest.raises(ValueError, match="not a decision outcome"):
            contingency({("d1", "a"): "maybe"}, {"d1": {"a"}}, categories=("a",))

    def test_undefined_precision_flagged(self):
        pr = pr_from_counts(ContingencyCounts(tp=0, fp=0, fn=1, tn=0))
        assert pr.precision == 1.0
        assert not pr.precision_defined
        assert pr.recall == 0.0
        assert pr.recall_defined

    def test_undefined_recall_flagged(self):
        pr = pr_from_counts(ContingencyCounts(tp=0, fp=1, fn=0, tn=1))
        assert pr.recall == 1.0
        assert not pr.recall_defined
        assert pr.precision == 0.0
        assert pr.precision_defined


class TestEpsilonGrid:
    def test_default_grid(self):
        grid = default_epsilon_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == 0.5
        assert grid[1] == 0.005

    def test_partial_final_step_dropped(self):
        assert default_epsilon_grid(0.012, 0.005) == (0.0, 0.005, 0.01)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="step"):
            default_epsilon_grid(0.5, 0.0)
        with pytest.raises(ValueError, match="maximum"):
            default_epsilon_grid(-0.1, 0.005)
        for step in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step"):
                default_epsilon_grid(0.5, step)
        for maximum in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="maximum"):
                default_epsilon_grid(maximum, 0.005)


class TestSweep:
    @pytest.fixture
    def separable(self):
        corpus = parse_corpus(["a\tx x x", "b\ty y y"])
        models = [train_wbm(corpus, "a"), train_wbm(corpus, "b")]
        return corpus, models

    def test_separable_corpus_is_perfect_everywhere(self, separable):
        corpus, models = separable
        curve = sweep(models, corpus)
        assert len(curve.points) == 101
        for point in curve.points:
            assert point.precision == 1.0
            assert point.recall == 1.0
        assert break_even(curve) == BreakEven(1.0, "exact")

    def test_no_evidence_documents_score_none(self, separable):
        _, models = separable
        corpus = parse_corpus(["a\tzzz qqq"])
        scores = score_documents(models, corpus)
        assert scores[0, "a"] is None
        assert scores[0, "b"] is None

    def test_recall_never_increases_along_the_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            corpus = _random_corpus(rng, 2, int(rng.integers(6, 12)))
            if len(corpus.categories) < 2:
                continue
            models = [train_wbm(corpus, c) for c in corpus.categories]
            curve = sweep(models, corpus)
            recalls = [p.recall for p in curve.points]
            assert all(b <= a for a, b in zip(recalls, recalls[1:]))

    def test_sweep_points_match_direct_classification(self):
        rng = np.random.default_rng(18)
        corpus = _random_corpus(rng, 2, 8)
        models = [train_wbm(corpus, c) for c in corpus.categories]
        grid = (0.0, 0.1, 0.3)
        curve = sweep(models, corpus, grid)
        gold = {i: d.labels for i, d in enumerate(corpus.documents)}
        for point in curve.points:
            direct = {
                (i, model.category): classify_document(
                    model, doc.tokens, point.epsilon
                )
                for i, doc in enumerate(corpus.documents)
                for model in models
            }
            pr = micro_pr(direct, gold, [m.category for m in models])
            assert (pr.precision, pr.recall) == (point.precision, point.recall)

    def test_grid_must_start_at_zero(self, separable):
        corpus, models = separable
        with pytest.raises(ValueError, match="start at 0"):
            sweep(models, corpus, (0.1, 0.2))

    def test_grid_must_increase(self, separable):
        corpus, models = separable
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(models, corpus, (0.0, 0.2, 0.2))

    def test_grid_must_be_nonempty(self, separable):
        corpus, models = separable
        with pytest.raises(ValueError, match="empty"):
            sweep(models, corpus, ())

    def test_duplicate_categories_rejected(self, separable):
        corpus, models = separable
        with pytest.raises(ValueError, match="two models"):
            sweep([models[0], models[0]], corpus)

    def test_needs_models(self, separable):
        corpus, _ = separable
        with pytest.raises(ValueError, match="no models"):
            sweep([], corpus)

    def test_needs_test_documents(self, separable):
        _, models = separable
        with pytest.raises(ValueError, match="no test documents"):
            sweep(models, parse_corpus([]))


GRID = default_epsilon_grid()
# ties, exact grid points of either sign, and no-evidence pairs
SCORES = st.one_of(
    st.none(),
    st.sampled_from([sign * GRID[k] for k in (0, 1, 10, 60, 100) for sign in (1, -1)]),
    st.floats(-1.0, 1.0),
)


def _assert_curve_matches_decisions(scores, gold, categories):
    curve = curve_from_scores(scores, gold, GRID)
    assert [p.epsilon for p in curve.points] == list(GRID)
    for point in curve.points:
        decisions = {
            pair: threshold_outcome(score, point.epsilon)
            for pair, score in scores.items()
        }
        pr = micro_pr(decisions, gold, categories)
        assert (point.precision, point.recall) == (pr.precision, pr.recall)


class TestCurveFromScores:
    GOLD = {0: frozenset({"a"}), 1: frozenset({"b"}), 2: frozenset()}

    @pytest.mark.parametrize(
        "values",
        [
            (None,) * 6,  # no evidence anywhere: nothing is ever claimed
            (0.05, 0.05, -0.05, 0.05, None, -0.05),  # ties on a grid point
            (GRID[10], -GRID[10], GRID[60], GRID[100], 0.0, -0.0),  # on grid points
            (0.7, 0.7, 0.2, None, 0.2, 0.7),  # 0.7 is claimed at every point
            (-0.3, -0.1, -0.2, -0.4, -0.5, -0.6),  # nothing claimed at any point
        ],
    )
    def test_hand_maps(self, values):
        pairs = [(d, c) for d in self.GOLD for c in ("a", "b")]
        _assert_curve_matches_decisions(dict(zip(pairs, values)), self.GOLD, ("a", "b"))

    @given(st.data())
    def test_random_maps(self, data):
        categories = ("a", "b", "c")[: data.draw(st.integers(1, 3))]
        documents = data.draw(st.integers(1, 6))
        gold = {
            d: frozenset(data.draw(st.sets(st.sampled_from(categories))))
            for d in range(documents)
        }
        scores = {(d, c): data.draw(SCORES) for d in gold for c in categories}
        _assert_curve_matches_decisions(scores, gold, categories)

    def test_grid_is_validated(self):
        with pytest.raises(ValueError, match="start at 0"):
            curve_from_scores({(0, "a"): 0.1}, {0: frozenset({"a"})}, (0.1,))


class TestBreakEven:
    def test_exact_point_wins(self):
        curve = PRCurve((
            CurvePoint(0.0, 0.9, 0.3),
            CurvePoint(0.1, 0.62, 0.62),
            CurvePoint(0.2, 0.3, 0.9),
        ))
        assert break_even(curve) == BreakEven(0.62, "exact")

    def test_interpolated_crossing(self):
        curve = PRCurve((
            CurvePoint(0.0, 0.6, 0.5),
            CurvePoint(0.1, 0.5, 0.6),
        ))
        result = break_even(curve)
        assert result.kind == "interpolated"
        assert result.value == pytest.approx(0.55, rel=1e-12)

    def test_asymmetric_crossing(self):
        # differences +0.1 then -0.3 put the crossing a quarter along
        curve = PRCurve((
            CurvePoint(0.0, 0.8, 0.7),
            CurvePoint(0.1, 0.6, 0.9),
        ))
        result = break_even(curve)
        assert result.kind == "interpolated"
        assert result.value == pytest.approx(0.75, rel=1e-12)

    def test_zero_hit_point_is_not_a_break_even(self):
        # precision == recall == 0 means tp = 0; the real crossing lies
        # between the next two points
        curve = PRCurve((
            CurvePoint(0.0, 0.0, 0.0),
            CurvePoint(0.05, 0.112, 0.140),
            CurvePoint(0.1, 0.061, 0.005),
        ))
        result = break_even(curve)
        assert result.kind == "interpolated"
        assert result.value == pytest.approx(0.095, rel=1e-12)

    def test_no_crossing_extrapolates_from_closest_point(self):
        curve = PRCurve((
            CurvePoint(0.0, 0.3, 0.9),
            CurvePoint(0.1, 0.4, 0.8),
        ))
        result = break_even(curve)
        assert result.kind == "extrapolated"
        assert result.value == pytest.approx(0.6, rel=1e-12)

    def test_single_point(self):
        result = break_even(PRCurve((CurvePoint(0.0, 0.4, 0.8),)))
        assert result.kind == "extrapolated"
        assert result.value == pytest.approx(0.6, rel=1e-12)

    def test_empty_curve(self):
        with pytest.raises(ValueError, match="empty curve"):
            break_even(PRCurve(()))

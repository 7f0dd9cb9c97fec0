"""Training, scoring, deciding, and persisting the four classifiers."""

import copy
import json
import math
from fractions import Fraction

import pytest

from mixcat import (
    CosineModel,
    Decision,
    EmConfig,
    MixtureModel,
    TrainingError,
    WordModel,
    classify_document,
    cosine_decide,
    decide,
    doc_log_likelihood,
    from_member_sets,
    load_model,
    method_of,
    parse_corpus,
    save_model,
    train_cos,
    train_fmm,
    train_hcm,
    train_wbm,
)


class TestWordModel:
    def test_fixture_probabilities(self, sports_corpus):
        model = train_wbm(sports_corpus, "c1")
        # 10 positive tokens, 6 vocabulary words: denominator 13
        assert model.positive["racket"] == pytest.approx(4.5 / 13, rel=1e-15)
        assert model.positive["kick"] == pytest.approx(0.5 / 13, rel=1e-15)
        assert model.negative["racket"] == pytest.approx(0.5 / 10, rel=1e-15)
        assert model.negative["goal"] == pytest.approx(3.5 / 10, rel=1e-15)

    def test_both_sides_cover_the_union_vocabulary(self, sports_corpus):
        model = train_wbm(sports_corpus, "c1")
        assert set(model.positive) == set(model.negative)
        assert all(p > 0 for p in model.positive.values())
        assert all(p > 0 for p in model.negative.values())
        for side in (model.positive, model.negative):
            assert math.fsum(side.values()) == pytest.approx(1.0, abs=1e-12)

    def test_document_log_likelihood(self, sports_corpus):
        model = train_wbm(sports_corpus, "c1")
        lp, ln, n = doc_log_likelihood(model, ("kick", "goal", "goal", "ball"))
        assert n == 4
        assert lp == pytest.approx(
            math.log(0.5 / 13) + 2 * math.log(1.5 / 13) + math.log(2.5 / 13),
            rel=1e-12,
        )
        assert ln == pytest.approx(
            math.log(2.5 / 10) + 2 * math.log(3.5 / 10) + math.log(2.5 / 10),
            rel=1e-12,
        )

    def test_unknown_words_are_skipped(self, sports_corpus):
        model = train_wbm(sports_corpus, "c1")
        lp, ln, n = doc_log_likelihood(model, ("comet", "goal", "comet"))
        assert n == 1
        assert lp == pytest.approx(math.log(1.5 / 13), rel=1e-12)
        assert ln == pytest.approx(math.log(3.5 / 10), rel=1e-12)

    def test_document_with_no_known_words(self, sports_corpus):
        model = train_wbm(sports_corpus, "c1")
        assert doc_log_likelihood(model, ("comet", "nebula")) == (0.0, 0.0, 0)
        decision = classify_document(model, ("comet", "nebula"), 0.0)
        assert decision == Decision("unclassified", None)

    def test_unknown_category(self, sports_corpus):
        with pytest.raises(ValueError, match="unknown category"):
            train_wbm(sports_corpus, "c9")

    def test_shared_documents_count_once_by_default(self):
        corpus = parse_corpus(["a,b\tx y", "b\ty z"])
        exclusive = train_wbm(corpus, "a")
        shared = train_wbm(corpus, "a", positive_only=False)
        # with sharing, the complement picks up the x from the a,b doc
        assert exclusive.negative["x"] == pytest.approx(0.5 / 3.5, rel=1e-15)
        assert shared.negative["x"] == pytest.approx(1.5 / 5.5, rel=1e-15)
        assert exclusive.positive == shared.positive


class TestHardClusterModel:
    def test_threshold_fixture(self, sports_corpus):
        model = train_hcm(sports_corpus, "c1", gamma=0.5)
        # ball is discarded, so each side's total excludes it
        assert model.positive == pytest.approx((7.5 / 9, 1.5 / 9), rel=1e-15)
        assert model.negative == pytest.approx((0.5 / 6, 5.5 / 6), rel=1e-15)
        assert model.settings == {"scheme": "threshold", "gamma": 0.5}
        assert "ball" in model.clustering.discarded

    def test_rank_fixture(self, sports_corpus):
        model = train_hcm(sports_corpus, "c1", top_l=5, top_m=5)
        assert model.positive == pytest.approx(
            (7.5 / 11.5, 0.5 / 11.5, 3.5 / 11.5), rel=1e-15
        )
        assert model.negative == pytest.approx(
            (0.5 / 8.5, 2.5 / 8.5, 5.5 / 8.5), rel=1e-15
        )
        assert model.settings == {"scheme": "rank", "top_l": 5, "top_m": 5}

    def test_threshold_document_log_likelihood(self, sports_corpus):
        model = train_hcm(sports_corpus, "c1", gamma=0.5)
        lp, ln, n = doc_log_likelihood(model, ("kick", "goal", "goal", "ball"))
        assert n == 3  # ball is discarded and not counted
        assert lp == pytest.approx(3 * math.log(1.5 / 9), rel=1e-12)
        assert ln == pytest.approx(3 * math.log(5.5 / 6), rel=1e-12)

    def test_rank_document_log_likelihood(self, sports_corpus):
        model = train_hcm(sports_corpus, "c1", top_l=5, top_m=5)
        lp, ln, n = doc_log_likelihood(model, ("kick", "goal", "goal", "ball"))
        assert n == 4
        assert lp == pytest.approx(
            math.log(0.5 / 11.5) + 3 * math.log(3.5 / 11.5), rel=1e-12
        )
        assert ln == pytest.approx(
            math.log(2.5 / 8.5) + 3 * math.log(5.5 / 8.5), rel=1e-12
        )

    def test_empty_remainder_cluster_still_scores(self):
        corpus = parse_corpus(["a\tx", "b\ty"])
        model = train_hcm(corpus, "a", top_l=1, top_m=1)
        assert len(model.clustering.clusters[2]) == 0
        assert model.positive == pytest.approx(
            (1.5 / 2.5, 0.5 / 2.5, 0.5 / 2.5), rel=1e-15
        )
        decision = classify_document(model, ("x",), 0.0)
        assert decision.outcome == "positive"

    def test_scheme_must_be_unambiguous(self, sports_corpus):
        with pytest.raises(TrainingError, match="exactly one scheme"):
            train_hcm(sports_corpus, "c1", gamma=0.5, top_l=5, top_m=5)
        with pytest.raises(TrainingError, match="exactly one scheme"):
            train_hcm(sports_corpus, "c1")

    def test_rank_scheme_needs_both_cutoffs(self, sports_corpus):
        with pytest.raises(TrainingError, match="both"):
            train_hcm(sports_corpus, "c1", top_l=5)

    def test_low_gamma_rejected(self, sports_corpus):
        with pytest.raises(TrainingError, match="overlap"):
            train_hcm(sports_corpus, "c1", gamma=0.4)

    def test_overlapping_rank_clusters_rejected(self):
        # w ranks second on both sides, so cutoffs 2/1 put it in both
        corpus = parse_corpus(["a\tp p p w w", "b\tq q q w w"])
        with pytest.raises(TrainingError, match="overlap"):
            train_hcm(corpus, "a", top_l=2, top_m=1)


class TestMixtureModel:
    def test_fixture_cluster_words_and_weights(self, sports_corpus):
        model = train_fmm(sports_corpus, "c1", 0.4)
        assert model.cluster_words[0] == pytest.approx(
            {"racket": 4 / 9, "stroke": 1 / 9, "shot": 2 / 9, "ball": 2 / 9},
            rel=1e-15,
        )
        assert model.cluster_words[1] == pytest.approx(
            {"goal": 0.5, "kick": 0.25, "ball": 0.25}, rel=1e-15
        )
        assert model.positive_theta == pytest.approx(
            (0.8715487853846612, 0.1284512146153389), rel=1e-12
        )
        assert model.negative_theta[0] == pytest.approx(0.0, abs=1e-8)
        assert model.settings["gamma"] == 0.4

    def test_fixture_document_decision(self, sports_corpus):
        model = train_fmm(sports_corpus, "c1", 0.4)
        decision = classify_document(model, ("kick", "goal", "goal", "ball"), 0.0)
        assert decision.outcome == "negative"
        assert decision.score == pytest.approx(-1.5646181163056503, rel=1e-12)

    def test_all_four_tokens_count(self, sports_corpus):
        model = train_fmm(sports_corpus, "c1", 0.4)
        _, _, n = doc_log_likelihood(model, ("kick", "goal", "goal", "ball"))
        assert n == 4

    def test_empty_cluster_is_a_training_error(self):
        corpus = parse_corpus(["c1\tball ball", "c2\tball goal"])
        with pytest.raises(TrainingError, match="empty at gamma"):
            train_fmm(corpus, "c1", 0.7)

    def test_trace_collects_both_sides(self, sports_corpus):
        trace = {}
        train_fmm(sports_corpus, "c1", 0.4, trace=trace)
        assert set(trace) == {"positive", "negative"}
        for side in trace.values():
            assert len(side) >= 2
            assert all(isinstance(e, int) and isinstance(v, float) for e, v in side)

    def test_em_config_passed_through(self, sports_corpus):
        cfg = EmConfig(max_iterations=2)
        model = train_fmm(sports_corpus, "c1", 0.4, em_config=cfg)
        assert model.positive_theta == pytest.approx(
            (0.8548387096774194, 0.14516129032258066), rel=1e-12
        )
        assert model.settings["max_iterations"] == 2

    def test_em_outcome_recorded_per_side(self, sports_corpus, tmp_path):
        # the positive side converges after 7 updates, the negative needs 14
        cfg = EmConfig(max_iterations=10)
        model = train_fmm(sports_corpus, "c1", 0.4, em_config=cfg)
        assert model.settings["em_iterations"] == [7, 10]
        assert model.settings["em_converged"] == [True, False]
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).settings == model.settings

    def test_training_builds_no_fraction(self, sports_corpus, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError(f"Fraction built from {args}")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        train_wbm(sports_corpus, "c1")
        train_hcm(sports_corpus, "c1", gamma=0.5)
        train_hcm(sports_corpus, "c1", top_l=5, top_m=5)
        train_fmm(sports_corpus, "c1", 0.2)
        train_cos(sports_corpus, "c1")


class TestDecide:
    def test_positive_above_threshold(self):
        assert decide(-1.0, -2.0, 2, 0.3) == Decision("positive", 0.5)

    def test_negative_when_margin_reaches_threshold(self):
        decision = decide(-2.0, -1.0, 2, 0.5)
        assert decision == Decision("negative", -0.5)

    def test_unclassified_inside_the_band(self):
        assert decide(-1.0, -1.4, 4, 0.3).outcome == "unclassified"
        assert decide(-1.4, -1.0, 4, 0.3).outcome == "unclassified"

    def test_tie_goes_negative(self):
        assert decide(-1.0, -1.0, 3, 0.0).outcome == "negative"

    def test_boundary_asymmetry(self):
        # at |score| == epsilon > 0, only the negative side claims
        assert decide(-1.0, -2.0, 2, 0.5).outcome == "unclassified"
        assert decide(-2.0, -1.0, 2, 0.5).outcome == "negative"

    def test_score_is_length_normalized(self):
        small = decide(-1.0, -2.0, 2, 0.0)
        large = decide(-2.0, -4.0, 4, 0.0)
        assert small.score == large.score == 0.5

    def test_epsilon_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            decide(-1.0, -2.0, 2, -0.1)

    def test_needs_scored_tokens(self):
        with pytest.raises(ValueError, match="scored token"):
            decide(-1.0, -2.0, 0, 0.1)


class TestCosineModel:
    def test_fixture_vectors(self, sports_corpus):
        model = train_cos(sports_corpus, "c1")
        assert model.vocabulary == (
            "racket", "stroke", "shot", "ball", "goal", "kick",
        )
        assert model.positive == (4.0, 1.0, 2.0, 2.0, 1.0, 0.0)
        assert model.negative == (0.0, 0.0, 0.0, 2.0, 3.0, 2.0)

    def test_fixture_decision(self, sports_corpus):
        model = train_cos(sports_corpus, "c1")
        decision = cosine_decide(model, ("kick", "goal", "goal", "ball"), 0.0)
        expected = 4 / math.sqrt(6 * 26) - 10 / math.sqrt(6 * 17)
        assert decision.outcome == "negative"
        assert decision.score == pytest.approx(expected, rel=1e-12)

    def test_aligned_document_is_positive(self):
        model = CosineModel("a", ("x", "y"), (1.0, 0.0), (0.0, 1.0))
        decision = cosine_decide(model, ("x", "x"), 0.0)
        assert decision.outcome == "positive"
        assert decision.score == pytest.approx(1.0, rel=1e-12)

    def test_unknown_document_stays_unclassified(self):
        model = CosineModel("a", ("x", "y"), (1.0, 0.0), (0.0, 1.0))
        assert cosine_decide(model, ("z", "w"), 0.0) == Decision("unclassified", None)

    def test_threshold_band(self):
        model = CosineModel("a", ("x", "y"), (1.0, 1.0), (0.0, 1.0))
        # doc (x) has cos 1/sqrt(2) to positive, 0 to negative
        score = 1 / math.sqrt(2)
        assert cosine_decide(model, ("x",), 0.8).outcome == "unclassified"
        decision = cosine_decide(model, ("x",), 0.7)
        assert decision.outcome == "positive"
        assert decision.score == pytest.approx(score, rel=1e-12)

    def test_epsilon_must_be_nonnegative(self, sports_corpus):
        model = train_cos(sports_corpus, "c1")
        with pytest.raises(ValueError, match="nonnegative"):
            cosine_decide(model, ("goal",), -0.5)


class TestDispatch:
    def test_method_tags(self, sports_corpus):
        assert method_of(train_wbm(sports_corpus, "c1")) == "wbm"
        assert method_of(train_hcm(sports_corpus, "c1", gamma=0.5)) == "hcm"
        assert method_of(train_fmm(sports_corpus, "c1", 0.4)) == "fmm"
        assert method_of(train_cos(sports_corpus, "c1")) == "cos"

    def test_unknown_model_type(self):
        with pytest.raises(TypeError, match="unknown model"):
            method_of(object())

    def test_likelihood_dispatch_refuses_cosine(self, sports_corpus):
        model = train_cos(sports_corpus, "c1")
        with pytest.raises(TypeError, match="not a likelihood model"):
            doc_log_likelihood(model, ("goal",))

    def test_classify_document_covers_all_methods(self, sports_corpus):
        doc = ("kick", "goal", "goal", "ball")
        for train in (train_wbm, train_cos):
            assert classify_document(train(sports_corpus, "c1"), doc, 0.0).outcome == "negative"
        assert classify_document(
            train_hcm(sports_corpus, "c1", gamma=0.5), doc, 0.0
        ).outcome == "negative"
        assert classify_document(
            train_fmm(sports_corpus, "c1", 0.4), doc, 0.0
        ).outcome == "negative"


_DROP = object()  # marks a field to delete from a payload

_VALID_PAYLOADS = {
    "wbm": {
        "schema_version": 1, "method": "wbm", "category": "a", "settings": {},
        "vocabulary": ["x", "y"], "positive": [0.5, 0.5], "negative": [0.25, 0.75],
    },
    "hcm": {
        "schema_version": 1, "method": "hcm", "category": "a", "settings": {},
        "clustering": {
            "vocabulary": ["x", "y", "z"],
            "related_categories": None,
            "clusters": [["x"], ["y", "z"]],
        },
        "positive": [0.5, 0.5], "negative": [0.25, 0.75],
    },
    "fmm": {
        "schema_version": 1, "method": "fmm", "category": "a", "settings": {},
        "clustering": {
            "vocabulary": ["x", "y", "z"],
            "related_categories": ["a", "~a"],
            "clusters": [["x", "y"], ["y", "z"]],
        },
        "cluster_words": [{"x": 0.5, "y": 0.5}, {"y": 0.5, "z": 0.5}],
        "positive_theta": [0.5, 0.5], "negative_theta": [0.25, 0.75],
    },
    "cos": {
        "schema_version": 1, "method": "cos", "category": "a", "settings": {},
        "vocabulary": ["x", "y"], "positive": [1.0, 0.0], "negative": [0.0, 2.0],
    },
}


_MALFORMED = [  # (id, base payload, path to the field, new value, error)
    ("not-an-object", None, (), [1, 2], "JSON object"),
    ("wbm-no-category", "wbm", ("category",), _DROP, "no 'category' field"),
    ("wbm-category-type", "wbm", ("category",), 5, "'category' must be a string"),
    ("wbm-settings-type", "wbm", ("settings",), [], "'settings' must be an object"),
    ("wbm-vocabulary-type", "wbm", ("vocabulary",), "xy",
     "'vocabulary' must be a list"),
    ("wbm-vocabulary-entries", "wbm", ("vocabulary",), [1, "y"],
     "'vocabulary' must be a list of strings"),
    ("wbm-vocabulary-duplicates", "wbm", ("vocabulary",), ["x", "x"],
     "'vocabulary' has duplicate"),
    ("wbm-positive-short", "wbm", ("positive",), [1.0],
     "'positive' has 1 entries, expected 2"),
    ("wbm-negative-long", "wbm", ("negative",), [0.25, 0.25, 0.5],
     "'negative' has 3 entries"),
    ("wbm-positive-strings", "wbm", ("positive",), ["0.5", "0.5"],
     "'positive' has a non-numeric"),
    ("wbm-positive-overflow", "wbm", ("positive",), [10**400, 0.5],
     "'positive' has negative or non-finite entries"),
    ("hcm-no-clustering", "hcm", ("clustering",), _DROP, "no 'clustering' field"),
    ("hcm-positive-short", "hcm", ("positive",), [1.0],
     r"'positive' has 1 entries, .* per cluster"),
    ("hcm-negative-long", "hcm", ("negative",), [0.2, 0.3, 0.5],
     "'negative' has 3 entries"),
    ("hcm-vocabulary-duplicates", "hcm", ("clustering", "vocabulary"), ["x", "y", "y"],
     "'clustering.vocabulary' has duplicate"),
    ("hcm-member-outside-vocabulary", "hcm", ("clustering", "clusters"),
     [["x"], ["y", "w"]],
     r"'clustering.clusters\[1\]' has words outside the vocabulary"),
    ("hcm-cluster-type", "hcm", ("clustering", "clusters"), [["x"], "yz"],
     r"'clustering.clusters\[1\]' must be a list of strings"),
    ("hcm-overlapping-clusters", "hcm", ("clustering", "clusters"),
     [["x", "y"], ["y", "z"]], "overlaps"),
    ("hcm-no-related-categories", "hcm", ("clustering", "related_categories"), _DROP,
     "no 'clustering.related_categories' field"),
    ("fmm-related-categories-short", "fmm", ("clustering", "related_categories"),
     ["a"], "one category per cluster"),
    ("fmm-positive-theta-short", "fmm", ("positive_theta",), [1.0],
     "'positive_theta' has 1 entries"),
    ("fmm-negative-theta-long", "fmm", ("negative_theta",), [0.2, 0.3, 0.5],
     "'negative_theta' has 3 entries"),
    ("fmm-cluster-words-short", "fmm", ("cluster_words",), [{"x": 0.5, "y": 0.5}],
     "'cluster_words' has 1 entries"),
    ("fmm-cluster-words-type", "fmm", ("cluster_words", 0), [0.5, 0.5],
     r"'cluster_words\[0\]' must be an object"),
    ("fmm-cluster-words-outside-cluster", "fmm", ("cluster_words", 0),
     {"x": 0.5, "z": 0.5}, "outside cluster 0"),
    ("fmm-cluster-words-sum", "fmm", ("cluster_words", 1), {"y": 0.5, "z": 0.6},
     r"'cluster_words\[1\]' does not sum to 1"),
    ("cos-negative-short", "cos", ("negative",), [2.0], "'negative' has 1 entries"),
    ("cos-positive-null", "cos", ("positive",), [1.0, None],
     "'positive' has a non-numeric"),
]


class TestPersistence:
    @pytest.fixture
    def models(self, sports_corpus):
        return [
            train_wbm(sports_corpus, "c1"),
            train_hcm(sports_corpus, "c1", gamma=0.5),
            train_hcm(sports_corpus, "c1", top_l=5, top_m=5),
            train_fmm(sports_corpus, "c1", 0.4),
            train_cos(sports_corpus, "c1"),
        ]

    def test_round_trip_reproduces_decisions_exactly(self, models, tmp_path):
        docs = [
            ("kick", "goal", "goal", "ball"),
            ("racket", "racket", "shot"),
            ("ball",),
            ("comet",),
        ]
        for i, model in enumerate(models):
            path = tmp_path / f"model{i}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            assert loaded.category == model.category
            for doc in docs:
                for epsilon in (0.0, 0.05, 0.4):
                    first = classify_document(model, doc, epsilon)
                    second = classify_document(loaded, doc, epsilon)
                    assert first == second  # scores bit-identical

    def test_round_trip_preserves_clustering(self, sports_corpus, tmp_path):
        model = train_fmm(sports_corpus, "c1", 0.4)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).clustering == model.clustering

    def test_loaded_model_holds_one_copy_of_each_word(self, sports_corpus, tmp_path):
        path = tmp_path / "m.json"
        save_model(train_fmm(sports_corpus, "c1", 0.4), path)
        model = load_model(path)
        words = {w: w for w in model.clustering.vocabulary}
        for dist in model.cluster_words:
            assert all(words[w] is w for w in dist)
        for members in model.clustering.clusters:
            assert all(words[w] is w for w in members)
        # words in one cluster alone share that cluster's index tuple
        assignments = model.clustering.assignments
        assert assignments["racket"] is assignments["stroke"]

    def test_loaded_models_share_words_and_values(self, sports_corpus, tmp_path):
        first, second = tmp_path / "c1.json", tmp_path / "c2.json"
        save_model(train_wbm(sports_corpus, "c1"), first)
        save_model(train_wbm(sports_corpus, "c2"), second)
        a, b = load_model(first), load_model(second)
        # words are interned: one string per word across models
        assert set(a.positive) == set(b.positive)
        words = {w: w for w in a.positive}
        assert all(words[w] is w for w in b.positive)
        # an equal float literal is parsed into one object per model
        values = list(a.positive.values()) + list(a.negative.values())
        assert len(set(map(id, values))) == len(set(values))

    def test_trained_models_share_equal_values(self, sports_corpus):
        # an equal count gives one value object per side, as after loading
        word = train_wbm(sports_corpus, "c1")
        cosine = train_cos(sports_corpus, "c1")
        mixture = train_fmm(sports_corpus, "c1", 0.4)
        sides = [
            list(word.positive.values()),
            list(word.negative.values()),
            list(cosine.positive),
            list(cosine.negative),
            *(list(dist.values()) for dist in mixture.cluster_words),
        ]
        assert all(len(values) > len(set(values)) for values in sides[:4])
        for values in sides:
            assert len(set(map(id, values))) == len(set(values))

    def test_settings_survive(self, sports_corpus, tmp_path):
        model = train_hcm(sports_corpus, "c1", top_l=5, top_m=5)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).settings == {"scheme": "rank", "top_l": 5, "top_m": 5}

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema_version": 99, "method": "wbm", "category": "a"}')
        with pytest.raises(ValueError, match="schema version"):
            load_model(path)

    def test_unknown_method(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema_version": 1, "method": "svm", "category": "a"}')
        with pytest.raises(ValueError, match="unknown model method"):
            load_model(path)

    def test_distribution_must_sum_to_one(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"schema_version": 1, "method": "wbm", "category": "a",'
            ' "vocabulary": ["x", "y"], "positive": [0.9, 0.3],'
            ' "negative": [0.5, 0.5], "settings": {}}'
        )
        with pytest.raises(ValueError, match="sum to 1"):
            load_model(path)

    def test_negative_entries_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"schema_version": 1, "method": "wbm", "category": "a",'
            ' "vocabulary": ["x", "y"], "positive": [1.3, -0.3],'
            ' "negative": [0.5, 0.5], "settings": {}}'
        )
        with pytest.raises(ValueError, match="negative or non-finite"):
            load_model(path)

    def test_zero_cosine_vector_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"schema_version": 1, "method": "cos", "category": "a",'
            ' "vocabulary": ["x"], "positive": [0.0], "negative": [1.0],'
            ' "settings": {}}'
        )
        with pytest.raises(ValueError, match="all zero"):
            load_model(path)

    @pytest.mark.parametrize(
        ("base", "path", "value", "message"),
        [pytest.param(*case[1:], id=case[0]) for case in _MALFORMED],
    )
    def test_malformed_files_name_the_field(self, tmp_path, base, path, value, message):
        path_to_model = tmp_path / "m.json"
        if base is None:
            payload = value
        else:
            payload = copy.deepcopy(_VALID_PAYLOADS[base])
            path_to_model.write_text(json.dumps(payload))
            load_model(path_to_model)  # the unbroken payload is accepted
            *parents, last = path
            holder = payload
            for key in parents:
                holder = holder[key]
            if value is _DROP:
                del holder[last]
            else:
                holder[last] = value
        path_to_model.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path_to_model)

    def test_assembled_models_need_no_training_corpus(self):
        """Models built from externally chosen parameters score fine."""
        model = WordModel("a", {"x": 0.9, "y": 0.1}, {"x": 0.2, "y": 0.8})
        decision = classify_document(model, ("x", "x"), 0.0)
        assert decision.outcome == "positive"
        assert decision.score == pytest.approx(math.log(0.9 / 0.2), rel=1e-12)

    def test_comment_lines_are_ignored_when_loading(self, sports_corpus, tmp_path):
        model = train_wbm(sports_corpus, "c1")
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text("# a header line\n# another\n" + path.read_text())
        assert load_model(path).positive == model.positive

    def test_only_the_leading_comment_block_is_skipped(self, sports_corpus, tmp_path):
        path = tmp_path / "m.json"
        save_model(train_wbm(sports_corpus, "c1"), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("# header\n" + lines[0] + "# not a header\n" + "".join(lines[1:]))
        with pytest.raises(ValueError):
            load_model(path)


def test_log_likelihood_hand_values():
    model = WordModel("a", {"x": 0.5, "y": 0.25}, {"x": 0.25, "y": 0.5})
    lp, ln, n = doc_log_likelihood(model, ("x", "y", "x"))
    assert n == 3
    assert lp == pytest.approx(math.log(0.0625), rel=1e-15)
    assert ln == pytest.approx(math.log(0.03125), rel=1e-15)


def test_floor_clamps_vanishing_probabilities():
    # theta puts no weight on the cluster holding "y", so its mixture is 0
    clustering = from_member_sets([{"x"}, {"y"}], ("x", "y"), None)
    model = MixtureModel(
        "a", clustering, ({"x": 1.0}, {"y": 1.0}), (1.0, 0.0), (0.5, 0.5)
    )
    lp, ln, n = doc_log_likelihood(model, ("y", "y", "y"))
    assert n == 3
    assert lp == pytest.approx(3 * math.log(1e-12), rel=1e-15)
    assert ln == pytest.approx(3 * math.log(0.5), rel=1e-15)

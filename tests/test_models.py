"""Training, scoring, deciding, and persisting the four classifiers."""

import copy
import dataclasses
import io
import json
import binascii
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    Clustering,
    CosineModel,
    Decision,
    EmConfig,
    HardClusterModel,
    MixtureModel,
    TrainingError,
    WordModel,
    classify_document,
    decide,
    doc_log_likelihood,
    em_fit,
    load_model,
    method_of,
    parse_corpus,
    save_model,
    sweep,
    train_cos,
    train_fmm,
    train_hcm,
    train_wbm,
)
from mixcat.cli import main
from mixcat.models import category_table, doc_term_table, table_scores
from reference import cluster_dicts, from_member_sets, pack_tokens, sides

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestWordModel:
    def test_fixture_probabilities(self, sports_corpus):
        positive, negative = sides(train_wbm(sports_corpus, "c1"))
        # 10 positive tokens, 6 vocabulary words: denominator 13
        assert positive["racket"] == pytest.approx(4.5 / 13, rel=1e-15)
        assert positive["kick"] == pytest.approx(0.5 / 13, rel=1e-15)
        assert negative["racket"] == pytest.approx(0.5 / 10, rel=1e-15)
        assert negative["goal"] == pytest.approx(3.5 / 10, rel=1e-15)

    def test_both_sides_cover_the_union_vocabulary(self, sports_corpus):
        positive, negative = sides(train_wbm(sports_corpus, "c1"))
        assert set(positive) == set(negative)
        assert all(p > 0 for p in positive.values())
        assert all(p > 0 for p in negative.values())
        for side in (positive, negative):
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
        exclusive = sides(train_wbm(corpus, "a"))
        shared = sides(train_wbm(corpus, "a", positive_only=False))
        # with sharing, the complement picks up the x from the a,b doc
        assert exclusive[1]["x"] == pytest.approx(0.5 / 3.5, rel=1e-15)
        assert shared[1]["x"] == pytest.approx(1.5 / 5.5, rel=1e-15)
        assert exclusive[0] == shared[0]


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

    def test_assembled_overlapping_clusters_rejected(self):
        # load_model refuses such a model's file, so it is refused when made
        clustering = from_member_sets([{"x", "y"}, {"y"}], ("x", "y"), None)
        with pytest.raises(ValueError, match="disjoint clusters"):
            HardClusterModel("a", clustering, (0.5, 0.5), (0.5, 0.5))

    def test_overlapping_rank_clusters_rejected(self):
        # w ranks second on both sides, so cutoffs 2/1 put it in both
        corpus = parse_corpus(["a\tp p p w w", "b\tq q q w w"])
        with pytest.raises(TrainingError, match="overlap"):
            train_hcm(corpus, "a", top_l=2, top_m=1)


class TestMixtureModel:
    def test_fixture_cluster_words_and_weights(self, sports_corpus):
        model = train_fmm(sports_corpus, "c1", 0.4)
        cluster_words = cluster_dicts(model)
        assert cluster_words[0] == pytest.approx(
            {"racket": 4 / 9, "stroke": 1 / 9, "shot": 2 / 9, "ball": 2 / 9},
            rel=1e-15,
        )
        assert cluster_words[1] == pytest.approx(
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

    def test_discarded_words_are_not_counted(self, sports_corpus):
        model = train_fmm(sports_corpus, "c1", 0.5)
        assert model.clustering.discarded == {"ball"}
        _, _, n = doc_log_likelihood(model, ("kick", "goal", "goal", "ball"))
        assert n == 3
        assert classify_document(model, ("ball",), 0.0) == Decision("unclassified", None)

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

    @pytest.mark.parametrize("gamma", [0.2, 0.4])
    @pytest.mark.parametrize("positive_only", [True, False])
    def test_theta_is_the_fit_of_each_side_word_counts(self, gamma, positive_only):
        """Each side's weights are, bit for bit, ``em_fit`` over that
        side's ``{word: count}`` of clustered words, in table order."""
        lines = (GOLDEN / "train.txt").read_text(encoding="utf-8").splitlines()
        corpus = parse_corpus(lines)
        model = train_fmm(corpus, "c02", gamma, positive_only=positive_only)
        table = category_table(corpus, "c02", positive_only)
        clustered = model.clustering.member.any(axis=0).tolist()
        thetas = (model.positive_theta, model.negative_theta)
        for theta, row in zip(thetas, table.matrix.tolist()):
            counts = {
                word: f
                for word, f, kept in zip(table.vocabulary, row, clustered)
                if kept and f > 0
            }
            fitted = em_fit(*pack_tokens(counts, cluster_dicts(model)))
            assert fitted.theta == tuple(theta.tolist())

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
        for epsilon in (-0.1, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                decide(-1.0, -2.0, 2, epsilon)

    def test_needs_scored_tokens(self):
        with pytest.raises(ValueError, match="scored token"):
            decide(-1.0, -2.0, 0, 0.1)


class TestCosineModel:
    def test_fixture_vectors(self, sports_corpus):
        positive, negative = sides(train_cos(sports_corpus, "c1"))
        vocabulary = ["racket", "stroke", "shot", "ball", "goal", "kick"]
        assert list(positive) == list(negative) == vocabulary
        assert list(positive.values()) == [4.0, 1.0, 2.0, 2.0, 1.0, 0.0]
        assert list(negative.values()) == [0.0, 0.0, 0.0, 2.0, 3.0, 2.0]

    def test_fixture_decision(self, sports_corpus):
        model = train_cos(sports_corpus, "c1")
        decision = classify_document(model, ("kick", "goal", "goal", "ball"), 0.0)
        expected = 4 / math.sqrt(6 * 26) - 10 / math.sqrt(6 * 17)
        assert decision.outcome == "negative"
        assert decision.score == pytest.approx(expected, rel=1e-12)

    def test_aligned_document_is_positive(self):
        model = CosineModel("a", ("x", "y"), (1.0, 0.0), (0.0, 1.0))
        decision = classify_document(model, ("x", "x"), 0.0)
        assert decision.outcome == "positive"
        assert decision.score == pytest.approx(1.0, rel=1e-12)

    def test_unknown_document_stays_unclassified(self):
        model = CosineModel("a", ("x", "y"), (1.0, 0.0), (0.0, 1.0))
        assert classify_document(model, ("z", "w"), 0.0) == Decision("unclassified", None)

    def test_threshold_band(self):
        model = CosineModel("a", ("x", "y"), (1.0, 1.0), (0.0, 1.0))
        # doc (x) has cos 1/sqrt(2) to positive, 0 to negative
        score = 1 / math.sqrt(2)
        assert classify_document(model, ("x",), 0.8).outcome == "unclassified"
        decision = classify_document(model, ("x",), 0.7)
        assert decision.outcome == "positive"
        assert decision.score == pytest.approx(score, rel=1e-12)

    def test_epsilon_must_be_nonnegative(self, sports_corpus):
        model = train_cos(sports_corpus, "c1")
        with pytest.raises(ValueError, match="nonnegative"):
            classify_document(model, ("goal",), -0.5)

    def test_norms_are_the_side_norms(self, sports_corpus, tmp_path):
        for category in sports_corpus.categories:
            model = train_cos(sports_corpus, category)
            path = tmp_path / f"{category}.json"
            save_model(model, path)
            expected = tuple(
                math.sqrt(math.fsum(v * v for v in side.values()))
                for side in sides(model)
            )
            assert model.norms == load_model(path).norms == expected

    def test_norms_leave_equality_repr_and_file_unchanged(self, sports_corpus, tmp_path):
        model, fresh = train_cos(sports_corpus, "c1"), train_cos(sports_corpus, "c1")
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        save_model(model, before)
        repr_before = repr(model)
        model.norms
        save_model(model, after)
        assert model == fresh and fresh == model
        assert repr(model) == repr_before == repr(fresh)
        assert after.read_text() == before.read_text()

    def test_replace_gives_fresh_norms(self):
        model = CosineModel("a", ("x", "y"), (3.0, 4.0), (1.0, 0.0))
        assert model.norms == (5.0, 1.0)
        scaled = dataclasses.replace(model, positive=(6.0, 8.0))
        assert scaled.norms == (10.0, 1.0)
        assert model.norms == (5.0, 1.0)

    @pytest.mark.parametrize("side", ["positive", "negative"])
    def test_all_zero_side_refused_for_every_document(self, side):
        """No document has a cosine with a zero vector, so the model is
        refused whatever it is asked to score, and by every path alike."""
        values = {"positive": (1.0, 1.0), "negative": (1.0, 1.0)}
        values[side] = (0.0, 0.0)
        model = CosineModel("a", ("x", "y"), **values)
        message = f"{side}' is all zero"
        documents = [("x",), (), ("z",)]  # in the model, empty, unknown only
        for document in documents:
            with pytest.raises(ValueError, match=message):
                classify_document(model, document, 0.0)
            with pytest.raises(ValueError, match=message):
                table_scores(model, doc_term_table([document]))
        with pytest.raises(ValueError, match=message):
            table_scores(model, doc_term_table(documents))
        corpus = parse_corpus(io.StringIO("a\tx\nb\t\nb\tz\n"))
        with pytest.raises(ValueError, match=message):
            sweep([model], corpus)

    def test_norms_computed_once_per_model(self, sports_corpus, monkeypatch):
        """Scoring reads each side's values once per model, not once per
        document: a decision costs time in the document, not in V."""
        hypot, calls = math.hypot, []

        def counted(*values):
            calls.append(len(values))
            return hypot(*values)

        documents = [d.tokens for d in sports_corpus.documents] + [("kick",), ()]
        documents = (documents * 9)[:50]
        trained = train_cos(sports_corpus, "c1")
        model = CosineModel("c1", trained.vocabulary, trained.positive, trained.negative)
        monkeypatch.setattr(math, "hypot", counted)
        single = [classify_document(model, d, 0.0).score for d in documents]
        batch = table_scores(model, doc_term_table(documents))
        assert calls == [len(model.vocabulary)] * 2
        monkeypatch.undo()
        assert single == batch == table_scores(trained, doc_term_table(documents))


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

    @pytest.mark.parametrize("train", [
        train_wbm,
        lambda corpus, category: train_hcm(corpus, category, gamma=0.5),
        lambda corpus, category: train_fmm(corpus, category, 0.4),
        train_cos,
    ], ids=["wbm", "hcm", "fmm", "cos"])
    @pytest.mark.parametrize("doc", [(), ("comet", "nebula"), ("comet", "goal")],
                             ids=["empty", "oov-only", "known-word"])
    def test_negative_epsilon_refused_for_every_document(self, sports_corpus, train, doc):
        model = train(sports_corpus, "c1")
        for epsilon in (-1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon must be nonnegative"):
                classify_document(model, doc, epsilon)

    @pytest.mark.parametrize("doc", [(), ("comet", "nebula"), ("comet", "goal")],
                             ids=["empty", "oov-only", "known-word"])
    def test_unknown_model_type_refused_for_every_document(self, doc):
        with pytest.raises(TypeError):
            classify_document(object(), doc, 0.0)


_DROP = object()  # marks a field to delete from a payload


def _b64(values) -> str:
    """Floats as save_model writes them: base64 of little-endian float64."""
    data = np.asarray(values, dtype="<f8").tobytes()
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def _bits(rows) -> str:
    """A member matrix as save_model writes it: bits packed per row."""
    packed = np.packbits(np.array(rows, dtype=bool), axis=1)
    return binascii.b2a_base64(packed.tobytes(), newline=False).decode("ascii")


_VALID_PAYLOADS = {
    "wbm": {
        "schema_version": 2, "method": "wbm", "category": "a", "settings": {},
        "vocabulary": ["x", "y"],
        "positive": _b64([0.5, 0.5]), "negative": _b64([0.25, 0.75]),
    },
    "hcm": {
        "schema_version": 2, "method": "hcm", "category": "a", "settings": {},
        "vocabulary": ["x", "y", "z"], "clusters": 2, "related_categories": None,
        "members": _bits([[1, 0, 0], [0, 1, 1]]),
        "positive": _b64([0.5, 0.5]), "negative": _b64([0.25, 0.75]),
    },
    "fmm": {
        "schema_version": 2, "method": "fmm", "category": "a", "settings": {},
        "vocabulary": ["x", "y", "z"], "clusters": 2,
        "related_categories": ["a", "~a"],
        "members": _bits([[1, 1, 0], [0, 1, 1]]),
        "cluster_words": [_b64([0.5, 0.5]), _b64([0.5, 0.5])],
        "positive_theta": _b64([0.5, 0.5]), "negative_theta": _b64([0.25, 0.75]),
    },
    "cos": {
        "schema_version": 2, "method": "cos", "category": "a", "settings": {},
        "vocabulary": ["x", "y"],
        "positive": _b64([1.0, 0.0]), "negative": _b64([0.0, 2.0]),
    },
}


_MALFORMED = [  # (id, base payload, path to the field, new value, error)
    ("not-an-object", None, (), [1, 2], "JSON object"),
    ("wbm-no-category", "wbm", ("category",), _DROP, "no 'category' field"),
    ("wbm-category-type", "wbm", ("category",), 5, "'category' must be a string"),
    ("wbm-settings-type", "wbm", ("settings",), [], "'settings' must be an object"),
    ("wbm-no-method", "wbm", ("method",), _DROP, "unknown model method: None"),
    # word lists: all strings, no duplicates
    ("wbm-no-vocabulary", "wbm", ("vocabulary",), _DROP, "no 'vocabulary' field"),
    ("wbm-vocabulary-type", "wbm", ("vocabulary",), "xy",
     "'vocabulary' must be a list"),
    ("wbm-vocabulary-entries", "wbm", ("vocabulary",), [1, "y"],
     "'vocabulary' must be a list of strings"),
    ("wbm-vocabulary-duplicates", "wbm", ("vocabulary",), ["x", "x"],
     "'vocabulary' has duplicate"),
    ("hcm-vocabulary-duplicates", "hcm", ("vocabulary",), ["x", "y", "y"],
     "'vocabulary' has duplicate"),
    # related_categories: no duplicates, one per cluster
    ("hcm-no-related-categories", "hcm", ("related_categories",), _DROP,
     "no 'related_categories' field"),
    ("fmm-related-categories-entries", "fmm", ("related_categories",), ["a", 2],
     "'related_categories' must be a list of strings"),
    ("fmm-related-categories-duplicates", "fmm", ("related_categories",), ["a", "a"],
     "'related_categories' has duplicate"),
    ("fmm-related-categories-short", "fmm", ("related_categories",), ["a"],
     "'related_categories' needs one category per cluster: 1 for 2 clusters"),
    ("hcm-no-clusters", "hcm", ("clusters",), _DROP,
     "'clusters' must be a non-negative integer"),
    ("hcm-clusters-type", "hcm", ("clusters",), "2",
     "'clusters' must be a non-negative integer"),
    ("hcm-clusters-bool", "hcm", ("clusters",), True,
     "'clusters' must be a non-negative integer"),
    ("hcm-clusters-negative", "hcm", ("clusters",), -1,
     "'clusters' must be a non-negative integer"),
    # vectors: valid base64
    ("wbm-no-positive", "wbm", ("positive",), _DROP, "no 'positive' field"),
    ("wbm-positive-list", "wbm", ("positive",), [0.5, 0.5],
     "'positive' must be a string"),
    ("wbm-positive-not-base64", "wbm", ("positive",), "not base64",
     "'positive' is not valid base64"),
    ("wbm-positive-padding", "wbm", ("positive",), _b64([0.5, 0.5])[:-1],
     "'positive' is not valid base64"),
    ("wbm-positive-stray-character", "wbm", ("positive",),
     "!" + _b64([0.5, 0.5]), "'positive' is not valid base64"),
    ("wbm-positive-non-ascii", "wbm", ("positive",), "\u00e9" + _b64([0.5, 0.5]),
     "'positive' is not valid base64"),
    ("fmm-cluster-words-entry-type", "fmm", ("cluster_words", 0), [0.5, 0.5],
     r"'cluster_words\[0\]' must be a base64 string"),
    ("hcm-members-not-base64", "hcm", ("members",), "4A",
     "'members' is not valid base64"),
    # vectors: one entry per word, per cluster, or per member of cluster j
    ("wbm-positive-short", "wbm", ("positive",), _b64([1.0]),
     r"'positive' has 1 entries, expected 2 \(one per vocabulary word\)"),
    ("wbm-negative-long", "wbm", ("negative",), _b64([0.25, 0.25, 0.5]),
     "'negative' has 3 entries, expected 2"),
    ("wbm-positive-partial-float", "wbm", ("positive",),
     _b64([0.5, 0.5])[:16], "'positive' has 1.5 entries, expected 2"),
    ("cos-negative-short", "cos", ("negative",), _b64([2.0]),
     "'negative' has 1 entries, expected 2"),
    ("hcm-positive-short", "hcm", ("positive",), _b64([1.0]),
     r"'positive' has 1 entries, expected 2 \(one per cluster\)"),
    ("hcm-negative-long", "hcm", ("negative",), _b64([0.2, 0.3, 0.5]),
     "'negative' has 3 entries, expected 2"),
    ("fmm-cluster-words-type", "fmm", ("cluster_words",), _b64([0.5, 0.5]),
     "'cluster_words' must be a list"),
    ("fmm-cluster-words-short", "fmm", ("cluster_words",), [_b64([0.5, 0.5])],
     r"'cluster_words' has 1 entries, expected 2 \(one per cluster\)"),
    ("fmm-cluster-words-member-count", "fmm", ("cluster_words", 1),
     _b64([0.25, 0.25, 0.5]),
     r"'cluster_words\[1\]' has 3 entries, expected 2 \(one per member of cluster 1\)"),
    ("fmm-positive-theta-short", "fmm", ("positive_theta",), _b64([1.0]),
     "'positive_theta' has 1 entries, expected 2"),
    ("fmm-negative-theta-long", "fmm", ("negative_theta",), _b64([0.2, 0.3, 0.5]),
     "'negative_theta' has 3 entries, expected 2"),
    # values: finite and non-negative
    ("wbm-positive-negative", "wbm", ("positive",), _b64([1.3, -0.3]),
     "'positive' has negative or non-finite entries"),
    ("wbm-positive-nan", "wbm", ("positive",), _b64([math.nan, 1.0]),
     "'positive' has negative or non-finite entries"),
    ("cos-positive-infinite", "cos", ("positive",), _b64([math.inf, 1.0]),
     "'positive' has negative or non-finite entries"),
    ("hcm-negative-negative", "hcm", ("negative",), _b64([-0.5, 1.5]),
     "'negative' has negative or non-finite entries"),
    ("fmm-cluster-words-nan", "fmm", ("cluster_words", 0), _b64([math.nan, 0.5]),
     r"'cluster_words\[0\]' has negative or non-finite entries"),
    # distributions: sum to 1 within 1e-9
    ("wbm-positive-sum", "wbm", ("positive",), _b64([0.9, 0.3]),
     "'positive' does not sum to 1"),
    ("hcm-positive-sum", "hcm", ("positive",), _b64([0.5, 0.5 + 1e-8]),
     "'positive' does not sum to 1"),
    ("fmm-cluster-words-sum", "fmm", ("cluster_words", 1), _b64([0.5, 0.6]),
     r"'cluster_words\[1\]' does not sum to 1"),
    ("fmm-negative-theta-sum", "fmm", ("negative_theta",), _b64([0.25, 0.25]),
     "'negative_theta' does not sum to 1"),
    # members: exactly m rows, zero padding, disjoint for hcm
    ("hcm-no-members", "hcm", ("members",), _DROP, "no 'members' field"),
    ("hcm-members-rows", "hcm", ("members",), _bits([[1, 0, 0]]),
     "'members' has 1 bytes, expected 2 rows of 1"),
    ("fmm-members-rows", "fmm", ("members",), _bits([[1, 1, 0]] * 3),
     "'members' has 3 bytes, expected 2 rows of 1"),
    ("hcm-members-padding", "hcm", ("members",), _bits([[1, 0, 0, 1], [0, 1, 1, 0]]),
     "'members' has padding bits set"),
    ("hcm-overlapping-members", "hcm", ("members",), _bits([[1, 1, 0], [0, 1, 1]]),
     "'members' overlaps"),
    # a cos side that is all zero
    ("cos-positive-zero", "cos", ("positive",), _b64([0.0, 0.0]),
     "'positive' is all zero"),
    ("cos-negative-zero", "cos", ("negative",), _b64([0.0, -0.0]),
     "'negative' is all zero"),
]


# save_model's exact text for the sports fixture's c1 models
_SAVED_WBM = (
    '{"schema_version": 2, "method": "wbm", "category": "c1", "settings": {}, '
    '"vocabulary": ["racket", "stroke", "shot", "ball", "goal", "kick"], '
    '"positive": "dmIndmIn1j+e2Imd2Im9P9mJndiJncg/2Ymd2ImdyD+e2Imd2Im9PxQ7sRM7saM/", '
    '"negative": "mpmZmZmZqT+amZmZmZmpP5qZmZmZmak/AAAAAAAA0D9mZmZmZmbWPwAAAAAAANA/"}\n'
)

_SAVED_COS = (
    '{"schema_version": 2, "method": "cos", "category": "c1", "settings": {}, '
    '"vocabulary": ["racket", "stroke", "shot", "ball", "goal", "kick"], '
    '"positive": "AAAAAAAAEEAAAAAAAADwPwAAAAAAAABAAAAAAAAAAEAAAAAAAADwPwAAAAAAAAAA", '
    '"negative": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAEAAAAAAAAAIQAAAAAAAAABA"}\n'
)

# the floats those vectors hold, as the JSON literals schema 1 wrote
_SAVED_VALUES = {
    "wbm": (
        [0.34615384615384615, 0.11538461538461539, 0.19230769230769232,
         0.19230769230769232, 0.11538461538461539, 0.038461538461538464],
        [0.05, 0.05, 0.05, 0.25, 0.35, 0.25],
    ),
    "cos": ([4.0, 1.0, 2.0, 2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0, 3.0, 2.0]),
}


# a model file as mixcat < 0.3 wrote it
_SCHEMA_1_WBM = """{
  "schema_version": 1,
  "method": "wbm",
  "category": "a",
  "vocabulary": ["x", "y"],
  "positive": [0.5, 0.5],
  "negative": [0.25, 0.75],
  "settings": {}
}
"""

_ROUND_TRIP_TRAINERS = {
    "wbm": train_wbm,
    "hcm-threshold": lambda corpus, c, rule: train_hcm(
        corpus, c, gamma=0.5, positive_only=rule
    ),
    "hcm-rank": lambda corpus, c, rule: train_hcm(
        corpus, c, top_l=2, top_m=3, positive_only=rule
    ),
    "fmm": lambda corpus, c, rule: train_fmm(corpus, c, 0.3, positive_only=rule),
    # at gamma 0.5 a word split evenly between the sides is discarded
    "fmm-discarding": lambda corpus, c, rule: train_fmm(
        corpus, c, 0.5, positive_only=rule
    ),
    "cos": train_cos,
}

_ROUND_TRIP_DOCS = st.lists(
    st.tuples(
        st.sets(st.sampled_from("abc"), min_size=1, max_size=2),
        st.lists(st.sampled_from(["w0", "w1", "w2", "w3", "w4", "w5"]), max_size=8),
    ),
    min_size=2,
    max_size=10,
)


@pytest.mark.parametrize("method", sorted(_ROUND_TRIP_TRAINERS))
@given(documents=_ROUND_TRIP_DOCS, positive_only=st.booleans())
def test_reloaded_models_equal_the_saved_ones(
    tmp_path_factory, method, documents, positive_only
):
    corpus = parse_corpus(
        f"{','.join(sorted(labels))}\t{' '.join(tokens)}" for labels, tokens in documents
    )
    # one file, rewritten by every example
    path = tmp_path_factory.getbasetemp() / "reloaded_model.json"
    for category in corpus.categories:
        try:
            model = _ROUND_TRIP_TRAINERS[method](corpus, category, positive_only)
        except TrainingError:
            continue
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        loaded = load_model(path)
        assert loaded == model
        save_model(loaded, path)
        assert path.read_text(encoding="utf-8") == text


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

    @pytest.mark.parametrize(("train", "text"), [(train_wbm, _SAVED_WBM),
                                                 (train_cos, _SAVED_COS)],
                             ids=["wbm", "cos"])
    def test_saved_text_is_pinned(self, sports_corpus, tmp_path, train, text):
        path = tmp_path / "m.json"
        model = train(sports_corpus, "c1")
        save_model(model, path)
        assert path.read_text(encoding="utf-8") == text
        payload = json.loads(text)
        for name, values in zip(("positive", "negative"), _SAVED_VALUES[method_of(model)]):
            decoded = np.frombuffer(binascii.a2b_base64(payload[name]), "<f8")
            assert decoded.tolist() == values

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
        for dist in cluster_dicts(model):
            assert all(words[w] is w for w in dist)
        for members in model.clustering.clusters:
            assert all(words[w] is w for w in members)

    def test_loaded_models_share_one_string_per_word(self, sports_corpus, tmp_path):
        first, second = tmp_path / "c1.json", tmp_path / "c2.json"
        save_model(train_wbm(sports_corpus, "c1"), first)
        save_model(train_wbm(sports_corpus, "c2"), second)
        a, b = load_model(first), load_model(second)
        # words are interned: one string per word across models
        assert set(a.vocabulary) == set(b.vocabulary)
        words = {w: w for w in a.vocabulary}
        assert all(words[w] is w for w in b.vocabulary)

    @pytest.mark.parametrize("method", sorted(_ROUND_TRIP_TRAINERS))
    def test_trained_reloaded_and_assembled_models_agree(
        self, sports_corpus, tmp_path, method
    ):
        """A trained model, its reload and a model assembled from the same
        values, as plain lists of floats, decide alike, bit for bit, and
        compare equal."""
        trained = _ROUND_TRIP_TRAINERS[method](sports_corpus, "c1", True)
        path = tmp_path / "m.json"
        save_model(trained, path)
        loaded = load_model(path)
        if isinstance(trained, (WordModel, CosineModel)):
            assembled = type(trained)(
                "c1",
                tuple(trained.vocabulary),
                trained.positive.tolist(),
                trained.negative.tolist(),
            )
        else:
            clustering = trained.clustering
            clustering = from_member_sets(
                [set(members) for members in clustering.clusters],
                clustering.vocabulary,
                clustering.related_categories,
            )
            if isinstance(trained, MixtureModel):
                assembled = MixtureModel(
                    "c1",
                    clustering,
                    tuple(vector.tolist() for vector in trained.cluster_words),
                    trained.positive_theta.tolist(),
                    trained.negative_theta.tolist(),
                    dict(trained.settings),
                )
            else:
                assembled = HardClusterModel(
                    "c1",
                    clustering,
                    trained.positive.tolist(),
                    trained.negative.tolist(),
                    dict(trained.settings),
                )
        assert trained == loaded == assembled
        assert assembled == trained and loaded == trained
        documents = [d.tokens for d in sports_corpus.documents]
        documents += [("kick", "goal", "goal", "ball"), ("comet",), ()]
        for document in documents:
            for epsilon in (0.0, 0.05, 0.4):
                decision = classify_document(trained, document, epsilon)
                assert classify_document(loaded, document, epsilon) == decision
                assert classify_document(assembled, document, epsilon) == decision
        table = doc_term_table(documents)
        assert table_scores(trained, table) == table_scores(loaded, table) == (
            table_scores(assembled, table)
        )
        save_model(assembled, tmp_path / "assembled.json")
        assert (tmp_path / "assembled.json").read_text() == path.read_text()

    def test_models_differ_in_one_bit(self, sports_corpus):
        model = train_wbm(sports_corpus, "c1")
        vocabulary, negative = model.vocabulary, model.negative
        positive = model.positive.copy()
        kick = vocabulary.index("kick")
        positive[kick] = math.nextafter(positive[kick], 1.0)
        assert WordModel("c1", vocabulary, positive, negative) != model
        assert WordModel("c2", vocabulary, model.positive, negative) != model
        assert train_cos(sports_corpus, "c1") != model

    def test_save_writes_the_header_in_the_same_file(self, sports_corpus, tmp_path):
        model = train_fmm(sports_corpus, "c1", 0.4)
        plain, headed = tmp_path / "plain.json", tmp_path / "headed.json"
        header = "# mixcat train\n# config {}\n"
        save_model(model, plain)
        save_model(model, headed, header=header)
        assert headed.read_bytes() == header.encode() + plain.read_bytes()
        assert load_model(headed) == model

    @pytest.mark.parametrize("header", ["no hash\n", "# no newline", "#a\nb\n"])
    def test_save_refuses_a_header_load_would_not_skip(self, sports_corpus, tmp_path, header):
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="header"):
            save_model(train_wbm(sports_corpus, "c1"), path, header=header)
        assert not path.exists()

    def test_settings_survive(self, sports_corpus, tmp_path):
        model = train_hcm(sports_corpus, "c1", top_l=5, top_m=5)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).settings == {"scheme": "rank", "top_l": 5, "top_m": 5}

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema_version": 99, "method": "wbm", "category": "a"}')
        with pytest.raises(ValueError, match="^unsupported model schema version: 99$"):
            load_model(path)

    def test_schema_1_is_refused_with_a_retrain_hint(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(_SCHEMA_1_WBM)
        message = (
            "unsupported model schema version: 1 "
            "(written by mixcat < 0.3; retrain the model)"
        )
        with pytest.raises(ValueError) as caught:
            load_model(path)
        assert str(caught.value) == message

    def test_unknown_method(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema_version": 2, "method": "svm", "category": "a"}')
        with pytest.raises(ValueError, match="unknown model method"):
            load_model(path)

    def test_equal_bits_share_one_float_and_signed_zeros_stay_apart(self, tmp_path):
        model = CosineModel("a", ("x", "y"), (-0.0, 3.0), (0.0, 3.0))
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        positive, negative = sides(loaded)
        assert math.copysign(1.0, positive["x"]) == -1.0
        assert math.copysign(1.0, negative["x"]) == 1.0
        assert float.hex(positive["y"]) == float.hex(negative["y"])
        assert loaded != CosineModel("a", ("x", "y"), (0.0, 3.0), (0.0, 3.0))

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
        model = WordModel("a", ("x", "y"), (0.9, 0.1), (0.2, 0.8))
        decision = classify_document(model, ("x", "x"), 0.0)
        assert decision.outcome == "positive"
        assert decision.score == pytest.approx(math.log(0.9 / 0.2), rel=1e-12)

    def test_comment_lines_are_ignored_when_loading(self, sports_corpus, tmp_path):
        model = train_wbm(sports_corpus, "c1")
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text("# a header line\n# another\n" + path.read_text())
        assert sides(load_model(path)) == sides(model)

    def test_deeply_nested_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ValueError, match="nests too deeply"):
            load_model(path)

    def test_only_the_leading_comment_block_is_skipped(self, sports_corpus, tmp_path):
        path = tmp_path / "m.json"
        save_model(train_wbm(sports_corpus, "c1"), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("# header\n" + lines[0] + "# not a header\n" + "".join(lines[1:]))
        with pytest.raises(ValueError):
            load_model(path)


def test_log_likelihood_hand_values():
    model = WordModel("a", ("x", "y"), (0.5, 0.25), (0.25, 0.5))
    lp, ln, n = doc_log_likelihood(model, ("x", "y", "x"))
    assert n == 3
    assert lp == pytest.approx(math.log(0.0625), rel=1e-15)
    assert ln == pytest.approx(math.log(0.03125), rel=1e-15)


def test_floor_clamps_vanishing_probabilities():
    # theta puts no weight on the cluster holding "y", so its mixture is 0
    clustering = from_member_sets([{"x"}, {"y"}], ("x", "y"), None)
    model = MixtureModel(
        "a", clustering, ((1.0,), (1.0,)), (1.0, 0.0), (0.5, 0.5)
    )
    lp, ln, n = doc_log_likelihood(model, ("y", "y", "y"))
    assert n == 3
    assert lp == pytest.approx(3 * math.log(1e-12), rel=1e-15)
    assert ln == pytest.approx(3 * math.log(0.5), rel=1e-15)


def test_fields_are_read_only_float64_vectors(sports_corpus):
    """Each model holds its parameters as the float64 vectors it was
    given, or converted from plain sequences, and none can be written."""
    for model in (
        train_wbm(sports_corpus, "c1"),
        train_hcm(sports_corpus, "c1", gamma=0.5),
        train_cos(sports_corpus, "c1"),
        WordModel("a", ("x", "y"), [0.5, 0.5], (0.25, 0.75)),
    ):
        for side in (model.positive, model.negative):
            assert side.dtype == np.float64 and not side.flags.writeable
    model = train_fmm(sports_corpus, "c1", 0.4)
    for vector in (*model.cluster_words, model.positive_theta, model.negative_theta):
        assert vector.dtype == np.float64 and not vector.flags.writeable
    sizes = model.clustering.member.sum(axis=1).tolist()
    assert [len(vector) for vector in model.cluster_words] == sizes
    with pytest.raises(ValueError, match="read-only"):
        model.positive_theta[0] = 1.0


def test_no_library_path_reads_assignments(
    sports_corpus, sports_text, tmp_path, monkeypatch
):
    """``Clustering.assignments`` builds a dict over the vocabulary on each
    read, so training, saving, loading, scoring, the sweep and the CLI
    read the member matrix instead."""

    def refuse(clustering):
        raise AssertionError("Clustering.assignments was read")

    monkeypatch.setattr(Clustering, "assignments", property(refuse))
    trainers = [
        train_wbm,
        lambda corpus, c: train_hcm(corpus, c, gamma=0.5),
        lambda corpus, c: train_hcm(corpus, c, top_l=5, top_m=5),
        lambda corpus, c: train_fmm(corpus, c, 0.4),
        train_cos,
    ]
    documents = [d.tokens for d in sports_corpus.documents] + [("comet",), ()]
    for i, train in enumerate(trainers):
        loaded = []
        for category in sports_corpus.categories:
            path = tmp_path / f"{i}-{category}.json"
            save_model(train(sports_corpus, category), path)
            loaded.append(load_model(path))
            for document in documents:
                classify_document(loaded[-1], document, 0.0)
            table_scores(loaded[-1], doc_term_table(documents))
        sweep(loaded, sports_corpus)
    corpus = tmp_path / "sports.txt"
    corpus.write_text(sports_text, encoding="utf-8")
    where = ["--train", str(corpus), "--output", str(tmp_path / "out")]
    for method, gamma in (("hcm", "0.5"), ("fmm", "0.4")):
        flags = ["--test", str(corpus), "--method", method, "--gamma", gamma]
        assert main(["eval", *where, *flags]) == 0
    for flags in (["--gamma", "0.4"], ["--top-l", "2", "--top-m", "2"]):
        assert main(["clusters", *where, *flags]) == 0

"""Batch and single-document scoring against a per-document reference.

The reference below is the scoring each document got on its own before
scores came from per-word terms and segmented sums: one weighted log
mixture per side for the likelihood models (counts aggregated per
cluster for ``hcm``), and a dense vocabulary-length vector for ``cos``.
"""

from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixcat import (
    PROB_FLOOR,
    CosineModel,
    HardClusterModel,
    MixtureModel,
    TrainingError,
    WordModel,
    classify_document,
    doc_log_likelihood,
    parse_corpus,
    score_documents,
    train_cos,
    train_fmm,
    train_hcm,
    train_wbm,
)
from mixcat.models import threshold_outcome

TOLERANCE = 1e-12
EPSILONS = (0.0, 0.05, 0.3)
WORDS = ("w0", "w1", "w2", "w3", "w4", "w5")
TRAINERS = {
    "wbm": train_wbm,
    "hcm-threshold": lambda corpus, c: train_hcm(corpus, c, gamma=0.5),
    "hcm-rank": lambda corpus, c: train_hcm(corpus, c, top_l=2, top_m=2),
    "fmm-0.2": lambda corpus, c: train_fmm(corpus, c, 0.2),
    "fmm-0.4": lambda corpus, c: train_fmm(corpus, c, 0.4),
    "cos": train_cos,
}


def _reference_log_mixture(counts, probs, theta):
    mix = np.asarray(theta, dtype=np.float64) @ np.asarray(probs, dtype=np.float64)
    return float(
        np.asarray(counts, dtype=np.float64) @ np.log(np.maximum(mix, PROB_FLOOR))
    )


def reference_log_likelihood(model, tokens):
    if isinstance(model, WordModel):
        counter = Counter(t for t in tokens if t in model.positive)
        if not counter:
            return 0.0, 0.0, 0
        words = list(counter)
        counts = [counter[w] for w in words]
        pos, neg = (
            _reference_log_mixture(counts, [[side[w] for w in words]], (1.0,))
            for side in (model.positive, model.negative)
        )
        return pos, neg, sum(counts)
    if isinstance(model, HardClusterModel):
        assignments = model.clustering.assignments
        counter = Counter(assignments[t][0] for t in tokens if t in assignments)
        if not counter:
            return 0.0, 0.0, 0
        ids = list(counter)
        counts = [counter[j] for j in ids]
        pos = _reference_log_mixture(counts, [[model.positive[j] for j in ids]], (1.0,))
        neg = _reference_log_mixture(counts, [[model.negative[j] for j in ids]], (1.0,))
        return pos, neg, sum(counts)
    assert isinstance(model, MixtureModel)
    assignments = model.clustering.assignments
    counter = Counter(t for t in tokens if t in assignments)
    if not counter:
        return 0.0, 0.0, 0
    words = list(counter)
    counts = [counter[w] for w in words]
    rows = [[dist.get(w, 0.0) for w in words] for dist in model.cluster_words]
    pos = _reference_log_mixture(counts, rows, model.positive_theta)
    neg = _reference_log_mixture(counts, rows, model.negative_theta)
    return pos, neg, sum(counts)


def reference_score(model, tokens):
    if isinstance(model, CosineModel):
        counter = Counter(tokens)
        doc = np.array([counter.get(w, 0) for w in model.vocabulary], dtype=np.float64)
        norm = float(np.linalg.norm(doc))
        if norm == 0.0:
            return None
        score = 0.0
        for sign, side in ((1.0, model.positive), (-1.0, model.negative)):
            vec = np.asarray(side, dtype=np.float64)
            score += sign * float(doc @ vec) / (norm * float(np.linalg.norm(vec)))
        return score
    pos, neg, n_eff = reference_log_likelihood(model, tokens)
    return None if n_eff == 0 else (pos - neg) / n_eff


def _lines(documents):
    return [
        f"{','.join(sorted(labels))}\t{' '.join(tokens)}" for labels, tokens in documents
    ]


LABELS = st.sets(st.sampled_from("abc"), min_size=1, max_size=2)
TRAIN = st.lists(
    st.tuples(LABELS, st.lists(st.sampled_from(WORDS), min_size=1, max_size=8)),
    min_size=2,
    max_size=10,
)
# test documents may be empty and may hold words no model has seen
TEST = st.lists(
    st.tuples(LABELS, st.lists(st.sampled_from(WORDS + ("oov",)), max_size=8)),
    min_size=1,
    max_size=6,
)


def _near_threshold(score, epsilon):
    return score is not None and min(abs(score - epsilon), abs(score + epsilon)) <= TOLERANCE


def _models(train, method):
    models = []
    for category in train.categories:
        try:
            models.append(TRAINERS[method](train, category))
        except TrainingError:
            continue
    return models


@settings(max_examples=150)
@given(TRAIN, TEST, st.sampled_from(sorted(TRAINERS)))
def test_batch_and_single_scores_match_the_reference(train_docs, test_docs, method):
    train = parse_corpus(_lines(train_docs))
    test = parse_corpus(_lines(test_docs))
    models = _models(train, method)
    assume(models)
    scores = score_documents(models, test)
    for index, document in enumerate(test.documents):
        for model in models:
            expected = reference_score(model, document.tokens)
            batch = scores[index, model.category]
            for epsilon in EPSILONS:
                single = classify_document(model, document.tokens, epsilon)
                # one document alone is summed exactly as within the set
                assert single.score == batch
                assert single.outcome == threshold_outcome(batch, epsilon)
                # within rounding of the threshold, either side's rounding
                # decides: an fmm word with equal P(w|k) in both clusters
                # scores +2.2e-16 in the reference and 0.0 here, its exact
                # value being +3e-17
                if not _near_threshold(expected, epsilon):
                    assert single.outcome == threshold_outcome(expected, epsilon)
            assert (batch is None) == (expected is None)
            if expected is not None:
                assert abs(batch - expected) <= TOLERANCE


@settings(max_examples=100)
@given(TRAIN, TEST, st.sampled_from([m for m in sorted(TRAINERS) if m != "cos"]))
def test_log_likelihoods_match_the_reference(train_docs, test_docs, method):
    train = parse_corpus(_lines(train_docs))
    test = parse_corpus(_lines(test_docs))
    models = _models(train, method)
    assume(models)
    for document in test.documents:
        for model in models:
            pos, neg, n_eff = doc_log_likelihood(model, document.tokens)
            ref_pos, ref_neg, ref_n = reference_log_likelihood(model, document.tokens)
            assert n_eff == ref_n
            assert abs(pos - ref_pos) <= TOLERANCE
            assert abs(neg - ref_neg) <= TOLERANCE

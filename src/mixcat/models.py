"""The four binary classifiers and the rejection-threshold decision rule.

Every model is trained for one target category against its complement:
the positive side holds the category's documents, the negative side
everything else.  Three of the methods are likelihood models over
token sequences:

* word model: per-side smoothed word histograms, likelihood is the
  product of per-token word probabilities;
* hard-cluster model: disjoint word clusters, likelihood is the
  product of per-token *cluster* probabilities (the within-cluster
  word choice is category-independent and drops out of the ratio);
* mixture model: overlapping clusters with fixed per-cluster word
  distributions and per-side fitted weights, likelihood is the product
  of mixture probabilities.

The cosine model is a non-probabilistic baseline over raw frequency
vectors.  Decisions compare the two sides' scores against a rejection
threshold epsilon; documents inside the band stay unclassified.

Constructors validate nothing so that models can be assembled directly
from externally specified parameters; the training and load paths are
where well-formedness is enforced.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from mixcat.clustering import (
    Clustering,
    distribute_frequencies,
    from_member_sets,
    rank_clusters,
    soft_clusters,
)
from mixcat.corpus import LabeledCorpus, complement_corpus
from mixcat.counts import cluster_frequencies, count_pools
from mixcat.estimation import (
    EmConfig,
    ele_distribution,
    em_fit,
    mle_word_distribution,
)

# guards mixture probabilities that fitted weights drove to numerical
# zero; applied at scoring time only, never stored in a model
PROB_FLOOR = 1e-12


class TrainingError(ValueError):
    """Raised when a corpus cannot support the requested model."""


@dataclass(frozen=True)
class WordModel:
    """Per-side smoothed word distributions over a shared vocabulary."""

    category: str
    positive: Mapping[str, float]
    negative: Mapping[str, float]


@dataclass(frozen=True)
class HardClusterModel:
    """Disjoint clusters with per-side cluster distributions."""

    category: str
    clustering: Clustering
    positive: tuple[float, ...]
    negative: tuple[float, ...]
    settings: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MixtureModel:
    """Shared cluster word distributions, per-side mixture weights."""

    category: str
    clustering: Clustering
    cluster_words: tuple[Mapping[str, float], ...]
    positive_theta: tuple[float, ...]
    negative_theta: tuple[float, ...]
    settings: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class CosineModel:
    """Raw per-side word frequencies over a shared vocabulary.

    ``norms`` is computed on first use and then kept, so a model's sides
    must not be mutated once it has scored a document.
    """

    category: str
    positive: Mapping[str, float]
    negative: Mapping[str, float]

    @functools.cached_property
    def norms(self) -> tuple[float, float]:
        """The Euclidean norms of the positive and the negative side.

        Raises ValueError naming a side that is all zero, since no
        document has a cosine with it.
        """
        # sides hold whole counts once trained, and a sum of squared whole
        # counts is exact, so hypot gives what sqrt(p @ p) gives
        sides = (self.positive, self.negative)
        norms = tuple(math.hypot(*side.values()) for side in sides)
        for name, norm in zip(("positive", "negative"), norms):
            if not norm:
                raise ValueError(f"cosine model side {name!r} is all zero")
        return norms


@dataclass(frozen=True)
class Decision:
    """Outcome of one document against one category.

    ``score`` is the per-token-normalized log-likelihood difference
    (similarity difference for the cosine model); None when the
    document offered no usable evidence.
    """

    outcome: str  # "positive" | "negative" | "unclassified"
    score: float | None


_COMPLEMENT_PREFIX = "~"


def category_table(corpus: LabeledCorpus, category: str, positive_only: bool):
    """Word counts of ``category`` against its complement.

    The rows are ``category`` and ``~category``, filled as
    ``complement_corpus`` splits the corpus; either row may be empty.
    """
    positive, negative = complement_corpus(corpus, category, positive_only)
    return count_pools([(category, positive), (_COMPLEMENT_PREFIX + category, negative)])


def _pools(corpus: LabeledCorpus, category: str, positive_only: bool):
    """The training table; both of its rows need tokens."""
    table = category_table(corpus, category, positive_only)
    if not table.category_total(category):
        raise TrainingError(f"category {category!r} has no training tokens")
    if not table.category_total(_COMPLEMENT_PREFIX + category):
        raise TrainingError(
            f"the complement of category {category!r} has no training tokens"
        )
    return table


def train_wbm(
    corpus: LabeledCorpus, category: str, positive_only: bool = True
) -> WordModel:
    """Smoothed word histograms for the category and its complement.

    Smoothing runs over the union vocabulary of both sides, so every
    training word has positive probability on both sides.
    """
    table = _pools(corpus, category, positive_only)
    vocab = table.vocabulary
    positive, negative = (
        ele_distribution(dict(zip(vocab, row))) for row in table.matrix.tolist()
    )
    return WordModel(category, positive, negative)


def train_hcm(
    corpus: LabeledCorpus,
    category: str,
    gamma: float | None = None,
    top_l: int | None = None,
    top_m: int | None = None,
    positive_only: bool = True,
) -> HardClusterModel:
    """Hard-cluster model under one of two clustering schemes.

    Either ``gamma`` (share threshold, at least 0.5 so clusters cannot
    overlap) or both rank cutoffs ``top_l``/``top_m``.  Cluster
    distributions are smoothed over the clusters, with the category
    total taken as the summed cluster frequencies, so words discarded
    by the threshold contribute nothing.
    """
    by_gamma = gamma is not None
    by_rank = top_l is not None or top_m is not None
    if by_gamma == by_rank:
        raise TrainingError("choose exactly one scheme: gamma, or top_l with top_m")
    if by_rank and (top_l is None or top_m is None):
        raise TrainingError("the rank scheme needs both top_l and top_m")
    if by_gamma and gamma < 0.5:
        raise TrainingError(
            f"gamma={gamma} would allow overlapping clusters; "
            "hard clustering needs gamma >= 0.5"
        )
    table = _pools(corpus, category, positive_only)
    if by_gamma:
        clustering = soft_clusters(table, gamma)
        settings = {"scheme": "threshold", "gamma": gamma}
    else:
        clustering = rank_clusters(table, top_l, top_m)
        settings = {"scheme": "rank", "top_l": top_l, "top_m": top_m}
    if not clustering.is_hard():
        raise TrainingError(
            "clustering produced overlapping clusters; "
            "pick cutoffs that keep them disjoint"
        )
    freqs = cluster_frequencies(table, clustering)
    sides = []
    for name in table.categories:
        counts = {j: freqs[name, j] for j in range(clustering.m)}
        dist = ele_distribution(counts)
        sides.append(tuple(dist[j] for j in range(clustering.m)))
    return HardClusterModel(category, clustering, sides[0], sides[1], settings)


def train_fmm(
    corpus: LabeledCorpus,
    category: str,
    gamma: float,
    em_config: EmConfig | None = None,
    positive_only: bool = True,
    trace: dict | None = None,
) -> MixtureModel:
    """Mixture model: threshold clusters, exact within-cluster word
    distributions, and per-side weights fitted to that side's tokens.

    Words outside every cluster are dropped from the fitting pools; a
    side left with nothing raises a training error naming the side.
    The settings record each side's EM iteration count and convergence
    as ``[positive, negative]`` lists.  When ``trace`` is a dict,
    per-side fitting traces are stored under "positive" and "negative".
    """
    cfg = em_config or EmConfig()
    table = _pools(corpus, category, positive_only)
    clustering = soft_clusters(table, gamma)
    distributed = distribute_frequencies(table, clustering)
    cluster_words = []
    for j, related in enumerate(clustering.related_categories):
        try:
            cluster_words.append(mle_word_distribution(distributed, j))
        except ValueError as err:
            raise TrainingError(
                f"cluster related to {related!r} is empty at gamma={gamma}"
            ) from err
    assigned, vocab = clustering.assignments, table.vocabulary
    results = []
    rows = zip(("positive", "negative"), table.categories, table.matrix.tolist())
    for side, name, row in rows:
        counts = {w: f for w, f in zip(vocab, row) if f > 0 and w in assigned}
        if not counts:
            raise TrainingError(
                f"the {side} side ({name!r}) has no usable tokens "
                "after dropping unclustered words"
            )
        side_trace = [] if trace is not None else None
        results.append(em_fit(cluster_words, counts, cfg, trace=side_trace))
        if trace is not None:
            trace[side] = side_trace
    pos, neg = results
    settings = {
        "gamma": gamma,
        "eta": cfg.eta,
        "max_iterations": cfg.max_iterations,
        "tolerance": cfg.tolerance,
        "em_iterations": [pos.iterations, neg.iterations],
        "em_converged": [pos.converged, neg.converged],
    }
    return MixtureModel(
        category, clustering, tuple(cluster_words), pos.theta, neg.theta, settings
    )


def train_cos(
    corpus: LabeledCorpus, category: str, positive_only: bool = True
) -> CosineModel:
    """Raw frequency vectors for the category and its complement.

    Equal counts share one float, so a model holds one per distinct count.
    """
    table = _pools(corpus, category, positive_only)
    vocab = table.vocabulary
    sides = table.matrix.tolist()
    floats = {count: float(count) for count in set().union(*sides)}
    positive, negative = (dict(zip(vocab, map(floats.__getitem__, s))) for s in sides)
    return CosineModel(category, positive, negative)


class DocTermTable(NamedTuple):
    """Documents counted once, as a sparse row-compressed table.

    ``words`` holds the distinct words in order of first use.  Each
    entry is one distinct word of one document: ``columns`` gives its
    index into ``words`` and ``counts`` its count.  A document's entries
    are contiguous and in order of first use within it.  ``filled``
    marks the documents that have entries, and ``starts`` holds the
    index of each such document's first entry.
    """

    words: list[str]
    columns: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    filled: np.ndarray


def doc_term_table(documents: Iterable[Iterable[str]]) -> DocTermTable:
    """Count each document's tokens once into one doc-term table."""
    index: dict[str, int] = {}
    # typed arrays hold the entries without an object per number
    columns, counts, starts = array("q"), array("d"), array("q")
    filled: list[bool] = []
    for tokens in documents:
        counter = Counter(tokens)
        filled.append(bool(counter))
        if counter:
            starts.append(len(columns))
            columns.extend(index.setdefault(w, len(index)) for w in counter)
            counts.extend(counter.values())
    return DocTermTable(
        list(index),
        np.frombuffer(columns, dtype=np.int64),
        np.frombuffer(counts, dtype=np.float64),
        np.frombuffer(starts, dtype=np.int64),
        np.array(filled, dtype=bool),
    )


def _floored_log(probabilities) -> np.ndarray:
    return np.log(np.maximum(probabilities, PROB_FLOOR))


def _word_terms(model, words: Collection[str]):
    """Per-word terms of a model over distinct words.

    Returns ``(terms, in_model)``: ``terms`` has two rows, the positive
    and the negative side, with one column per word; ``in_model`` marks
    the words the model knows (not unknown, not discarded by
    clustering).  For the likelihood models a term is the word's log
    probability on that side, floored at PROB_FLOOR, so a side's
    document log likelihood is the count-weighted sum of its terms: the
    word probability (``wbm``), the probability of the word's cluster
    (``hcm``), or the fixed mixture ``sum_j theta_j P(w|k_j)`` (``fmm``).
    For ``cos`` the terms are the side's raw frequencies.  Terms of
    words outside the model are finite and carry no weight.
    """
    n = len(words)
    if isinstance(model, (WordModel, CosineModel)):
        cosine = isinstance(model, CosineModel)
        default = 0.0 if cosine else 1.0
        terms = np.empty((2, n))
        for row, side in zip(terms, (model.positive, model.negative)):
            row[:] = np.fromiter(map(side.get, words, repeat(default)), np.float64, n)
        known = np.fromiter(map(model.positive.__contains__, words), bool, n)
        return (terms if cosine else _floored_log(terms)), known
    if isinstance(model, HardClusterModel):
        m = len(model.positive)
        found = map(model.clustering.assignments.get, words, repeat((m,)))
        ids = np.fromiter(map(itemgetter(0), found), np.intp, n)
        # id m picks the term log 1 = 0 for words outside every cluster
        sides = ((*model.positive, 1.0), (*model.negative, 1.0))
        return _floored_log(sides).take(ids, axis=1), ids < m
    if isinstance(model, MixtureModel):
        theta = np.array((model.positive_theta, model.negative_theta))
        mixture = np.zeros((2, n))
        for j, dist in enumerate(model.cluster_words):
            # elementwise, so a word's mixture does not depend on which
            # other words are scored with it
            mixture += theta[:, j, None] * np.fromiter(
                map(dist.get, words, repeat(0.0)), np.float64, n
            )
        known = map(model.clustering.assignments.__contains__, words)
        return _floored_log(mixture), np.fromiter(known, bool, n)
    raise TypeError(f"unknown model type: {type(model).__name__}")


def _side_sums(counts: np.ndarray, terms: np.ndarray, starts) -> np.ndarray:
    """Per document, ``sum c*a`` and ``sum c*b`` as two rows.

    ``counts`` and the two rows of ``terms`` hold one entry per distinct
    word of each document; a document's entries run from its start to
    the next one.  ``terms`` is overwritten with the products.  Each
    document is summed in the same order whatever other documents are
    summed with it, so a document scored alone gives bit for bit what
    it gives within a test set.
    """
    terms *= counts
    return np.add.reduceat(terms, starts, axis=1)


def _evidence(model, counts: np.ndarray) -> np.ndarray:
    """Per entry, its share of a document's evidence (see ``_score``)."""
    return counts * counts if isinstance(model, CosineModel) else counts


def _score(model, pos, neg, evidence):
    """The normalized score from a document's sums (floats or arrays).

    ``pos`` and ``neg`` are ``sum c*a`` and ``sum c*b`` over the
    document's in-model counts ``c``.  Likelihood models: ``(pos - neg)
    / sum c``, the per-token log-likelihood ratio.  ``cos``: ``pos / (|c|
    |p|) - neg / (|c| |n|)`` with ``p`` and ``n`` the full side vectors,
    whose norms the model keeps; the evidence is then ``sum c*c``.
    Evidence 0 means that no token of the document is in the model.
    """
    if isinstance(model, CosineModel):
        norm = np.sqrt(evidence)
        positive, negative = model.norms
        return pos / (norm * positive) - neg / (norm * negative)
    return (pos - neg) / evidence


def _document_sums(model, tokens: Iterable[str]) -> tuple[float, float, float]:
    """``sum c*a``, ``sum c*b`` and the evidence of one document."""
    counter = Counter(tokens)
    if not counter:
        return 0.0, 0.0, 0.0
    terms, known = _word_terms(model, counter)
    counts = np.fromiter(counter.values(), np.float64, len(counter)) * known
    pos, neg = _side_sums(counts, terms, [0]).ravel().tolist()
    # counts are whole numbers, so their sum is exact in any order
    return pos, neg, float(_evidence(model, counts).sum())


def table_scores(model, table: DocTermTable) -> list[float | None]:
    """The normalized score of every document in ``table``.

    None marks a document that gave no evidence.  Each score equals the
    one ``classify_document`` gives the document alone, and a model it
    refuses is refused here too.
    """
    terms, known = _word_terms(model, table.words)
    columns = table.columns
    counts = table.counts * known[columns]
    sums = np.zeros((3, len(table.filled)))
    sums[:2, table.filled] = _side_sums(counts, terms[:, columns], table.starts)
    sums[2, table.filled] = np.add.reduceat(_evidence(model, counts), table.starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _score(model, *sums)
    return [
        score if weight else None
        for score, weight in zip(scores.tolist(), sums[2].tolist())
    ]


def doc_log_likelihood(model, tokens: Iterable[str]) -> tuple[float, float, int]:
    """Log likelihood of a token sequence under both sides of a model.

    Returns ``(log L positive, log L negative, N')`` with natural
    logs, where N' counts the tokens actually scored: out-of-vocabulary
    tokens are skipped by every method, and the clustered methods also
    skip words that clustering discarded.  ``N' = 0`` means the
    document offered no evidence (both log likelihoods are returned as
    0.0 and the caller must treat the document as unclassifiable).
    Per-token probabilities are floored at PROB_FLOOR before the log.
    """
    if not isinstance(model, (WordModel, HardClusterModel, MixtureModel)):
        raise TypeError(f"not a likelihood model: {type(model).__name__}")
    pos, neg, n_eff = _document_sums(model, tokens)
    if n_eff == 0:
        return 0.0, 0.0, 0
    return pos, neg, int(n_eff)


def threshold_outcome(score: float | None, epsilon: float) -> str:
    """The rejection-threshold rule on a normalized score.

    Positive when the score exceeds epsilon, negative when the negated
    score reaches epsilon (ties therefore fall to the negative side),
    unclassified otherwise and when there is no score at all.
    """
    if score is None:
        return "unclassified"
    if score > epsilon:
        return "positive"
    if -score >= epsilon:
        return "negative"
    return "unclassified"


def decide(
    logl_pos: float, logl_neg: float, n_eff: int, epsilon: float
) -> Decision:
    """Apply the rejection-threshold rule to a pair of log likelihoods.

    The normalized score is ``(logl_pos - logl_neg) / n_eff``; see
    ``threshold_outcome`` for the rule.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    if n_eff < 1:
        raise ValueError("decision needs at least one scored token")
    score = (logl_pos - logl_neg) / n_eff
    return Decision(threshold_outcome(score, epsilon), score)


def cosine_decide(model: CosineModel, tokens: Iterable[str], epsilon: float) -> Decision:
    """Threshold the difference of cosine similarities.

    The score is ``cos(d, positive) - cos(d, negative)`` with no size
    normalization (cosine is already scale-free), thresholded exactly
    like the likelihood rule.  A document sharing no words with the
    training vocabulary has a zero vector and stays unclassified.
    """
    return classify_document(model, tokens, epsilon)


def classify_document(model, tokens: Sequence[str], epsilon: float) -> Decision:
    """Decide one document under any model kind; ``epsilon`` must be nonnegative.

    The score is the one ``decide`` or ``cosine_decide`` describes, and
    None when no token of the document is in the model.  A ``cos`` model
    with an all-zero side raises ValueError, whatever the document.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    method_of(model)  # refuses an unknown model type, even for an empty document
    if isinstance(model, CosineModel):
        model.norms  # refuses an all-zero side, even for an empty document
    pos, neg, evidence = _document_sums(model, tokens)
    score = float(_score(model, pos, neg, evidence)) if evidence else None
    return Decision(threshold_outcome(score, epsilon), score)


_METHOD_TAGS = {
    WordModel: "wbm",
    HardClusterModel: "hcm",
    MixtureModel: "fmm",
    CosineModel: "cos",
}


def method_of(model) -> str:
    """Short method tag used by the CLI and the persistence format."""
    try:
        return _METHOD_TAGS[type(model)]
    except KeyError:
        raise TypeError(f"unknown model type: {type(model).__name__}") from None


_SCHEMA_VERSION = 1

# the CLI's header: ``#`` lines at the top of a model file
_HEADER = re.compile(r"(?:#.*\n)*")


def _clustering_payload(clustering: Clustering) -> dict:
    return {
        "vocabulary": list(clustering.vocabulary),
        "related_categories": (
            list(clustering.related_categories)
            if clustering.related_categories is not None
            else None
        ),
        "clusters": [
            [w for w in clustering.vocabulary if w in members]
            for members in clustering.clusters
        ],
    }


def save_model(model, path) -> None:
    """Write a model as a JSON document.

    Floats are serialized at full round-trip precision, so a reloaded
    model reproduces the original's decisions bit for bit.
    """
    method = method_of(model)
    payload: dict = {
        "schema_version": _SCHEMA_VERSION,
        "method": method,
        "category": model.category,
    }
    if method in ("wbm", "cos"):
        vocab = list(model.positive)
        payload["vocabulary"] = vocab
        payload["positive"] = [model.positive[w] for w in vocab]
        payload["negative"] = [model.negative[w] for w in vocab]
        payload["settings"] = {}
    elif method == "hcm":
        payload["settings"] = dict(model.settings)
        payload["clustering"] = _clustering_payload(model.clustering)
        payload["positive"] = list(model.positive)
        payload["negative"] = list(model.negative)
    elif method == "fmm":
        payload["settings"] = dict(model.settings)
        payload["clustering"] = _clustering_payload(model.clustering)
        payload["cluster_words"] = [
            {w: dist[w] for w in model.clustering.vocabulary if w in dist}
            for dist in model.cluster_words
        ]
        payload["positive_theta"] = list(model.positive_theta)
        payload["negative_theta"] = list(model.negative_theta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# Load-time validation.  Every check is a single pass over its field,
# so validating costs time linear in the size of the file.  Failures are
# ValueErrors naming the field as a dotted path ("clustering.vocabulary").

_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _field(payload: dict, key: str, kind: type, name: str | None = None):
    name = name or key
    if key not in payload:
        raise ValueError(f"model file has no {name!r} field")
    value = payload[key]
    if not isinstance(value, kind):
        raise ValueError(f"model field {name!r} must be {_TYPE_NAMES[kind]}")
    return value


def _vector(payload: dict, key: str, length: int, per: str) -> list:
    values = _field(payload, key, list)
    if len(values) != length:
        raise ValueError(
            f"model field {key!r} has {len(values)} entries, "
            f"expected {length} (one per {per})"
        )
    return values


def _word_set(words, name: str) -> set:
    """The words of a list that must hold distinct strings."""
    if not isinstance(words, list) or not {str}.issuperset(map(type, words)):
        raise ValueError(f"model field {name!r} must be a list of strings")
    distinct = set(words)
    if len(distinct) != len(words):
        raise ValueError(f"model field {name!r} has duplicate entries")
    return distinct


def _check_nonnegative(values, name: str) -> None:
    if not {int, float}.issuperset(map(type, values)):
        raise ValueError(f"model field {name!r} has a non-numeric entry")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite or min(values, default=0) < 0:
        raise ValueError(f"model field {name!r} has negative or non-finite entries")


def _check_simplex(values, name: str) -> None:
    _check_nonnegative(values, name)
    if abs(sum(values) - 1.0) > 1e-9:
        raise ValueError(f"model field {name!r} does not sum to 1")


def _clustering_from_payload(payload: dict) -> tuple[Clustering, list[set]]:
    """The clustering, over interned words, and its member sets as read."""
    section = _field(payload, "clustering", dict)
    vocabulary = _field(section, "vocabulary", list, "clustering.vocabulary")
    known = _word_set(vocabulary, "clustering.vocabulary")
    clusters = _field(section, "clusters", list, "clustering.clusters")
    members = []
    for j, cluster in enumerate(clusters):
        name = f"clustering.clusters[{j}]"
        cluster = _word_set(cluster, name)
        if not cluster <= known:
            raise ValueError(f"model field {name!r} has words outside the vocabulary")
        members.append(cluster)
    if "related_categories" not in section:
        raise ValueError("model file has no 'clustering.related_categories' field")
    related = section["related_categories"]
    if related is not None:
        _word_set(related, "clustering.related_categories")
        if len(related) != len(clusters):
            raise ValueError(
                "model field 'clustering.related_categories' needs one "
                f"category per cluster: {len(related)} for {len(clusters)} clusters"
            )
    vocabulary = tuple(map(sys.intern, vocabulary))
    return from_member_sets(members, vocabulary, related), members


def load_model(path):
    """Read a model written by ``save_model``, validating its shape.

    A block of lines starting with ``#`` at the top of the file (the
    CLI's configuration header) is skipped; ``#`` lines anywhere else
    are a JSON error.  A malformed file raises ValueError naming the field at
    fault: vectors must have one entry per word or cluster, word lists
    must be free of duplicates, cluster members must come from the
    vocabulary, and every distribution must sum to 1.

    Words are interned, so the models loaded in one process share one
    string per word, and each distinct float literal becomes one float.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    text = text[_HEADER.match(text).end() :]
    # a cache per file: each distinct float literal is parsed once
    payload = json.loads(text, parse_float=functools.cache(float))
    if not isinstance(payload, dict):
        raise ValueError("a model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version: {version!r}")
    method = payload.get("method")
    category = _field(payload, "category", str)
    settings = payload.get("settings", {})
    if not isinstance(settings, dict):
        raise ValueError("model field 'settings' must be an object")
    if method in ("wbm", "cos"):
        vocab = _field(payload, "vocabulary", list)
        _word_set(vocab, "vocabulary")
        vocab = tuple(map(sys.intern, vocab))
        positive = _vector(payload, "positive", len(vocab), "vocabulary word")
        negative = _vector(payload, "negative", len(vocab), "vocabulary word")
        if method == "wbm":
            _check_simplex(positive, "positive")
            _check_simplex(negative, "negative")
        else:
            for name, side in (("positive", positive), ("negative", negative)):
                _check_nonnegative(side, name)
                if not any(side):
                    raise ValueError(f"model field {name!r} is all zero")
            positive, negative = map(float, positive), map(float, negative)
        kind = WordModel if method == "wbm" else CosineModel
        return kind(category, dict(zip(vocab, positive)), dict(zip(vocab, negative)))
    if method == "hcm":
        clustering, _ = _clustering_from_payload(payload)
        if not clustering.is_hard():
            raise ValueError(
                "model field 'clustering.clusters' overlaps; "
                "a hard-cluster model needs disjoint clusters"
            )
        positive = _vector(payload, "positive", clustering.m, "cluster")
        negative = _vector(payload, "negative", clustering.m, "cluster")
        _check_simplex(positive, "positive")
        _check_simplex(negative, "negative")
        return HardClusterModel(
            category, clustering, tuple(positive), tuple(negative), settings
        )
    if method == "fmm":
        clustering, members = _clustering_from_payload(payload)
        dists = _vector(payload, "cluster_words", clustering.m, "cluster")
        for j, dist in enumerate(dists):
            name = f"cluster_words[{j}]"
            if not isinstance(dist, dict):
                raise ValueError(f"model field {name!r} must be an object")
            if not dist.keys() <= members[j]:
                raise ValueError(
                    f"model field {name!r} has words outside cluster {j}"
                )
            _check_simplex(dist.values(), name)
            dists[j] = dict(zip(map(sys.intern, dist), dist.values()))
        positive_theta = _vector(payload, "positive_theta", clustering.m, "cluster")
        negative_theta = _vector(payload, "negative_theta", clustering.m, "cluster")
        _check_simplex(positive_theta, "positive_theta")
        _check_simplex(negative_theta, "negative_theta")
        return MixtureModel(
            category,
            clustering,
            tuple(dists),
            tuple(positive_theta),
            tuple(negative_theta),
            settings,
        )
    raise ValueError(f"unknown model method: {method!r}")

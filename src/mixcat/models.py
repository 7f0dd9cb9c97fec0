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

Every model holds its vocabulary once and its parameters as float64
vectors in that order, and builds its scorer (``_Scorer``) once, so
all four methods score a document through one path.  Constructors
validate nothing but a hard-cluster model's disjointness, so that
models can be assembled directly from externally specified
parameters; the training and load paths are where well-formedness is
enforced.
"""

from __future__ import annotations

import binascii
import functools
import json
import math
import re
import sys
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from mixcat.clustering import (
    Clustering,
    distribute_frequencies,
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


# one int object per column number, shared by the word index of every model
_COLUMNS: list[int] = []


def _word_index(words) -> dict[str, int]:
    """``{word: column}`` over distinct words, in their order."""
    words = list(words)
    if len(_COLUMNS) < len(words):
        _COLUMNS.extend(range(len(_COLUMNS), len(words)))
    return dict(zip(words, _COLUMNS))


class _Scorer(NamedTuple):
    """What scoring reads of a model, built once per model.

    ``terms`` has two rows, the positive and the negative side.
    ``index`` maps every word the model knows to its column; every
    other word (unknown, or discarded by clustering) reads the last
    column, which is finite and carries no weight.  A likelihood model's
    term is the floored log probability of the word (``wbm``), of its
    cluster (``hcm``, whose words share their cluster's column) or of
    the mixture ``sum_j theta_j P(w|k_j)`` (``fmm``), so a side's
    document log likelihood is the count-weighted sum of its terms; a
    ``cos`` term is the side's raw frequency.
    """

    index: dict[str, int]
    terms: np.ndarray


def _set(model, **attributes) -> None:
    for name, value in attributes.items():
        object.__setattr__(model, name, value)


def _floored_log(probabilities) -> np.ndarray:
    return np.log(np.maximum(probabilities, PROB_FLOOR))


def _hold_sides(model, index: dict[str, int], default: float) -> None:
    """Store a model's two sides as rows of one read-only float64 array.

    The array has one more column, of ``default``, for every word
    ``index`` lacks: 1.0 for a likelihood model, whose log adds nothing,
    and 0.0 for ``cos``, whose terms are its sides, held once.
    """
    n = len(model.positive)
    sides = np.full((2, n + 1), default)
    sides[0, :n], sides[1, :n] = model.positive, model.negative
    sides.setflags(write=False)
    terms = sides if isinstance(model, CosineModel) else _floored_log(sides)
    _set(model, positive=sides[0, :n], negative=sides[1, :n])
    _set(model, _scorer=_Scorer(index, terms))


@dataclass(frozen=True, eq=False)
class WordModel:
    """Per-side smoothed word distributions over a shared vocabulary.

    ``positive`` and ``negative`` are float64 vectors in vocabulary
    order.
    """

    category: str
    vocabulary: tuple[str, ...]
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        _hold_sides(self, _word_index(self.vocabulary), 1.0)

    def __eq__(self, other):
        return _equal(self, other)


@dataclass(frozen=True, eq=False)
class HardClusterModel:
    """Disjoint clusters with per-side cluster distributions.

    ``positive`` and ``negative`` are float64 vectors with one entry per
    cluster.  The scorer's index maps each clustered word to its
    cluster; a clustering that puts a word in two clusters raises
    ValueError, as training and ``load_model`` do.
    """

    category: str
    clustering: Clustering
    positive: np.ndarray
    negative: np.ndarray
    settings: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.clustering.is_hard():
            raise ValueError("a hard-cluster model needs disjoint clusters")
        member = self.clustering.member
        known = member.any(axis=0)
        # the clusters are disjoint, so this is each clustered word's cluster
        ids = (np.arange(len(member)) @ member)[known]
        words = compress(self.clustering.vocabulary, known.tolist())
        _hold_sides(self, dict(zip(words, ids.tolist())), 1.0)

    def __eq__(self, other):
        return _equal(self, other)


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Shared cluster word distributions, per-side mixture weights.

    ``cluster_words[j]`` is cluster j's vector of member probabilities,
    in vocabulary order, and the two thetas hold one weight per cluster;
    all are float64 vectors.
    """

    category: str
    clustering: Clustering
    cluster_words: tuple[np.ndarray, ...]
    positive_theta: np.ndarray
    negative_theta: np.ndarray
    settings: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        member, vocabulary = self.clustering.member, self.clustering.vocabulary
        cluster_words = tuple(np.asarray(v, np.float64) for v in self.cluster_words)
        for vector in cluster_words:
            vector.setflags(write=False)
        theta = np.array((self.positive_theta, self.negative_theta), np.float64)
        theta.setflags(write=False)
        mixture = np.zeros((2, len(vocabulary) + 1))
        for j, (row, probabilities) in enumerate(zip(member, cluster_words, strict=True)):
            cluster = np.zeros(mixture.shape[1])
            cluster[:-1][row] = probabilities
            # elementwise and in cluster order, as the mixture always was
            mixture += theta[:, j, None] * cluster
        # the vocabulary's index, less the words no cluster holds
        index = _word_index(vocabulary)
        known = member.any(axis=0)
        if not known.all():
            index = dict(compress(index.items(), known.tolist()))
        _set(
            self,
            cluster_words=cluster_words,
            positive_theta=theta[0],
            negative_theta=theta[1],
            _scorer=_Scorer(index, _floored_log(mixture)),
        )

    def __eq__(self, other):
        return _equal(self, other)


@dataclass(frozen=True, eq=False)
class CosineModel:
    """Raw per-side word frequencies over a shared vocabulary.

    The sides are float64 vectors, as ``WordModel``'s are.  ``norms`` is
    computed on first use and then kept.
    """

    category: str
    vocabulary: tuple[str, ...]
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        _hold_sides(self, _word_index(self.vocabulary), 0.0)

    def __eq__(self, other):
        return _equal(self, other)

    @functools.cached_property
    def norms(self) -> tuple[float, float]:
        """The Euclidean norms of the positive and the negative side.

        Raises ValueError naming a side that is all zero, since no
        document has a cosine with it.
        """
        # sides hold whole counts once trained, and a sum of squared whole
        # counts is exact, so hypot gives what sqrt(p @ p) gives
        sides = (self.positive, self.negative)
        norms = tuple(math.hypot(*side.tolist()) for side in sides)
        for name, norm in zip(("positive", "negative"), norms):
            if not norm:
                raise ValueError(f"cosine model side {name!r} is all zero")
        return norms


def _bits(values) -> bytes:
    return np.asarray(values, np.float64).tobytes()


def _contents(model) -> tuple:
    """What ``==`` compares: every field, with vectors by their bits."""
    if isinstance(model, (WordModel, CosineModel)):
        sides = _bits(model.positive), _bits(model.negative)
        return model.category, model.vocabulary, *sides
    common = model.category, model.settings, model.clustering
    if isinstance(model, HardClusterModel):
        return *common, _bits(model.positive), _bits(model.negative)
    values = tuple(map(_bits, model.cluster_words))
    return *common, values, _bits(model.positive_theta), _bits(model.negative_theta)


def _equal(model, other) -> bool:
    if type(other) is not type(model):
        return NotImplemented
    return _contents(model) == _contents(other)


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
    own, complement = table.matrix.sum(axis=1).tolist()
    if not own:
        raise TrainingError(f"category {category!r} has no training tokens")
    if not complement:
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
    positive, negative = (ele_distribution(row) for row in table.matrix)
    return WordModel(category, table.vocabulary, positive, negative)


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
    positive, negative = (ele_distribution(row) for row in freqs)
    return HardClusterModel(category, clustering, positive, negative, settings)


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
    freqs = distribute_frequencies(table, clustering)
    dists = []
    for j, related in enumerate(clustering.related_categories):
        try:
            dists.append(mle_word_distribution(freqs, j))
        except ValueError as err:
            raise TrainingError(
                f"cluster related to {related!r} is empty at gamma={gamma}"
            ) from err
    dists = np.array(dists)
    member = clustering.member
    clustered = member.any(axis=0)
    results = []
    rows = zip(("positive", "negative"), table.categories, table.matrix)
    for side, name, row in rows:
        # the side's clustered words with f > 0, in vocabulary order
        columns = np.flatnonzero(clustered & (row > 0))
        if not columns.size:
            raise TrainingError(
                f"the {side} side ({name!r}) has no usable tokens "
                "after dropping unclustered words"
            )
        side_trace = [] if trace is not None else None
        components = dists.take(columns, axis=1)
        results.append(em_fit(components, row[columns], cfg, trace=side_trace))
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
    # each cluster's probabilities at its members, in vocabulary order
    cluster_words = tuple(dist[bits] for dist, bits in zip(dists, member))
    return MixtureModel(
        category, clustering, cluster_words, pos.theta, neg.theta, settings
    )


def train_cos(
    corpus: LabeledCorpus, category: str, positive_only: bool = True
) -> CosineModel:
    """Raw frequency vectors for the category and its complement."""
    table = _pools(corpus, category, positive_only)
    positive, negative = table.matrix.astype(np.float64)
    return CosineModel(category, table.vocabulary, positive, negative)


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


def _columns(model, words: Iterable[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The scorer's column of each of ``n`` words, and which are known."""
    index, terms = model._scorer
    unknown = terms.shape[1] - 1
    columns = np.fromiter(map(index.get, words, repeat(unknown)), np.intp, n)
    return columns, columns < unknown


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


# the start of the one document that _document_sums sums
_ONE_DOCUMENT = np.zeros(1, np.intp)


def _document_sums(model, tokens: Iterable[str]) -> tuple[float, float, float]:
    """``sum c*a``, ``sum c*b`` and the evidence of one document."""
    counter = Counter(tokens)
    if not counter:
        return 0.0, 0.0, 0.0
    columns, known = _columns(model, counter, len(counter))
    counts = np.fromiter(counter.values(), np.float64, len(counter)) * known
    terms = model._scorer.terms.take(columns, axis=1)
    pos, neg = _side_sums(counts, terms, _ONE_DOCUMENT).ravel().tolist()
    # counts are whole numbers, so their sum is exact in any order
    return pos, neg, float(_evidence(model, counts).sum())


def table_scores(model, table: DocTermTable) -> list[float | None]:
    """The normalized score of every document in ``table``.

    None marks a document that gave no evidence.  Each score equals the
    one ``classify_document`` gives the document alone, and a model it
    refuses is refused here too.
    """
    method_of(model)
    columns, known = _columns(model, table.words, len(table.words))
    columns = columns[table.columns]
    counts = table.counts * known[table.columns]
    sums = np.zeros((3, len(table.filled)))
    terms = model._scorer.terms.take(columns, axis=1)
    sums[:2, table.filled] = _side_sums(counts, terms, table.starts)
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


def classify_document(model, tokens: Sequence[str], epsilon: float) -> Decision:
    """Decide one document under any model kind; ``epsilon`` must be nonnegative.

    The score is the normalized log-likelihood ratio ``decide``
    describes for the likelihood models, and ``cos(d, positive) -
    cos(d, negative)`` for ``cos``, which is scale-free and so needs no
    size normalization.  It is None, and the document unclassified, when
    no token of the document is in the model.  A ``cos`` model with an
    all-zero side raises ValueError, whatever the document.
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


_SCHEMA_VERSION = 2

# the CLI's header: ``#`` lines at the top of a model file
_HEADER = re.compile(r"(?:#.*\n)*")


def _base64(data: bytes) -> str:
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def _encode(values) -> str:
    """Floats as the base64 text of their little-endian float64 bytes."""
    return _base64(np.asarray(values, "<f8").tobytes())


def save_model(model, path, header: str = "") -> None:
    """Write a model as one line of JSON, in schema 2.

    The vocabulary is written once.  Every numeric vector is the base64
    text of its little-endian float64 bytes, so a reloaded model
    reproduces the original's decisions bit for bit; cluster membership
    is one packed bit matrix.  ``header``, written first in the same
    pass, must be ``#`` lines, each ending in a newline, which
    ``load_model`` skips.
    """
    if _HEADER.fullmatch(header) is None:
        raise ValueError(
            "a model file header must be '#' lines, each ending in a newline"
        )
    method = method_of(model)
    payload: dict = {
        "schema_version": _SCHEMA_VERSION,
        "method": method,
        "category": model.category,
        "settings": dict(getattr(model, "settings", {})),
    }
    if method in ("wbm", "cos"):
        payload["vocabulary"] = list(model.vocabulary)
        payload["positive"] = _encode(model.positive)
        payload["negative"] = _encode(model.negative)
    else:
        clustering = model.clustering
        related = clustering.related_categories
        payload["vocabulary"] = list(clustering.vocabulary)
        payload["clusters"] = clustering.m
        payload["related_categories"] = None if related is None else list(related)
        payload["members"] = _base64(np.packbits(clustering.member, axis=1).tobytes())
        if method == "hcm":
            payload["positive"] = _encode(model.positive)
            payload["negative"] = _encode(model.negative)
        else:
            payload["cluster_words"] = list(map(_encode, model.cluster_words))
            payload["positive_theta"] = _encode(model.positive_theta)
            payload["negative_theta"] = _encode(model.negative_theta)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header)
        json.dump(payload, handle)
        handle.write("\n")


# Load-time validation.  Every check runs in numpy or in one pass at C
# speed, so validating costs time linear in the size of the file.
# Failures are ValueErrors naming the field ("cluster_words[1]").

_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _field(payload: dict, key: str, kind: type):
    if key not in payload:
        raise ValueError(f"model file has no {key!r} field")
    value = payload[key]
    if not isinstance(value, kind):
        raise ValueError(f"model field {key!r} must be {_TYPE_NAMES[kind]}")
    return value


def _words(words, name: str) -> tuple[str, ...]:
    """A list of distinct strings, interned."""
    if not isinstance(words, list) or not {str}.issuperset(map(type, words)):
        raise ValueError(f"model field {name!r} must be a list of strings")
    words = tuple(map(sys.intern, words))
    if len(set(words)) != len(words):
        raise ValueError(f"model field {name!r} has duplicate entries")
    return words


def _bytes(text, name: str) -> bytes:
    """The bytes of a base64 string, which must be written as save_model writes it."""
    if not isinstance(text, str):
        raise ValueError(f"model field {name!r} must be a base64 string")
    try:
        data = binascii.a2b_base64(text)
    except ValueError:  # binascii.Error, or a character outside ASCII
        data = None
    # a2b_base64 skips characters outside the alphabet; encoding back
    # refuses them
    if data is None or _base64(data) != text:
        raise ValueError(f"model field {name!r} is not valid base64")
    return data


def _floats(text, name: str, length: int, per: str) -> np.ndarray:
    """A float64 vector with one finite, non-negative entry per ``per``."""
    data = _bytes(text, name)
    if len(data) != 8 * length:
        raise ValueError(
            f"model field {name!r} has {len(data) / 8:g} entries, "
            f"expected {length} (one per {per})"
        )
    values = np.frombuffer(data, "<f8")
    if not (np.isfinite(values).all() and (values >= 0).all()):
        raise ValueError(f"model field {name!r} has negative or non-finite entries")
    return values


def _distribution(text, name: str, length: int, per: str) -> np.ndarray:
    values = _floats(text, name, length, per)
    if abs(values.sum() - 1.0) > 1e-9:
        raise ValueError(f"model field {name!r} does not sum to 1")
    return values


def _members(payload: dict, m: int, n: int) -> np.ndarray:
    """The m x n boolean member matrix, from bits packed per row."""
    data = _bytes(_field(payload, "members", str), "members")
    width = (n + 7) // 8
    if len(data) != m * width:
        raise ValueError(
            f"model field 'members' has {len(data)} bytes, expected {m} rows "
            f"of {width} (one row per cluster, one bit per vocabulary word)"
        )
    bits = np.unpackbits(np.frombuffer(data, np.uint8).reshape(m, width), axis=1)
    if bits[:, n:].any():
        raise ValueError("model field 'members' has padding bits set")
    return bits[:, :n].astype(bool)


def load_model(path):
    """Read a model written by ``save_model``, validating its shape.

    A block of lines starting with ``#`` at the top of the file (the
    CLI's configuration header) is skipped; ``#`` lines anywhere else
    are a JSON error.  A file in another schema, or a malformed one,
    raises ValueError naming the field at fault: word lists must be
    free of duplicates, vectors must be valid base64 with one finite,
    non-negative entry per word, cluster or cluster member, member bits
    must fill one row per cluster, and every distribution must sum to 1.

    Words are interned, so the models loaded in one process share one
    string per word; the model keeps the decoded float64 vectors and
    member matrix.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    text = text[_HEADER.match(text).end() :]
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("the model file nests too deeply to read") from None
    if not isinstance(payload, dict):
        raise ValueError("a model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != _SCHEMA_VERSION:
        hint = " (written by mixcat < 0.3; retrain the model)" if version == 1 else ""
        raise ValueError(f"unsupported model schema version: {version!r}{hint}")
    method = payload.get("method")
    category = _field(payload, "category", str)
    settings = payload.get("settings", {})
    if not isinstance(settings, dict):
        raise ValueError("model field 'settings' must be an object")
    if method not in _METHOD_TAGS.values():
        raise ValueError(f"unknown model method: {method!r}")
    vocab = _words(_field(payload, "vocabulary", list), "vocabulary")
    if method in ("wbm", "cos"):
        read = _distribution if method == "wbm" else _floats
        sides = [
            read(_field(payload, name, str), name, len(vocab), "vocabulary word")
            for name in ("positive", "negative")
        ]
        for name, side in zip(("positive", "negative"), sides):
            if method == "cos" and not side.any():
                raise ValueError(f"model field {name!r} is all zero")
        kind = WordModel if method == "wbm" else CosineModel
        return kind(category, vocab, *sides)
    m = payload.get("clusters")
    if type(m) is not int or m < 0:
        raise ValueError("model field 'clusters' must be a non-negative integer")
    if "related_categories" not in payload:
        raise ValueError("model file has no 'related_categories' field")
    related = payload["related_categories"]
    if related is not None:
        related = _words(related, "related_categories")
        if len(related) != m:
            raise ValueError(
                "model field 'related_categories' needs one category per "
                f"cluster: {len(related)} for {m} clusters"
            )
    # fields sized by m come first, so a false m is caught before the
    # member matrix is unpacked
    if method == "hcm":
        sides = [
            _distribution(_field(payload, name, str), name, m, "cluster")
            for name in ("positive", "negative")
        ]
        clustering = Clustering(vocab, related, _members(payload, m, len(vocab)))
        if not clustering.is_hard():
            raise ValueError(
                "model field 'members' overlaps; "
                "a hard-cluster model needs disjoint clusters"
            )
        return HardClusterModel(category, clustering, *sides, settings)
    encoded = _field(payload, "cluster_words", list)
    if len(encoded) != m:
        raise ValueError(
            f"model field 'cluster_words' has {len(encoded)} entries, "
            f"expected {m} (one per cluster)"
        )
    thetas = [
        _distribution(_field(payload, name, str), name, m, "cluster")
        for name in ("positive_theta", "negative_theta")
    ]
    member = _members(payload, m, len(vocab))
    sizes = member.sum(axis=1).tolist()
    dists = [
        _distribution(text, f"cluster_words[{j}]", size, f"member of cluster {j}")
        for j, (text, size) in enumerate(zip(encoded, sizes))
    ]
    return MixtureModel(
        category, Clustering(vocab, related, member), tuple(dists), *thetas, settings
    )

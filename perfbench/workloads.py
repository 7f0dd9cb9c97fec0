"""Seeded planted-topic corpora for the pipeline benchmark.

Every workload is a training corpus and a labeled test corpus in the
mixcat corpus format.  Tokens are drawn from a Zipf background over
the vocabulary; a share of them is replaced by planted topic words of
one of the document's labels.  Category frequencies are Zipf-skewed as
in newswire collections, so "the sixth most frequent category" is a
stable notion.  The same seed always gives byte-identical files.

Sizes are chosen so that each workload repeats its whole pipeline, all
four methods, 10 to 20 times in a 38-second untraced run on a 2-vCPU
machine.  Throughout, 30% of tokens are topical, 10% of documents
carry a second label, and each category plants vocabulary/100 words.

Each workload chooses its test set in its own way, so that one
optimisation cannot help all three alike:

* ``eval-many``: a small i.i.d. held-out sample;
* ``classify-bulk``: a large i.i.d. sample plus a share of documents
  made only of words never seen in training (no evidence for any model);
* ``one-vs-rest``: a sample stratified on the one target category,
  half of it positive, with shorter documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOPICAL_SHARE = 0.3  # share of tokens replaced by planted topic words
MULTILABEL_SHARE = 0.1  # share of documents drawn with a second label
FMM_GAMMA = 0.4  # train_fmm's gamma on every workload


@dataclass(frozen=True)
class Shape:
    categories: int
    train_docs: int
    test_docs: int
    vocabulary: int
    mean_length: int
    category_skew: float = 1.0
    test_rule: str = "iid"  # "iid" | "iid+oov" | "stratified"
    oov_share: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    hcm: dict
    # None trains every category; k trains only the k-th most frequent one
    target_rank: int | None = None
    positive_only: bool = True
    # method whose break-even is also checked through ``mixcat eval``
    cli_check_method: str | None = None


# Why each workload was chosen, with its measured self-time shares, is
# recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eval-many",
            shape=Shape(
                categories=20,
                train_docs=250,
                test_docs=24,
                vocabulary=2000,
                mean_length=80,
            ),
            hcm={"gamma": 0.5},
        ),
        Workload(
            name="classify-bulk",
            shape=Shape(
                categories=5,
                train_docs=200,
                test_docs=250,
                vocabulary=1500,
                mean_length=100,
                category_skew=0.5,
                test_rule="iid+oov",
                oov_share=0.03,
            ),
            hcm={"top_l": 150, "top_m": 150},
            cli_check_method="hcm",
        ),
        Workload(
            name="one-vs-rest",
            shape=Shape(
                categories=50,
                train_docs=3000,
                test_docs=100,
                vocabulary=10000,
                mean_length=100,
                test_rule="stratified",
            ),
            hcm={"gamma": 0.5},
            target_rank=6,
            positive_only=False,
        ),
    )
}


# Which end-to-end metric each group of per-layer metrics should move, the
# workload where it should move, and where it should stay put.  Written
# down before any optimisation, so a claimed gain can be checked against it.
LAYER_EFFECTS = (
    ("corpus.parse_s corpus.tokens_parsed", "setup_s", "one-vs-rest", "classify-bulk"),
    ("corpus.complement_s corpus.complement_calls counts.count_pools_s "
     "counts.tokens_counted counts.recount_ratio",
     "eval_s.*", "eval-many", "one-vs-rest classify-bulk"),
    ("estimation.ele_s estimation.ele_outcomes estimation.mle_s "
     "counts.cluster_frequencies_s",
     "eval_s.wbm eval_s.hcm eval_s.fmm", "eval-many", "classify_docs_per_s.* anywhere"),
    ("clustering.cluster_s clustering.distribute_s clustering.discarded_words "
     "clustering.multi_cluster_words",
     "eval_s.hcm eval_s.fmm", "eval-many", "classify-bulk"),
    ("estimation.em_fit_s estimation.em_tokens estimation.em_iterations "
     "estimation.em_unconverged kernels.loglik_grad_calls kernels.loglik_grad_s",
     "eval_s.fmm", "eval-many", "classify-bulk"),
    ("models.train_self_s.<method>", "eval_s.<method>", "eval-many", "classify-bulk"),
    ("models.score_pairs models.score_s.<method> models.no_evidence_pairs "
     "kernels.log_mixture_calls kernels.log_mixture_s models.classify_docs "
     "models.classify_doc_p50_ms.<method> models.classify_doc_p99_ms.<method>",
     "classify_docs_per_s.* eval_s.*", "classify-bulk, and cos on one-vs-rest",
     "eval_s.wbm eval_s.hcm eval_s.fmm on eval-many"),
    ("models.load_s models.model_bytes", "classify_docs_per_s.*", "classify-bulk",
     "eval-many"),
    ("evaluation.sweep_self_s evaluation.contingency_calls "
     "evaluation.pairs_thresholded", "eval_s.*", "classify-bulk", "one-vs-rest"),
)


def _zipf(n: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** skew
    return weights / weights.sum()


class _Sampler:
    """Draws documents for one planted-topic corpus."""

    def __init__(self, shape: Shape, rng: np.random.Generator):
        self.shape = shape
        self.rng = rng
        self.labels = [f"c{i:02d}" for i in range(shape.categories)]
        self.category_p = _zipf(shape.categories, shape.category_skew)
        self.background_cdf = np.cumsum(_zipf(shape.vocabulary, 1.0))
        # planted words come from below the Zipf head, disjoint per category
        first = shape.vocabulary // 20
        self.topic_words = shape.vocabulary // 100  # planted words per category
        pool = rng.permutation(np.arange(first, shape.vocabulary))
        need = shape.categories * self.topic_words
        if need > len(pool):
            raise ValueError("vocabulary too small for the planted topics")
        self.topics = pool[:need].reshape(shape.categories, self.topic_words)
        self.words = [f"w{i}" for i in range(shape.vocabulary)]

    def label_set(self, primary: int | None = None) -> list[int]:
        rng = self.rng
        if primary is None:
            primary = int(rng.choice(self.shape.categories, p=self.category_p))
        labels = [primary]
        if rng.random() < MULTILABEL_SHARE:
            other = int(rng.choice(self.shape.categories, p=self.category_p))
            if other != primary:
                labels.append(other)
        return labels

    def tokens(self, labels: list[int], mean_length: float) -> list[str]:
        rng = self.rng
        length = max(5, int(rng.poisson(mean_length)))
        words = np.searchsorted(self.background_cdf, rng.random(length), side="right")
        words = np.minimum(words, self.shape.vocabulary - 1)
        topical = rng.random(length) < TOPICAL_SHARE
        k = int(topical.sum())
        if k:
            owners = rng.choice(labels, size=k)
            picks = rng.integers(0, self.topic_words, size=k)
            words[topical] = self.topics[owners, picks]
        names = self.words
        return [names[w] for w in words.tolist()]

    def line(self, labels: list[int], tokens: list[str]) -> str:
        return ",".join(self.labels[i] for i in labels) + "\t" + " ".join(tokens)

    def document(self, primary: int | None = None, mean_length=None) -> str:
        labels = self.label_set(primary)
        return self.line(labels, self.tokens(labels, mean_length or self.shape.mean_length))

    def oov_document(self) -> str:
        labels = self.label_set()
        length = max(5, int(self.rng.poisson(self.shape.mean_length / 4)))
        ids = self.rng.integers(0, 1000, size=length)
        return self.line(labels, [f"oov{i}" for i in ids])


def generate(workload: Workload, seed: int) -> tuple[list[str], list[str]]:
    """Training and test lines of one workload at one seed."""
    shape = workload.shape
    sampler = _Sampler(shape, np.random.default_rng([seed, shape.categories]))
    train = [sampler.document() for _ in range(shape.train_docs)]
    if shape.test_rule == "iid":
        test = [sampler.document() for _ in range(shape.test_docs)]
    elif shape.test_rule == "iid+oov":
        test = [
            sampler.oov_document()
            if sampler.rng.random() < shape.oov_share
            else sampler.document()
            for _ in range(shape.test_docs)
        ]
    else:
        label_sets = (line.partition("\t")[0].split(",") for line in train)
        target = sampler.labels.index(target_category(label_sets, workload.target_rank))
        test = [
            sampler.document(
                primary=target if i % 2 == 0 else None,
                mean_length=shape.mean_length / 2,
            )
            for i in range(shape.test_docs)
        ]
    return train, test


def target_category(label_sets, rank: int) -> str:
    """The ``rank``-th most frequent label by documents, ties broken by name."""
    counts: dict[str, int] = {}
    for labels in label_sets:
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
    ordered = sorted(counts, key=lambda c: (-counts[c], c))
    return ordered[rank - 1]


def describe(lines: list[str]) -> dict:
    """Shape of a generated corpus, printed so generator changes show."""
    tokens = 0
    vocabulary = set()
    categories = set()
    multi = 0
    for line in lines:
        head, _, body = line.partition("\t")
        labels = head.split(",")
        categories.update(labels)
        multi += len(labels) > 1
        words = body.split()
        tokens += len(words)
        vocabulary.update(words)
    return {
        "documents": len(lines),
        "tokens": tokens,
        "categories": len(categories),
        "vocabulary": len(vocabulary),
        "multilabel_share": round(multi / len(lines), 4) if lines else 0.0,
    }


def write(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path, dict]:
    """Write ``train.txt`` and ``test.txt``; return their paths and shapes."""
    train, test = generate(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, lines in (("train.txt", train), ("test.txt", test)):
        path = directory / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    shapes = {"train": describe(train), "test": describe(test)}
    return paths[0], paths[1], shapes

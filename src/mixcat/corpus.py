"""Labeled corpus ingestion and complement-pool construction.

Corpus file format: UTF-8 text, LF line endings, one document per line:

    label[,label...]<TAB>token token token ...

The field before the first TAB lists the document's category labels,
comma separated; a document may carry several labels.  Everything after
the TAB is the document body, split into tokens on runs of whitespace.
Tokens are kept verbatim: no case folding, no stemming, no stop-word
removal, no Unicode normalization.

Parsed corpora are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class CorpusFormatError(ValueError):
    """A corpus line that cannot be parsed, with its 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class LabeledDocument:
    """One document: a label set and an ordered token sequence."""

    labels: frozenset[str]
    tokens: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LabeledCorpus:
    """A document collection plus its category inventory.

    ``categories`` lists the distinct labels in first-appearance order,
    which makes every downstream ordering deterministic.
    """

    documents: tuple[LabeledDocument, ...]
    categories: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.documents)


def parse_corpus(source: Iterable[str], require_labels: bool = True) -> LabeledCorpus:
    """Parse corpus lines into a LabeledCorpus.

    ``source`` is any iterable of lines (an open text file works).  With
    ``require_labels`` (the default, for training data) a line whose label
    field is empty is rejected; pass False for test data whose gold labels
    may be unknown.

    Raises CorpusFormatError, naming the offending line, for a line
    without a TAB separator or with a malformed label list.

    Within one corpus every distinct word is a single ``str`` object,
    shared by all its occurrences, and documents whose label fields read
    the same share one ``labels`` set.  Counting and scoring then find
    equal words by identity, and a corpus holds each word once.
    """
    documents = []
    categories: dict[str, None] = {}  # an ordered set
    words: dict[str, str] = {}
    label_sets: dict[str, frozenset[str]] = {}  # by the text before the TAB
    for line_number, line in enumerate(source, start=1):
        # a trailing newline ends up in the body, which split() drops
        head, sep, body = line.partition("\t")
        if not sep:
            raise CorpusFormatError(line_number, "missing TAB between labels and tokens")
        labels = label_sets.get(head)
        if labels is None:
            ordered = _parse_labels(head, line_number, require_labels)
            categories.update(ordered)
            labels = label_sets[head] = frozenset(ordered)
        tokens = body.split()
        documents.append(LabeledDocument(labels, tuple(map(words.setdefault, tokens, tokens))))
    return LabeledCorpus(tuple(documents), tuple(categories))


def _parse_labels(head: str, line_number: int, require_labels: bool) -> dict[str, None]:
    """The labels of one label field, in order, as the keys of a dict."""
    labels: dict[str, None] = {}
    if head.strip():
        for raw in head.split(","):
            label = raw.strip()
            if not label:
                raise CorpusFormatError(line_number, f"empty label in {head!r}")
            labels[label] = None
    if require_labels and not labels:
        raise CorpusFormatError(line_number, "document has no labels")
    return labels


def serialize_corpus(corpus: LabeledCorpus) -> str:
    """Render a corpus back to its file format.

    Labels are written in the corpus's category order, so parsing the
    result reproduces the original corpus exactly.
    """
    order = {c: i for i, c in enumerate(corpus.categories)}
    lines = []
    for doc in corpus.documents:
        labels = sorted(doc.labels, key=order.__getitem__)
        lines.append(",".join(labels) + "\t" + " ".join(doc.tokens))
    return "\n".join(lines) + ("\n" if lines else "")


def complement_corpus(
    corpus: LabeledCorpus,
    category: str,
    positive_only: bool = True,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a corpus into token pools for ``category`` versus its complement.

    Pool one concatenates the tokens of every document labeled with
    ``category``; pool two those of every other document.  A document
    labeled with ``category`` and something else goes to pool one only
    under the default ``positive_only=True``; with False it contributes
    to both pools.
    """
    if category not in corpus.categories:
        raise ValueError(f"unknown category: {category!r}")
    positive: list[str] = []
    negative: list[str] = []
    for doc in corpus.documents:
        if category in doc.labels:
            positive.extend(doc.tokens)
            if not positive_only and len(doc.labels) > 1:
                negative.extend(doc.tokens)
        else:
            negative.extend(doc.tokens)
    return tuple(positive), tuple(negative)

"""Corpus parsing, serialization, and complement-pool construction."""

import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    CorpusFormatError,
    LabeledCorpus,
    LabeledDocument,
    complement_corpus,
    parse_corpus,
    serialize_corpus,
)


class TestParsing:
    def test_documents_and_labels(self, sports_corpus):
        assert len(sports_corpus) == 4
        assert sports_corpus.categories == ("c1", "c2")
        first = sports_corpus.documents[0]
        assert first.labels == frozenset({"c1"})
        assert first.tokens == ("racket", "racket", "stroke", "shot", "ball")
        assert first.size == 5

    def test_category_order_is_first_appearance(self):
        corpus = parse_corpus(io.StringIO("b\tx\na\ty\nb\tz\n"))
        assert corpus.categories == ("b", "a")

    def test_multi_label_line(self):
        corpus = parse_corpus(io.StringIO("a , b\tx y\n"))
        doc = corpus.documents[0]
        assert doc.labels == frozenset({"a", "b"})
        assert corpus.categories == ("a", "b")

    def test_duplicate_labels_collapse(self):
        corpus = parse_corpus(io.StringIO("a,a,a\tx\n"))
        assert corpus.documents[0].labels == frozenset({"a"})

    def test_tokens_split_on_any_whitespace_run(self):
        corpus = parse_corpus(io.StringIO("a\tx  y\tz\n"))
        assert corpus.documents[0].tokens == ("x", "y", "z")

    def test_missing_tab_is_an_error_with_line_number(self):
        with pytest.raises(CorpusFormatError, match="line 2") as info:
            parse_corpus(io.StringIO("a\tx\nno separator here\n"))
        assert info.value.line_number == 2

    def test_empty_label_item_rejected(self):
        with pytest.raises(CorpusFormatError, match="empty label"):
            parse_corpus(io.StringIO("a,,b\tx\n"))

    def test_unlabeled_line_rejected_for_training(self):
        with pytest.raises(CorpusFormatError, match="no labels"):
            parse_corpus(io.StringIO("\tx y\n"))

    def test_unlabeled_line_allowed_when_not_required(self):
        corpus = parse_corpus(io.StringIO("\tx y\n"), require_labels=False)
        assert corpus.documents[0].labels == frozenset()
        assert corpus.documents[0].tokens == ("x", "y")
        assert corpus.categories == ()

    def test_empty_body_gives_empty_document(self):
        corpus = parse_corpus(io.StringIO("a\t\n"))
        assert corpus.documents[0].tokens == ()


class TestSerialization:
    def test_round_trip_is_identity(self, sports_corpus, sports_text):
        assert serialize_corpus(sports_corpus) == sports_text

    def test_multi_label_order_follows_categories(self):
        text = "b\tx\na,b\ty z\n"
        corpus = parse_corpus(io.StringIO(text))
        # "a,b" is rewritten in category order (b first)
        assert serialize_corpus(corpus) == "b\tx\nb,a\ty z\n"
        again = parse_corpus(io.StringIO(serialize_corpus(corpus)))
        assert again.documents == corpus.documents

    def test_empty_corpus_serializes_to_empty_string(self):
        corpus = parse_corpus(io.StringIO(""))
        assert serialize_corpus(corpus) == ""

    @given(
        st.lists(
            st.tuples(
                # unlabeled, multi-label and repeated-label documents
                st.lists(st.sampled_from(("a", "b", "c", "two words")), max_size=4),
                # empty bodies, and tokens of any non-space characters
                st.lists(
                    st.text(
                        st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
                        min_size=1,
                        max_size=4,
                    ),
                    max_size=5,
                ),
                st.sampled_from((" ", "  ", "\t")),
            ),
            max_size=8,
        )
    )
    def test_parse_serialize_parse_round_trip(self, documents):
        text = "".join(
            f"{','.join(labels)}\t{separator.join(tokens)}\n"
            for labels, tokens, separator in documents
        )
        corpus = parse_corpus(io.StringIO(text), require_labels=False)
        serialized = serialize_corpus(corpus)
        again = parse_corpus(io.StringIO(serialized), require_labels=False)
        assert again == corpus
        assert serialize_corpus(again) == serialized


class TestComplementPools:
    def test_fixture_pools(self, sports_corpus):
        positive, negative = complement_corpus(sports_corpus, "c1")
        assert len(positive) == 10
        assert len(negative) == 7
        assert positive.count("racket") == 4
        assert negative.count("goal") == 3
        assert "kick" not in positive

    def test_unknown_category(self, sports_corpus):
        with pytest.raises(ValueError, match="unknown category"):
            complement_corpus(sports_corpus, "c3")

    def test_shared_document_default_goes_to_positive_only(self):
        corpus = parse_corpus(io.StringIO("a,b\tx x\nb\ty\n"))
        positive, negative = complement_corpus(corpus, "a")
        assert positive == ("x", "x")
        assert negative == ("y",)

    def test_shared_document_optionally_feeds_both_pools(self):
        corpus = parse_corpus(io.StringIO("a,b\tx x\nb\ty\n"))
        positive, negative = complement_corpus(corpus, "a", positive_only=False)
        assert positive == ("x", "x")
        assert negative == ("x", "x", "y")

    def test_single_label_documents_unaffected_by_pool_rule(self, sports_corpus):
        assert complement_corpus(sports_corpus, "c1") == complement_corpus(
            sports_corpus, "c1", positive_only=False
        )


# The parser as it was before it shared one string per word and one
# label set per label field, kept as the reference: the same documents,
# categories and errors, with every token its own object.
def reference_parse_corpus(source, require_labels=True):
    documents = []
    categories = {}
    for line_number, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        head, sep, body = line.partition("\t")
        if not sep:
            raise CorpusFormatError(line_number, "missing TAB between labels and tokens")
        labels = {}
        if head.strip():
            for raw in head.split(","):
                label = raw.strip()
                if not label:
                    raise CorpusFormatError(line_number, f"empty label in {head!r}")
                labels[label] = None
        if require_labels and not labels:
            raise CorpusFormatError(line_number, "document has no labels")
        categories.update(labels)
        documents.append(LabeledDocument(frozenset(labels), tuple(body.split())))
    return LabeledCorpus(tuple(documents), tuple(categories))


def _outcome(parse, lines, require_labels):
    """A parse's result, or its error's type, message and line number."""
    try:
        corpus = parse(lines, require_labels=require_labels)
    except CorpusFormatError as error:
        return type(error), str(error), error.line_number
    return corpus.documents, corpus.categories


def _generated_text(seed, documents=300, vocabulary=400):
    rng = random.Random(seed)
    words = [f"w{i:03d}" for i in range(vocabulary)]
    fields = ["a", "b", "a,b", " b , c ", "c"]
    return "".join(
        f"{rng.choice(fields)}\t{' '.join(rng.choices(words, k=rng.randint(0, 30)))}\n"
        for _ in range(documents)
    )


def _distinct_words(corpus):
    return {token for doc in corpus.documents for token in doc.tokens}


def _token_objects(corpus):
    return {id(token) for doc in corpus.documents for token in doc.tokens}


class TestSharedObjects:
    def test_fixture_holds_one_object_per_word(self, sports_corpus):
        assert len(_token_objects(sports_corpus)) == len(_distinct_words(sports_corpus)) == 6

    def test_generated_corpus_holds_one_object_per_word(self):
        corpus = parse_corpus(io.StringIO(_generated_text(seed=3)))
        assert len(_token_objects(corpus)) == len(_distinct_words(corpus)) > 300

    def test_equal_label_fields_share_one_set(self, sports_corpus):
        first, second, third, fourth = sports_corpus.documents
        assert first.labels is second.labels
        assert third.labels is fourth.labels
        assert first.labels is not third.labels

    def test_generated_corpus_shares_one_set_per_field(self):
        corpus = parse_corpus(io.StringIO(_generated_text(seed=4)))
        # five distinct label fields, so five label sets
        assert len({id(doc.labels) for doc in corpus.documents}) == 5
        assert corpus == reference_parse_corpus(io.StringIO(_generated_text(seed=4)))

    def test_a_repeated_bad_field_fails_on_its_first_line(self):
        text = "a\tx\na,,b\ty\na,,b\tz\n"
        with pytest.raises(CorpusFormatError, match="line 2") as info:
            parse_corpus(io.StringIO(text))
        assert info.value.line_number == 2

    def test_unlabeled_field_fails_on_every_parse(self):
        # the field is cached only once it has been accepted
        with pytest.raises(CorpusFormatError, match="line 2: document has no labels"):
            parse_corpus(io.StringIO("a\tx\n \ty\n \tz\n"))
        corpus = parse_corpus(io.StringIO("a\tx\n \ty\n \tz\n"), require_labels=False)
        assert corpus.documents[1].labels is corpus.documents[2].labels == frozenset()

    def test_category_order_survives_shared_fields(self):
        corpus = parse_corpus(io.StringIO("c,b\tx\na\ty\nc,b\tz\nb,a,d\tw\n"))
        assert corpus.categories == ("c", "b", "a", "d")


# pieces that stress the parser: whitespace that str.split() splits on
# (CR, \x1c, \x85, \u3000), spaces around labels, empty label items
_LABEL_FIELDS = ("", " ", "a", " a ", "a,b", "b, a", "a,,b", ",", "a,", "\u3000a", "a\r")
_BODY_PIECES = ("x", "yy", "x", "été", " ", "  ", "\t", "\r", "\x1c", "\x85", "\u3000", "x\x00y")
_ENDINGS = ("\n", "\r\n", "")


@st.composite
def _corpus_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        body = "".join(draw(st.lists(st.sampled_from(_BODY_PIECES), max_size=8)))
        if draw(st.integers(0, 9)) == 0:  # a line without a TAB
            lines.append(body + draw(st.sampled_from(_ENDINGS)))
            continue
        head = draw(st.sampled_from(_LABEL_FIELDS))
        lines.append(f"{head}\t{body}{draw(st.sampled_from(_ENDINGS))}")
    return lines


class TestMatchesTheReference:
    @given(_corpus_lines(), st.booleans())
    def test_results_and_errors_match(self, lines, require_labels):
        assert _outcome(parse_corpus, lines, require_labels) == _outcome(
            reference_parse_corpus, lines, require_labels
        )

    @pytest.mark.parametrize("require_labels", [True, False])
    def test_generated_corpus_matches(self, require_labels):
        text = _generated_text(seed=5) + " \tlast line, unlabeled"
        assert _outcome(parse_corpus, io.StringIO(text), require_labels) == _outcome(
            reference_parse_corpus, io.StringIO(text), require_labels
        )

"""Corpus parsing, serialization, and complement-pool construction."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    CorpusFormatError,
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

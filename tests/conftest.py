"""Shared fixtures: a tiny two-category sports corpus.

The corpus is sized so every derived quantity is checkable by hand:
category c1 holds 10 tokens over five distinct words, c2 holds 7 over
three, and the vocabulary splits into c1-only words, c2-only words,
and the shared word "ball".
"""

import io

import pytest
from hypothesis import settings

from mixcat import complement_corpus, count_pools, parse_corpus

# property tests draw the same examples on every run and carry no time
# limit, so a slow or shared machine cannot turn them flaky
settings.register_profile("mixcat", derandomize=True, deadline=None, database=None)
settings.load_profile("mixcat")

SPORTS_TEXT = (
    "c1\tracket racket stroke shot ball\n"
    "c1\tracket racket shot goal ball\n"
    "c2\tgoal goal kick ball\n"
    "c2\tgoal kick ball\n"
)

# the running example document used across the model tests
EXAMPLE_DOC = ("kick", "goal", "goal", "ball")


@pytest.fixture(scope="session")
def sports_text():
    return SPORTS_TEXT


@pytest.fixture(scope="session")
def sports_corpus():
    return parse_corpus(io.StringIO(SPORTS_TEXT))


@pytest.fixture(scope="session")
def binary_table(sports_corpus):
    """Two-pool frequency table: c1 versus its complement."""
    positive, negative = complement_corpus(sports_corpus, "c1")
    return count_pools([("c1", positive), ("~c1", negative)])

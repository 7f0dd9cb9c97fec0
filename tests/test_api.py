"""The package's public names: every one resolves, and names that only
the tests use live in ``tests/reference.py``, not in the library."""

import mixcat
from mixcat import clustering, counts, evaluation, models

# (owner, name) of every name moved out of the library
MOVED = (
    (evaluation, "contingency"),
    (evaluation, "micro_pr"),
    (evaluation, "_outcome_of"),
    (evaluation, "OUTCOMES"),
    (evaluation.ContingencyCounts, "pairs"),
    (models, "cosine_decide"),
    (counts.FrequencyTable, "count"),
    (counts.FrequencyTable, "word_total"),
    (counts.FrequencyTable, "as_dict"),
    (counts.FrequencyTable, "category_total"),
    (clustering.DistributedFrequencies, "word_freq"),
    (clustering.DistributedFrequencies, "cluster_total"),
    (clustering.Clustering, "clusters_of"),
    (clustering, "from_member_sets"),
)


def test_every_public_name_resolves():
    assert len(set(mixcat.__all__)) == len(mixcat.__all__)
    for name in mixcat.__all__:
        assert hasattr(mixcat, name), name


def test_test_only_names_left_the_library():
    for owner, name in MOVED:
        assert not hasattr(owner, name), (owner, name)
        assert not hasattr(mixcat, name), name
        assert name not in mixcat.__all__

"""The package's public names: every one resolves, and names that only
the tests use live in ``tests/reference.py``, not in the library."""

import os
import subprocess
import sys
from pathlib import Path

import mixcat
from mixcat import clustering, counts, estimation, evaluation, models

# modules that importing the package must not load: the benchmark's
# set-up time includes the import
KEPT_OFF_THE_IMPORT_PATH = ("fractions", "decimal", "base64", "argparse", "csv", "mixcat.cli")

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
    (clustering, "DistributedFrequencies"),
    (clustering.Clustering, "clusters_of"),
    (clustering, "from_member_sets"),
    (estimation, "pack_tokens"),
    (estimation, "log_likelihood"),
    (estimation, "gradient"),
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


def test_import_loads_none_of_the_modules_kept_off_the_import_path():
    source = str(Path(mixcat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, mixcat; "
        f"print(' '.join(m for m in {KEPT_OFF_THE_IMPORT_PATH!r} if m in sys.modules))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert loaded == []

"""Every CLI command's output against the committed expected files.

The cases, the corpora and the expected outputs live in ``tests/golden``;
``tests/golden/regen.py`` rewrites them after an intended change.  Text
outside floats must match exactly and floats within a relative 1e-12;
each case also prints how many of its floats differ at all.
"""

import pytest

from golden.regen import CASES, CORPORA, HERE, compare, run_cases


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("MIXCAT_CONFIG", raising=False)
        return run_cases(tmp_path_factory.mktemp("golden"))


def test_every_expected_file_has_a_case():
    written = {name for name, _ in CASES}
    kept = {p.name for p in HERE.iterdir() if p.is_file() and p.suffix != ".py"}
    assert kept - set(CORPORA) == written


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_output_matches_golden(outputs, name):
    expected = (HERE / name).read_text(encoding="utf-8")
    problems, floats, differing = compare(expected, outputs[name])
    print(f"{name}: {differing} of {floats} floats differ")
    assert not problems, f"{name} ({differing} of {floats} floats differ): {problems[:5]}"

"""Every CLI command's output against the committed expected files.

The cases, the corpora and the expected outputs live in ``tests/golden``;
``tests/golden/regen.py`` rewrites them after an intended change.  Text
outside floats must match exactly and floats within a relative 1e-12,
the base64 vectors of model files included; each case also prints how
many of its floats differ at all.
"""

import binascii
import json

import numpy as np
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


@pytest.mark.parametrize(("change", "differing", "fails"), [
    (lambda bits: bits ^ np.uint64(1), 1, False),  # the last bit of the mantissa
    (lambda bits: (bits.view("<f8") * (1 + 1e-11)).view("<u8"), 1, True),
])
def test_model_vectors_compare_as_floats(change, differing, fails):
    """A model file's base64 vectors compare within the float tolerance."""
    text = (HERE / "train-fmm-0.4-both.json").read_text(encoding="utf-8")
    *header, line, end = text.split("\n")
    payload = json.loads(line)
    values = np.frombuffer(binascii.a2b_base64(payload["positive_theta"]), "<f8")
    bits = values.view("<u8").copy()
    bits[values.argmax()] = change(bits[values.argmax()])
    payload["positive_theta"] = binascii.b2a_base64(
        bits.tobytes(), newline=False
    ).decode("ascii")
    edited = "\n".join([*header, json.dumps(payload), end])
    assert edited != text
    problems, floats, found = compare(text, edited)
    assert found == differing
    assert floats > len(values)
    assert bool(problems) is fails

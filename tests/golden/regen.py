"""Expected outputs of the mixcat CLI on two small committed corpora.

``CASES`` names every command the golden test runs, through
``mixcat.cli.main`` and in one directory that holds copies of the
corpora, so every path the outputs echo is relative.  ``train`` cases
keep the model file they write; every other case keeps its stdout.  A
``classify`` case reads the model of the ``train`` case before it.

Rewrite the expected files after a change that alters outputs on
purpose, and print what changed, file by file::

    PYTHONPATH=src python tests/golden/regen.py

With ``--check`` nothing is written: the same report is printed, and
the exit status is 1 if any expected file would change in any byte, is
missing, or has no case::

    PYTHONPATH=src python tests/golden/regen.py --check

``train.txt`` and ``test.txt`` were made once with the benchmark's
generator, and are kept as text so that no test needs it::

    from perfbench.workloads import Shape, Workload, write
    shape = Shape(categories=4, train_docs=60, test_docs=24,
                  vocabulary=300, mean_length=20,
                  test_rule="iid+oov", oov_share=0.1)
    write(Workload("golden", shape, hcm={}), 5, Path("tests/golden"))
"""

from __future__ import annotations

import argparse
import binascii
import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

from mixcat.cli import main

HERE = Path(__file__).resolve().parent
CORPORA = ("train.txt", "test.txt")
CATEGORY = "c02"  # carries multi-label documents shared with c00 and c03
REL_TOL = 1e-12

SCHEMES = {
    "wbm": ["--method", "wbm"],
    "cos": ["--method", "cos"],
    "hcm-gamma": ["--method", "hcm", "--gamma", "0.5"],
    "hcm-rank": ["--method", "hcm", "--top-l", "20", "--top-m", "20"],
    "fmm-0.2": ["--method", "fmm", "--gamma", "0.2"],
    "fmm-0.4": ["--method", "fmm", "--gamma", "0.4"],
}


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for rule in ("positive", "both"):
        for scheme, flags in SCHEMES.items():
            model = f"train-{scheme}-{rule}.json"
            common = [*flags, "--multilabel", rule]
            cases += [
                (model, ["train", "--train", "train.txt", "--model", model,
                         "--category", CATEGORY, *common]),
                (f"classify-{scheme}-{rule}.tsv",
                 ["classify", "--model", model, "--input", "test.txt",
                  "--epsilon", "0.05"]),
                (f"eval-{scheme}-{rule}.csv",
                 ["eval", "--train", "train.txt", "--test", "test.txt", *common]),
            ]
        cases.append((f"clusters-rank-{rule}.txt",
                      ["clusters", "--train", "train.txt", "--category", CATEGORY,
                       "--top-l", "20", "--top-m", "20", "--multilabel", rule]))
    cases += [
        ("clusters-gamma.txt", ["clusters", "--train", "train.txt", "--gamma", "0.3"]),
        ("counts.csv", ["counts", "--train", "train.txt"]),
    ]
    return cases


CASES = _cases()


def run_cases(directory: Path) -> dict[str, str]:
    """Every case's output, by file name, run inside ``directory``."""
    for name in CORPORA:
        shutil.copyfile(HERE / name, directory / name)
    outputs = {}
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in CASES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = main(argv)
            if status != 0:
                raise RuntimeError(f"{name}: mixcat {' '.join(argv)} exited {status}")
            if argv[0] == "train":
                outputs[name] = Path(name).read_text(encoding="utf-8")
            else:
                outputs[name] = stdout.getvalue()
    finally:
        os.chdir(previous)
    return outputs


# a float as repr and json write it: a point or an exponent, never a bare
# integer, and not part of a word such as "w12"
FLOAT = re.compile(r"(?<![\w.])(-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+))(?![\w.])")


# the base64 float64 vectors of a model file; "members" holds bits and
# is compared as text
VECTORS = ("positive", "negative", "positive_theta", "negative_theta")


def _floats(text: str) -> list[float]:
    return np.frombuffer(binascii.a2b_base64(text), "<f8").tolist()


def readable(text: str) -> str:
    """``text`` with each model file line's vectors written as JSON floats.

    A line that is not a model file's JSON object stays as it is.
    """
    lines = text.split("\n")
    for number, line in enumerate(lines):
        if not line.startswith("{"):
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict) or "schema_version" not in payload:
                continue
            for key in VECTORS:
                if key in payload:
                    payload[key] = _floats(payload[key])
            if "cluster_words" in payload:
                payload["cluster_words"] = list(map(_floats, payload["cluster_words"]))
        except (ValueError, TypeError):  # not a model file, or a broken one
            continue
        lines[number] = json.dumps(payload)
    return "\n".join(lines)


def compare(expected: str, actual: str) -> tuple[list[str], int, int]:
    """Where ``actual`` departs from ``expected``.

    Returns the problems found (any text outside a float that differs,
    or a float off by more than ``REL_TOL`` relative), the number of
    floats compared, and how many of them differ at all.  The float64
    vectors of model files are compared as floats, not as base64 text.
    """
    expected, actual = readable(expected), readable(actual)
    problems = []
    floats = differing = 0
    want_lines, got_lines = expected.split("\n"), actual.split("\n")
    if len(want_lines) != len(got_lines):
        problems.append(f"{len(got_lines)} lines, expected {len(want_lines)}")
    for number, (want, got) in enumerate(zip(want_lines, got_lines), start=1):
        want_parts, got_parts = FLOAT.split(want), FLOAT.split(got)
        if want_parts[::2] != got_parts[::2]:
            at = len(os.path.commonprefix([want, got]))
            problems.append(
                f"line {number}: expected {want[at:at + 40]!r}, got {got[at:at + 40]!r}"
            )
            continue
        for a, b in zip(want_parts[1::2], got_parts[1::2]):
            floats += 1
            if float(a) != float(b):
                differing += 1
                if not math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0):
                    problems.append(f"line {number}: float {b}, expected {a}")
    return problems, floats, differing


def regenerate(check: bool = False) -> int:
    """Rewrite every expected file, unless ``check``, and print what
    changed; return 1 if ``check`` finds any file that is not
    byte-identical, else 0."""
    os.environ.pop("MIXCAT_CONFIG", None)
    with tempfile.TemporaryDirectory() as scratch:
        outputs = run_cases(Path(scratch))
    changed = []
    for name, text in outputs.items():
        path = HERE / name
        if not path.exists():
            print(f"{name}: new")
            changed.append(name)
        else:
            expected = path.read_bytes()
            problems, floats, differing = compare(expected.decode("utf-8"), text)
            same = expected == text.encode("utf-8")
            if not same:
                changed.append(name)
            if not problems and not differing:
                print(f"{name}: {'unchanged' if same else 'bytes differ, no float does'}")
            else:
                print(f"{name}: {differing} of {floats} floats differ")
                for problem in problems:
                    print(f"  {problem}")
        if not check:
            path.write_text(text, encoding="utf-8")
    stale = sorted(
        p.name for p in HERE.iterdir()
        if p.is_file() and p.name not in outputs and p.name not in CORPORA
        and p.suffix != ".py"
    )
    for name in stale:
        print(f"{name}: no case writes it; delete it by hand")
    if check:
        print(f"{len(changed)} of {len(outputs)} files differ, {len(stale)} stale")
    return int(check and bool(changed or stale))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 unless every expected file is byte-identical",
    )
    raise SystemExit(regenerate(parser.parse_args().check))

"""Smoke test of the benchmark itself, at a tiny shape of every workload.

    python3 perfbench/smoke.py

Checks, for each workload:

* the untraced run reports every end-to-end metric of BENCHMARK.json
  with its unit, the traced run every per-layer metric, and no
  operation fails;
* traced and untraced runs give identical break-even values, and two
  traced runs identical counts;
* a traced run writes the spans of every traced round;
* in each traced round, the self times of the eval stage's spans sum
  to the traced ``eval_s`` of every method within 5%.

It also checks that every per-layer metric appears in
``workloads.LAYER_EFFECTS``, and that the benchmark exits with an error, printing no
result, in a directory that holds only the benchmark and no library.
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = dict(train_docs=150, test_docs=20, vocabulary=700)
SEED = 7


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in run.benchmark_metrics(section)}


def check_workload(workload) -> list[str]:
    tiny = dataclasses.replace(workload, shape=dataclasses.replace(workload.shape, **TINY))
    plain = run.run_workload(tiny, SEED, 0.0, trace=False)
    traced = [run.run_workload(tiny, SEED, 0.0, trace=True) for _ in range(2)]
    problems = []
    for result, section in ((plain, "end_to_end"), (traced[0], "per_layer")):
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        if reported != _units(section):
            problems.append(f"{section} metrics differ from BENCHMARK.json: {reported}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{section} run had {result['failed']} failed operations")
    if plain["diagnostics"]["break_even"] != traced[0]["diagnostics"]["break_even"]:
        problems.append("traced and untraced break-even values differ")
    if traced[0]["diagnostics"]["counts"] != traced[1]["diagnostics"]["counts"]:
        problems.append("counts differ between two traced runs")
    written = traced[1]["diagnostics"]["spans_file"].read_text(encoding="utf-8")
    rounds = {json.loads(line)["round"] for line in written.splitlines()}
    if rounds != set(range(len(traced[1]["diagnostics"]["coverage"]))):
        problems.append(f"spans file holds rounds {sorted(rounds)}, not every traced round")
    for coverage in traced[0]["diagnostics"]["coverage"]:
        for method, share in coverage.items():
            if abs(share - 1.0) > 0.05:
                problems.append(f"{method}: eval spans cover {share:.3f} of traced eval_s")
    return [f"{workload.name}: {p}" for p in problems]


def check_layer_effects() -> list[str]:
    """Every per-layer metric says which end-to-end metric it should move."""
    named = " ".join(group for group, *_ in workloads.LAYER_EFFECTS).split()
    problems = []
    for name in _units("per_layer"):
        generic = name.rsplit(".", 1)[0] + ".<method>"
        if name not in named and generic not in named and name != "trace.overhead_ratio":
            problems.append(f"{name} is missing from workloads.LAYER_EFFECTS")
    return problems


def check_without_library() -> list[str]:
    """The benchmark alone, without the library's sources, must refuse to run."""
    with tempfile.TemporaryDirectory(dir=run.ROOT) as scratch:
        bare = Path(scratch)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "eval-many",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    printed_result = any(line.startswith("{") for line in done.stdout.splitlines())
    if done.returncode == 0 or printed_result:
        return [f"without the library: exit code {done.returncode}, result printed: {printed_result}"]
    return []


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS.values():
        problems += check_workload(workload)
    problems += check_layer_effects()
    problems += check_without_library()
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

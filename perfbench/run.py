"""Stage-timed pipeline benchmark for mixcat.

Drives the library the way ``mixcat eval`` and ``mixcat classify`` do,
for all four methods, on one seeded generated workload:

1. eval: train one model per target category, sweep the default
   101-point epsilon grid, take the break-even point;
2. classify: the trained models are saved (untimed); then loading them
   and deciding every test document against every model is timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-many --seed 1 --seconds 38 --trace 0

Rounds of the whole pipeline repeat until ``--seconds`` is used up;
each time reported is that of the second-slowest round (see
``_second_slowest``), and every round is printed.  A traced run writes
its spans to ``.bench_work/spans-<workload>.jsonl``.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``
(traced and untraced rounds alternate, which gives
``trace.overhead_ratio``).
Outputs are checked on every round; each raised exception or failed
check counts as a failed operation.  The exit code is 0 only when the
benchmark could run; a failed check still prints a result, with
``"correct": false``.
"""

from __future__ import annotations

import os

# run on one thread: keep numpy's BLAS from starting a thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

METHODS = tracing.METHODS
OUTCOMES = ("positive", "negative", "unclassified")
BREAK_EVEN_KINDS = ("exact", "interpolated", "extrapolated")
EPSILON = 0.05
MIN_SAMPLE_S = 0.1  # untraced steps repeat until a timed sample lasts this long
SETUP_SAMPLES = 8  # spread evenly over the run; their median is reported
RELOAD_SAMPLE = 10  # documents decided by both the saved and the in-memory model

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mixcat; "
    "print(time.perf_counter() - t, mixcat.__file__)"
)


class _Untraced:
    """Stands in for a tracer in untraced rounds."""

    @staticmethod
    def at(_stage):
        return contextlib.nullcontext()

    @staticmethod
    def region(_name):
        return contextlib.nullcontext()


UNTRACED = _Untraced()


class Ledger:
    """Operations attempted and failed, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def _time_import() -> float:
    """Seconds to import mixcat in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, location = done.stdout.split()
    if not Path(location).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported mixcat from {location}, not from {SRC}")
    return float(seconds)


def _import_mixcat():
    sys.path.insert(0, str(SRC))
    import mixcat

    if not Path(mixcat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported mixcat from {mixcat.__file__}")
    return mixcat


class Pipeline:
    """One workload's corpora and trained-model files, run round by round."""

    def __init__(self, mixcat, workload, train_path, test_path, directory, ledger):
        self.mx = mixcat
        self.workload = workload
        self.directory = directory
        self.ledger = ledger
        self.train_path = train_path
        self.test_path = test_path
        self.train = self.test = None
        self.setup_samples = [self.setup()]
        self.training_tokens = sum(len(d.tokens) for d in self.train.documents)
        if workload.target_rank is None:
            self.targets = list(self.train.categories)
        else:
            labels = (doc.labels for doc in self.train.documents)
            self.targets = [workloads.target_category(labels, workload.target_rank)]
        self.grid = self.mx.default_epsilon_grid()
        self.model_paths: dict[str, list[Path]] = {}
        self.break_even: dict[str, tuple] = {}
        self.reload_checked: set[str] = set()

    def parse(self):
        with open(self.train_path, encoding="utf-8") as handle:
            train = self.mx.parse_corpus(handle)
        with open(self.test_path, encoding="utf-8") as handle:
            test = self.mx.parse_corpus(handle)
        return train, test

    def setup(self) -> float:
        """One set-up: import mixcat in a fresh interpreter, parse both files."""
        imported = _time_import()
        self.train = self.test = None
        start = perf_counter()
        self.train, self.test = self.parse()
        return imported + perf_counter() - start

    def train_models(self, method: str) -> list:
        mx, w = self.mx, self.workload
        po = w.positive_only
        if method == "wbm":
            return [mx.train_wbm(self.train, c, po) for c in self.targets]
        if method == "hcm":
            return [
                mx.train_hcm(self.train, c, positive_only=po, **w.hcm)
                for c in self.targets
            ]
        if method == "fmm":
            return [
                mx.train_fmm(self.train, c, workloads.FMM_GAMMA, positive_only=po)
                for c in self.targets
            ]
        return [mx.train_cos(self.train, c, po) for c in self.targets]

    def eval(self, method: str, repeat: bool) -> tuple[float, list]:
        """The eval step, timed; returns its seconds and the models.

        With ``repeat`` the step runs again until ``MIN_SAMPLE_S`` has
        passed and the mean is returned: short samples are the noisiest.
        """
        mx = self.mx
        runs = 0
        gc.collect()
        start = perf_counter()
        while True:
            models = self.train_models(method)
            curve = mx.sweep(models, self.test, self.grid)
            point = mx.break_even(curve)
            runs += 1
            elapsed = perf_counter() - start
            if not repeat or elapsed >= MIN_SAMPLE_S:
                break
        self.ledger.attempted += (len(self.targets) + 1) * runs
        self.check_curve(method, curve, point)
        return elapsed / runs, models

    def check_curve(self, method, curve, point) -> None:
        ok = self.ledger.check
        ok(len(curve.points) == len(self.grid), f"{method}: curve length")
        for p in curve.points:
            if not ok(
                0.0 <= p.precision <= 1.0 and 0.0 <= p.recall <= 1.0,
                f"{method}: precision/recall out of range at epsilon {p.epsilon}",
            ):
                break
        ok(point.kind in BREAK_EVEN_KINDS, f"{method}: break-even kind {point.kind!r}")
        ok(math.isfinite(point.value), f"{method}: break-even {point.value!r}")
        seen = self.break_even.setdefault(method, (point.value, point.kind))
        ok(seen == (point.value, point.kind), f"{method}: break-even moved: {seen} then {point}")

    def save(self, method: str, models: list) -> None:
        if method in self.model_paths:
            return
        paths = []
        for index, model in enumerate(models):
            path = self.directory / f"{method}-{index}.model"
            self.mx.save_model(model, path)
            paths.append(path)
        self.model_paths[method] = paths

    def classify(self, method: str, tracer, repeat: bool) -> tuple[float, list]:
        """Load the saved models and decide every test document, timed.

        Returns documents decided per second and the last pass's
        decisions; ``repeat`` works as in ``eval``.
        """
        mx = self.mx
        documents = self.test.documents
        runs = 0
        gc.collect()
        start = perf_counter()
        while True:
            loaded = [mx.load_model(path) for path in self.model_paths[method]]
            decisions = []
            for doc in documents:
                with tracer.region("bench.document"):
                    decisions.append(
                        [mx.classify_document(m, doc.tokens, EPSILON) for m in loaded]
                    )
            runs += 1
            elapsed = perf_counter() - start
            if not repeat or elapsed >= MIN_SAMPLE_S:
                break
        self.ledger.attempted += len(documents) * runs
        bad = sum(
            1
            for row in decisions
            for d in row
            if d.outcome not in OUTCOMES
            or (d.score is not None and not math.isfinite(d.score))
        )
        self.ledger.check(bad == 0, f"{method}: {bad} invalid decisions")
        return len(documents) * runs / elapsed, decisions

    def check_reload(self, method: str, models: list, decisions: list) -> None:
        """The saved models decide a fixed sample as the in-memory ones do."""
        mx = self.mx
        step = max(1, len(decisions) // RELOAD_SAMPLE)
        for index in range(0, len(decisions), step)[:RELOAD_SAMPLE]:
            tokens = self.test.documents[index].tokens
            fresh = [mx.classify_document(m, tokens, EPSILON) for m in models]
            if not self.ledger.check(
                fresh == decisions[index],
                f"{method}: reloaded model decides document {index} differently",
            ):
                break

    def round(self, tracer=UNTRACED) -> dict:
        """One pass of eval and classify for every method.

        Traced rounds run each step once, so that their counts repeat.
        """
        out = {}
        repeat = tracer is UNTRACED
        for method in METHODS:
            try:
                with tracer.at(("eval", method)):
                    eval_s, models = self.eval(method, repeat)
                self.save(method, models)
                with tracer.at(("classify", method)):
                    docs_per_s, decisions = self.classify(method, tracer, repeat)
                if repeat and method not in self.reload_checked:
                    # calls the library, so it stays out of traced rounds
                    self.check_reload(method, models, decisions)
                    self.reload_checked.add(method)
            except Exception:  # a crash in the library is a failed operation
                self.ledger.fail(f"{method}: {traceback.format_exc(limit=3)}")
                continue
            out[f"eval_s.{method}"] = eval_s
            out[f"classify_docs_per_s.{method}"] = docs_per_s
        return out

    def check_cli(self) -> None:
        """``mixcat eval`` must print the library pipeline's break-even."""
        method = self.workload.cli_check_method
        if method is None:
            return
        argv = ["eval", "--train", str(self.train_path), "--test", str(self.test_path),
                "--method", method, "--output", str(self.directory / "curve.csv")]
        if method == "hcm":
            for key, value in self.workload.hcm.items():
                argv += [f"--{key.replace('_', '-')}", str(value)]
        self.ledger.attempted += 1
        printed = io.StringIO()
        try:
            from mixcat.cli import main as cli_main

            with contextlib.redirect_stdout(printed):
                code = cli_main(argv)
            expected = f"break_even={self.break_even[method][0]!r}"
        except Exception:
            self.ledger.fail(f"mixcat eval: {traceback.format_exc(limit=3)}")
            return
        self.ledger.check(
            code == 0 and expected in printed.getvalue().splitlines(),
            f"mixcat eval printed {printed.getvalue().strip()!r}, expected {expected}",
        )


def _second_slowest(rounds: list[dict], declared: list) -> dict:
    """Per metric, the value of the second-slowest round.

    The CPU of the small shared host this was tuned on switches between
    two speeds about 2x apart, in phases from under a second to about a
    minute long, with short stalls on top.  A median over rounds lands
    on either speed depending on when a run starts; the slowest round
    lands on the slow speed in almost every run, but also on any stall.
    The second-slowest of the 10 to 20 rounds of a run keeps the first
    and drops a single stall.
    """
    out = {}
    for metric in declared:
        name = metric["name"]
        # slowest first: highest time, lowest rate
        values = sorted(
            (r[name] for r in rounds if name in r), reverse=metric["better"] == "lower"
        )
        if values:
            out[name] = values[min(1, len(values) - 1)]
    return out


def _eval_total(result: dict) -> float:
    return sum(result.get(f"eval_s.{m}", 0.0) for m in METHODS)


def _top_level_coverage(spans, eval_seconds: dict) -> dict:
    """Per method: summed self time of the eval stage's spans over traced eval_s."""
    own = tracing.self_times(spans)
    covered = dict.fromkeys(eval_seconds, 0.0)
    for span, seconds in zip(spans, own):
        stage, method = span.stage
        if stage == "eval" and method in covered:
            covered[method] += seconds
    return {m: covered[m] / eval_seconds[m] for m in eval_seconds}


def _print_round(kind: str, row: dict) -> None:
    print(f"# round {kind} " + " ".join(f"{k}={v:.4g}" for k, v in sorted(row.items())))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object plus diagnostics.

    Plain rounds repeat until ``seconds`` is used up, with set-up
    samples taken between them.  With ``trace`` every plain round is
    followed by a traced one.
    """
    if not (SRC / "mixcat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mixcat sources under {SRC}")
    ledger = Ledger()
    directory = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        train_path, test_path, shapes = workloads.write(workload, seed, directory)
        for part, shape in shapes.items():
            print(f"# corpus {workload.name} {part} {json.dumps(shape, sort_keys=True)}")
        mixcat = _import_mixcat()
        pipeline = Pipeline(mixcat, workload, train_path, test_path, directory, ledger)
        tracer = tracing.Tracer()
        plain, traced, layers, coverage, counts = [], [], [], [], []
        span_log = []  # every traced round's spans, written out when the run ends
        start = perf_counter()
        while True:
            begun = perf_counter()
            plain.append(pipeline.round())
            if perf_counter() - start >= len(pipeline.setup_samples) * seconds / SETUP_SAMPLES:
                pipeline.setup_samples.append(pipeline.setup())
            _print_round("plain", plain[-1])
            if trace:
                with tracing.installed(tracer):
                    pipeline.parse()
                    traced.append(pipeline.round(tracer))
                spans = tracer.take()
                span_log.append(tracing.dump(spans, len(traced) - 1))
                _print_round("traced", traced[-1])
                metrics = tracing.layer_metrics(spans, pipeline.training_tokens, len(METHODS))
                layers.append(metrics)
                eval_seconds = {
                    m: traced[-1][f"eval_s.{m}"] for m in METHODS if f"eval_s.{m}" in traced[-1]
                }
                coverage.append(_top_level_coverage(spans, eval_seconds))
                counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
                ledger.check(counts[0] == counts[-1], "traced counts differ between rounds")
            if perf_counter() - start + (perf_counter() - begun) > seconds:
                break
        pipeline.check_cli()
        for method, (value, kind) in sorted(pipeline.break_even.items()):
            print(f"# break_even.{method} {value!r} {kind}")
        spans_file = None
        if trace:
            spans_file = WORK / f"spans-{workload.name}.jsonl"
            spans_file.write_text("".join(span_log), encoding="utf-8")
            print(f"# spans {spans_file.relative_to(ROOT)}")
            declared = benchmark_metrics("per_layer")
            metrics = {
                name: statistics.median(m[name] for m in layers) for name in layers[0]
            }
            metrics["trace.overhead_ratio"] = statistics.median(
                _eval_total(t) / _eval_total(p) for p, t in zip(plain, traced)
            )
        else:
            declared = benchmark_metrics("end_to_end")
            metrics = _second_slowest(plain, declared)
            metrics["setup_s"] = statistics.median(pipeline.setup_samples)
            for method, (value, _kind) in pipeline.break_even.items():
                metrics[f"break_even.{method}"] = value
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = rss / 1024.0
        for metric in declared:
            if metric["name"] not in metrics:
                ledger.fail(f"metric {metric['name']} was not measured")
        print(f"# rounds plain={len(plain)} traced={len(traced)} "
              f"setup_samples={len(pipeline.setup_samples)}")
        for message in ledger.messages:
            print(f"# FAILED {message}", file=sys.stderr)
        return {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in declared
                if m["name"] in metrics
            },
            "diagnostics": {
                "break_even": dict(pipeline.break_even),
                "counts": counts,
                "coverage": coverage,
                "spans_file": spans_file,
            },
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def benchmark_metrics(section: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[section]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    result.pop("diagnostics")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

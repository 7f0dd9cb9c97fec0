"""Span recording around mixcat's public functions, from outside the library.

``installed(tracer)`` replaces each traced function in the
module namespace where its callers look it up with a wrapper that
records a span: name, start, end, parent span and the benchmark stage
it ran in.  A few wrappers also keep a count taken from the call's
arguments or return value.  The originals are put back on exit.

Spans stay in memory until the run ends, when ``dump`` writes them out
as JSON lines; ``layer_metrics`` turns one round's spans into the
per-layer metrics.  A span's self time is its duration minus the
durations of its direct children (calls are nested, never concurrent).
"""

from __future__ import annotations

import importlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

METHODS = ("wbm", "hcm", "fmm", "cos")


def _len_tokens(args, kwargs, _result):
    pools = args[0] if args else kwargs.get("pools", ())
    return sum(len(tokens) for _, tokens in pools)


def _em_info(args, kwargs, result):
    tokens = args[1] if len(args) > 1 else kwargs.get("tokens", ())
    size = len(tokens) if hasattr(tokens, "__len__") else 0
    return size, result.iterations, result.converged


def _clustering_info(_args, _kwargs, result):
    multi = sum(1 for ids in result.assignments.values() if len(ids) > 1)
    return len(result.discarded), multi


def _outcomes(args, kwargs, _result):
    counts = args[0] if args else kwargs.get("counts", {})
    return len(counts)


def _tokens_parsed(_args, _kwargs, result):
    return sum(len(doc.tokens) for doc in result.documents)


def _no_evidence(_args, _kwargs, result):
    return result.score is None


def _pairs(args, kwargs, _result):
    decisions = args[0] if args else kwargs.get("decisions", {})
    return len(decisions)


def _file_bytes(args, kwargs, _result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute, span name, count taken from the call or None)
TRACED = (
    ("mixcat.models", "complement_corpus", "corpus.complement_corpus", None),
    ("mixcat.models", "count_pools", "counts.count_pools", _len_tokens),
    ("mixcat.models", "cluster_frequencies", "counts.cluster_frequencies", None),
    ("mixcat.models", "soft_clusters", "clustering.soft_clusters", _clustering_info),
    ("mixcat.models", "rank_clusters", "clustering.rank_clusters", _clustering_info),
    ("mixcat.models", "distribute_frequencies", "clustering.distribute_frequencies", None),
    ("mixcat.models", "ele_distribution", "estimation.ele_distribution", _outcomes),
    ("mixcat.models", "mle_word_distribution", "estimation.mle_word_distribution", None),
    ("mixcat.models", "em_fit", "estimation.em_fit", _em_info),
    ("mixcat.models", "weighted_log_mixture", "kernels.weighted_log_mixture", None),
    ("mixcat.estimation", "loglik_grad", "kernels.loglik_grad", None),
    ("mixcat.evaluation", "classify_document", "models.classify_document", _no_evidence),
    ("mixcat.evaluation", "contingency", "evaluation.contingency", _pairs),
    # the benchmark's own calls go through the package namespace
    ("mixcat", "classify_document", "models.classify_document", _no_evidence),
    ("mixcat", "train_wbm", "models.train_wbm", None),
    ("mixcat", "train_hcm", "models.train_hcm", None),
    ("mixcat", "train_fmm", "models.train_fmm", None),
    ("mixcat", "train_cos", "models.train_cos", None),
    ("mixcat", "sweep", "evaluation.sweep", None),
    ("mixcat", "break_even", "evaluation.break_even", None),
    ("mixcat", "load_model", "models.load_model", _file_bytes),
    ("mixcat", "parse_corpus", "corpus.parse_corpus", _tokens_parsed),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    stage: tuple  # (stage, method) set by the benchmark when the span opened
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the benchmark sets ``stage`` around its own steps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stage: tuple = ("setup", None)
        self._open: list[int] = []

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            with self.region(name) as span:
                result = fn(*args, **kwargs)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def at(self, stage: tuple):
        """Tag the spans opened inside the block with ``stage``."""
        previous = self.stage
        self.stage = stage
        try:
            yield
        finally:
            self.stage = previous

    @contextmanager
    def region(self, name: str):
        """Record the block as a span, child of the innermost open one."""
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.stage)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start afresh."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name that exists; restore the originals on exit.

    A module or name the library no longer has is skipped, so its
    metrics read zero calls.
    """
    saved = []
    try:
        for module_name, attr, span_name, info in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, info))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def dump(spans: list[Span], round_index: int) -> str:
    """One traced round's spans as JSON lines; ``parent`` indexes the round's spans."""
    return "".join(
        json.dumps({"round": round_index, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "stage": list(s.stage)}) + "\n"
        for s in spans
    )


def self_times(spans: list[Span]) -> list[float]:
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans: list[Span], training_tokens: int, methods_run: int) -> dict:
    """Per-layer metrics of one traced round, keyed by metric name."""
    own = self_times(spans)
    time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, t in zip(spans, own):
        time[span.name] = time.get(span.name, 0.0) + t
        calls[span.name] = calls.get(span.name, 0) + 1

    def infos(name):
        return [s.info for s in spans if s.name == name]

    tokens_counted = sum(infos("counts.count_pools"))
    clusterings = infos("clustering.soft_clusters") + infos("clustering.rank_clusters")
    em = infos("estimation.em_fit")
    out = {
        "corpus.parse_s": time.get("corpus.parse_corpus", 0.0),
        "corpus.tokens_parsed": sum(infos("corpus.parse_corpus")),
        "corpus.complement_s": time.get("corpus.complement_corpus", 0.0),
        "corpus.complement_calls": calls.get("corpus.complement_corpus", 0),
        "counts.count_pools_s": time.get("counts.count_pools", 0.0),
        "counts.tokens_counted": tokens_counted,
        "counts.recount_ratio": tokens_counted / (training_tokens * methods_run),
        "counts.cluster_frequencies_s": time.get("counts.cluster_frequencies", 0.0),
        "clustering.cluster_s": time.get("clustering.soft_clusters", 0.0)
        + time.get("clustering.rank_clusters", 0.0),
        "clustering.distribute_s": time.get("clustering.distribute_frequencies", 0.0),
        "clustering.discarded_words": sum(c[0] for c in clusterings),
        "clustering.multi_cluster_words": sum(c[1] for c in clusterings),
        "estimation.ele_s": time.get("estimation.ele_distribution", 0.0),
        "estimation.ele_outcomes": sum(infos("estimation.ele_distribution")),
        "estimation.mle_s": time.get("estimation.mle_word_distribution", 0.0),
        "estimation.em_fit_s": time.get("estimation.em_fit", 0.0),
        "estimation.em_tokens": sum(e[0] for e in em),
        "estimation.em_iterations": sum(e[1] for e in em),
        "estimation.em_unconverged": sum(1 for e in em if not e[2]),
        "kernels.loglik_grad_calls": calls.get("kernels.loglik_grad", 0),
        "kernels.loglik_grad_s": time.get("kernels.loglik_grad", 0.0),
        "kernels.log_mixture_calls": calls.get("kernels.weighted_log_mixture", 0),
        "kernels.log_mixture_s": time.get("kernels.weighted_log_mixture", 0.0),
        "models.score_pairs": calls.get("models.classify_document", 0),
        "models.no_evidence_pairs": sum(infos("models.classify_document")),
        "models.load_s": time.get("models.load_model", 0.0),
        "models.model_bytes": sum(infos("models.load_model")),
        "evaluation.sweep_self_s": time.get("evaluation.sweep", 0.0),
        "evaluation.contingency_calls": calls.get("evaluation.contingency", 0),
        "evaluation.pairs_thresholded": sum(infos("evaluation.contingency")),
    }
    documents = [s for s in spans if s.name == "bench.document"]
    out["models.classify_docs"] = 0
    for method in METHODS:
        out[f"models.train_self_s.{method}"] = time.get(f"models.train_{method}", 0.0)
        out[f"models.score_s.{method}"] = sum(
            t
            for s, t in zip(spans, own)
            if s.name == "models.classify_document" and s.stage[1] == method
        )
        latencies = [s.duration * 1e3 for s in documents if s.stage[1] == method]
        out["models.classify_docs"] = max(out["models.classify_docs"], len(latencies))
        out[f"models.classify_doc_p50_ms.{method}"] = (
            _percentile(latencies, 0.5) if latencies else 0.0
        )
        out[f"models.classify_doc_p99_ms.{method}"] = (
            _percentile(latencies, 0.99) if latencies else 0.0
        )
    return out

"""Command-line interface: train, classify, eval, clusters, counts.

Every run is deterministic: identical inputs and configuration produce
byte-identical outputs, and each output file starts with ``#`` header
lines echoing the full effective configuration (never a timestamp).

Configuration precedence is command-line flags, then a JSON config
file (``--config`` or the ``MIXCAT_CONFIG`` environment variable),
then built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import contextmanager

from mixcat.clustering import rank_clusters, soft_clusters
from mixcat.corpus import complement_corpus, parse_corpus
from mixcat.counts import count_frequencies, count_pools
from mixcat.estimation import EmConfig
from mixcat.evaluation import break_even, default_epsilon_grid, sweep
from mixcat.models import (
    doc_term_table,
    load_model,
    save_model,
    table_scores,
    threshold_outcome,
    train_cos,
    train_fmm,
    train_hcm,
    train_wbm,
)

METHODS = ("wbm", "hcm", "fmm", "cos")
POOL_RULES = ("positive", "both")


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Tag any failure inside the block with the pipeline stage."""
    try:
        yield
    except CliError:
        raise
    except (ValueError, OSError, KeyError) as err:
        raise CliError(name, str(err)) from err


def _invalid(message: str) -> CliError:
    return CliError("validating the configuration", message)


def _typed(kind: type, value):
    """``value`` as an option of type ``kind`` (int, float or str).

    The value must have the matching JSON type: an integer, any number,
    or a string.  Types are compared exactly, so JSON true is no
    integer, and a float must be finite.  Anything else is a ValueError.
    """
    if type(value) is kind or (kind is float and type(value) is int):
        try:
            converted = kind(value)
        except OverflowError:  # an integer beyond the float range
            converted = math.inf
        if kind is not float or math.isfinite(converted):
            return converted
    raise ValueError(f"invalid {kind.__name__} value: {json.dumps(value)}")


def _flag_type(kind: type):
    """argparse's ``type`` for ``kind``: the same check on a flag's text."""

    def convert(text: str):
        return _typed(kind, kind(text))

    convert.__name__ = kind.__name__  # argparse names it in its error
    return convert


# Each command's options: key -> (type, default, help), for the flag
# --key-with-dashes and the config key alike.  argparse leaves every flag
# at None so that the precedence merge can tell "not given" from any real
# value; the default applies after the merge.
TRAINING_OPTIONS = {
    "method": (str, None, "wbm | hcm | fmm | cos"),
    "gamma": (float, None, "share threshold for clustering"),
    "top_l": (int, None, "rank cutoff, own side"),
    "top_m": (int, None, "rank cutoff, other side"),
    "eta": (float, 1.0, "weight-fitting step size in (0, 1]"),
    "iters": (int, 100, "weight-fitting iteration cap"),
    "tol": (float, 1e-8, "weight-fitting stop tolerance"),
    "multilabel": (
        str,
        "positive",
        "where multi-label documents go: their category's pool only "
        "(positive) or the complement pool too (both)",
    ),
}


def _effective_config(args: argparse.Namespace) -> dict:
    options = args.options
    config_path = args.config or os.environ.get("MIXCAT_CONFIG")
    file_values = {}
    if config_path:
        with _stage("reading the config file"):
            with open(config_path, encoding="utf-8") as handle:
                file_values = json.load(handle)
            if not isinstance(file_values, dict):
                raise ValueError("config file must hold a JSON object")
            unknown = sorted(set(file_values) - set(options))
            if unknown:
                raise ValueError(
                    f"unknown config keys for {args.command}: {', '.join(unknown)}"
                )
            for key, value in file_values.items():
                # null means "not given"
                if value is not None:
                    try:
                        file_values[key] = _typed(options[key][0], value)
                    except ValueError as err:
                        raise ValueError(f"{key}: {err}") from None
    effective = {}
    for key, (_, default, _) in options.items():
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key)
        effective[key] = default if value is None else value
    return effective


def _require(cfg: dict, command: str, *keys: str) -> None:
    for key in keys:
        if cfg[key] is None:
            raise _invalid(f"{command} needs --{key.replace('_', '-')}")


def _validate_training(cfg: dict) -> EmConfig | None:
    """Shared flag-combination checks for train and eval.

    Returns the EM configuration when the method needs one.
    """
    method = cfg["method"]
    if method not in METHODS:
        raise _invalid(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if cfg["multilabel"] not in POOL_RULES:
        raise _invalid("multilabel must be 'positive' or 'both'")
    has_gamma = cfg["gamma"] is not None
    has_rank = cfg["top_l"] is not None or cfg["top_m"] is not None
    if method in ("wbm", "cos"):
        if has_gamma or has_rank:
            raise _invalid(f"clustering options do not apply to method {method!r}")
        return None
    if method == "hcm":
        if has_gamma == has_rank:
            raise _invalid("hcm needs exactly one scheme: --gamma, or --top-l with --top-m")
        if has_rank and (cfg["top_l"] is None or cfg["top_m"] is None):
            raise _invalid("the rank scheme needs both --top-l and --top-m")
        if has_gamma and cfg["gamma"] < 0.5:
            raise _invalid(
                f"gamma={cfg['gamma']} would allow overlapping clusters; "
                "hcm needs gamma >= 0.5"
            )
        return None
    if has_rank:
        raise _invalid("fmm clusters by threshold; --top-l/--top-m do not apply")
    if not has_gamma:
        raise _invalid("fmm needs --gamma")
    if not 0.0 <= cfg["gamma"] < 1.0:
        raise _invalid(f"gamma must be in [0, 1), got {cfg['gamma']}")
    try:
        return EmConfig(eta=cfg["eta"], max_iterations=cfg["iters"], tolerance=cfg["tol"])
    except ValueError as err:
        raise _invalid(str(err)) from err


def _header(command: str, cfg: dict) -> str:
    encoded = json.dumps(cfg, sort_keys=True)
    return f"# mixcat {command}\n# config {encoded}\n"


def _read_corpus(path: str, stage_name: str, require_labels: bool = True):
    with _stage(stage_name):
        with open(path, encoding="utf-8") as handle:
            return parse_corpus(handle, require_labels=require_labels)


def _write_text(path: str | None, text: str) -> None:
    with _stage("writing the output"):
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)


def _train_one(method, corpus, category, cfg, em_config, trace=None):
    positive_only = cfg["multilabel"] == "positive"
    if method == "wbm":
        return train_wbm(corpus, category, positive_only)
    if method == "cos":
        return train_cos(corpus, category, positive_only)
    if method == "hcm":
        return train_hcm(
            corpus,
            category,
            gamma=cfg["gamma"],
            top_l=cfg["top_l"],
            top_m=cfg["top_m"],
            positive_only=positive_only,
        )
    return train_fmm(
        corpus,
        category,
        cfg["gamma"],
        em_config,
        positive_only=positive_only,
        trace=trace,
    )


def cmd_train(cfg: dict) -> int:
    _require(cfg, "train", "train", "model", "method", "category")
    em_config = _validate_training(cfg)
    if cfg["trace"] is not None and cfg["method"] != "fmm":
        raise _invalid("--trace records mixture-weight fitting; it needs --method fmm")
    corpus = _read_corpus(cfg["train"], "reading the training corpus")
    trace: dict | None = {} if cfg["trace"] is not None else None
    with _stage("training the model"):
        if cfg["category"] not in corpus.categories:
            raise ValueError(
                f"category {cfg['category']!r} does not occur in the training corpus"
            )
        model = _train_one(cfg["method"], corpus, cfg["category"], cfg, em_config, trace)
    with _stage("writing the model"):
        save_model(model, cfg["model"])
        with open(cfg["model"], encoding="utf-8") as handle:
            body = handle.read()
        with open(cfg["model"], "w", encoding="utf-8") as handle:
            handle.write(_header("train", cfg) + body)
    if trace is not None:
        buffer = io.StringIO()
        buffer.write(_header("train", cfg))
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["side", "evaluation", "log_likelihood"])
        for side in ("positive", "negative"):
            for evaluation, loglik in trace[side]:
                writer.writerow([side, evaluation, repr(loglik)])
        with _stage("writing the trace"):
            with open(cfg["trace"], "w", encoding="utf-8") as handle:
                handle.write(buffer.getvalue())
    return 0


def cmd_classify(cfg: dict) -> int:
    _require(cfg, "classify", "model", "input")
    if cfg["epsilon"] < 0:
        raise _invalid("epsilon must be nonnegative")
    with _stage("loading the model"):
        model = load_model(cfg["model"])
    corpus = _read_corpus(cfg["input"], "reading the input documents", require_labels=False)
    lines = [_header("classify", cfg).rstrip("\n")]
    with _stage("classifying"):
        # one table for the whole input: a score equals classify_document's
        table = doc_term_table(document.tokens for document in corpus.documents)
        scores = table_scores(model, table)
    for number, score in enumerate(scores, start=1):
        outcome = threshold_outcome(score, cfg["epsilon"])
        lines.append(f"{number}\t{outcome}\t{'NA' if score is None else repr(score)}")
    _write_text(cfg["output"], "\n".join(lines) + "\n")
    return 0


def cmd_eval(cfg: dict) -> int:
    _require(cfg, "eval", "train", "test", "method")
    em_config = _validate_training(cfg)
    if cfg["category"] is not None:
        raise _invalid("eval always covers every category; --category does not apply")
    with _stage("validating the configuration"):
        grid = default_epsilon_grid(cfg["eps_max"], cfg["eps_step"])
    train_corpus = _read_corpus(cfg["train"], "reading the training corpus")
    test_corpus = _read_corpus(cfg["test"], "reading the test corpus")
    with _stage("training the models"):
        models = [
            _train_one(cfg["method"], train_corpus, category, cfg, em_config)
            for category in train_corpus.categories
        ]
    with _stage("evaluating"):
        curve = sweep(models, test_corpus, grid)
        point = break_even(curve)
    # recall leaves out (document, label) pairs whose label has no model
    trained = set(train_corpus.categories)
    unmodeled = sum(
        label not in trained
        for document in test_corpus.documents
        for label in document.labels
    )
    buffer = io.StringIO()
    buffer.write(_header("eval", cfg))
    buffer.write(f"# break_even_kind {point.kind}\n")
    buffer.write(f"# labels_without_model {unmodeled}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["epsilon", "precision", "recall"])
    for row in curve.points:
        writer.writerow([repr(row.epsilon), repr(row.precision), repr(row.recall)])
    _write_text(cfg["output"], buffer.getvalue())
    print(f"break_even={point.value!r}")
    return 0


def cmd_clusters(cfg: dict) -> int:
    _require(cfg, "clusters", "train")
    if cfg["multilabel"] not in POOL_RULES:
        raise _invalid("multilabel must be 'positive' or 'both'")
    has_gamma = cfg["gamma"] is not None
    has_rank = cfg["top_l"] is not None or cfg["top_m"] is not None
    if has_gamma == has_rank:
        raise _invalid("choose exactly one scheme: --gamma, or --top-l with --top-m")
    if has_rank and (cfg["top_l"] is None or cfg["top_m"] is None):
        raise _invalid("the rank scheme needs both --top-l and --top-m")
    corpus = _read_corpus(cfg["train"], "reading the training corpus")
    with _stage("clustering"):
        if cfg["category"] is not None:
            if cfg["category"] not in corpus.categories:
                raise ValueError(
                    f"category {cfg['category']!r} does not occur in the training corpus"
                )
            positive, negative = complement_corpus(
                corpus, cfg["category"], cfg["multilabel"] == "positive"
            )
            table = count_pools(
                [(cfg["category"], positive), ("~" + cfg["category"], negative)]
            )
        else:
            table = count_frequencies(corpus)
        if has_gamma:
            clustering = soft_clusters(table, cfg["gamma"])
        else:
            clustering = rank_clusters(table, cfg["top_l"], cfg["top_m"])
    lines = [_header("clusters", cfg).rstrip("\n")]
    for j, members in enumerate(clustering.clusters):
        label = f"k{j + 1}"
        if clustering.related_categories is not None:
            label += f" ({clustering.related_categories[j]})"
        ordered = [w for w in clustering.vocabulary if w in members]
        lines.append(f"{label}: {', '.join(ordered)}")
    discarded = [w for w in clustering.vocabulary if w in clustering.discarded]
    lines.append(f"discarded: {', '.join(discarded)}")
    _write_text(cfg["output"], "\n".join(lines) + "\n")
    return 0


def cmd_counts(cfg: dict) -> int:
    _require(cfg, "counts", "train")
    corpus = _read_corpus(cfg["train"], "reading the training corpus")
    with _stage("counting"):
        table = count_frequencies(corpus)
    buffer = io.StringIO()
    buffer.write(_header("counts", cfg))
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["category", "word", "count"])
    for category in table.categories:
        for word in table.vocabulary:
            writer.writerow([category, word, table.count(category, word)])
    _write_text(cfg["output"], buffer.getvalue())
    return 0


# (name, summary, handler, options) of every command
COMMANDS = (
    ("train", "train one category-vs-complement model", cmd_train, {
        "train": (str, None, "training corpus file"),
        "model": (str, None, "where to write the model"),
        "category": (str, None, "target category"),
        "trace": (str, None, "write the weight-fitting trace CSV here"),
        **TRAINING_OPTIONS,
    }),
    ("classify", "classify documents with a saved model", cmd_classify, {
        "model": (str, None, "model file from train"),
        "input": (
            str,
            None,
            "documents to classify (corpus format; the label field may be empty)",
        ),
        "output": (str, None, "decision TSV (default: stdout)"),
        "epsilon": (float, 0.0, "rejection threshold"),
    }),
    ("eval", "train on every category, sweep epsilon, report the curve", cmd_eval, {
        "train": (str, None, "training corpus file"),
        "test": (str, None, "labeled test corpus file"),
        "output": (str, None, "curve CSV (default: stdout)"),
        # accepted only to be refused with a clear message
        "category": (str, None, argparse.SUPPRESS),
        "eps_max": (float, 0.5, "sweep upper end"),
        "eps_step": (float, 0.005, "sweep step"),
        **TRAINING_OPTIONS,
    }),
    ("clusters", "show cluster membership for a corpus", cmd_clusters, {
        "train": (str, None, "training corpus file"),
        "output": (str, None, "dump file (default: stdout)"),
        "category": (
            str, None, "cluster category-vs-complement instead of all categories"
        ),
        "gamma": (float, None, "share threshold"),
        "top_l": (int, None, None),
        "top_m": (int, None, None),
        "multilabel": (str, "positive", None),
    }),
    ("counts", "dump the word-frequency table as CSV", cmd_counts, {
        "train": (str, None, "training corpus file"),
        "output": (str, None, "CSV file (default: stdout)"),
    }),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcat",
        description="Probabilistic text categorization: mixture, cluster, "
        "word, and cosine models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or set MIXCAT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, run, options in COMMANDS:
        p = sub.add_parser(name, parents=[common], help=summary)
        for key, (kind, _, text) in options.items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=_flag_type(kind),
                choices=POOL_RULES if key == "multilabel" else None,
                help=text,
            )
        p.set_defaults(run=run, options=options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_effective_config(args))
    except CliError as err:
        print(f"mixcat: error while {err.stage}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

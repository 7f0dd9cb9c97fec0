"""Probabilistic text categorization toolkit.

Binary category-vs-complement classification of token sequences with
four methods: smoothed word histograms, hard word clusters, finite
mixtures over soft word clusters with EM-fitted weights, and a cosine
baseline.  Includes a rejection-threshold decision rule and a
micro-averaged precision/recall harness with break-even reporting.
"""

from mixcat.clustering import (
    Clustering,
    DistributedFrequencies,
    distribute_frequencies,
    rank_clusters,
    soft_clusters,
)
from mixcat.corpus import (
    CorpusFormatError,
    LabeledCorpus,
    LabeledDocument,
    complement_corpus,
    parse_corpus,
    serialize_corpus,
)
from mixcat.counts import (
    FrequencyTable,
    cluster_frequencies,
    count_frequencies,
    count_pools,
)
from mixcat.estimation import (
    EmConfig,
    EmResult,
    ele_distribution,
    em_fit,
    em_step,
    gradient,
    log_likelihood,
    mle_distribution,
    mle_word_distribution,
)
from mixcat.evaluation import (
    BreakEven,
    ContingencyCounts,
    CurvePoint,
    PRCurve,
    PrecisionRecall,
    break_even,
    curve_from_scores,
    default_epsilon_grid,
    pr_from_counts,
    score_documents,
    sweep,
)
from mixcat.models import (
    PROB_FLOOR,
    CosineModel,
    Decision,
    HardClusterModel,
    MixtureModel,
    TrainingError,
    WordModel,
    classify_document,
    decide,
    doc_log_likelihood,
    load_model,
    method_of,
    save_model,
    train_cos,
    train_fmm,
    train_hcm,
    train_wbm,
)

__version__ = "0.4.0"

__all__ = [
    "BreakEven",
    "Clustering",
    "ContingencyCounts",
    "CorpusFormatError",
    "CosineModel",
    "CurvePoint",
    "Decision",
    "DistributedFrequencies",
    "EmConfig",
    "EmResult",
    "FrequencyTable",
    "HardClusterModel",
    "LabeledCorpus",
    "LabeledDocument",
    "MixtureModel",
    "PRCurve",
    "PrecisionRecall",
    "PROB_FLOOR",
    "TrainingError",
    "WordModel",
    "break_even",
    "classify_document",
    "cluster_frequencies",
    "complement_corpus",
    "count_frequencies",
    "count_pools",
    "curve_from_scores",
    "decide",
    "default_epsilon_grid",
    "distribute_frequencies",
    "doc_log_likelihood",
    "ele_distribution",
    "em_fit",
    "em_step",
    "gradient",
    "load_model",
    "log_likelihood",
    "method_of",
    "mle_distribution",
    "mle_word_distribution",
    "parse_corpus",
    "pr_from_counts",
    "save_model",
    "score_documents",
    "serialize_corpus",
    "soft_clusters",
    "rank_clusters",
    "sweep",
    "train_cos",
    "train_fmm",
    "train_hcm",
    "train_wbm",
    "__version__",
]

"""Conceptual-entanglement analysis of term co-occurrence statistics.

Builds concept pairs from the most relevant terms of a topic corpus,
counts windowed co-occurrences between them, and scans 4-term subset
pairs for CHSH-inequality violations; a Monte-Carlo module estimates how
often such violations arise under bounded-Zipfian, homogeneous, and
truncated-Poisson co-occurrence statistics.

The embedded verification suite's names, ``run_selftest`` and
``CheckResult``, load on first use: a plain import does not load the
suite or its ``fractions`` arithmetic.
"""

__version__ = "0.1.0"

from .chsh import (
    ChshEvaluation,
    PairDetail,
    Partition,
    ProportionReport,
    SubMatrix,
    canonical_partitions,
    chsh_max_abs_batch,
    chsh_statistic,
    entanglement_proportion,
    enumerate_partitions,
    expected_value,
    max_abs_chsh,
)
from .cooccurrence import CoocMatrix, cooccurrence_histogram, count_cooccurrences
from .corpus import (
    CorpusError,
    PipelineConfig,
    RawDocument,
    TermSequence,
    TopicCorpus,
    TopicWindows,
    Vocabulary,
    bundled_corpus_path,
    default_stoplist,
    load_stoplist,
    load_topic_corpus,
    tokenize_and_normalize,
)
from .porter import stem
from .relevance import (
    ConceptPair,
    RankedTerms,
    build_concept_pair,
    document_frequencies,
    rank_by_frequency,
    rank_by_tfidf,
)
from .report import RunConfig, TopicReport, run_analyze, run_simulate
from .simulation import (
    CurveSet,
    DistributionSpec,
    ViolationEstimate,
    distribution_pmf,
    estimate_violation_probability,
    parameter_sweep,
)

__all__ = [
    "__version__",
    "stem",
    # corpus
    "CorpusError",
    "PipelineConfig",
    "RawDocument",
    "Vocabulary",
    "TermSequence",
    "TopicWindows",
    "TopicCorpus",
    "default_stoplist",
    "load_stoplist",
    "tokenize_and_normalize",
    "load_topic_corpus",
    "bundled_corpus_path",
    # relevance
    "RankedTerms",
    "ConceptPair",
    "document_frequencies",
    "rank_by_frequency",
    "rank_by_tfidf",
    "build_concept_pair",
    # cooccurrence
    "CoocMatrix",
    "count_cooccurrences",
    "cooccurrence_histogram",
    # chsh
    "Partition",
    "SubMatrix",
    "ChshEvaluation",
    "PairDetail",
    "ProportionReport",
    "expected_value",
    "chsh_statistic",
    "canonical_partitions",
    "enumerate_partitions",
    "max_abs_chsh",
    "chsh_max_abs_batch",
    "entanglement_proportion",
    # simulation
    "DistributionSpec",
    "ViolationEstimate",
    "CurveSet",
    "distribution_pmf",
    "estimate_violation_probability",
    "parameter_sweep",
    # report / selftest
    "RunConfig",
    "TopicReport",
    "run_analyze",
    "run_simulate",
    "CheckResult",
    "run_selftest",
]


def __getattr__(name):
    # PEP 562: the selftest suite loads only when one of its names is used
    if name in ("CheckResult", "run_selftest"):
        from . import selftest

        return getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

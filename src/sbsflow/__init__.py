"""sbsflow: semantic keyword-importance series from dated news corpora.

Builds weekly word co-occurrence networks, scores configurable keyword
sets on prevalence, diversity (distinctiveness centrality) and
connectivity (weighted betweenness), composes standardized scores into a
single importance index, disaggregates monthly target indices to the same
weekly grid, and screens every keyword/target pair for Granger causality.
"""
from .causality import (
    CrossCorrelation,
    DegenerateSeriesError,
    GrangerResult,
    RankDeficientError,
    RegressionFit,
    assign_stars,
    cross_correlation_sign,
    f_upper_tail,
    granger_test,
    ols_fit,
    run_battery,
    select_lag_bic,
)
from .corpus import (
    CorpusError,
    Document,
    IngestConfig,
    IngestReport,
    TimeWindow,
    assign_windows,
    build_windows,
    load_corpus,
)
from .keywords import (
    CanonicalMap,
    KeywordSet,
    RegistryError,
    compile_canonical_map,
    fixture_path,
    parse_registry,
)
from .network import (
    SbsScore,
    WordGraph,
    build_graph,
    connectivity,
    diversity,
    prevalence,
    sbs,
    standardize,
    write_edgelist,
)
from .pipeline import ConfigError, PipelineError, RunConfig, run_pipeline, score_window, validate_config
from .series import (
    MonthlySeries,
    SeriesError,
    WeeklySeries,
    disaggregate,
    load_monthly,
)
from .stemming import ItalianStemmer, NullStemmer, PorterStemmer, get_stemmer
from .textproc import (
    TextConfig,
    TokenSequence,
    extract_cooccurrences,
    normalize,
    normalize_document,
    split_sentences,
    tokenize,
)

__version__ = "0.1.0"

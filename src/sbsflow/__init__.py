"""sbsflow: semantic keyword-importance series from dated news corpora.

Builds weekly word co-occurrence networks, scores configurable keyword
sets on prevalence, diversity (distinctiveness centrality) and
connectivity (weighted betweenness), composes standardized scores into a
single importance index, disaggregates monthly target indices to the same
weekly grid, and screens every keyword/target pair for Granger causality.

The names below are re-exported lazily: each defining module is imported on
first use, so ``import sbsflow`` alone loads neither numpy nor scipy.
"""
from importlib import import_module

_EXPORTS = {
    "causality": (
        "CrossCorrelation", "DegenerateSeriesError", "GrangerResult", "RankDeficientError",
        "RegressionFit", "assign_stars", "cross_correlation_sign", "f_upper_tail",
        "granger_test", "ols_fit", "run_battery", "select_lag_bic",
    ),
    "config": ("ConfigError", "RunConfig", "validate_config"),
    "corpus": (
        "CorpusError", "Document", "IngestConfig", "IngestReport", "assign_windows",
        "build_windows", "load_corpus",
    ),
    "keywords": (
        "CanonicalMap", "KeywordSet", "RegistryError", "compile_canonical_map",
        "fixture_path", "parse_registry",
    ),
    "network": (
        "SbsScore", "WordGraph", "build_graph", "connectivity", "prevalence", "sbs",
        "standardize", "write_edgelist",
    ),
    "pipeline": ("PipelineError", "run_pipeline", "score_window"),
    "series": ("MonthlySeries", "SeriesError", "WeeklySeries", "disaggregate", "load_monthly"),
    "stemming": ("ItalianStemmer", "NullStemmer", "PorterStemmer", "get_stemmer"),
    "textproc": (
        "TokenSequence", "normalize", "normalize_document", "sequence_cooccurrences",
        "split_sentences", "tokenize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)

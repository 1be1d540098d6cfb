"""The package's lazily re-exported names."""
from __future__ import annotations

import sys

import pytest

import sbsflow

# the names `from sbsflow import *` gives
EXPORTED = [
    "CanonicalMap", "ConfigError", "CorpusError", "CrossCorrelation", "DegenerateSeriesError",
    "Document", "GrangerResult", "IngestConfig", "IngestReport", "ItalianStemmer", "KeywordSet",
    "MonthlySeries", "NullStemmer", "PipelineError", "PorterStemmer", "RankDeficientError",
    "RegistryError", "RegressionFit", "RunConfig", "SbsScore", "SeriesError",
    "TokenSequence", "WeeklySeries", "WordGraph", "assign_stars", "assign_windows",
    "build_graph", "build_windows", "compile_canonical_map", "connectivity",
    "cross_correlation_sign", "disaggregate", "f_upper_tail", "fixture_path", "get_stemmer",
    "granger_test", "load_corpus", "load_monthly", "normalize", "normalize_document", "ols_fit",
    "parse_registry", "prevalence", "run_battery", "run_pipeline", "sbs", "score_window",
    "select_lag_bic", "sequence_cooccurrences", "split_sentences", "standardize", "tokenize",
    "validate_config", "write_edgelist",
]


def test_all_lists_the_exported_names_sorted():
    assert len(EXPORTED) == 54
    assert sbsflow.__all__ == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_name_resolves_to_the_defining_modules_object(name):
    obj = getattr(sbsflow, name)
    assert obj.__module__.startswith("sbsflow.")
    assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_gives_every_name():
    namespace: dict = {}
    exec("from sbsflow import *", namespace)
    assert sorted(k for k in namespace if not k.startswith("__")) == EXPORTED


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        sbsflow.nope
    assert not hasattr(sbsflow, "nope")

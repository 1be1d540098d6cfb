from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from sbsflow.corpus import assign_windows, build_windows, load_corpus  # noqa: E402
from sbsflow.keywords import compile_canonical_map, parse_registry  # noqa: E402
from sbsflow.pipeline import load_stopwords, score_window  # noqa: E402
from sbsflow.series import WeeklySeries  # noqa: E402
from sbsflow.stemming import get_stemmer  # noqa: E402
from sbsflow.textproc import TextConfig, TokenSequence  # noqa: E402


def as_sequence(tokens) -> TokenSequence:
    """A document whose one sentence is ``tokens``."""
    return TokenSequence(sentences=(tuple(tokens),))


def one_row(fn, y, x, *args):
    """``fn``'s outcome for the one keyword series ``x``, called as a
    one-row stack: the row's answer, or its exception raised."""
    (outcome,) = fn(y, [x], *args)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def score_fixture(fx, language="english", stopwords_path=None):
    """Score a synthetic fixture with ``score_window``, one call per window.

    Returns (windows, {keyword: WeeklySeries of composite scores}).
    """
    from sbsflow.keywords import fixture_path

    stopwords = load_stopwords(stopwords_path or fixture_path("stopwords_en.txt"))
    stemmer = get_stemmer(language)
    sets = parse_registry(fx.registry_path)
    cfg = TextConfig(canonical=compile_canonical_map(sets, stemmer, stopwords), window_size=3)
    docs = list(load_corpus(fx.corpus_path))

    # same grid the fixture config describes
    import yaml

    conf = yaml.safe_load(fx.config_path.read_text())
    windows = build_windows(conf["start_date"], conf["end_date"])
    assignment = assign_windows(docs, windows, conf["end_date"])
    labels = sorted(s.label for s in sets)
    per_kw: dict[str, list[float]] = {kw: [] for kw in labels}
    for w in windows:
        texts = [d.text() for d in assignment.by_window[w.index]]
        scores = score_window(texts, w.index, cfg, labels, min_edge_weight=1)
        for score in scores:
            per_kw[score.keyword].append(score.sbs)
    out = {kw: WeeklySeries(name=kw, values=tuple(vals)) for kw, vals in per_kw.items()}
    return windows, out


@pytest.fixture
def rng():
    return np.random.default_rng(20210104)

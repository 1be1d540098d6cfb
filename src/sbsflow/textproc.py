"""Text normalization and word co-occurrence extraction.

Documents are reduced to canonical token sequences in four ordered stages:
sentence split, tokenize, stop-word removal, then stemming with keyword
canonicalization. Co-occurrence distance is measured on the normalized
sequence, so links can span removed function words, and never crosses a
sentence or document boundary.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .stemming import Stemmer, get_stemmer

if TYPE_CHECKING:  # pragma: no cover
    from .keywords import CanonicalMap

__all__ = [
    "TextConfig",
    "TokenSequence",
    "split_sentences",
    "tokenize",
    "normalize",
    "normalize_document",
    "extract_cooccurrences",
    "merge_cooccurrences",
]

# letter runs only: digits, punctuation and underscores split tokens,
# accented letters are preserved
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_SENTENCE_RE = re.compile(r"[.!?]+")


@dataclass(frozen=True)
class TokenSequence:
    """Normalized tokens of one document, grouped by sentence."""

    doc_id: str
    sentences: tuple[tuple[str, ...], ...]

    @property
    def tokens(self) -> list[str]:
        return [t for sent in self.sentences for t in sent]


@dataclass
class TextConfig:
    """Knobs for the document-to-tokens stage."""

    language: str = "italian"
    stopwords: frozenset[str] = frozenset()
    canonical: "CanonicalMap | None" = None
    window_size: int = 3
    min_token_len: int = 2  # single-letter tokens are noise; set 1 to keep them
    stemmer: Stemmer = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        if self.stemmer is None:
            self.stemmer = get_stemmer(self.language)


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation (``.``, ``!``, ``?``)."""
    return [part for part in _SENTENCE_RE.split(text) if part.strip()]


def tokenize(text: str, min_len: int = 2) -> list[str]:
    """Lowercased letter-run tokens; digits and punctuation are stripped."""
    out = []
    for run in _TOKEN_RE.findall(text):
        if run.isalpha():  # fast path; the regex class is slightly wider
            if len(run) >= min_len:
                out.append(run.lower())
            continue
        buf: list[str] = []
        for ch in run:
            if ch.isalpha():
                buf.append(ch)
            else:
                if len(buf) >= min_len:
                    out.append("".join(buf).lower())
                buf = []
        if len(buf) >= min_len:
            out.append("".join(buf).lower())
    return out


def _apply_phrases(tokens: list[str], canonical: "CanonicalMap") -> list[str]:
    # greedy longest-first scan; phrase entries are pre-sorted longest-first
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        label = None
        for words, lab in canonical.phrases:
            k = len(words)
            if i + k <= n and tuple(tokens[i : i + k]) == words:
                label = lab
                i += k
                break
        if label is None:
            out.append(tokens[i])
            i += 1
        else:
            out.append(label)
    return out


def normalize(
    tokens: list[str],
    stopwords: frozenset[str] | set[str],
    stemmer: Stemmer,
    canonical: "CanonicalMap | None" = None,
) -> list[str]:
    """Stop-word removal, then stemming, then keyword canonicalization.

    Multi-word keyword phrases are collapsed to their canonical label before
    stemming; single-word members are matched on the stemmed form. Canonical
    labels pass through untouched, so the function is a fixed point on its
    own output for the stop-word and canonicalization stages.
    """
    kept = [t for t in tokens if t not in stopwords]
    if canonical is not None and canonical.phrases:
        kept = _apply_phrases(kept, canonical)
    if canonical is None:
        return stemmer.stem_all(kept)
    out = []
    for tok in kept:
        if tok in canonical.labels:
            out.append(tok)
            continue
        stem = stemmer.stem(tok)
        out.append(canonical.stem_map.get(stem, stem))
    return out


def normalize_document(doc_id: str, text: str, cfg: TextConfig) -> TokenSequence:
    """Full per-document pipeline producing sentence-grouped canonical tokens."""
    sentences = []
    for part in split_sentences(text):
        toks = tokenize(part, cfg.min_token_len)
        norm = normalize(toks, cfg.stopwords, cfg.stemmer, cfg.canonical)
        if norm:
            sentences.append(tuple(norm))
    return TokenSequence(doc_id=doc_id, sentences=tuple(sentences))


def extract_cooccurrences(tokens: Iterable[str], window_size: int) -> Counter:
    """Count unordered token pairs closer than ``window_size`` positions.

    One increment per position pair (p, q) with p < q, q - p < window_size
    and distinct tokens; pairs are keyed in lexicographic order.
    """
    if window_size < 2:
        raise ValueError("window_size must be >= 2")
    toks = list(tokens)
    counts: Counter = Counter()
    for q in range(1, len(toks)):
        for p in range(max(0, q - window_size + 1), q):
            a, b = toks[p], toks[q]
            if a == b:
                continue
            counts[(a, b) if a < b else (b, a)] += 1
    return counts


def sequence_cooccurrences(seq: TokenSequence, window_size: int) -> Counter:
    """Aggregate pair counts over a document's sentences."""
    total: Counter = Counter()
    for sent in seq.sentences:
        total.update(extract_cooccurrences(sent, window_size))
    return total


def merge_cooccurrences(parts: Iterable[Counter]) -> Counter:
    """Commutative merge of per-document pair counts."""
    total: Counter = Counter()
    for part in parts:
        total.update(part)
    return total

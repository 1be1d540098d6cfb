"""Text normalization and word co-occurrence extraction.

Documents are reduced to canonical token sequences in four ordered stages:
sentence split, tokenize, stop-word removal, then stemming with keyword
canonicalization. Co-occurrence distance is measured on the normalized
sequence, so links can span removed function words, and never crosses a
sentence or document boundary.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .keywords import CanonicalMap

__all__ = [
    "TokenSequence",
    "split_sentences",
    "tokenize",
    "normalize",
    "normalize_document",
    "sequence_cooccurrences",
    "merge_cooccurrences",
]

# letter runs only: digits, punctuation and underscores split tokens,
# accented letters are preserved
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_SENTENCE_RE = re.compile(r"[.!?]+")


@dataclass(frozen=True)
class TokenSequence:
    """Normalized tokens of one document, grouped by sentence."""

    sentences: tuple[tuple[str, ...], ...]


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation (``.``, ``!``, ``?``)."""
    return [part for part in _SENTENCE_RE.split(text) if part.strip()]


def tokenize(text: str, min_len: int = 2) -> list[str]:
    """Lowercased letter-run tokens; digits and punctuation are stripped.

    The text is put in Unicode NFC form first, so a decomposed accent
    (``a`` + U+0301) stays inside its word as the precomposed ``á`` does.
    """
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    out = []
    for run in _TOKEN_RE.findall(unicodedata.normalize("NFC", text)):
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


def _apply_phrases(tokens: list[str], canonical: CanonicalMap) -> list[str]:
    # greedy longest-first scan over the phrases that start with the current
    # token; each entry list of ``phrase_starts`` is longest first
    starts = canonical.phrase_starts
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        for words, label in starts.get(tok, ()):
            k = len(words)
            if tuple(tokens[i : i + k]) == words:
                out.append(label)
                i += k
                break
        else:
            out.append(tok)
            i += 1
    return out


def normalize(tokens: list[str], canonical: CanonicalMap) -> list[str]:
    """Stop-word removal, then stemming, then keyword canonicalization.

    ``canonical``'s stop-words are dropped, its multi-word keyword phrases
    are collapsed to their label before stemming, and every other token
    becomes ``canonical.node(token)``. Canonical labels pass through
    untouched, so the function is a fixed point on its own output for the
    stop-word and canonicalization stages.
    """
    kept = [t for t in tokens if t not in canonical.stopwords]
    if canonical.phrase_starts:
        kept = _apply_phrases(kept, canonical)
    return list(map(canonical.node, kept))


def normalize_document(text: str, canonical: CanonicalMap) -> TokenSequence:
    """Full per-document pipeline producing sentence-grouped canonical tokens;
    tokens shorter than ``canonical.min_token_len`` are dropped."""
    sentences = []
    for part in split_sentences(text):
        toks = tokenize(part, canonical.min_token_len)
        norm = normalize(toks, canonical)
        if norm:
            sentences.append(tuple(norm))
    return TokenSequence(sentences=tuple(sentences))


def sequence_cooccurrences(sequences: Iterable[TokenSequence], window_size: int) -> Counter:
    """Count unordered token pairs closer than ``window_size`` positions.

    ``sequences`` are the ``TokenSequence``s of one window's documents. One
    increment per position pair (p, q) within a sentence with p < q,
    q - p < window_size and distinct tokens.
    Every key is ``(a, b)`` with ``a < b``: this is where pair orientation
    is decided, and ``build_graph`` and ``WordGraph`` rely on it.
    """
    # numpy is imported here: config imports keywords, which imports this
    # module, and `sbsflow validate` loads no numeric stack
    import numpy as np

    if window_size < 2:
        raise ValueError("window_size must be >= 2")
    sentences = [sent for seq in sequences for sent in seq.sentences]
    tokens = [tok for sent in sentences for tok in sent]
    # ids over the sorted vocabulary, so id order is token order
    vocab = sorted(set(tokens))
    index = {tok: i for i, tok in enumerate(vocab)}
    ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    sentence_of = np.repeat(np.arange(len(sentences)), lengths)
    n_vocab = len(vocab)
    keys = [np.empty(0, dtype=np.int64)]
    for offset in range(1, min(window_size, len(tokens))):
        a, b = ids[:-offset], ids[offset:]
        keep = (sentence_of[:-offset] == sentence_of[offset:]) & (a != b)
        a, b = a[keep], b[keep]
        keys.append(np.minimum(a, b) * n_vocab + np.maximum(a, b))
    # keys of a large window span up to V**2, too sparse for bincount
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    lo, hi = np.divmod(pairs, n_vocab)
    return Counter({
        (vocab[i], vocab[j]): c for i, j, c in zip(lo.tolist(), hi.tolist(), counts.tolist())
    })


def merge_cooccurrences(parts: Iterable[Counter]) -> Counter:
    """Commutative merge of per-document pair counts."""
    total: Counter = Counter()
    for part in parts:
        total.update(part)
    return total

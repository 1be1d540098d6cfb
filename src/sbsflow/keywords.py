"""Keyword registry: named keyword sets compiled into a canonicalization map.

The registry file is YAML, a list of blocks with a ``label`` and its
``members`` (surface forms; multi-word phrases allowed)::

    - label: covid
      members: [covid, coronavirus]
    - label: interest_rate
      members: ["interest rate", "interest rates"]

Single-word members are matched on their stemmed form; multi-word members
are collapsed to the label by a greedy longest-first phrase scan that runs
before stemming, so "interest rate" never decays into interest + rate.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .corpus import not_utf8
from .stemming import Stemmer
from .textproc import tokenize

__all__ = [
    "KeywordSet",
    "CanonicalMap",
    "RegistryError",
    "parse_registry",
    "compile_canonical_map",
    "fixture_path",
]

# labels become graph nodes and CSV cells; keep them identifier-like
# (lowercase latin letters incl. accents, digits, underscores)
_LABEL_RE = re.compile(
    r"[a-zà-öø-ÿ][a-z0-9_à-öø-ÿ]*"
)


class RegistryError(ValueError):
    """Raised for malformed or internally inconsistent registry files."""


@dataclass(frozen=True)
class KeywordSet:
    """One canonical label with its surface forms."""

    label: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class CanonicalMap:
    """How text becomes graph nodes: the stemmer, the stop-words (in the
    form ``tokenize`` gives) and the shortest token kept that the keywords
    were compiled with.

    ``phrase_starts`` maps the first word of each tokenized multi-word
    member to its ``(words, label)`` entries, longest first; ``stem_map``
    maps post-stem surface forms to labels, each label to itself.
    """

    stem_map: dict[str, str]
    phrase_starts: dict[str, tuple[tuple[tuple[str, ...], str], ...]]
    labels: frozenset[str]
    stemmer: Stemmer
    stopwords: frozenset[str]
    min_token_len: int
    _nodes: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def node(self, token: str) -> str:
        """A label passes through; any other token becomes its stem's label
        or its stem. Memoized, so each distinct token is stemmed once per map."""
        node = self._nodes.get(token)
        if node is None:
            stem = token if token in self.labels else self.stemmer.stem(token)
            node = self._nodes[token] = self.stem_map.get(stem, stem)
        return node


def fixture_path(name: str) -> Path:
    """Path of a fixture file shipped with the package."""
    return Path(str(resources.files("sbsflow").joinpath("fixtures", name)))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One stop-word per line; blank lines and '#' comments are skipped, and
    a file that is not UTF-8 text is refused at its line."""
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark some editors write at the start
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise not_utf8(path, RegistryError, f"stop-words {path}") from None
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


def _text(value: object, what: str) -> str:
    """``value`` if YAML read it as text: unquoted, ``no`` is a boolean,
    ``~`` is null and ``2020`` is a number."""
    if isinstance(value, str):
        return value
    raise RegistryError(f"{what} is {value!r} as YAML reads it, not text; quote it")


def parse_registry(path: str | Path) -> list[KeywordSet]:
    """Load keyword sets, enforcing unique labels and surface forms and UTF-8 text."""
    try:
        # from the open file, so that a parse error's marks name it
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise RegistryError(f"{path}: registry does not parse as YAML: {exc}") from None
    except UnicodeDecodeError:
        raise not_utf8(Path(path), RegistryError, f"registry {path}") from None
    except (ValueError, RecursionError) as exc:
        # YAML that Python cannot build, as the unquoted date 2020-02-30
        raise RegistryError(f"{path}: registry holds a value Python cannot build: {exc}; quote it") from None
    if data is None:
        return []
    if not isinstance(data, list):
        raise RegistryError(f"{path}: registry must be a list of keyword blocks")
    sets: list[KeywordSet] = []
    label_at: dict[str, int] = {}
    member_at: dict[str, tuple[int, str]] = {}
    for pos, block in enumerate(data):
        if not isinstance(block, dict) or "label" not in block:
            raise RegistryError(f"{path}: block {pos} has no 'label'")
        # in NFC form, as tokenize puts text, so an accent has one spelling
        label = unicodedata.normalize("NFC", _text(block["label"], f"{path}: block {pos}: the label"))
        if not _LABEL_RE.fullmatch(label):
            raise RegistryError(
                f"{path}: block {pos}: label {label!r} must be lowercase "
                "letters, digits and underscores"
            )
        if label in label_at:
            raise RegistryError(
                f"{path}: duplicate label {label!r} in blocks {label_at[label]} and {pos}"
            )
        label_at[label] = pos
        members = block.get("members") or []
        if not isinstance(members, list) or not members:
            raise RegistryError(f"{path}: block {pos} ({label}): members must be a non-empty list")
        cleaned = []
        for m in members:
            m = _text(m, f"{path}: block {pos} ({label}): the member")
            m = unicodedata.normalize("NFC", m).strip().lower()
            if not m:
                raise RegistryError(f"{path}: block {pos} ({label}): empty member")
            if m in member_at:
                other_pos, other_label = member_at[m]
                raise RegistryError(
                    f"{path}: surface form {m!r} claimed by both "
                    f"{other_label!r} (block {other_pos}) and {label!r} (block {pos})"
                )
            member_at[m] = (pos, label)
            cleaned.append(m)
        sets.append(KeywordSet(label=label, members=tuple(cleaned)))
    return sets


def compile_canonical_map(
    sets: list[KeywordSet],
    stemmer: Stemmer,
    stopwords: frozenset[str] | set[str] = frozenset(),
    min_token_len: int = 2,
) -> CanonicalMap:
    """Build the stem map and phrase table; a stem or a phrase claimed by
    two labels is fatal.

    Stop-words are put in NFC lower case, as ``tokenize`` gives tokens.
    Phrase tokens are filtered through them so multi-word members like
    "bank of italy" still match the stop-word-stripped token stream. A
    member word shorter than ``min_token_len`` is fatal: no text keeps it.
    """
    if min_token_len < 1:
        raise ValueError("min_token_len must be >= 1")
    stopwords = frozenset(unicodedata.normalize("NFC", w).lower() for w in stopwords)
    stem_map: dict[str, str] = {}
    stem_source: dict[str, str] = {}
    phrase_source: dict[tuple[str, ...], tuple[str, str]] = {}
    labels = frozenset(s.label for s in sets)
    for ks in sets:
        for member in ks.members:
            words = tuple(t for t in tokenize(member, min_len=1) if t not in stopwords)
            if not words:
                raise RegistryError(f"member {member!r} of {ks.label!r} has no tokens")
            short = next((w for w in words if len(w) < min_token_len), None)
            if short is not None:
                raise RegistryError(
                    f"member {member!r} of {ks.label!r} has the word {short!r}, shorter "
                    f"than min_token_len {min_token_len}, which no text keeps"
                )
            if len(words) > 1:
                source, label = phrase_source.setdefault(words, (member, ks.label))
                if label != ks.label:
                    raise RegistryError(
                        f"phrase collision: {member!r} ({ks.label}) and "
                        f"{source!r} ({label}) are both the words {' '.join(words)!r}"
                    )
                continue
            stem = stemmer.stem(words[0])
            if stem in stem_map and stem_map[stem] != ks.label:
                raise RegistryError(
                    f"stem collision: {member!r} ({ks.label}) and "
                    f"{stem_source[stem]!r} ({stem_map[stem]}) both stem to {stem!r}"
                )
            stem_map[stem] = ks.label
            stem_source.setdefault(stem, member)
        # the label itself is a fixed point of canonicalization
        if stem_map.get(ks.label, ks.label) != ks.label:
            raise RegistryError(
                f"label {ks.label!r} collides with a stem of "
                f"{stem_source[ks.label]!r} ({stem_map[ks.label]})"
            )
        stem_map.setdefault(ks.label, ks.label)
    phrase_starts: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for words, (_, label) in sorted(phrase_source.items(), key=lambda e: (-len(e[0]), e[0])):
        phrase_starts.setdefault(words[0], []).append((words, label))
    return CanonicalMap(
        stem_map=stem_map,
        phrase_starts={word: tuple(entries) for word, entries in phrase_starts.items()},
        labels=labels,
        stemmer=stemmer,
        stopwords=stopwords,
        min_token_len=min_token_len,
    )

from __future__ import annotations

import unicodedata
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_sequence
from oracles import brute_force_pairs
from sbsflow.keywords import KeywordSet, compile_canonical_map
from sbsflow.stemming import NullStemmer, PorterStemmer
from sbsflow.textproc import (
    TextConfig,
    TokenSequence,
    _apply_phrases,
    normalize,
    normalize_document,
    sequence_cooccurrences,
    split_sentences,
    tokenize,
)

SMITH_CLAUSE = "The same principle, the same love of system"

tokens_st = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]),
    max_size=25,
)


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_smith_clause(self):
        assert tokenize(SMITH_CLAUSE) == [
            "the", "same", "principle", "the", "same", "love", "of", "system",
        ]

    def test_digits_and_punctuation_stripped(self):
        assert tokenize("Covid-19!") == ["covid"]

    def test_accents_preserved(self):
        assert tokenize("perché l'economia") == ["perché", "economia"]

    @pytest.mark.parametrize("word", ["sággio", "città", "perché"])
    def test_decomposed_accents_stay_in_their_word(self, word):
        # a combining accent is not a letter: unnormalized, "sa\u0301ggio" split as ['sa', 'ggio']
        decomposed = unicodedata.normalize("NFD", word)
        assert decomposed != word
        assert tokenize(f"il {decomposed}!") == tokenize(f"il {word}!") == ["il", word]

    @pytest.mark.parametrize("min_len", [0, -1])
    def test_min_len_below_one_refused(self, min_len):
        # min_len=0 kept the empty runs around "²" and "½": ['', 'ab', 'x', '']
        with pytest.raises(ValueError, match="min_len must be >= 1"):
            tokenize("²ab x½", min_len)

    def test_single_letter_tokens_dropped_by_default(self):
        assert tokenize("l'arte e il mare") == ["arte", "il", "mare"]
        assert tokenize("l'arte e il mare", min_len=1) == ["l", "arte", "e", "il", "mare"]

    @given(st.text(max_size=120))
    def test_character_class_oracle(self, text):
        # oracle: scan characters directly instead of the regex
        expected, current = [], []
        for ch in unicodedata.normalize("NFC", text):
            if ch.isalpha() and ch != "_":
                current.append(ch.lower())
            else:
                if len(current) >= 2:
                    expected.append("".join(current))
                current = []
        if len(current) >= 2:
            expected.append("".join(current))
        assert tokenize(text) == expected


class TestSplitSentences:
    def test_splits_on_terminators(self):
        assert split_sentences("One two. Three! Four? Five") == [
            "One two", " Three", " Four", " Five",
        ]

    def test_no_terminator(self):
        assert split_sentences("no terminator here") == ["no terminator here"]


class TestNormalize:
    def test_stopwords_then_porter(self):
        cm = compile_canonical_map([], PorterStemmer(), frozenset({"the"}))
        out = normalize(["the", "same", "principle"], cm)
        assert out == ["same", "principl"]

    def test_empty(self):
        assert normalize([], compile_canonical_map([], PorterStemmer())) == []

    def test_synonym_canonicalization(self):
        cm = compile_canonical_map(
            [KeywordSet("covid", ("covid", "coronavirus")), KeywordSet("lockdown", ("lockdown",))],
            PorterStemmer(),
        )
        out = normalize(["lockdown", "covid", "coronavirus"], cm)
        assert out == ["lockdown", "covid", "covid"]

    def test_phrase_collapsed_before_stemming(self):
        cm = compile_canonical_map(
            [KeywordSet("interest_rate", ("interest rate",))], PorterStemmer(), frozenset({"the"})
        )
        out = normalize(["the", "interest", "rate", "rose"], cm)
        assert out == ["interest_rate", "rose"]

    def test_longest_phrase_wins(self):
        cm = compile_canonical_map(
            [
                KeywordSet("interest_rate", ("interest rate",)),
                KeywordSet("negative_interest_rate", ("negative interest rate",)),
            ],
            PorterStemmer(),
        )
        out = normalize(["negative", "interest", "rate"], cm)
        assert out == ["negative_interest_rate"]

    def test_stopword_and_canonical_stages_idempotent(self):
        cm = compile_canonical_map(
            [KeywordSet("covid", ("covid", "coronavirus"))], NullStemmer(), frozenset({"the", "of"})
        )

        for tokens in (
            ["the", "covid", "coronavirus", "wave"],
            [], ["of", "of", "the"], ["covid"],
        ):
            once = normalize(tokens, cm)
            assert normalize(once, cm) == once

    @given(tokens_st)
    def test_full_pipeline_fixed_point_on_own_output(self, tokens):
        # canonical labels and the sample vocabulary stem stably, so the
        # full normalize is a fixed point on its own output here
        cm = compile_canonical_map(
            [KeywordSet("alpha", ("alpha", "alphas"))], PorterStemmer(), frozenset({"beta"})
        )
        once = normalize(tokens, cm)
        assert normalize(once, cm) == once


def sentence_pairs(tokens, window_size):
    """Pair counts of a window of one one-sentence document."""
    return sequence_cooccurrences([as_sequence(tokens)], window_size)


class TestExtractCooccurrences:
    def test_window_three_example(self):
        got = sentence_pairs(["a", "b", "c", "d"], 3)
        assert got == Counter(
            {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("b", "d"): 1, ("c", "d"): 1}
        )
        assert ("a", "d") not in got

    def test_self_pairs_excluded(self):
        assert sentence_pairs(["a", "a", "a"], 2) == Counter()
        assert sentence_pairs(["a", "a", "a"], 5) == Counter()

    def test_repeated_pair_counted_per_position(self):
        assert sentence_pairs(["x", "y", "x"], 2) == Counter({("x", "y"): 2})

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            sentence_pairs(["a", "b"], 1)

    @given(tokens_st, st.integers(min_value=2, max_value=6))
    def test_brute_force_oracle(self, tokens, window):
        assert sentence_pairs(tokens, window) == brute_force_pairs(tokens, window)

    @given(tokens_st, st.integers(min_value=2, max_value=6))
    def test_keys_canonically_ordered(self, tokens, window):
        for a, b in sentence_pairs(tokens, window):
            assert a < b

    @given(tokens_st)
    def test_count_conservation_adjacent_pairs(self, tokens):
        total = sum(sentence_pairs(tokens, 2).values())
        adjacent_unequal = sum(1 for a, b in zip(tokens, tokens[1:]) if a != b)
        assert total == adjacent_unequal

    @given(tokens_st, st.integers(min_value=2, max_value=6))
    def test_determinism(self, tokens, window):
        assert sentence_pairs(tokens, window) == sentence_pairs(tokens, window)


# documents of sentences; empty and one-token sentences, repeats and accents
documents_st = st.lists(
    st.lists(
        st.lists(st.sampled_from(["alpha", "beta", "perché", "città", "zeta", "économie", "éa"]), max_size=8),
        max_size=4,
    ).map(lambda doc: TokenSequence(sentences=tuple(map(tuple, doc)))),
    max_size=5,
)


class TestWindowCooccurrences:
    @given(documents_st, st.integers(min_value=2, max_value=6))
    def test_window_equals_sum_of_sentences(self, docs, window):
        expected: Counter = Counter()
        for seq in docs:
            for sent in seq.sentences:
                expected.update(brute_force_pairs(sent, window))
        got = sequence_cooccurrences(docs, window)
        assert got == expected
        for (a, b), count in got.items():
            assert a < b
            assert type(count) is int

    def test_empty_window(self):
        assert sequence_cooccurrences([], 3) == Counter()
        assert sequence_cooccurrences([TokenSequence(sentences=((), ("a",)))], 3) == Counter()


def _phrases_by_linear_scan(tokens, canonical):
    """Greedy longest-first phrase collapse trying every phrase at every token."""
    phrases = sorted(
        (entry for entries in canonical.phrase_starts.values() for entry in entries),
        key=lambda entry: (-len(entry[0]), entry[0]),
    )
    out, i = [], 0
    while i < len(tokens):
        for words, label in phrases:
            if tuple(tokens[i : i + len(words)]) == words:
                out.append(label)
                i += len(words)
                break
        else:
            out.append(tokens[i])
            i += 1
    return out


PHRASE_WORDS = ["interest", "rate", "cut", "bank", "italy"]


@st.composite
def phrases_and_tokens(draw):
    """Multi-word members over a few words, and a token list made of whole
    members, members cut short and single words."""
    members = sorted(draw(st.sets(
        st.lists(st.sampled_from(PHRASE_WORDS), min_size=2, max_size=4).map(tuple), max_size=8
    )))
    chunk = st.lists(st.sampled_from([*PHRASE_WORDS, "rose"]), min_size=1, max_size=1)
    if members:
        member = st.sampled_from(members)
        chunk |= member.map(list) | st.tuples(member, st.integers(1, 3)).map(lambda m: list(m[0][: m[1]]))
    tokens = [tok for part in draw(st.lists(chunk, max_size=6)) for tok in part]
    return members, tokens


class TestPhraseIndex:
    @given(phrases_and_tokens())
    def test_equals_linear_scan(self, drawn):
        members, tokens = drawn
        sets = [KeywordSet(f"p{i}", (" ".join(m),)) for i, m in enumerate(members)]
        cm = compile_canonical_map(sets, NullStemmer())
        assert _apply_phrases(tokens, cm) == _phrases_by_linear_scan(tokens, cm)

    def test_shared_first_word_and_cut_off_phrase(self):
        cm = compile_canonical_map(
            [
                KeywordSet("interest_rate", ("interest rate",)),
                KeywordSet("interest_rate_cut", ("interest rate cut",)),
                KeywordSet("interest_cover", ("interest cover",)),
            ],
            NullStemmer(),
        )
        assert [words for words, _ in cm.phrase_starts["interest"]] == [
            ("interest", "rate", "cut"), ("interest", "cover"), ("interest", "rate"),
        ]
        for tokens, expected in [
            (["interest", "rate", "cut", "rose"], ["interest_rate_cut", "rose"]),
            (["interest", "cover", "interest", "rate"], ["interest_cover", "interest_rate"]),
            # the three-word phrase is cut off by the end of the sentence
            (["rose", "interest", "rate"], ["rose", "interest_rate"]),
            (["rose", "interest"], ["rose", "interest"]),
        ]:
            assert _apply_phrases(tokens, cm) == expected
            assert _phrases_by_linear_scan(tokens, cm) == expected


class TestNormalizeDocument:
    def test_sentences_isolated(self):
        cfg = TextConfig(canonical=compile_canonical_map([], NullStemmer()))
        seq = normalize_document("alpha beta. gamma delta", cfg)
        assert seq.sentences == (("alpha", "beta"), ("gamma", "delta"))
        # co-occurrence never crosses the sentence boundary
        pairs = sequence_cooccurrences([seq], 3)
        assert ("beta", "gamma") not in pairs

    def test_order_reflects_text_order(self):
        cfg = TextConfig(canonical=compile_canonical_map([], PorterStemmer(), frozenset({"the"})))
        seq = normalize_document("The same principle, the same love of system", cfg)
        assert seq.sentences == (("same", "principl", "same", "love", "of", "system"),)


class TestTextConfig:
    @pytest.mark.parametrize("min_token_len", [0, -2])
    def test_min_token_len_below_one_refused(self, min_token_len):
        # an empty token would become a graph node
        with pytest.raises(ValueError, match="min_token_len must be >= 1"):
            TextConfig(canonical=compile_canonical_map([], NullStemmer()), min_token_len=min_token_len)

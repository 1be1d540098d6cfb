from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_force_pairs
from sbsflow.keywords import KeywordSet, compile_canonical_map
from sbsflow.stemming import NullStemmer, PorterStemmer
from sbsflow.textproc import (
    TextConfig,
    extract_cooccurrences,
    normalize,
    normalize_document,
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

    def test_single_letter_tokens_dropped_by_default(self):
        assert tokenize("l'arte e il mare") == ["arte", "il", "mare"]
        assert tokenize("l'arte e il mare", min_len=1) == ["l", "arte", "e", "il", "mare"]

    @given(st.text(max_size=120))
    def test_character_class_oracle(self, text):
        # oracle: scan characters directly instead of the regex
        expected, current = [], []
        for ch in text:
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
        out = normalize(["the", "same", "principle"], frozenset({"the"}), PorterStemmer())
        assert out == ["same", "principl"]

    def test_empty(self):
        assert normalize([], frozenset(), PorterStemmer()) == []

    def test_synonym_canonicalization(self):
        cm = compile_canonical_map(
            [KeywordSet("covid", ("covid", "coronavirus")), KeywordSet("lockdown", ("lockdown",))],
            PorterStemmer(),
        )
        out = normalize(["lockdown", "covid", "coronavirus"], frozenset(), PorterStemmer(), cm)
        assert out == ["lockdown", "covid", "covid"]

    def test_phrase_collapsed_before_stemming(self):
        cm = compile_canonical_map(
            [KeywordSet("interest_rate", ("interest rate",))], PorterStemmer()
        )
        out = normalize(["the", "interest", "rate", "rose"], frozenset({"the"}), PorterStemmer(), cm)
        assert out == ["interest_rate", "rose"]

    def test_longest_phrase_wins(self):
        cm = compile_canonical_map(
            [
                KeywordSet("interest_rate", ("interest rate",)),
                KeywordSet("negative_interest_rate", ("negative interest rate",)),
            ],
            PorterStemmer(),
        )
        out = normalize(["negative", "interest", "rate"], frozenset(), PorterStemmer(), cm)
        assert out == ["negative_interest_rate"]

    def test_stopword_and_canonical_stages_idempotent(self):
        cm = compile_canonical_map(
            [KeywordSet("covid", ("covid", "coronavirus"))], PorterStemmer()
        )
        stop = frozenset({"the", "of"})
        null = NullStemmer()

        for tokens in (
            ["the", "covid", "coronavirus", "wave"],
            [], ["of", "of", "the"], ["covid"],
        ):
            once = normalize(tokens, stop, null, cm)
            assert normalize(once, stop, null, cm) == once

    @given(tokens_st)
    def test_full_pipeline_fixed_point_on_own_output(self, tokens):
        # canonical labels and the sample vocabulary stem stably, so the
        # full normalize is a fixed point on its own output here
        cm = compile_canonical_map([KeywordSet("alpha", ("alpha", "alphas"))], PorterStemmer())
        stop = frozenset({"beta"})
        stemmer = PorterStemmer()
        once = normalize(tokens, stop, stemmer, cm)
        assert normalize(once, stop, stemmer, cm) == once


class TestExtractCooccurrences:
    def test_window_three_example(self):
        got = extract_cooccurrences(["a", "b", "c", "d"], 3)
        assert got == Counter(
            {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("b", "d"): 1, ("c", "d"): 1}
        )
        assert ("a", "d") not in got

    def test_self_pairs_excluded(self):
        assert extract_cooccurrences(["a", "a", "a"], 2) == Counter()
        assert extract_cooccurrences(["a", "a", "a"], 5) == Counter()

    def test_repeated_pair_counted_per_position(self):
        assert extract_cooccurrences(["x", "y", "x"], 2) == Counter({("x", "y"): 2})

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            extract_cooccurrences(["a", "b"], 1)

    @given(tokens_st, st.integers(min_value=2, max_value=6))
    def test_brute_force_oracle(self, tokens, window):
        assert extract_cooccurrences(tokens, window) == brute_force_pairs(tokens, window)

    @given(tokens_st, st.integers(min_value=2, max_value=6))
    def test_keys_canonically_ordered(self, tokens, window):
        for a, b in extract_cooccurrences(tokens, window):
            assert a < b

    @given(tokens_st)
    def test_count_conservation_adjacent_pairs(self, tokens):
        total = sum(extract_cooccurrences(tokens, 2).values())
        adjacent_unequal = sum(1 for a, b in zip(tokens, tokens[1:]) if a != b)
        assert total == adjacent_unequal

    @given(tokens_st, st.integers(min_value=2, max_value=6))
    def test_determinism(self, tokens, window):
        assert extract_cooccurrences(tokens, window) == extract_cooccurrences(tokens, window)


class TestNormalizeDocument:
    def test_sentences_isolated(self):
        cfg = TextConfig(stemmer=NullStemmer())
        seq = normalize_document("alpha beta. gamma delta", cfg)
        assert seq.sentences == (("alpha", "beta"), ("gamma", "delta"))
        # co-occurrence never crosses the sentence boundary
        from sbsflow.textproc import sequence_cooccurrences

        pairs = sequence_cooccurrences(seq, 3)
        assert ("beta", "gamma") not in pairs

    def test_order_reflects_text_order(self):
        cfg = TextConfig(stemmer=PorterStemmer(), stopwords=frozenset({"the"}))
        seq = normalize_document("The same principle, the same love of system", cfg)
        assert seq.tokens == ["same", "principl", "same", "love", "of", "system"]

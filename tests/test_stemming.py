from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbsflow.stemming import ItalianStemmer, NullStemmer, PorterStemmer, get_stemmer

# Published worked examples of the original Porter algorithm, one per rule
# family, plus full-word traces from the algorithm definition.
PORTER_VECTORS = {
    # step 1a
    "caresses": "caress", "ponies": "poni", "caress": "caress", "cats": "cat",
    # step 1b and its cleanup
    "feed": "feed", "agreed": "agre", "plastered": "plaster", "bled": "bled",
    "motoring": "motor", "sing": "sing", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file",
    # step 1c
    "happy": "happi", "sky": "sky",
    # step 2
    "relational": "relat", "conditional": "condit", "digitizer": "digit",
    "operator": "oper", "feudalism": "feudal", "decisiveness": "decis",
    "hopefulness": "hope", "formaliti": "formal", "sensitiviti": "sensit",
    # step 3
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "hopeful": "hope", "goodness": "good",
    # step 4
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "adjustable": "adjust", "defensible": "defens",
    "irritant": "irrit", "replacement": "replac", "adjustment": "adjust",
    "dependent": "depend", "adoption": "adopt", "communism": "commun",
    "activate": "activ", "angulariti": "angular", "homologou": "homolog",
    "effective": "effect", "bowdlerize": "bowdler",
    # step 5
    "probate": "probat", "rate": "rate", "cease": "ceas",
    "controlling": "control",
    # multi-step traces
    "generalizations": "gener", "oscillators": "oscil",
    # corpus-relevant forms
    "principle": "principl", "same": "same",
    "saving": "save", "savings": "save",
    "economy": "economi", "economies": "economi",
    "covid": "covid",
}

# Hand-traced through the published Snowball Italian definition (step 0
# pronoun handling fires on "risparmi": "mi" after "ar" in RV).
ITALIAN_VECTORS = {
    "economia": "econom", "famiglia": "famigl", "lavoro": "lavor",
    "lavoratori": "lavor", "risparmio": "risparm", "risparmi": "risp",
    "prezzo": "prezz", "prezzi": "prezz", "politica": "polit",
    "politiche": "polit", "fiducia": "fiduc", "mangiando": "mang",
    "guardandogli": "guard", "accomodarci": "accomod",
    "abbandonata": "abbandon", "istituzioni": "istitu",
    "abbiamo": "abbiam", "parlare": "parl",
    "qualità": "qualit", "liquidità": "liquid",
}


# One word per branch of the Italian step 1, step 3b and the prelude,
# derived by hand from the Snowball rules. Positions count from 0; RV, R1
# and R2 are the start of each region, and a suffix is in a region when it
# starts at or after the region's start.
ITALIAN_BRANCH_VECTORS = {
    # RV 3, R1 3, R2 6: enze at 6 is in R2, becomes ente; step 3a drops e
    "differenze": "different",
    # RV 3, R1 3, R2 5: logia at 6 is in R2, becomes log
    "metodologia": "metodolog",
    # RV 3, R1 3, R2 7: amento at 5 is in RV and goes; step 3a drops i at 4
    "cambiamento": "camb",
    # RV 3, R1 5, R2 7: amente at 5 is in R1 and goes; no follow-up suffix
    "chiaramente": "chiar",
    # RV 3, R1 3, R2 5: amente at 7 goes; os at 5 is in R2 and goes
    "generosamente": "gener",
    # RV 3, R1 2, R2 4: amente at 8 goes; ic at 6 is in R2 and goes
    "economicamente": "econom",
    # RV 3, R1 3, R2 5: amente at 7 goes; iv at 5 goes; at at 3 is not in R2
    "relativamente": "relat",
    # RV 3, R1 3, R2 6: amente at 10 goes; iv at 8 and then at at 6 go
    "comparativamente": "compar",
    # RV 3, R1 3, R2 6: ità at 11 goes; abil at 7 is in R2 and goes
    "responsabilità": "respons",
    # RV 3, R1 2, R2 4: ità at 8 goes; ic at 6 goes
    "elettricità": "elettr",
    # RV 3, R1 4, R2 6: ità at 9 goes; iv at 7 goes
    "produttività": "produtt",
    # RV 3, R1 4, R2 7: ivo at 8 is in R2 and goes; no at before it
    "progressivo": "progress",
    # RV 3, R1 3, R2 5: ivo at 5 goes; at at 3 is not in R2
    "negativo": "negat",
    # RV 4, R1 2, R2 5: ivo at 8 goes; at at 6 goes; no ic before it
    "informativo": "inform",
    # RV 3, R1 3, R2 5: iva at 9 goes; at at 7 and then ic at 5 go
    "comunicativa": "comun",
    # RV 3, R1 3, R2 5: azione at 7 goes; ic at 5 goes
    "comunicazione": "comun",
    # RV 3, R1 3, R2 6: azione at 1 is not in R2, so step 1 leaves the word;
    # step 2 finds no verb suffix in RV; step 3a drops e
    "nazione": "nazion",
    # RV 3: step 3a drops e at 5; step 3b turns ch at 3 into c
    "banche": "banc",
    # RV 3: step 3a drops i at 5; step 3b turns gh at 3 into g
    "luoghi": "luog",
    # prelude: the i at 3 between o and a is marked I, a consonant; RV 3:
    # step 3a drops a but not the marked I, which an unmarked i would lose
    "gioia": "gioi",
}


class TestPorter:
    @pytest.mark.parametrize("word,expected", sorted(PORTER_VECTORS.items()))
    def test_published_vectors(self, word, expected):
        assert PorterStemmer().stem(word) == expected

    def test_short_words_unchanged(self):
        st_ = PorterStemmer()
        assert st_.stem("a") == "a"
        assert st_.stem("be") == "be"
        assert st_.stem("is") == "is"

    def test_lowercases_input(self):
        assert PorterStemmer().stem("Savings") == "save"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=15))
    def test_output_is_lowercase_nonempty_prefix_safe(self, word):
        out = PorterStemmer().stem(word)
        assert out
        assert out == out.lower()
        assert len(out) <= len(word) + 1  # cleanup may restore a final e


class TestItalian:
    @pytest.mark.parametrize("word,expected", sorted(ITALIAN_VECTORS.items()))
    def test_derived_vectors(self, word, expected):
        assert ItalianStemmer().stem(word) == expected

    @pytest.mark.parametrize("word,expected", sorted(ITALIAN_BRANCH_VECTORS.items()))
    def test_one_word_per_branch(self, word, expected):
        assert ItalianStemmer().stem(word) == expected

    def test_acute_accents_folded_to_grave(self):
        st_ = ItalianStemmer()
        assert st_.stem("perché") == st_.stem("perchè")

    def test_internal_markers_never_leak(self):
        st_ = ItalianStemmer()
        for word in ("quota", "guaio", "aiuola", "questione", "piuttosto"):
            out = st_.stem(word)
            assert out == out.lower(), word

    @given(st.text(alphabet="abcdefghilmnopqrstuvzàèìòù", min_size=1, max_size=15))
    def test_output_lowercase_nonempty(self, word):
        out = ItalianStemmer().stem(word)
        assert out
        assert out == out.lower()


def test_get_stemmer_dispatch():
    assert isinstance(get_stemmer("english"), PorterStemmer)
    assert isinstance(get_stemmer("italian"), ItalianStemmer)
    assert isinstance(get_stemmer("none"), NullStemmer)
    with pytest.raises(ValueError):
        get_stemmer("klingon")


def test_null_stemmer_identity():
    assert NullStemmer().stem("unchanged") == "unchanged"

from __future__ import annotations

import unicodedata

import pytest

from sbsflow.keywords import (
    KeywordSet,
    RegistryError,
    compile_canonical_map,
    fixture_path,
    load_stopwords,
    parse_registry,
)
from sbsflow.stemming import NullStemmer, PorterStemmer, get_stemmer
from sbsflow.textproc import normalize, tokenize


class TestParseRegistry:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "kw.yaml"
        p.write_text("")
        assert parse_registry(p) == []

    def test_duplicate_surface_form_fatal_with_both_locations(self, tmp_path):
        p = tmp_path / "kw.yaml"
        p.write_text(
            "- label: currency\n  members: [euro]\n"
            "- label: money\n  members: [cash, euro]\n"
        )
        with pytest.raises(RegistryError) as err:
            parse_registry(p)
        msg = str(err.value)
        assert "euro" in msg and "currency" in msg and "money" in msg

    def test_duplicate_label_fatal(self, tmp_path):
        p = tmp_path / "kw.yaml"
        p.write_text(
            "- label: euro\n  members: [euro]\n"
            "- label: euro\n  members: [euros]\n"
        )
        with pytest.raises(RegistryError) as err:
            parse_registry(p)
        assert "euro" in str(err.value)

    def test_nfd_spelling_of_a_member_is_the_same_surface_form(self, tmp_path):
        # the NFD spelling passed here and was refused later as a stem collision
        p = tmp_path / "kw.yaml"
        nfd = unicodedata.normalize("NFD", "città")
        p.write_text(
            f"- label: citta\n  members: [città]\n- label: urbe\n  members: [{nfd}]\n", encoding="utf-8"
        )
        with pytest.raises(RegistryError) as err:
            parse_registry(p)
        assert "surface form 'città' claimed by both 'citta' (block 0) and 'urbe' (block 1)" in str(err.value)

    def test_nfd_label_is_read_in_nfc_form(self, tmp_path):
        # an NFD label was refused as "must be lowercase letters, digits and underscores"
        p = tmp_path / "kw.yaml"
        nfd = unicodedata.normalize("NFD", "città")
        p.write_text(f"- label: {nfd}\n  members: [{nfd}, urbe]\n", encoding="utf-8")
        assert parse_registry(p) == [KeywordSet("città", ("città", "urbe"))]

    def test_label_must_be_lowercase_single_token(self, tmp_path):
        p = tmp_path / "kw.yaml"
        p.write_text("- label: Interest Rate\n  members: [x]\n")
        with pytest.raises(RegistryError):
            parse_registry(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            # the members loaded as ('false', 'none', 'true') and so never matched 'no'
            ("- label: vote\n  members: [no, ~, on]\n", "block 0 (vote): the member is False"),
            ("- label: vote\n  members: [ballot, ~]\n", "block 0 (vote): the member is None"),
            ("- label: year\n  members: [2020]\n", "block 0 (year): the member is 2020"),
            ("- label: day\n  members: [2020-01-04]\n", "block 0 (day): the member is datetime.date(2020, 1, 4)"),
            # refused as "label 'False' must be lowercase letters", a value never written
            ("- label: x\n  members: [x]\n- label: no\n  members: [nay]\n", "block 1: the label is False"),
        ],
        ids=["no", "null", "number", "date", "label"],
    )
    def test_value_yaml_does_not_read_as_text_refused(self, tmp_path, text, message):
        p = tmp_path / "kw.yaml"
        p.write_text(text)
        with pytest.raises(RegistryError) as err:
            parse_registry(p)
        assert str(err.value) == f"{p}: {message} as YAML reads it, not text; quote it"

    def test_quoted_yaml_words_are_members(self, tmp_path):
        p = tmp_path / "kw.yaml"
        p.write_text('- label: vote\n  members: ["no", "yes", "on", "off", "~"]\n')
        assert parse_registry(p) == [KeywordSet("vote", ("no", "yes", "on", "off", "~"))]

    def test_registry_that_does_not_parse_refused_naming_its_file(self, tmp_path):
        # a bare yaml ParserError used to locate it in "<unicode string>"
        p = tmp_path / "kw.yaml"
        p.write_text("- label: covid\n  members: [covid, coronavirus\n")
        with pytest.raises(RegistryError, match="registry does not parse as YAML") as err:
            parse_registry(p)
        assert str(err.value).startswith(f"{p}: ")
        assert f'in "{p}", line 2' in str(err.value)

    def test_value_yaml_cannot_build_refused_naming_its_file(self, tmp_path):
        # the run used to end in "pipeline failed: day is out of range for month"
        p = tmp_path / "kw.yaml"
        p.write_text("- label: leap\n  members: [2020-02-30]\n")
        with pytest.raises(RegistryError) as err:
            parse_registry(p)
        assert str(err.value) == (
            f"{p}: registry holds a value Python cannot build: day is out of range for month; quote it"
        )

    def test_core_fixture_has_29_sets_with_covid_singleton(self):
        sets = parse_registry(fixture_path("keywords_core.yaml"))
        assert len(sets) == 29
        labels = {s.label for s in sets}
        assert "covid" in labels and "lockdown" in labels
        assert "interest_rate" in labels

    def test_table_fixture_has_59_sets(self):
        sets = parse_registry(fixture_path("keywords_full.yaml"))
        assert len(sets) == 59


class TestCompileCanonicalMap:
    def test_synonyms_share_label(self):
        cm = compile_canonical_map(
            [KeywordSet("covid", ("covid", "coronavirus"))], PorterStemmer()
        )
        st = PorterStemmer()
        assert cm.stem_map[st.stem("covid")] == "covid"
        assert cm.stem_map[st.stem("coronavirus")] == "covid"

    def test_multiword_member_becomes_phrase_entry(self):
        cm = compile_canonical_map(
            [KeywordSet("interest_rate", ("interest rate",))], PorterStemmer()
        )
        assert cm.phrase_starts == {"interest": ((("interest", "rate"), "interest_rate"),)}
        assert "interest" not in cm.stem_map

    def test_same_stem_members_collapse_without_error(self):
        st = PorterStemmer()
        assert st.stem("saving") == st.stem("savings") == "save"
        cm = compile_canonical_map([KeywordSet("savings", ("saving", "savings"))], st)
        assert cm.stem_map["save"] == "savings"

    def test_cross_label_stem_collision_fatal(self):
        with pytest.raises(RegistryError) as err:
            compile_canonical_map(
                [KeywordSet("a_set", ("connected",)), KeywordSet("b_set", ("connection",))],
                PorterStemmer(),
            )
        assert "collision" in str(err.value)

    def test_phrase_claimed_by_two_labels_fatal(self):
        # all three compiled to ("interest", "rate"), and the first label took every match
        sets = [
            KeywordSet("rates", ("interest rate",)),
            KeywordSet("other", ("interest  rate", "interest-rate")),
        ]
        with pytest.raises(RegistryError) as err:
            compile_canonical_map(sets, PorterStemmer())
        msg = str(err.value)
        assert "'interest  rate' (other)" in msg and "'interest rate' (rates)" in msg

    def test_spellings_of_one_phrase_within_a_label_collapse(self):
        cm = compile_canonical_map(
            [KeywordSet("interest_rate", ("interest rate", "interest-rate"))], PorterStemmer()
        )
        assert cm.phrase_starts == {"interest": ((("interest", "rate"), "interest_rate"),)}

    def test_phrases_filter_stopwords(self):
        # "of" is shorter than min_token_len, but no text keeps a stop-word either
        cm = compile_canonical_map(
            [KeywordSet("bank_of_italy", ("bank of italy",))],
            PorterStemmer(),
            stopwords=frozenset({"of"}),
            min_token_len=3,
        )
        assert cm.phrase_starts == {"bank": ((("bank", "italy"), "bank_of_italy"),)}

    def test_decomposed_member_compiles_to_the_same_map(self):
        # NFD members used to tokenize as "citta" and ("perche", "no")
        sets = [KeywordSet("citta", ("città", "perché no")), KeywordSet("sagg", ("saggio",))]
        decomposed = [
            KeywordSet(ks.label, tuple(unicodedata.normalize("NFD", m) for m in ks.members)) for ks in sets
        ]
        assert decomposed != sets
        stemmer = get_stemmer("italian")
        assert compile_canonical_map(decomposed, stemmer) == compile_canonical_map(sets, stemmer)

    @pytest.mark.parametrize("member, word", [("vitamin d", "d"), ("g7", "g")])
    def test_member_word_shorter_than_min_token_len_refused(self, member, word):
        # both compiled, and no text kept the short word, so the label never matched
        sets = [KeywordSet("label", (member,))]
        with pytest.raises(RegistryError) as err:
            compile_canonical_map(sets, PorterStemmer(), min_token_len=2)
        assert str(err.value) == (
            f"member {member!r} of 'label' has the word {word!r}, shorter than "
            "min_token_len 2, which no text keeps"
        )
        assert compile_canonical_map(sets, PorterStemmer(), min_token_len=1).min_token_len == 1

    @pytest.mark.parametrize("min_token_len", [0, -2])
    @pytest.mark.parametrize("sets", [[], [KeywordSet("covid", ("covid",))]], ids=["empty", "one_set"])
    def test_min_token_len_below_one_refused(self, sets, min_token_len):
        # an empty token would become a graph node
        with pytest.raises(ValueError, match="min_token_len must be >= 1"):
            compile_canonical_map(sets, NullStemmer(), min_token_len=min_token_len)

    def test_stopwords_put_in_the_form_tokenize_gives(self):
        # a capitalized or decomposed stop-word never matched a token
        cm = compile_canonical_map([], NullStemmer(), {"The", unicodedata.normalize("NFD", "perché")})
        assert cm.stopwords == {"the", "perché"}
        assert normalize(tokenize("The city, perché not"), cm) == ["city", "not"]

    def test_canonicalization_is_a_function(self):
        sets = parse_registry(fixture_path("keywords_full.yaml"))
        cm = compile_canonical_map(sets, PorterStemmer())
        # compile succeeded, so no stem belongs to two labels; spot-check map
        assert all(isinstance(lab, str) for lab in cm.stem_map.values())
        labels = {s.label for s in sets}
        assert set(cm.stem_map.values()) <= labels


@pytest.mark.parametrize("fixture", ["keywords_core.yaml", "keywords_full.yaml"])
def test_round_trip_every_member_yields_its_label(fixture):
    sets = parse_registry(fixture_path(fixture))
    stemmer = get_stemmer("english")
    stop = frozenset({"of", "the"})
    cm = compile_canonical_map(sets, stemmer, stop)
    for ks in sets:
        for member in ks.members:
            tokens = [t for t in tokenize(member, min_len=1)]
            out = normalize(tokens, cm)
            assert out.count(ks.label) == 1, (member, out)


def test_label_with_comma_rejected(tmp_path):
    p = tmp_path / "kw.yaml"
    p.write_text('- label: "a,b"\n  members: [x]\n')
    with pytest.raises(RegistryError):
        parse_registry(p)


def test_byte_order_mark_is_not_part_of_the_first_stopword(tmp_path):
    # the first stop-word was read as '\ufeffthe' and so matched no token
    p = tmp_path / "stop.txt"
    p.write_text("the\n# comment\nof\n", encoding="utf-8-sig")
    assert load_stopwords(p) == {"the", "of"}

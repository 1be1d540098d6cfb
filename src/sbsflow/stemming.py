"""Affix-stripping stemmers for English and Italian.

Both stemmers follow the published Porter-family (Snowball) algorithm
definitions. They are implemented here because the analysis pipeline needs
deterministic, dependency-free stemming for both languages; outputs are
pinned against the algorithms' published worked examples in the test suite.
"""
from __future__ import annotations

__all__ = ["Stemmer", "PorterStemmer", "ItalianStemmer", "NullStemmer", "get_stemmer"]


class Stemmer:
    """Interface: a stemmer maps one lowercase token to its stem."""

    name = "base"

    def stem(self, word: str) -> str:
        raise NotImplementedError


class NullStemmer(Stemmer):
    """Pass-through stemmer (useful for tests and unstemmed graphs)."""

    name = "none"

    def stem(self, word: str) -> str:
        return word


# ---------------------------------------------------------------------------
# English: the original Porter algorithm (1980).
# ---------------------------------------------------------------------------

_EN_VOWELS = "aeiou"


def _en_is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _EN_VOWELS:
        return False
    if c == "y":
        # y is a consonant at the start or after a vowel, else a vowel
        return i == 0 or not _en_is_consonant(word, i - 1)
    return True


def _en_measure(stem: str) -> int:
    # number of vowel-run -> consonant-run transitions: [C](VC){m}[V]
    m = 0
    prev_cons: bool | None = None
    for i in range(len(stem)):
        cons = _en_is_consonant(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _en_has_vowel(stem: str) -> bool:
    return any(not _en_is_consonant(stem, i) for i in range(len(stem)))


def _en_ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _en_is_consonant(word, len(word) - 1)
    )


def _en_ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _en_is_consonant(word, n - 3)
        and not _en_is_consonant(word, n - 2)
        and _en_is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


# Suffix rewrite tables; within a step the longest matching suffix wins and
# its condition alone decides (no fallback to shorter suffixes).
_EN_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]
_EN_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]
_EN_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _longest_suffix(word: str, suffixes) -> str | None:
    best = None
    for suf in suffixes:
        if word.endswith(suf) and (best is None or len(suf) > len(best)):
            best = suf
    return best


class PorterStemmer(Stemmer):
    """English stemmer implementing the 1980 Porter algorithm."""

    name = "english"

    def stem(self, word: str) -> str:
        w = word.lower()
        if len(w) <= 2:
            return w
        w = self._step1a(w)
        w = self._step1b(w)
        w = self._step1c(w)
        w = self._step2(w)
        w = self._step3(w)
        w = self._step4(w)
        w = self._step5a(w)
        w = self._step5b(w)
        return w

    @staticmethod
    def _step1a(w: str) -> str:
        if w.endswith("sses"):
            return w[:-2]
        if w.endswith("ies"):
            return w[:-2]
        if w.endswith("ss"):
            return w
        if w.endswith("s"):
            return w[:-1]
        return w

    @staticmethod
    def _step1b_cleanup(w: str) -> str:
        if w.endswith(("at", "bl", "iz")):
            return w + "e"
        if _en_ends_double_consonant(w) and w[-1] not in "lsz":
            return w[:-1]
        if _en_measure(w) == 1 and _en_ends_cvc(w):
            return w + "e"
        return w

    def _step1b(self, w: str) -> str:
        if w.endswith("eed"):
            if _en_measure(w[:-3]) > 0:
                return w[:-1]
            return w
        if w.endswith("ed") and _en_has_vowel(w[:-2]):
            return self._step1b_cleanup(w[:-2])
        if w.endswith("ing") and _en_has_vowel(w[:-3]):
            return self._step1b_cleanup(w[:-3])
        return w

    @staticmethod
    def _step1c(w: str) -> str:
        if w.endswith("y") and _en_has_vowel(w[:-1]):
            return w[:-1] + "i"
        return w

    @staticmethod
    def _rewrite(w: str, table, min_measure: int) -> str:
        suf = _longest_suffix(w, [s for s, _ in table])
        if suf is None:
            return w
        repl = dict(table)[suf]
        stem = w[: -len(suf)]
        if _en_measure(stem) > min_measure - 1:
            return stem + repl
        return w

    def _step2(self, w: str) -> str:
        return self._rewrite(w, _EN_STEP2, min_measure=1)

    def _step3(self, w: str) -> str:
        return self._rewrite(w, _EN_STEP3, min_measure=1)

    @staticmethod
    def _step4(w: str) -> str:
        suf = _longest_suffix(w, _EN_STEP4)
        if suf is None:
            return w
        stem = w[: -len(suf)]
        if _en_measure(stem) <= 1:
            return w
        if suf == "ion" and not stem.endswith(("s", "t")):
            return w
        return stem

    @staticmethod
    def _step5a(w: str) -> str:
        if not w.endswith("e"):
            return w
        stem = w[:-1]
        m = _en_measure(stem)
        if m > 1:
            return stem
        if m == 1 and not _en_ends_cvc(stem):
            return stem
        return w

    @staticmethod
    def _step5b(w: str) -> str:
        if _en_measure(w) > 1 and _en_ends_double_consonant(w) and w.endswith("l"):
            return w[:-1]
        return w


# ---------------------------------------------------------------------------
# Italian: the Snowball Italian stemming algorithm.
# ---------------------------------------------------------------------------

_IT_VOWELS = "aeiouàèìòù"  # a e i o u à è ì ò ù
_IT_ACUTE_TO_GRAVE = str.maketrans("áéíóú", "àèìòù")

_IT_PRONOUNS = [
    "ci", "gli", "la", "le", "li", "lo", "mi", "ne", "si", "ti", "vi",
    "sene", "gliela", "gliele", "glieli", "glielo", "gliene",
    "mela", "mele", "meli", "melo", "mene",
    "tela", "tele", "teli", "telo", "tene",
    "cela", "cele", "celi", "celo", "cene",
    "vela", "vele", "veli", "velo", "vene",
]

# step 1 groups: (suffixes, action); actions resolved in _it_step1
_IT_STEP1_R2_DELETE = [
    "anza", "anze", "ico", "ici", "ica", "ice", "iche", "ichi", "ismo",
    "ismi", "abile", "abili", "ibile", "ibili", "ista", "iste", "isti",
    "istà", "istè", "istì", "oso", "osi", "osa", "ose",
    "mente", "atrice", "atrici", "ante", "anti",
]
_IT_STEP1_AZIONE = ["azione", "azioni", "atore", "atori"]
_IT_STEP1_LOGIA = ["logia", "logie"]
_IT_STEP1_UZIONE = ["uzione", "uzioni", "usione", "usioni"]
_IT_STEP1_ENZA = ["enza", "enze"]
_IT_STEP1_MENTO = ["amento", "amenti", "imento", "imenti"]
_IT_STEP1_ITA = ["ità"]
_IT_STEP1_IVO = ["ivo", "ivi", "iva", "ive"]

_IT_STEP2 = [
    "ammo", "ando", "ano", "are", "arono", "asse", "assero", "assi",
    "assimo", "ata", "ate", "ati", "ato", "ava", "avamo", "avano", "avate",
    "avi", "avo", "emmo", "enda", "ende", "endi", "endo", "erà", "erai",
    "eranno", "ere", "erebbe", "erebbero", "erei", "eremmo", "eremo",
    "ereste", "eresti", "erete", "erò", "erono", "essero", "ete",
    "eva", "evamo", "evano", "evate", "evi", "evo", "Yamo", "iamo", "immo",
    "irà", "irai", "iranno", "ire", "irebbe", "irebbero", "irei",
    "iremmo", "iremo", "ireste", "iresti", "irete", "irò", "irono",
    "isca", "iscano", "isce", "isci", "isco", "iscono", "issero", "ita",
    "ite", "iti", "ito", "iva", "ivamo", "ivano", "ivate", "ivi", "ivo",
    "ono", "uta", "ute", "uti", "uto", "ar", "ir",
]

_IT_ALL_STEP1 = (
    _IT_STEP1_R2_DELETE + _IT_STEP1_AZIONE + _IT_STEP1_LOGIA
    + _IT_STEP1_UZIONE + _IT_STEP1_ENZA + _IT_STEP1_MENTO
    + ["amente"] + _IT_STEP1_ITA + _IT_STEP1_IVO
)


def _it_is_vowel(c: str) -> bool:
    # uppercase U/I are markers for consonant-role u/i
    return c in _IT_VOWELS


def _it_prelude(w: str) -> str:
    w = w.translate(_IT_ACUTE_TO_GRAVE)
    out: list[str] = []
    i = 0
    n = len(w)
    while i < n:
        c = w[i]
        if c == "q" and i + 1 < n and w[i + 1] == "u":
            out.append("q")
            out.append("U")
            i += 2
            continue
        # left neighbor from the already-marked output, right from the input
        if (
            c in "ui"
            and out
            and _it_is_vowel(out[-1])
            and i + 1 < n
            and _it_is_vowel(w[i + 1])
        ):
            out.append(c.upper())
        else:
            out.append(c)
        i += 1
    return "".join(out)


def _it_rv_start(w: str) -> int:
    n = len(w)
    if n < 2:
        return n
    if _it_is_vowel(w[0]) and _it_is_vowel(w[1]):
        # vowel-vowel: after the next consonant
        i = 2
        while i < n and _it_is_vowel(w[i]):
            i += 1
        return min(i + 1, n)
    if not _it_is_vowel(w[1]):
        # second letter a consonant: after the next following vowel
        i = 2
        while i < n and not _it_is_vowel(w[i]):
            i += 1
        return min(i + 1, n)
    # consonant-vowel: after the third letter
    return min(3, n)


def _it_r_start(w: str, begin: int) -> int:
    # first position after a vowel directly followed by a non-vowel
    n = len(w)
    for i in range(begin, n - 1):
        if _it_is_vowel(w[i]) and not _it_is_vowel(w[i + 1]):
            return i + 2
    return n


def _in_region(w: str, suffix_len: int, region_start: int) -> bool:
    return len(w) - suffix_len >= region_start


class ItalianStemmer(Stemmer):
    """Italian stemmer implementing the Snowball Italian algorithm."""

    name = "italian"

    def stem(self, word: str) -> str:
        w = _it_prelude(word.lower())
        if len(w) < 2:
            return w.lower()
        rv = _it_rv_start(w)
        r1 = _it_r_start(w, 0)
        r2 = _it_r_start(w, r1)
        w = self._step0(w, rv)
        w1 = self._step1(w, rv, r1, r2)
        if w1 == w:
            w1 = self._step2(w1, rv)
        w1 = self._step3(w1, rv)
        return w1.lower()

    @staticmethod
    def _step0(w: str, rv: int) -> str:
        pron = _longest_suffix(w, _IT_PRONOUNS)
        if pron is None:
            return w
        head = w[: -len(pron)]
        for marker in ("ando", "endo"):
            if head.endswith(marker) and len(head) - len(marker) >= rv:
                return head
        for marker in ("ar", "er", "ir"):
            if head.endswith(marker) and len(head) - len(marker) >= rv:
                return head + "e"
        return w

    @staticmethod
    def _step1(w: str, rv: int, r1: int, r2: int) -> str:
        suf = _longest_suffix(w, _IT_ALL_STEP1)
        if suf is None:
            return w
        k = len(suf)
        stem = w[:-k]
        if suf in _IT_STEP1_R2_DELETE:
            return stem if _in_region(w, k, r2) else w
        if suf in _IT_STEP1_AZIONE:
            if not _in_region(w, k, r2):
                return w
            if stem.endswith("ic") and _in_region(stem, 2, r2):
                return stem[:-2]
            return stem
        if suf in _IT_STEP1_LOGIA:
            return stem + "log" if _in_region(w, k, r2) else w
        if suf in _IT_STEP1_UZIONE:
            return stem + "u" if _in_region(w, k, r2) else w
        if suf in _IT_STEP1_ENZA:
            return stem + "ente" if _in_region(w, k, r2) else w
        if suf in _IT_STEP1_MENTO:
            return stem if _in_region(w, k, rv) else w
        if suf == "amente":
            if not _in_region(w, k, r1):
                return w
            if stem.endswith("iv") and _in_region(stem, 2, r2):
                stem = stem[:-2]
                if stem.endswith("at") and _in_region(stem, 2, r2):
                    stem = stem[:-2]
                return stem
            for extra in ("os", "ic", "abil"):
                if stem.endswith(extra) and _in_region(stem, len(extra), r2):
                    return stem[: -len(extra)]
            return stem
        if suf in _IT_STEP1_ITA:
            if not _in_region(w, k, r2):
                return w
            for extra in ("abil", "ic", "iv"):
                if stem.endswith(extra) and _in_region(stem, len(extra), r2):
                    return stem[: -len(extra)]
            return stem
        if suf in _IT_STEP1_IVO:
            if not _in_region(w, k, r2):
                return w
            if stem.endswith("at") and _in_region(stem, 2, r2):
                stem = stem[:-2]
                if stem.endswith("ic") and _in_region(stem, 2, r2):
                    stem = stem[:-2]
            return stem
        return w

    @staticmethod
    def _step2(w: str, rv: int) -> str:
        # verb suffixes: longest match lying entirely inside RV
        best = None
        for suf in _IT_STEP2:
            if w.endswith(suf) and _in_region(w, len(suf), rv):
                if best is None or len(suf) > len(best):
                    best = suf
        if best is not None:
            return w[: -len(best)]
        return w

    @staticmethod
    def _step3(w: str, rv: int) -> str:
        if w and w[-1] in "aeioàèìò" and _in_region(w, 1, rv):
            w = w[:-1]
            if w.endswith("i") and _in_region(w, 1, rv):
                w = w[:-1]
        if w.endswith("ch") and _in_region(w, 2, rv):
            w = w[:-1]
        elif w.endswith("gh") and _in_region(w, 2, rv):
            w = w[:-1]
        return w


_STEMMERS = {
    "english": PorterStemmer,
    "italian": ItalianStemmer,
    "none": NullStemmer,
}


def get_stemmer(language: str) -> Stemmer:
    """Return a stemmer for ``language`` ("italian", "english" or "none")."""
    try:
        return _STEMMERS[language.lower()]()
    except KeyError:
        raise ValueError(
            f"no stemmer for language {language!r}; expected one of {sorted(_STEMMERS)}"
        ) from None

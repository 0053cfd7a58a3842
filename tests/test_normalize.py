"""``normalize_label`` takes a shortcut on ASCII labels (lowercase, collapse
whitespace, ``str.strip`` of the ASCII blank and punctuation) and the
Unicode path on every other label. Both must agree with the one algorithm
written out below, on the interpreter's own Unicode database."""

import random
import unicodedata

import pytest

from examgraph.textutils import normalize_label


def reference_normalize(label: str) -> str:
    """The Unicode algorithm, applied to every label: double quotes blanked,
    NFC, lowercase, NFC, whitespace collapsed, blanks and punctuation trimmed
    off both edges."""
    for quote in '"\u00ab\u00bb\u201c\u201d\u201e\u201f':
        label = label.replace(quote, " ")
    s = unicodedata.normalize("NFC", unicodedata.normalize("NFC", label).lower())
    s = " ".join(s.split())

    def trimmable(ch):
        return ch == " " or unicodedata.category(ch).startswith("P")

    start, end = 0, len(s)
    while start < end and trimmable(s[start]):
        start += 1
    while end > start and trimmable(s[end - 1]):
        end -= 1
    return s[start:end]


ASCII = [chr(c) for c in range(128)]


def test_every_one_and_two_character_ascii_label():
    for a in ASCII:
        assert normalize_label(a) == reference_normalize(a), repr(a)
        for b in ASCII:
            label = a + b
            assert normalize_label(label) == reference_normalize(label), repr(label)


def test_seeded_random_ascii_labels():
    rng = random.Random(1537)
    # letters, digits, blanks and edge punctuation drawn often, so most
    # labels have something to trim and to collapse
    common = list("aZ9 .,-'!?()\t\n_")
    for _ in range(20000):
        label = "".join(rng.choice(common) if rng.random() < 0.6 else rng.choice(ASCII)
                        for _ in range(rng.randrange(13)))
        assert normalize_label(label) == reference_normalize(label), repr(label)


@pytest.mark.parametrize("label, expected", [
    ("\u00abQuote\u00bb", "quote"),       # guillemets are punctuation
    ("x\u00a0y", "x y"),                   # a no-break space collapses
    ("\u0130stanbul", "i\u0307stanbul"),   # dotted capital I lowers to two
    ("\u00e9cole.", "\u00e9cole"),
    ("E\u0301cole", "\u00e9cole"),         # composed by NFC
    ("\u2028 Oak \u3002", "oak"),          # line separator, ideographic stop
])
def test_pinned_non_ascii_labels(label, expected):
    assert normalize_label(label) == reference_normalize(label) == expected


@pytest.mark.parametrize("label, expected", [
    ('"ling" shrub', "ling shrub"),
    ("caf\u00e9 \u201cx\u201d y", "caf\u00e9 x y"),
    ("\u201eA\u201f \u00abb\u00bb c", "a b c"),
    ("plant's  \"x\"", "plant's x"),      # an apostrophe inside a word stays
])
def test_double_quotes_inside_a_label_become_blanks(label, expected):
    assert normalize_label(label) == reference_normalize(label) == expected
    assert normalize_label(expected) == expected

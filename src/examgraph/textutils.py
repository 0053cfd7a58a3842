"""Small deterministic text helpers shared by ingestion, the graph, generation
and assessment: label normalization, tokenizing, stopwords, and the naive
subject-verb-object sentence heuristic."""

from __future__ import annotations

import re
import unicodedata

_WORD_RE = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*")
_SENTENCE_RE = re.compile(r"[.!?]+")

STOPWORDS = frozenset(
    """a an the this that these those its their his her our your my
    of in on at to for with from by as into over under between about
    and or nor but so yet if then than when while because
    be been being am is are was were
    has have had do does did
    it they them he she we you i there here
    not no any some each very more most such only also both
    which what who whom whose""".split()
)

# Determiner-ish words trimmed from the edges of extracted noun phrases.
AUXILIARIES = frozenset(
    "will would can could may might shall should must do does did".split()
)

RELATION_VERBS = frozenset(
    """is are was were has have
    harm harms cause causes affect affects include includes contain contains
    produce produces require requires reduce reduces increase increases
    create creates support supports damage damages pollute pollutes
    protect protects prevent prevents use uses need needs form forms
    become becomes involve involves generate generates threaten threatens
    destroy destroys improve improves provide provides consume consumes
    absorb absorbs emit emits recycle recycles store stores convert converts
    help helps resist resists feed feeds shape shapes carry carries
    regulate regulates release releases filter filters trap traps""".split()
)


def _trimmable(ch: str) -> bool:
    return ch == " " or unicodedata.category(ch).startswith("P")


# the characters below 128 that _trimmable accepts: the blank and ASCII
# punctuation
_ASCII_TRIM = "".join(filter(_trimmable, map(chr, range(128))))
# double quotes, which become blanks anywhere in a label
_QUOTES = dict.fromkeys(map(ord, '"\u00ab\u00bb\u201c\u201d\u201e\u201f'), " ")


def normalize_label(label: str) -> str:
    """Canonical form used for entity dedup: double quotes (``"`` « » “ ” „ ‟)
    blanked, NFC, lowercase, internal whitespace collapsed, leading/trailing
    punctuation trimmed, so ``'"ling" shrub'`` is ``'ling shrub'``. An
    apostrophe inside a word stays (``plant's``).

    Idempotent: normalize_label(normalize_label(x)) == normalize_label(x).
    The edge trim consumes punctuation and blanks together so a space
    between edge punctuation and the word cannot shield the punctuation.
    On ASCII text NFC is the identity, ``"`` is the one double quote and the
    trim set is ``_ASCII_TRIM``, so ``str.replace`` and ``str.strip`` do it.
    """
    if label.isascii():
        return " ".join(label.replace('"', " ").lower().split()).strip(_ASCII_TRIM)
    s = unicodedata.normalize("NFC", unicodedata.normalize("NFC", label.translate(_QUOTES)).lower())
    s = " ".join(s.split())
    start, end = 0, len(s)
    while start < end and _trimmable(s[start]):
        start += 1
    while end > start and _trimmable(s[end - 1]):
        end -= 1
    return s[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; punctuation is dropped."""
    return _WORD_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    parts = _SENTENCE_RE.split(text)
    return [p.strip() for p in parts if p.strip()]


def _strip_phrase(words: list[str]) -> list[str]:
    """Trim stopwords off both edges; keep the original words when trimming
    would empty the phrase (so 'A harms B' keeps its one-letter subject)."""
    start, end = 0, len(words)
    while start < end and words[start] in STOPWORDS:
        start += 1
    while end > start and words[end - 1] in STOPWORDS:
        end -= 1
    return words[start:end] if start < end else words


def naive_svo(sentence: str) -> tuple[str, str, str] | None:
    """First subject-verb-object match in a sentence, or None.

    Scans for the first relation verb (optionally preceded by an
    auxiliary such as 'will') that has words on both sides, then trims
    determiners/stopwords off the noun phrases.
    """
    words = tokenize(sentence)
    for i, w in enumerate(words):
        rel = None
        obj_start = i + 1
        if w in RELATION_VERBS:
            rel = w
        elif (w in AUXILIARIES and i + 1 < len(words)
              and words[i + 1] in RELATION_VERBS):
            rel = words[i + 1]
            obj_start = i + 2
        if rel is None or i == 0 or obj_start >= len(words):
            continue
        subject = _strip_phrase(words[:i])
        obj = _strip_phrase(words[obj_start:])
        if subject and obj:
            return " ".join(subject), rel, " ".join(obj)
    return None

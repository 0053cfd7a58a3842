"""The seven measurable item features that proxy difficulty, plus Bloom
level classification of question stems."""

from __future__ import annotations

import math
from enum import Enum, IntEnum

from ..errors import MalformedItem
from ..kg import GraphView, KnowledgeGraph, NodeKind
from ..textutils import STOPWORDS, normalize_label, tokenize

DEFAULT_TAU = 0.4  # minimum similarity to the key for a distractor to count as plausible


class BloomLevel(IntEnum):
    REMEMBER = 1
    UNDERSTAND = 2
    APPLY = 3
    ANALYZE = 4
    EVALUATE = 5
    CREATE = 6


class FeatureId(Enum):
    STEM_LENGTH = "stem_length"
    VOCAB_DENSITY = "vocab_density"
    COGNITIVE_LEVEL = "cognitive_level"
    OPTION_LENGTH = "option_length"
    OPTION_SIMILARITY = "option_similarity"
    STEM_OPTION_OVERLAP = "stem_option_overlap"
    PLAUSIBLE_DISTRACTORS = "plausible_distractors"
    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python


FEATURE_ORDER = tuple(FeatureId)

DEFAULT_BLOOM_VERBS: dict[BloomLevel, frozenset[str]] = {
    BloomLevel.REMEMBER: frozenset({"define", "list", "name", "recall"}),
    BloomLevel.UNDERSTAND: frozenset({"explain", "paraphrase", "summarize"}),
    BloomLevel.APPLY: frozenset({"apply", "solve", "use", "compute"}),
    BloomLevel.ANALYZE: frozenset({"analyze", "compare", "differentiate"}),
    BloomLevel.EVALUATE: frozenset({"judge", "assess", "justify", "critique"}),
    BloomLevel.CREATE: frozenset({"design", "compose", "propose", "construct"}),
}


def verb_levels(bloom_verbs: dict[BloomLevel, frozenset[str]] | None) -> dict[str, int]:
    """Each verb's Bloom level: the highest level whose verb set lists it.
    No verbs (None or {}) means the default ones."""
    if not bloom_verbs:
        return DEFAULT_VERB_LEVELS
    # levels ascend, so a verb listed under two levels keeps the higher one
    return {verb: int(level) for level in BloomLevel for verb in bloom_verbs.get(level, ())}


DEFAULT_VERB_LEVELS = verb_levels(DEFAULT_BLOOM_VERBS)


def classify_bloom(stem: str,
                   verb_lexicon: dict[BloomLevel, frozenset[str]] | None = None) -> BloomLevel:
    """Highest Bloom level whose verb set appears in the stem; Remember when
    no known verb is present."""
    return BloomLevel(_read_stem(tokenize(stem), frozenset(), verb_levels(verb_lexicon))[1])


def _read_stem(tokens: list[str], lexicon: frozenset[str] | set[str],
               levels: dict[str, int]) -> tuple[int, int]:
    """The number of tokens in the lexicon and the stem's Bloom level."""
    hits, level = 0, 1  # no known verb: Remember
    for token in tokens:
        if token in lexicon:
            hits += 1
        if token in levels and levels[token] > level:
            level = levels[token]
    return hits, level


def build_lexicon(graph: KnowledgeGraph | GraphView) -> frozenset[str]:
    """Domain term set from the graph's entity and concept labels: each
    full label plus its constituent words; built once per revision."""
    view = graph.view()
    return view.memo("lexicon", lambda: frozenset(
        term for node in view.nodes if node.kind != NodeKind.HIERARCHY
        for term in (node.label, *tokenize(node.label))))


_OPTION_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


def _term_vector(tokens: list[str]) -> tuple[dict[str, int], float]:
    """Term frequencies of the stopword-filtered tokens and their Euclidean
    norm."""
    counts: dict[str, int] = {}
    squares = 0
    for token in tokens:
        if token not in STOPWORDS:
            count = counts.get(token, 0)
            counts[token] = count + 1
            squares += 2 * count + 1  # (count + 1)**2 - count**2
    return counts, math.sqrt(squares)


def _cosine(a_text: str, a: tuple[dict[str, int], float],
            b_text: str, b: tuple[dict[str, int], float]) -> float:
    """Cosine between the term vectors of two texts.

    Two texts with no content tokens compare equal (1.0) only when their
    normalized surface forms match; a single empty side scores 0.0. The dot
    product is an int, so the smaller vector can drive the loop.
    """
    a_counts, a_norm = a
    b_counts, b_norm = b
    if not (a_counts and b_counts):
        if a_counts or b_counts:
            return 0.0
        return 1.0 if normalize_label(a_text) == normalize_label(b_text) else 0.0
    if len(a_counts) > len(b_counts):
        a_counts, b_counts = b_counts, a_counts
    dot = 0
    for term, count in a_counts.items():
        if term in b_counts:
            dot += count * b_counts[term]
    return dot / (a_norm * b_norm)


def measure_features(item, lexicon: frozenset[str] | set[str],
                     tau: float = DEFAULT_TAU,
                     bloom_verbs: dict[BloomLevel, frozenset[str]] | None = None,
                     ) -> dict[FeatureId, float]:
    """Raw feature values for a four-option item.

    ``item`` needs ``stem``, ``options`` (exactly four) and ``answer_index``
    attributes; anything shaped differently raises MalformedItem.
    """
    return dict(zip(FEATURE_ORDER, measure_row(item, lexicon, tau, verb_levels(bloom_verbs))))


def measure_row(item, lexicon: frozenset[str] | set[str], tau: float,
                levels: dict[str, int]) -> tuple[float, ...]:
    """The values of ``measure_features`` as a tuple in FEATURE_ORDER, with
    the Bloom verbs given as ``verb_levels`` builds them."""
    stem = getattr(item, "stem", "") or ""
    options = list(getattr(item, "options", ()) or ())
    answer_index = getattr(item, "answer_index", None)
    if not stem.strip():
        raise MalformedItem("item stem is empty")
    if len(options) != 4 or any(not isinstance(o, str) or not o.strip() for o in options):
        raise MalformedItem(f"item must have exactly 4 non-empty options, got {len(options)}")
    if answer_index not in (0, 1, 2, 3):
        raise MalformedItem(f"answer_index must be 0..3, got {answer_index!r}")

    stem_tokens = tokenize(stem)
    hits, level = _read_stem(stem_tokens, lexicon, levels)
    stem_vector = _term_vector(stem_tokens)
    vectors = [_term_vector(tokenize(o)) for o in options]
    # the means add left to right from int 0: sum() rounds floats
    # differently from Python 3.12 on
    words = overlap = 0
    for option, vector in zip(options, vectors):
        words += len(option.split())
        overlap += _cosine(stem, stem_vector, option, vector)
    similarity = plausible = 0
    for i, j in _OPTION_PAIRS:
        sim = _cosine(options[i], vectors[i], options[j], vectors[j])
        similarity += sim
        # the cosine is symmetric to the bit, so each distractor's
        # similarity to the key is the one of their pair
        if sim >= tau and answer_index in (i, j):
            plausible += 1
    return (
        float(len(stem.split())),
        hits / len(stem_tokens) if stem_tokens else 0.0,
        float(level),
        words / 4,
        similarity / 6,
        overlap / 4,
        float(plausible),
    )

"""The seven measurable item features that proxy difficulty, plus Bloom
level classification of question stems."""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import Iterable

from ..errors import MalformedItem
from ..kg import GraphView, KnowledgeGraph, NodeKind
from ..textutils import cosine_similarity, term_vector, tokenize

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


def classify_bloom(stem: str,
                   verb_lexicon: dict[BloomLevel, frozenset[str]] | None = None) -> BloomLevel:
    """Highest Bloom level whose verb set appears in the stem; Remember when
    no known verb is present."""
    return _bloom_level(tokenize(stem), verb_lexicon)


def _bloom_level(tokens: list[str],
                 verb_lexicon: dict[BloomLevel, frozenset[str]] | None) -> BloomLevel:
    verbs = verb_lexicon or DEFAULT_BLOOM_VERBS
    tokens = set(tokens)
    best = BloomLevel.REMEMBER
    for level in BloomLevel:
        if tokens & verbs.get(level, frozenset()):
            best = level
    return best


def build_lexicon(graph: KnowledgeGraph | GraphView) -> frozenset[str]:
    """Domain term set from the graph's entity and concept labels: each
    full label plus its constituent words; built once per revision."""
    view = graph.view()
    return view.memo("lexicon", lambda: frozenset(
        term for node in view.nodes if node.kind != NodeKind.HIERARCHY
        for term in (node.label, *tokenize(node.label))))


_OPTION_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


def _mean(values: Iterable[float]) -> float:
    """Added left to right: sum() rounds floats differently from Python 3.12 on."""
    total, count = 0, 0
    for value in values:
        total += value
        count += 1
    return total / count if count else 0.0


def measure_features(item, lexicon: frozenset[str] | set[str],
                     tau: float = DEFAULT_TAU,
                     bloom_verbs: dict[BloomLevel, frozenset[str]] | None = None,
                     ) -> dict[FeatureId, float]:
    """Raw feature values for a four-option item.

    ``item`` needs ``stem``, ``options`` (exactly four) and ``answer_index``
    attributes; anything shaped differently raises MalformedItem.
    """
    return dict(zip(FEATURE_ORDER, measure_row(item, lexicon, tau, bloom_verbs)))


def measure_row(item, lexicon: frozenset[str] | set[str],
                tau: float = DEFAULT_TAU,
                bloom_verbs: dict[BloomLevel, frozenset[str]] | None = None,
                ) -> tuple[float, ...]:
    """The values of ``measure_features`` as a tuple in FEATURE_ORDER."""
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
    density = (
        sum(1 for t in stem_tokens if t in lexicon) / len(stem_tokens)
        if stem_tokens else 0.0
    )
    stem_vector = term_vector(stem, stem_tokens)
    vectors = [term_vector(o) for o in options]
    pair_sims = [cosine_similarity(vectors[i], vectors[j]) for i, j in _OPTION_PAIRS]
    # the cosine is symmetric to the bit, so each distractor's similarity to
    # the key is the one of their pair
    plausible = sum(
        1 for (i, j), sim in zip(_OPTION_PAIRS, pair_sims)
        if answer_index in (i, j) and sim >= tau
    )
    return (
        float(len(stem.split())),
        density,
        float(_bloom_level(stem_tokens, bloom_verbs)),
        _mean(len(o.split()) for o in options),
        _mean(pair_sims),
        _mean(cosine_similarity(stem_vector, v) for v in vectors),
        float(plausible),
    )

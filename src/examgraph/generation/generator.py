"""Question candidates: the item type, the deterministic template
generator, and the LLM-backed generator with its strict reply contract.

The template generator builds stems and option scaffolds whose measured
feature profile lands within epsilon of each tier's target under the
default rubric thresholds; the evaluation gate still has the final say.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Protocol

from ..assessment import BloomLevel, DifficultyTier, bloom_profile
from ..checks import array, integer, json_value, member, obj, string, strings
from ..errors import ExamGraphError, GeneratorFailure, MalformedCandidate, MalformedItem
from ..kg import GraphView, KnowledgeGraph, NodeKind
from ..ranking import cached_pagerank, rank_chapter_concepts, rank_concept_facts
from ..textutils import normalize_label
from .material import MaterialBundle

# Bloom level used when generating for each tier; the cognitive-level
# feature then rates 1/2/3 respectively under the default cuts.
DEFAULT_TIER_BLOOM = {
    DifficultyTier.BASIC_RECALL: BloomLevel.REMEMBER,
    DifficultyTier.APPLIED_UNDERSTANDING: BloomLevel.APPLY,
    DifficultyTier.COMPREHENSIVE_ANALYSIS: BloomLevel.EVALUATE,
}


@dataclass
class Provenance:
    subject: str
    concept: str
    facts: list[str]
    chapter: str

    def to_dict(self) -> dict:
        return {"subject": self.subject, "concept": self.concept,
                "facts": list(self.facts), "chapter": self.chapter}

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        data = obj(data, "provenance", MalformedItem)
        facts = list(strings(data.get("facts"), "provenance facts", MalformedItem))
        return cls(facts=facts, **{key: string(data.get(key), f"provenance {key}", MalformedItem)
                                   for key in ("subject", "concept", "chapter")})


@dataclass
class QuestionItem:
    id: str
    stem: str
    options: list[str]
    answer_index: int
    bloom: BloomLevel
    tier: DifficultyTier
    provenance: Provenance | None = None

    def to_payload(self) -> dict:
        payload = {
            "id": self.id,
            "stem": self.stem,
            "options": list(self.options),
            "answer_index": self.answer_index,
            "bloom": self.bloom.name.lower(),
            "tier": self.tier.value,
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance.to_dict()
        return payload

    @classmethod
    def from_payload(cls, data: dict) -> "QuestionItem":
        # list() would split a string into one-letter options, int() takes
        # true as 1 and 1.7 as 1
        data = obj(data, "item", MalformedItem)
        return cls(
            id=string(data.get("id", ""), "id", MalformedItem),
            stem=string(data.get("stem"), "stem", MalformedItem),
            options=list(strings(data.get("options"), "options", MalformedItem)),
            answer_index=integer(data.get("answer_index"), "answer_index", MalformedItem,
                                 low=0, high=3),
            bloom=member(data.get("bloom", "remember"), "bloom",
                         lambda name: BloomLevel[name.upper()], MalformedItem),
            tier=member(data.get("tier", "basic"), "tier", DifficultyTier, MalformedItem),
            provenance=(Provenance.from_dict(data["provenance"])
                        if "provenance" in data else None),
        )


class Generator(Protocol):
    def generate(self, bundle: MaterialBundle, tier: DifficultyTier,
                 bloom: BloomLevel, attempt: int) -> QuestionItem: ...


def generate_candidate(bundle: MaterialBundle, tier: DifficultyTier,
                       bloom: BloomLevel, generator: Generator,
                       attempt: int, subject: str = "") -> QuestionItem:
    """Run the generator and enforce the structural item contract:
    non-empty stem, exactly four pairwise-distinct options, valid key."""
    try:
        item = generator.generate(bundle, tier, bloom, attempt)
    except (GeneratorFailure, MalformedCandidate):
        raise
    except Exception as exc:
        raise GeneratorFailure(f"generator raised: {exc}") from exc
    if not item.stem or not item.stem.strip():
        raise MalformedCandidate("candidate stem is empty")
    if len(item.options) != 4 or any(not o or not o.strip() for o in item.options):
        raise MalformedCandidate(
            f"candidate must have 4 non-empty options, got {len(item.options)}")
    if len({normalize_label(o) for o in item.options}) != 4:
        raise MalformedCandidate("candidate options must be pairwise distinct")
    if item.answer_index not in (0, 1, 2, 3):
        raise MalformedCandidate(f"bad answer_index {item.answer_index!r}")
    item.provenance = Provenance(
        subject=subject,
        concept=bundle.concept_id,
        facts=bundle.fact_ids,
        chapter=bundle.chapter_id,
    )
    return item


# --- deterministic template generator ---

_BASIC_STEMS = (
    "Which of the following is a {concept}?",
    "Name the option that is a {concept}.",
    "Which option below names a {concept} from {chapter}?",
    "Recall {chapter}: which one of these is a {concept}?",
)

_APPLIED_STEMS = (
    "Apply the definition of {concept}: using what {chapter} says about "
    "{concept}, work out which option is an instance of {concept}.",
    "Use the definition of {concept}: given what {chapter} says about "
    "{concept}, select the option that works as an instance of {concept}.",
    "Solve this selection task about {concept}: relying on what {chapter} "
    "teaches about {concept}, decide which option is an actual instance of "
    "{concept}.",
    "Apply what {chapter} covers about {concept}: compute which single "
    "option counts as an instance of {concept}, keeping the scope of "
    "{concept} in mind.",
)

_COMPREHENSIVE_STEMS = (
    "Assess the options below against the account of {concept} given in "
    "{chapter}. Remember that {narration}. Justify which single option best "
    "exemplifies {concept} under that account, weighing every candidate "
    "against the meaning of {concept} before deciding.",
    "Judge each option against the treatment of {concept} in {chapter}. "
    "Bear in mind that {narration}. Then justify which single option best "
    "captures {concept}, weighing every candidate against the full meaning "
    "of {concept} before deciding.",
    "Critique the candidate answers in light of how {chapter} frames "
    "{concept}. Note that {narration}. Justify which single option stands "
    "as the best example of {concept}, measuring each candidate against the "
    "meaning of {concept}.",
    "Justify a choice among the options below given the role of {concept} "
    "in {chapter}. Keep in mind that {narration}. Assess every candidate "
    "against the established meaning of {concept} and settle on the single "
    "best example of {concept}.",
)


def _wrap_option(label: str, tier: DifficultyTier, concept: str, chapter: str) -> str:
    if tier == DifficultyTier.BASIC_RECALL:
        return label
    if tier == DifficultyTier.APPLIED_UNDERSTANDING:
        return f"the {label} scenario in practice"
    return f"the {label} case, which illustrates {concept} as treated in {chapter}"


def _chapter_fact_pools(view: GraphView, chapter_id: str) -> list[tuple[str, list[str]]]:
    """Per chapter concept (rank order): (concept id, its top five fact
    labels in rank order); computed once per revision and chapter."""
    def build():
        try:
            ranked = rank_chapter_concepts(view, chapter_id)
        except ExamGraphError:  # a chapter from outside this graph: no siblings
            ranked = []
        return [(concept_id, [view.node(fid).label
                              for fid, _ in rank_concept_facts(view, concept_id, 5)])
                for concept_id, _ in ranked]

    return view.memo(("fact_pools", chapter_id), build)


def _global_fact_labels(view: GraphView) -> list[str]:
    """Every text entity's label, highest score first; once per revision."""
    scores = cached_pagerank(view).scores
    return view.memo("fact_labels", lambda: [n.label for n in sorted(
        (n for n in view.nodes if n.kind == NodeKind.TEXT),
        key=lambda n: (-scores[n.id], n.id))])


class TemplateGenerator:
    """Offline generator: per (tier, bloom) a fixed stem template family,
    the key drawn from the bundle's best fact, distractors from sibling
    concepts in the same chapter (falling back to the rest of the graph).

    Deterministic given the seed; the seed drives option order only.
    Distractors come from the revision the bundle was assembled from, or
    from the graph's current revision for a bundle built without one.
    """

    def __init__(self, graph: KnowledgeGraph, seed: int = 0):
        self.graph = graph
        self.seed = seed

    def _distractors(self, bundle: MaterialBundle, key_label: str) -> list[str]:
        # graph labels are stored normalized, so they compare as they are
        banned = {key_label, *bundle.fact_labels}
        chosen: list[str] = []

        def take(label: str) -> bool:
            if label in banned:
                return False
            banned.add(label)
            chosen.append(label)
            return len(chosen) == 3

        view = bundle.view if bundle.view is not None else self.graph.view()
        sibling_pools = [
            labels for concept_id, labels in _chapter_fact_pools(view, bundle.chapter_id)
            if concept_id != bundle.concept_id
        ]
        # breadth-first: every sibling's best fact before anyone's second
        depth = max((len(p) for p in sibling_pools), default=0)
        for level in range(depth):
            for pool in sibling_pools:
                if level < len(pool) and take(pool[level]):
                    return chosen
        for label in _global_fact_labels(view):
            if take(label):
                return chosen
        raise GeneratorFailure(
            f"not enough distinct material for distractors around "
            f"{bundle.concept_label!r} (found {len(chosen)})")

    def _narration(self, bundle: MaterialBundle, key_label: str) -> str:
        picked: list[tuple[str, str, str]] = []
        for h, r, t in bundle.sub_connections:
            if key_label in (h, t):
                continue
            picked.append((h, r, t))
            if len(picked) == 2:
                break
        for label in bundle.fact_labels[1:]:
            if len(picked) >= 2:
                break
            if label != key_label:
                picked.append((label, "belongs with", bundle.concept_label))
        while len(picked) < 2:
            picked.append((bundle.concept_label, "anchors", bundle.chapter_label))
        return " and that ".join(f"{h} {r} {t}" for h, r, t in picked[:2])

    def generate(self, bundle: MaterialBundle, tier: DifficultyTier,
                 bloom: BloomLevel, attempt: int) -> QuestionItem:
        if not bundle.facts:
            raise GeneratorFailure(f"bundle for {bundle.concept_label!r} has no facts")
        concept = bundle.concept_label
        chapter = bundle.chapter_label
        key_label = bundle.fact_labels[0]

        if tier == DifficultyTier.BASIC_RECALL:
            stems = _BASIC_STEMS
        elif tier == DifficultyTier.APPLIED_UNDERSTANDING:
            stems = _APPLIED_STEMS
        else:
            stems = _COMPREHENSIVE_STEMS
        variant = attempt % len(stems)
        stem = stems[variant].format(
            concept=concept, chapter=chapter,
            narration=self._narration(bundle, key_label),
        )

        distractors = self._distractors(bundle, key_label)
        options = [_wrap_option(lbl, tier, concept, chapter)
                   for lbl in (key_label, *distractors)]
        rng = random.Random(
            f"{self.seed}|{bundle.concept_id}|{tier.value}|{bloom.name}|{attempt}")
        order = list(range(4))
        rng.shuffle(order)
        shuffled = [options[i] for i in order]
        answer_index = order.index(0)
        return QuestionItem(
            id=f"{tier.value}-{bundle.concept_id}-v{variant}",
            stem=stem,
            options=shuffled,
            answer_index=answer_index,
            bloom=bloom,
            tier=tier,
        )


# --- LLM-backed generator ---

GENERATION_SYSTEM_PROMPT = (
    "You write four-option multiple-choice exam questions from "
    "knowledge-graph facts. Reply with exactly one JSON object of the form "
    '{"stem": "...", "options": ["...", "...", "...", "..."], '
    '"answer_index": 0} and nothing else.'
)


class LLMGenerator:
    """Generator backed by a chat-completion callable.

    The request serializes the bundle's fact triples as ``h r t`` lines plus
    the target feature profile; replies that do not match the required JSON
    shape are rejected as MalformedCandidate.
    """

    def __init__(self, complete_fn: Callable[[str, str], str]):
        self._complete = complete_fn

    def generate(self, bundle: MaterialBundle, tier: DifficultyTier,
                 bloom: BloomLevel, attempt: int) -> QuestionItem:
        profile = bloom_profile(bloom)
        lines = [f"{h} {r} {t}" for h, r, t in bundle.sub_connections]
        if not lines:
            lines = [f"{label} is_a {bundle.concept_label}"
                     for label in bundle.fact_labels]
        prompt = (
            "Facts:\n" + "\n".join(lines) + "\n"
            f"Concept: {bundle.concept_label}\n"
            f"Chapter: {bundle.chapter_label}\n"
            f"Cognitive level: {bloom.name.title()}\n"
            "Target feature profile (1=low, 3=high): "
            + json.dumps({f.value: r for f, r in profile.items()}) + "\n"
            f"Attempt: {attempt}\n"
            "Write one question."
        )
        try:
            reply = self._complete(GENERATION_SYSTEM_PROMPT, prompt)
        except Exception as exc:
            raise GeneratorFailure(f"generation backend failed: {exc}") from exc
        return _parse_item_reply(reply, tier, bloom)


def _parse_item_reply(reply: str, tier: DifficultyTier, bloom: BloomLevel) -> QuestionItem:
    data = obj(json_value(reply, "reply", MalformedCandidate), "reply", MalformedCandidate)
    return QuestionItem(
        id="",
        stem=string(data.get("stem"), "stem", MalformedCandidate),
        options=[str(o) for o in array(data.get("options"), "options", MalformedCandidate)],
        answer_index=integer(data.get("answer_index"), "answer_index", MalformedCandidate),
        bloom=bloom,
        tier=tier,
    )

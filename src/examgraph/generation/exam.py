"""The generate / evaluate / retry loop and final exam assembly.

:class:`ExamSession` is a sequential state machine that yields one candidate
at a time and consumes one evaluation verdict at a time. The direct library
call (:func:`generate_exam`) and the agent pipeline drive the same machine,
which is what makes their outputs identical under a deterministic stack.

Retry policy per blueprint slot: alternate advancing the template variant
and the ranked material bundle, i.e. (b0,v0), (b0,v1), (b1,v1), (b1,v2),
(b2,v2), ... up to ``max_retries`` candidates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..assessment import DifficultyTier, EvaluationResult, RubricConfig, build_lexicon
from ..errors import ExamGraphError, NoConceptsInChapter
from ..kg import GraphRegistry, KnowledgeGraph, NodeKind
from .blueprint import TIER_ORDER, ExamBlueprint
from .generator import DEFAULT_TIER_BLOOM, Generator, QuestionItem, generate_candidate
from .material import MaterialBundle, assemble_material


@dataclass(frozen=True)
class SlotRef:
    section: int
    chapter: str
    tier: DifficultyTier
    slot: int


@dataclass
class Candidate:
    slot: SlotRef
    attempt: int        # template variant passed to the generator
    bundle_index: int
    item: QuestionItem
    target: float
    epsilon: float
    weights: list[float] | None

    def to_payload(self) -> dict:
        return {
            "slot": {
                "section": self.slot.section,
                "chapter": self.slot.chapter,
                "tier": self.slot.tier.value,
                "slot": self.slot.slot,
            },
            "attempt": self.attempt,
            "bundle_index": self.bundle_index,
            "item": self.item.to_payload(),
            "target": self.target,
            "epsilon": self.epsilon,
            "weights": self.weights,
        }


def evaluated_item_payload(item: QuestionItem, result: EvaluationResult) -> dict:
    payload = item.to_payload()
    payload["ratings"] = {entry["feature"]: entry["rating"]
                          for entry in result.breakdown}
    payload["difficulty"] = result.difficulty
    payload["target"] = result.target
    payload["epsilon"] = result.epsilon
    payload["breakdown"] = result.breakdown
    return payload


@dataclass
class Exam:
    subject: str
    blueprint_sha256: str
    seed: int
    requested: int
    items: list[dict] = field(default_factory=list)
    rejects: list[dict] = field(default_factory=list)
    unfilled: list[dict] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unfilled and len(self.items) == self.requested

    def to_dict(self) -> dict:
        return {
            "format": "examgraph-exam",
            "version": 1,
            "subject": self.subject,
            "blueprint_sha256": self.blueprint_sha256,
            "seed": self.seed,
            "requested": self.requested,
            "item_count": len(self.items),
            "items": self.items,
            "rejects": self.rejects,
            "unfilled": self.unfilled,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Exam":
        return cls(
            subject=data["subject"],
            blueprint_sha256=data["blueprint_sha256"],
            seed=data["seed"],
            requested=data["requested"],
            items=list(data.get("items", [])),
            rejects=list(data.get("rejects", [])),
            unfilled=list(data.get("unfilled", [])),
        )


def _attempt_pairs(start: int, n_bundles: int, max_retries: int) -> list[tuple[int, int]]:
    pairs = [(start % n_bundles, 0)]
    bundle, variant = start, 0
    while len(pairs) < max_retries:
        if len(pairs) % 2 == 1:
            variant += 1
        else:
            bundle += 1
        pairs.append((bundle % n_bundles, variant))
    return pairs


class ExamSession:
    """Sequential candidate producer/consumer for one blueprint run."""

    def __init__(self, graph: KnowledgeGraph, blueprint: ExamBlueprint,
                 generator: Generator, rubric: RubricConfig | None = None, *,
                 seed: int = 0, top_concepts: int = 10, top_m_facts: int = 5,
                 max_retries: int = 5):
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.graph = graph
        self.blueprint = blueprint
        self.generator = generator
        self.rubric = rubric or RubricConfig()
        self.seed = seed
        self.max_retries = max_retries
        view = graph.view()  # one revision for the whole session
        self.lexicon = build_lexicon(view)
        self.epsilon = (blueprint.epsilon if blueprint.epsilon is not None
                        else self.rubric.epsilon)
        self.weights = list(blueprint.weights) if blueprint.weights else None

        self._section_bundles: list[list[MaterialBundle]] = []
        self._section_errors: list[str | None] = []
        for section in blueprint.sections:
            chapter_id = view.find_node(section.chapter, NodeKind.HIERARCHY)
            bundles, error = [], f"chapter {section.chapter!r} not found in graph"
            if chapter_id is not None:
                try:
                    bundles = assemble_material(view, chapter_id, top_concepts, top_m_facts)
                    error = None
                except NoConceptsInChapter as exc:
                    error = str(exc)
            self._section_bundles.append(bundles)
            self._section_errors.append(error)

        self._slots: list[SlotRef] = []
        for idx, section in enumerate(blueprint.sections):
            for tier in TIER_ORDER:
                for k in range(section.tier_counts.get(tier, 0)):
                    self._slots.append(SlotRef(idx, section.chapter, tier, k))

        self._cursor = 0
        self._pairs: list[tuple[int, int]] | None = None
        self._accepted: dict[tuple[int, DifficultyTier], set[tuple[int, int]]] = {}
        self._missing: dict[tuple[int, DifficultyTier], dict] = {}
        self.items: list[dict] = []
        self.rejects: list[dict] = []

    @property
    def done(self) -> bool:
        return self._cursor >= len(self._slots)

    def _cell_key(self, slot: SlotRef) -> tuple[int, DifficultyTier]:
        return (slot.section, slot.tier)

    def _advance_slot(self) -> None:
        self._cursor += 1
        self._pairs = None

    def _mark_unfilled(self, slot: SlotRef, reason: str) -> None:
        cell = self._missing.setdefault(self._cell_key(slot), {
            "chapter": slot.chapter,
            "tier": slot.tier.value,
            "missing": 0,
            "error_code": "insufficient_material",
            "reason": reason,
        })
        cell["missing"] += 1

    def next_candidate(self) -> Candidate | None:
        """Produce the next candidate item, or None when every slot has been
        resolved. Generator failures consume retries and are logged."""
        while self._cursor < len(self._slots):
            slot = self._slots[self._cursor]
            bundles = self._section_bundles[slot.section]
            if not bundles:
                self._mark_unfilled(
                    slot, self._section_errors[slot.section] or "no material")
                self._advance_slot()
                continue
            if self._pairs is None:
                raw = _attempt_pairs(slot.slot, len(bundles), self.max_retries)
                used = self._accepted.get(self._cell_key(slot), set())
                self._pairs = [p for p in raw if p not in used]
            while self._pairs:
                bundle_index, variant = self._pairs.pop(0)
                bundle = bundles[bundle_index]
                bloom = DEFAULT_TIER_BLOOM[slot.tier]
                try:
                    item = generate_candidate(bundle, slot.tier, bloom,
                                              self.generator, variant,
                                              subject=self.blueprint.subject)
                except ExamGraphError as exc:
                    self.rejects.append({
                        "chapter": slot.chapter,
                        "tier": slot.tier.value,
                        "slot": slot.slot,
                        "attempt": variant,
                        "bundle_index": bundle_index,
                        "reason": exc.code,
                        "message": str(exc),
                    })
                    continue
                return Candidate(
                    slot=slot, attempt=variant, bundle_index=bundle_index,
                    item=item, target=self.rubric.tiers[slot.tier],
                    epsilon=self.epsilon, weights=self.weights,
                )
            self._mark_unfilled(slot, "retries_exhausted")
            self._advance_slot()
        return None

    def evaluate(self, candidate: Candidate) -> EvaluationResult:
        return self.rubric.evaluate(candidate.item, candidate.target, self.lexicon,
                                    epsilon=candidate.epsilon,
                                    weights=candidate.weights)

    def record_result(self, candidate: Candidate, result: EvaluationResult) -> bool:
        """Accept or reject one evaluated candidate; returns True when the
        item was accepted."""
        slot = candidate.slot
        if result.passed:
            self.items.append(evaluated_item_payload(candidate.item, result))
            self._accepted.setdefault(self._cell_key(slot), set()).add(
                (candidate.bundle_index, candidate.attempt))
            self._advance_slot()
            return True
        self.rejects.append({
            "chapter": slot.chapter,
            "tier": slot.tier.value,
            "slot": slot.slot,
            "attempt": candidate.attempt,
            "bundle_index": candidate.bundle_index,
            "reason": "gate_failed",
            "stem": candidate.item.stem,
            "difficulty": result.difficulty,
            "target": result.target,
            "breakdown": result.breakdown,
        })
        if not self._pairs:
            self._mark_unfilled(slot, "retries_exhausted")
            self._advance_slot()
        return False

    def build_exam(self) -> Exam:
        items = []
        for idx, payload in enumerate(self.items, start=1):
            final = dict(payload)
            final["id"] = f"q{idx:04d}"
            items.append(final)
        unfilled = [self._missing[key] for key in sorted(
            self._missing, key=lambda k: (k[0], TIER_ORDER.index(k[1])))]
        return Exam(
            subject=self.blueprint.subject,
            blueprint_sha256=self.blueprint.sha256(),
            seed=self.seed,
            requested=self.blueprint.total,
            items=items,
            rejects=self.rejects,
            unfilled=unfilled,
        )


def generate_exam(registry: GraphRegistry, blueprint: ExamBlueprint,
                  generator: Generator, rubric: RubricConfig | None = None, *,
                  seed: int = 0, top_concepts: int = 10, top_m_facts: int = 5,
                  max_retries: int = 5) -> Exam:
    """Fill a blueprint against its subject graph.

    Unfillable cells do not abort the run: the partial exam lists them under
    ``unfilled`` with error code ``insufficient_material``, and every failed
    candidate lands in the rejects log with its difficulty breakdown.
    """
    graph = registry.get(blueprint.subject)
    session = ExamSession(graph, blueprint, generator, rubric, seed=seed,
                          top_concepts=top_concepts, top_m_facts=top_m_facts,
                          max_retries=max_retries)
    while True:
        candidate = session.next_candidate()
        if candidate is None:
            break
        session.record_result(candidate, session.evaluate(candidate))
    return session.build_exam()

"""The generate / evaluate / retry loop and final exam assembly.

:class:`ExamSession` writes the loop once, as a generator that yields one
candidate at a time and takes one evaluation verdict at a time. The direct
library call (:func:`generate_exam`) and the agent pipeline step the same
loop, which is what makes their outputs identical under a deterministic
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain, product, repeat
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring
from operator import itemgetter
from typing import Iterator

from ..assessment import DifficultyTier, EvaluationResult, RubricConfig, build_lexicon
from ..checks import integer
from ..errors import ExamGraphError, InvalidParams, NoConceptsInChapter
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

    def ref(self) -> dict:
        """The fields that name this candidate in its verdict."""
        return {
            "slot": {
                "section": self.slot.section,
                "chapter": self.slot.chapter,
                "tier": self.slot.tier.value,
                "slot": self.slot.slot,
            },
            "attempt": self.attempt,
            "bundle_index": self.bundle_index,
        }

    def to_payload(self) -> dict:
        return {
            **self.ref(),
            "item": self.item.to_payload(),
            "target": self.target,
            "epsilon": self.epsilon,
            "weights": self.weights,
        }


def _evaluated_item_payload(item: QuestionItem, result: EvaluationResult) -> dict:
    payload = item.to_payload()
    payload["ratings"] = {entry["feature"]: entry["rating"]
                          for entry in result.breakdown}
    payload["difficulty"] = result.difficulty
    payload["target"] = result.target
    payload["epsilon"] = result.epsilon
    payload["breakdown"] = result.breakdown
    return payload


_CONTAINERS = (dict, list, tuple)


def pretty_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)``,
    byte for byte, without the pure-Python iterator encoder that ``indent``
    selects in the standard library. Circular references are not detected.
    ``Exam.to_json`` writes exam items from templates and everything else
    through this walker."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


@cache
def _encoder(inner: str):
    """``json.dumps``'s C encoder (arguments by position), one item per line
    at ``inner``: a line break plus indentation, so one encoder per depth."""
    return c_make_encoder(None, JSONEncoder().default, encode_basestring, None,
                          ": ", "," + inner, True, False, True)


def _json_key(key) -> str:
    """A key that is not a string, as the standard library converts it."""
    if isinstance(key, (int, float)) or key is None:
        return _encoder("\n")(key, 0)[0]
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _leaf(value, newline: str) -> str:
    """A dict, list or tuple that holds no dict, list or tuple, one level
    below ``newline``: the C encoder writes it whole, as all of its items
    sit at one indentation."""
    inner = newline + "  "
    text = "".join(_encoder(inner)(value, 0))
    return text if len(text) == 2 else (  # "{}" or "[]"
        text[0] + inner + text[1:-1] + newline + text[-1])


def _write_json(value, out: list[str], newline: str) -> None:
    """Append ``value`` one level below ``newline``, a line break plus the
    enclosing indentation. The C encoder writes each scalar and each leaf."""
    if not isinstance(value, _CONTAINERS):
        out.append(_encoder(newline)(value, 0)[0])
        return
    is_dict = isinstance(value, dict)
    if not any(map(isinstance, value.values() if is_dict else value, repeat(_CONTAINERS))):
        out.append(_leaf(value, newline))
        return
    inner = newline + "  "
    encode = _encoder(inner)
    if is_dict:
        sep = "{" + inner
        for key, child in sorted(value.items()):
            if not isinstance(key, str):
                key = _json_key(key)
            head = sep + encode_basestring(key) + ": "
            if isinstance(child, _CONTAINERS):
                out.append(head)
                _write_json(child, out, inner)
            else:
                out.append(head + encode(child, 0)[0])
            sep = "," + inner
        out.append(newline + "}")
        return
    sep = "[" + inner
    for child in value:
        if isinstance(child, _CONTAINERS):
            out.append(sep)
            _write_json(child, out, inner)
        else:
            out.append(sep + encode(child, 0)[0])
        sep = "," + inner
    out.append(newline + "]")


def _template(sample: dict, newline: str) -> str:
    """``sample`` as the walker writes it one level below ``newline`` (the
    sample holds no line break of its own), each "%r" and "%s" value made a
    slot."""
    return pretty_json(sample).replace("\n", newline).replace('"%r"', "%r").replace('"%s"', "%s")


# An item as ``_evaluated_item_payload`` builds it and a breakdown row as
# ``RubricConfig.evaluate`` builds it, at the depths ``Exam.to_json`` writes
# them. %r takes an int or a finite float, as json.dumps writes them; %s a
# str through encode_basestring, the breakdown's rows or a leaf's text.
_ROW = {**dict.fromkeys(("contribution", "rating", "raw", "weight"), "%r"), "feature": "%s"}
_PROVENANCE = dict.fromkeys(("chapter", "concept", "facts", "subject"), "%s")
_ITEM = {**dict.fromkeys(("answer_index", "difficulty", "epsilon", "target"), "%r"),
         **dict.fromkeys(("bloom", "id", "options", "ratings", "stem", "tier"), "%s"),
         "breakdown": ["%s"], "provenance": _PROVENANCE}
_ROW_TEXT = _template(_ROW, "\n        ")
_ITEM_TEXT = _template(_ITEM, "\n    ")
_row_values, _provenance_values, _item_values = (
    itemgetter(*sorted(fields)) for fields in (_ROW, _PROVENANCE, _ITEM))
# the value types the templates take, in sorted field order
_NUMBERS = (int, float)
_ROW_TYPES = frozenset(product(_NUMBERS, (str,), _NUMBERS, _NUMBERS, _NUMBERS))
_PROVENANCE_TYPES = (str, str, list, str)
_ITEM_TYPES = frozenset(product(_NUMBERS, (str,), (list,), _NUMBERS, _NUMBERS, (str,), (list,),
                                (dict,), (dict,), (str,), _NUMBERS, (str,)))
_INF = float("inf")  # _INF > abs(x) fails for NaN and infinities, holds for any int


def _row_text(row) -> str | None:
    """A breakdown row from ``_ROW_TEXT``, or None when it is not a record
    of exactly those fields and types with finite numbers."""
    if type(row) is dict and row.keys() == _ROW.keys():
        values = _row_values(row)
        contribution, feature, rating, raw, weight = values
        if (tuple(map(type, values)) in _ROW_TYPES and _INF > abs(contribution)
                and _INF > abs(rating) and _INF > abs(raw) and _INF > abs(weight)):
            return _ROW_TEXT % (contribution, encode_basestring(feature), rating, raw, weight)
    return None


def _item_text(item) -> str | None:
    """An exam item from ``_ITEM_TEXT``, or None when it is not a record of
    exactly those fields and types with finite numbers, leaves for options,
    facts and ratings, and a breakdown of one or more such rows."""
    if type(item) is not dict or item.keys() != _ITEM.keys():
        return None
    values = _item_values(item)
    if tuple(map(type, values)) not in _ITEM_TYPES:
        return None
    (answer, bloom, rows, difficulty, epsilon, id_, options, provenance,
     ratings, stem, target, tier) = values
    if provenance.keys() != _PROVENANCE.keys():
        return None
    source = _provenance_values(provenance)
    chapter, concept, facts, subject = source
    row_texts = list(map(_row_text, rows))
    if (tuple(map(type, source)) != _PROVENANCE_TYPES or not rows or None in row_texts
            or any(map(isinstance, chain(options, facts, ratings.values()), repeat(_CONTAINERS)))
            or not (_INF > abs(answer) and _INF > abs(difficulty) and _INF > abs(epsilon)
                    and _INF > abs(target))):
        return None
    return _ITEM_TEXT % (
        answer, encode_basestring(bloom), ",\n        ".join(row_texts), difficulty, epsilon,
        encode_basestring(id_), _leaf(options, "\n      "), encode_basestring(chapter),
        encode_basestring(concept), _leaf(facts, "\n        "), encode_basestring(subject),
        _leaf(ratings, "\n      "), encode_basestring(stem), target, encode_basestring(tier))


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
        """``pretty_json(self.to_dict()) + "\\n"``, byte for byte: each item
        that ``ExamSession`` built from a fixed template, the rest of the
        exam through the walker, into one list joined once."""
        out: list[str] = []
        sep = "{\n  "
        for key, value in sorted(self.to_dict().items()):
            out.append(f'{sep}"{key}": ')
            sep = ",\n  "
            if key != "items" or type(value) is not list or not value:
                _write_json(value, out, "\n  ")
                continue
            for index, item in enumerate(value):
                out.append(",\n    " if index else "[\n    ")
                text = _item_text(item)
                if text is None:
                    _write_json(item, out, "\n    ")
                else:
                    out.append(text)
            out.append("\n  ]")
        out.append("\n}\n")
        return "".join(out)


# bus peers set max_retries, and each slot builds and may grade that many
# (bundle, variant) pairs: one request gets at most 20 times the default
MAX_RETRIES = 100


def _attempt_pairs(start: int, n_bundles: int, max_retries: int) -> list[tuple[int, int]]:
    pairs = [(start % n_bundles, 0)]
    bundle, variant = start, 0
    while len(pairs) < max_retries:
        if n_bundles == 1 or len(pairs) % 2 == 1:
            variant += 1
        else:
            bundle += 1
        pairs.append((bundle % n_bundles, variant))
    return pairs


class ExamSession:
    """One blueprint run: yields one candidate at a time and takes one
    evaluation verdict at a time.

    Retry policy: slots are filled in section -> tier -> slot order. Slot k
    of a cell (section, tier) tries up to ``max_retries`` (bundle, variant)
    pairs, alternately advancing the template variant and the ranked bundle
    from bundle k: (k,0), (k,1), (k+1,1), (k+1,2), ... (bundles wrap around;
    with one bundle only the variant advances), skipping pairs already
    accepted in that cell. A generator failure is logged as a reject and
    moves to the next pair; a candidate that fails the gate is logged as
    ``gate_failed`` and does the same; the first accepted candidate fills
    the slot. A slot whose pairs run out is unfilled
    (``retries_exhausted``), as is every slot of a section without material.

    A cell never asks the generator twice for the same pair, and never
    grades it twice: a pair that an earlier slot of the cell saw rejected
    logs a copy of that reject under its own slot and yields no candidate.
    With a deterministic generator the log is the one regrading would
    write; an LLM generator gets no second try at a pair.
    """

    def __init__(self, graph: KnowledgeGraph, blueprint: ExamBlueprint,
                 generator: Generator, rubric: RubricConfig | None = None, *,
                 seed: int = 0, top_concepts: int = 10, top_m_facts: int = 5,
                 max_retries: int = 5):
        integer(top_concepts, "top_concepts", low=1)
        integer(top_m_facts, "top_m_facts", low=1)
        integer(max_retries, "max_retries", low=1, high=MAX_RETRIES)
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

        # per section: its ranked bundles, and why its slots go unfilled
        # when there are none
        self._material: list[tuple[list[MaterialBundle], str]] = []
        for section in blueprint.sections:
            chapter_id = view.find_node(section.chapter, NodeKind.HIERARCHY)
            bundles, reason = [], f"chapter {section.chapter!r} not found in graph"
            if chapter_id is not None:
                try:
                    bundles = assemble_material(view, chapter_id, top_concepts, top_m_facts)
                    reason = "no material"
                except NoConceptsInChapter as exc:
                    reason = str(exc)
            self._material.append((bundles, reason))

        self.items: list[dict] = []
        self.rejects: list[dict] = []
        self.unfilled: list[dict] = []
        self.pending: Candidate | None = None  # awaiting record_result
        self._loop = self._run()

    def _run(self) -> Iterator[Candidate | bool]:
        """The retry policy: yields each candidate, receives its verdict,
        then yields whether the candidate was accepted."""
        for index, section in enumerate(self.blueprint.sections):
            bundles, reason = self._material[index]
            for tier in TIER_ORDER:
                count = section.tier_counts.get(tier, 0)
                used: set[tuple[int, int]] = set()  # pairs accepted in this cell
                rejected: dict[tuple[int, int], dict] = {}  # pair -> its reject record
                for k in range(count if bundles else 0):
                    for pair in _attempt_pairs(k, len(bundles), self.max_retries):
                        if pair in used:
                            continue
                        if pair in rejected:
                            self.rejects.append({**rejected[pair], "slot": k})
                            continue
                        bundle_index, variant = pair
                        where = {"chapter": section.chapter, "tier": tier.value,
                                 "slot": k, "attempt": variant,
                                 "bundle_index": bundle_index}
                        try:
                            item = generate_candidate(
                                bundles[bundle_index], tier, DEFAULT_TIER_BLOOM[tier],
                                self.generator, variant, subject=self.blueprint.subject)
                        except ExamGraphError as exc:
                            rejected[pair] = {**where, "reason": exc.code, "message": str(exc)}
                            self.rejects.append(rejected[pair])
                            continue
                        result = yield Candidate(
                            slot=SlotRef(index, section.chapter, tier, k),
                            attempt=variant, bundle_index=bundle_index,
                            item=item, target=self.rubric.target(tier),
                            epsilon=self.epsilon, weights=self.weights)
                        if result.passed:
                            self.items.append(_evaluated_item_payload(item, result))
                            used.add(pair)
                            yield True
                            break
                        rejected[pair] = {
                            **where, "reason": "gate_failed", "stem": item.stem,
                            "difficulty": result.difficulty, "target": result.target,
                            "breakdown": result.breakdown,
                        }
                        self.rejects.append(rejected[pair])
                        yield False
                if count > len(used):
                    self.unfilled.append({
                        "chapter": section.chapter,
                        "tier": tier.value,
                        "missing": count - len(used),
                        "error_code": "insufficient_material",
                        "reason": "retries_exhausted" if bundles else reason,
                    })

    def next_candidate(self) -> Candidate | None:
        """The candidate awaiting a verdict, or None when every slot has
        been resolved."""
        if self.pending is None:
            self.pending = next(self._loop, None)
        return self.pending

    def evaluate(self, candidate: Candidate) -> EvaluationResult:
        return self.rubric.evaluate(candidate.item, candidate.target, self.lexicon,
                                    epsilon=candidate.epsilon,
                                    weights=candidate.weights)

    def record_result(self, candidate: Candidate, result: EvaluationResult) -> bool:
        """Feed the verdict on the pending candidate to the loop; returns
        True when the item was accepted."""
        if candidate is not self.pending:
            raise InvalidParams("record_result expects the pending candidate")
        self.pending = None
        return self._loop.send(result)

    def build_exam(self) -> Exam:
        items = []
        for idx, payload in enumerate(self.items, start=1):
            final = dict(payload)
            final["id"] = f"q{idx:04d}"
            items.append(final)
        return Exam(
            subject=self.blueprint.subject,
            blueprint_sha256=self.blueprint.sha256(),
            seed=self.seed,
            requested=self.blueprint.total,
            items=items,
            rejects=self.rejects,
            unfilled=self.unfilled,
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
    for candidate in iter(session.next_candidate, None):
        session.record_result(candidate, session.evaluate(candidate))
    return session.build_exam()

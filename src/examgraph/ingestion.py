"""Document ingestion: transcription, segmentation, triple/concept extraction
and assembly into the subject graph.

The built-in :class:`RuleExtractor` is a deterministic offline baseline
(sentence-level subject-verb-object matching plus a hypernym lexicon);
:class:`LLMExtractor` delegates to a chat-completion backend and enforces a
strict JSON reply contract.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Callable, Protocol

from .checks import array, integer, json_file, json_value, obj, strings
from .errors import (
    EmptyLabel,
    ExtractorFailure,
    InvalidExtraction,
    InvalidParams,
    SubjectCollision,
    UnsupportedFormat,
    error_report,
)
from .kg import EdgeKind, GraphRegistry, KnowledgeGraph, NodeKind
from .textutils import naive_svo, normalize_label, split_sentences

PLAIN = "plain"
MARKDOWN = "markdown"


@dataclass
class SourceDocument:
    doc_id: str
    subject: str
    chapter_path: list[str]
    body: str
    format: str = PLAIN

    def __post_init__(self):
        if not self.body:
            raise InvalidParams("document body must be non-empty")
        if not self.chapter_path:
            raise InvalidParams("chapter_path must be non-empty")


@dataclass
class TextSegment:
    doc_id: str
    index: int
    text: str


@dataclass
class ExtractionResult:
    triples: list[tuple[str, str, str]] = field(default_factory=list)
    concept_map: dict[str, list[str]] = field(default_factory=dict)
    # surface label -> normalized form, filled in by validate_extraction
    labels: dict[str, str] = field(default_factory=dict, compare=False)


class Extractor(Protocol):
    def extract(self, text: str) -> ExtractionResult: ...


# --- transcription ---

_MD_PATTERNS = [
    (re.compile(r"^```.*$", re.MULTILINE), ""),              # code fences
    (re.compile(r"!\[([^\]]*)\]\([^)]*\)"), r"\1"),          # images -> alt
    (re.compile(r"\[([^\]]+)\]\([^)]*\)"), r"\1"),           # links -> text
    (re.compile(r"^#{1,6}\s*", re.MULTILINE), ""),           # headings
    (re.compile(r"^\s*[-*+]\s+", re.MULTILINE), ""),         # bullet markers
    (re.compile(r"^\s*\d+[.)]\s+", re.MULTILINE), ""),       # numbered lists
    (re.compile(r"^>\s?", re.MULTILINE), ""),                # blockquotes
    (re.compile(r"\*\*([^*]+)\*\*"), r"\1"),
    (re.compile(r"__([^_]+)__"), r"\1"),
    (re.compile(r"\*([^*]+)\*"), r"\1"),
    (re.compile(r"\b_([^_]+)_\b"), r"\1"),
    (re.compile(r"`([^`]+)`"), r"\1"),
    (re.compile(r"^\s*([-*_]\s*){3,}$", re.MULTILINE), ""),  # horizontal rules
]


def transcribe(document: SourceDocument) -> str:
    """Text form of a document. Plain text passes through unchanged;
    markdown is reduced to its visible text with headings kept in reading
    order. Anything else is the out-of-scope transcription seam."""
    if document.format == PLAIN:
        return document.body
    if document.format == MARKDOWN:
        text = document.body
        for pattern, repl in _MD_PATTERNS:
            text = pattern.sub(repl, text)
        lines = [line.rstrip() for line in text.splitlines()]
        text = "\n".join(lines)
        return re.sub(r"\n{3,}", "\n\n", text).strip("\n")
    raise UnsupportedFormat(f"no transcription adapter for format {document.format!r}")


# --- segmentation ---

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def segment_text(text: str, max_chars: int = 2000, doc_id: str = "") -> list[TextSegment]:
    """Split on blank-line paragraph boundaries, greedily merging adjacent
    paragraphs up to ``max_chars``; oversized paragraphs split at sentence
    boundaries."""
    if max_chars < 200:
        raise InvalidParams(f"max_chars must be >= 200, got {max_chars}")
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]
    pieces: list[str] = []
    for para in paragraphs:
        if len(para) <= max_chars:
            pieces.append(para)
            continue
        current = ""
        for sentence in _SENTENCE_BOUNDARY.split(para):
            while len(sentence) > max_chars:  # pathological single sentence
                pieces.append(sentence[:max_chars])
                sentence = sentence[max_chars:]
            if not current:
                current = sentence
            elif len(current) + 1 + len(sentence) <= max_chars:
                current = f"{current} {sentence}"
            else:
                pieces.append(current)
                current = sentence
        if current:
            pieces.append(current)

    segments: list[TextSegment] = []
    buffer = ""
    for piece in pieces:
        if not buffer:
            buffer = piece
        elif len(buffer) + 2 + len(piece) <= max_chars:
            buffer = f"{buffer}\n\n{piece}"
        else:
            segments.append(TextSegment(doc_id, len(segments), buffer))
            buffer = piece
    if buffer:
        segments.append(TextSegment(doc_id, len(segments), buffer))
    return segments


# --- extraction ---

def validate_extraction(result: ExtractionResult) -> ExtractionResult:
    """The one check of a segment's extraction, whichever extractor or peer
    made it; its output is never silently repaired. Every head, relation,
    tail, concept-map entity and concept must be a string that is non-empty
    once normalized, and every entity a head or tail. Returns the result
    with ``labels``, each distinct label normalized once: the forms
    ``fold_segment`` writes unchecked."""
    triples = array(result.triples, "triples", InvalidExtraction)
    concept_map = obj(result.concept_map, "concept map", InvalidExtraction)
    for triple in triples:
        if not (isinstance(triple, tuple) and len(triple) == 3
                and all(isinstance(x, str) for x in triple)):
            raise InvalidExtraction(f"bad triple {triple!r}")
    for entity, concepts in concept_map.items():
        if not (isinstance(entity, str) and isinstance(concepts, list) and concepts
                and all(isinstance(c, str) for c in concepts)):
            raise InvalidExtraction(f"bad concept mapping {entity!r}: {concepts!r}")
    texts = dict.fromkeys(x for h, _, t in triples for x in (h, t))
    labels = {x: normalize_label(x) for x in dict.fromkeys(chain(
        texts, (r for _, r, _ in triples), concept_map, *concept_map.values()))}
    for label, norm in labels.items():
        if not norm:
            raise InvalidExtraction(f"label {label!r} is empty after normalization")
    entities = {labels[x] for x in texts}
    for entity in concept_map:
        if labels[entity] not in entities:
            raise InvalidExtraction(
                f"concept mapping for {entity!r} has no matching triple entity")
    return ExtractionResult(triples, concept_map, labels)


def load_hypernym_lexicon(path_or_data) -> dict[str, list[str]]:
    """Hypernym lexicon file: JSON object of normalized entity label ->
    list of concept labels."""
    data = path_or_data if isinstance(path_or_data, dict) else json_file(
        path_or_data, "hypernym lexicon", InvalidExtraction)
    return {normalize_label(entity): list(strings(concepts, f"lexicon entry {entity!r}",
                                                  InvalidExtraction))
            for entity, concepts in obj(data, "hypernym lexicon", InvalidExtraction).items()}


class RuleExtractor:
    """Deterministic sentence-level extractor.

    One triple per sentence via the naive subject-verb-object heuristic;
    concept mappings come from the configured hypernym lexicon. The result
    is not validated here: ``extract_segment`` validates every extractor's
    result once.
    """

    def __init__(self, hypernyms: dict[str, list[str]] | None = None):
        self.hypernyms = {normalize_label(k): v for k, v in (hypernyms or {}).items()}

    def extract(self, text: str) -> ExtractionResult:
        triples: list[tuple[str, str, str]] = []
        for sentence in split_sentences(text):
            match = naive_svo(sentence)
            if match:
                triples.append(match)
        concept_map: dict[str, list[str]] = {}
        for entity in dict.fromkeys(x for h, _, t in triples for x in (h, t)):
            norm = normalize_label(entity)
            if norm in self.hypernyms and norm not in concept_map:
                concept_map[norm] = list(self.hypernyms[norm])
        return ExtractionResult(triples, concept_map)


EXTRACTION_SYSTEM_PROMPT = (
    "You turn course text into knowledge-graph data. Reply with exactly one "
    'JSON object of the form {"triples": [[head, relation, tail], ...], '
    '"concepts": {entity: [concept, ...]}} and nothing else. Every concepts '
    "key must appear as a head or tail in triples."
)


class LLMExtractor:
    """Extractor backed by a chat-completion callable.

    Sends one segment per request; a reply that is not the required JSON
    object shape is rejected as InvalidExtraction, and ``extract_segment``
    validates the values.
    """

    def __init__(self, complete_fn: Callable[[str, str], str]):
        self._complete = complete_fn

    def extract(self, text: str) -> ExtractionResult:
        try:
            reply = self._complete(EXTRACTION_SYSTEM_PROMPT, text)
        except Exception as exc:
            raise ExtractorFailure(f"extraction backend failed: {exc}") from exc
        return parse_extraction_reply(reply)


def parse_extraction_reply(reply: str) -> ExtractionResult:
    data = obj(json_value(reply, "reply", InvalidExtraction), "reply", InvalidExtraction)
    if set(data) != {"triples", "concepts"}:
        raise InvalidExtraction('reply must be {"triples": ..., "concepts": ...}')
    return _extraction_from_json(data["triples"], data["concepts"])


def _extraction_from_json(triples, concepts) -> ExtractionResult:
    """An extraction from its JSON shape; ``validate_extraction`` checks the values."""
    return ExtractionResult([tuple(array(t, "triple", InvalidExtraction, size=3))
                             for t in array(triples, "triples", InvalidExtraction)], concepts)


def extract_segment(segment: TextSegment, extractor: Extractor) -> ExtractionResult:
    """Run one segment through an extractor and validate the result.
    Backend exceptions surface as ExtractorFailure; invalid output as
    InvalidExtraction."""
    try:
        result = extractor.extract(segment.text)
    except (ExtractorFailure, InvalidExtraction):
        raise
    except Exception as exc:
        raise ExtractorFailure(f"extractor raised: {exc}") from exc
    return validate_extraction(result)


def extract_document(document: SourceDocument, extractor: Extractor,
                     max_chars: int = 2000
                     ) -> tuple[int, list[tuple[int, ExtractionResult]], list[dict]]:
    """Transcribe, segment and extract one document.

    Returns the segment count, ``(segment index, result)`` for every
    segment that extracted cleanly, and one failure entry per segment that
    did not; a failing segment never stops the others. An unsupported
    format raises before any segment is extracted.
    """
    segments = segment_text(transcribe(document), max_chars=max_chars,
                            doc_id=document.doc_id)
    extractions: list[tuple[int, ExtractionResult]] = []
    failures: list[dict] = []
    for segment in segments:
        try:
            extractions.append((segment.index, extract_segment(segment, extractor)))
        except Exception as exc:  # keep going; long documents fail per segment
            failures.append(error_report(exc, segment=segment.index))
    return len(segments), extractions, failures


# --- assembly ---

@dataclass
class IngestReport:
    doc_id: str
    subject: str
    segments: int = 0
    triples_added: int = 0
    concepts_added: int = 0
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def build_hierarchy(graph: KnowledgeGraph, chapter_path: list[str]) -> str:
    """Upsert the chapter chain, adding child->parent part_of edges;
    returns the leaf chapter node id."""
    previous: str | None = None
    node_id = ""
    for label in chapter_path:
        node_id = graph.upsert_entity(label, NodeKind.HIERARCHY)
        if previous is not None:
            graph.assert_link(EdgeKind.PART_OF, node_id, previous)
        previous = node_id
    return node_id


def apply_extraction(graph: KnowledgeGraph, result: ExtractionResult,
                     leaf_chapter: str, source_ref: tuple[str, int],
                     report: IngestReport) -> None:
    """Fold one segment's validated extraction into the graph (fact edges
    for triples, then concept nodes with is_a and include_in links) and
    count what it added in the report."""
    triples, concepts = graph.fold_segment(result.triples, result.concept_map,
                                           result.labels, leaf_chapter, source_ref)
    report.triples_added += triples
    report.concepts_added += concepts


def _check_collision(registry: GraphRegistry, subject: str, append: bool) -> None:
    """Re-ingesting into a populated graph requires the explicit append flag
    (isolation safety by default)."""
    if not append and registry.has(subject) and len(registry.get(subject)) > 0:
        raise SubjectCollision(
            f"subject {subject!r} already has content; pass append=True")


def _assemble(registry: GraphRegistry, subject: str, doc_id: str,
              chapter_path: list[str],
              extractions: list[tuple[int, ExtractionResult]], *,
              append: bool, segments: int, failures: list[dict]) -> IngestReport:
    """Fold a document's segment results into its subject graph, created on
    first ingest. A chapter label that is empty after normalization raises
    EmptyLabel before the registry is touched. A segment that fails to
    assemble is listed in the report's failures after the extraction
    failures."""
    _check_collision(registry, subject, append)
    for label in chapter_path:
        if not normalize_label(label):
            raise EmptyLabel(f"chapter label {label!r} is empty after normalization")
    graph = registry.get_or_create(subject)
    report = IngestReport(doc_id=doc_id, subject=subject, segments=segments,
                          failures=failures)
    leaf = build_hierarchy(graph, chapter_path)
    for index, result in extractions:
        try:
            apply_extraction(graph, result, leaf, (doc_id, index), report)
        except Exception as exc:
            report.failures.append(error_report(exc, segment=index))
    return report


def apply_extractions(registry: GraphRegistry, subject: str, doc_id: str,
                      chapter_path: list[str], entries: list[dict], *,
                      append: bool = False, segments: int = 0,
                      failures: list[dict] | None = None) -> IngestReport:
    """Assemble pre-extracted segment entries (``{"segment", "triples",
    "concepts"}`` dicts) into the subject graph; the agent-pipeline
    counterpart of ingest_document. Entries arrive from outside the
    process, so each is validated first; an invalid one becomes a failure."""
    failures = list(failures or [])
    extractions = []
    for entry in entries:
        index = obj(entry, "extraction entry").get("segment", 0)
        try:
            integer(index, "extraction segment", low=0)
            extractions.append((index, validate_extraction(_extraction_from_json(
                entry.get("triples", []), entry.get("concepts", {})))))
        except Exception as exc:
            failures.append(error_report(exc, segment=index))
    return _assemble(registry, subject, doc_id, chapter_path, extractions,
                     append=append, segments=segments, failures=failures)


def ingest_document(registry: GraphRegistry, document: SourceDocument,
                    extractor: Extractor, *, append: bool = False,
                    max_chars: int = 2000) -> IngestReport:
    """Run the full pipeline for one document and assemble its subject graph.

    A fresh subject graph is created on first ingest; re-ingesting into a
    populated graph requires ``append=True``, checked before any segment is
    extracted. A document that cannot be transcribed leaves the registry
    untouched. Extraction failures are isolated per segment and listed in
    the report.
    """
    _check_collision(registry, document.subject, append)
    segments, extractions, failures = extract_document(document, extractor, max_chars)
    return _assemble(registry, document.subject, document.doc_id,
                     document.chapter_path, extractions, append=append,
                     segments=segments, failures=failures)

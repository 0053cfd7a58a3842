import json
import random
from collections import Counter

import pytest

from examgraph import ingestion as ingestion_module
from examgraph.errors import (
    EmptyLabel,
    ExtractorFailure,
    InvalidExtraction,
    SubjectCollision,
    UnsupportedFormat,
)
from examgraph.ingestion import (
    ExtractionResult,
    IngestReport,
    LLMExtractor,
    RuleExtractor,
    SourceDocument,
    TextSegment,
    apply_extraction,
    apply_extractions,
    build_hierarchy,
    extract_segment,
    ingest_document,
    load_hypernym_lexicon,
    segment_text,
    transcribe,
    validate_extraction,
)
from examgraph.kg import (
    EdgeKind,
    GraphRegistry,
    KnowledgeGraph,
    NodeKind,
    export_graph,
    import_graph,
)
from examgraph.kg import graph as graph_module
from examgraph.textutils import normalize_label


def doc(body, fmt="plain", chapters=None, subject="s", doc_id="d1"):
    return SourceDocument(doc_id=doc_id, subject=subject,
                          chapter_path=chapters or ["Ch 1"], body=body, format=fmt)


# --- transcription ---

def test_transcribe_plain_is_identity():
    assert transcribe(doc("abc")) == "abc"


def test_transcribe_markdown_strips_markup():
    assert transcribe(doc("# Title\n*hi*", fmt="markdown")) == "Title\nhi"


def test_transcribe_markdown_links_lists_code():
    body = "## Heading\n- item one\n1. item two\n[text](http://x) and `code`\n> quoted"
    assert transcribe(doc(body, fmt="markdown")) == \
        "Heading\nitem one\nitem two\ntext and code\nquoted"


def test_transcribe_unsupported_format():
    with pytest.raises(UnsupportedFormat):
        transcribe(doc("x", fmt="pdf"))


def test_document_invariants():
    with pytest.raises(ValueError):
        doc("")
    with pytest.raises(ValueError):
        SourceDocument(doc_id="d", subject="s", chapter_path=[], body="x")


# --- segmentation ---

def test_segment_merges_short_paragraphs():
    text = "Alpha beta.\n\nGamma delta."
    segments = segment_text(text, max_chars=1000, doc_id="d")
    assert len(segments) == 1
    assert segments[0].index == 0
    assert "Alpha beta." in segments[0].text and "Gamma delta." in segments[0].text


def test_segment_splits_long_paragraph_at_sentences():
    sentence = "S" + "x" * 46 + "."  # 48 chars; 20 fit in 1000 exactly
    text = " ".join([sentence] * 60)  # one 2939-char paragraph
    segments = segment_text(text, max_chars=1000, doc_id="d")
    assert len(segments) == 3
    for segment in segments:
        assert len(segment.text) <= 1000
        assert segment.text.endswith(".")  # sentence boundary, not mid-word
    assert [s.index for s in segments] == [0, 1, 2]


def test_segment_empty_text():
    assert segment_text("", max_chars=500) == []


def test_segment_rejects_tiny_max_chars():
    with pytest.raises(ValueError):
        segment_text("x", max_chars=100)


def test_segments_preserve_order():
    paragraphs = [f"Paragraph number {i} talks about topic {i}." for i in range(30)]
    text = "\n\n".join(paragraphs)
    segments = segment_text(text, max_chars=200, doc_id="d")
    joined = "\n\n".join(s.text for s in segments)
    for i in range(29):
        assert joined.index(f"topic {i}.") < joined.index(f"topic {i + 1}.")


# --- extraction ---

def test_rule_extractor_svo_example():
    result = RuleExtractor().extract("Intentional pollution harms the ecosystem.")
    assert result.triples == [("intentional pollution", "harms", "ecosystem")]


def test_rule_extractor_auxiliary_verb():
    result = RuleExtractor().extract("Intentional pollution will harm the ecosystem.")
    assert result.triples == [("intentional pollution", "harm", "ecosystem")]


def test_rule_extractor_no_match():
    result = RuleExtractor().extract("Seventeen. Forty two.")
    assert result.triples == []
    assert result.concept_map == {}


def test_rule_extractor_concepts_from_lexicon():
    extractor = RuleExtractor({"oak": ["tree"]})
    result = extractor.extract("The oak supports the fern.")
    assert result.triples == [("oak", "supports", "fern")]
    assert result.concept_map == {"oak": ["tree"]}


def test_validate_extraction_rejects_unseen_concept_entity():
    result = ExtractionResult(triples=[("a", "r", "b")],
                              concept_map={"ghost": ["thing"]})
    with pytest.raises(InvalidExtraction):
        validate_extraction(result)


def test_extract_segment_wraps_backend_errors():
    class Boom:
        def extract(self, text):
            raise RuntimeError("backend down")

    with pytest.raises(ExtractorFailure):
        extract_segment(TextSegment("d", 0, "text"), Boom())


def test_llm_extractor_parses_contract_reply():
    def fake_complete(system, user):
        assert '"triples"' in system
        return json.dumps({"triples": [["a", "r", "b"]], "concepts": {"a": ["c"]}})

    result = LLMExtractor(fake_complete).extract("whatever")
    assert result.triples == [("a", "r", "b")]
    assert result.concept_map == {"a": ["c"]}


@pytest.mark.parametrize("reply", [
    "not json",
    '{"triples": []}',
    '{"triples": {}, "concepts": {}}',
    '{"triples": [["a","b"]], "concepts": {}}',
    '{"triples": [["a","r","b"]], "concepts": {}, "extra": 1}',
    '{"triples": [["a","r","b"]], "concepts": {"a": "tree"}}',  # not a list
    '{"triples": [["a","r","b"]], "concepts": {"a": []}}',
])
def test_llm_extractor_rejects_bad_shapes(reply):
    with pytest.raises(InvalidExtraction):
        extract_segment(TextSegment("d", 0, "text"), LLMExtractor(lambda s, u: reply))


def test_llm_extractor_wraps_transport_error():
    def failing(system, user):
        raise ConnectionError("no network")

    with pytest.raises(ExtractorFailure):
        LLMExtractor(failing).extract("text")


def test_load_hypernym_lexicon_normalizes_keys(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({" Oak ": ["tree"]}))
    assert load_hypernym_lexicon(path) == {"oak": ["tree"]}
    path.write_text(json.dumps([["oak", "tree"]]))
    for data in ({"oak": "tree"}, {"oak": [1]}, path):
        with pytest.raises(InvalidExtraction):
            load_hypernym_lexicon(data)


# --- ingest assembly ---

def test_ingest_hand_counted_assembly():
    registry = GraphRegistry()
    extractor = RuleExtractor({"intentional pollution": ["hazard"]})
    report = ingest_document(
        registry,
        doc("Intentional pollution harms the ecosystem.", subject="env"),
        extractor,
    )
    graph = registry.get("env")
    # 2 text entities + 1 concept + 1 hierarchy node
    assert len(graph) == 4
    assert len(graph.nodes(NodeKind.TEXT)) == 2
    assert len(graph.nodes(NodeKind.CONCEPT)) == 1
    assert len(graph.nodes(NodeKind.HIERARCHY)) == 1
    # 1 fact + 1 is_a + 1 include_in, no part_of for a single-element path
    assert len(graph.edges(EdgeKind.FACT)) == 1
    assert len(graph.edges(EdgeKind.IS_A)) == 1
    assert len(graph.edges(EdgeKind.INCLUDE_IN)) == 1
    assert len(graph.edges(EdgeKind.PART_OF)) == 0
    assert report.segments == 1
    assert report.triples_added == 1
    assert report.concepts_added == 1
    assert report.failures == []


def test_ingest_twice_with_append_is_idempotent():
    registry = GraphRegistry()
    extractor = RuleExtractor({"oak": ["tree"]})
    document = doc("The oak supports the fern. The fern needs the oak.", subject="env")
    ingest_document(registry, document, extractor)
    before = export_graph(registry.get("env"))
    report = ingest_document(registry, document, extractor, append=True)
    assert export_graph(registry.get("env")) == before
    assert report.triples_added == 0
    assert report.concepts_added == 0


def test_reingest_without_append_rejected():
    class MustNotRun:
        def extract(self, text):
            raise AssertionError("extracted before the collision check")

    registry = GraphRegistry()
    document = doc("The oak supports the fern.", subject="env")
    ingest_document(registry, document, RuleExtractor())
    with pytest.raises(SubjectCollision):
        ingest_document(registry, document, MustNotRun())


def test_failed_transcription_leaves_no_subject():
    registry = GraphRegistry()
    with pytest.raises(UnsupportedFormat):
        ingest_document(registry, doc("The oak supports the fern.", fmt="pdf",
                                      subject="ghost"), RuleExtractor())
    assert registry.subjects() == []


def test_chapter_chain_part_of_built_once():
    registry = GraphRegistry()
    document = doc("The oak supports the fern.", subject="env",
                   chapters=["Ch 1", "1.1"])
    ingest_document(registry, document, RuleExtractor())
    graph = registry.get("env")
    part_of = graph.edges(EdgeKind.PART_OF)
    assert len(part_of) == 1
    assert graph.node(part_of[0].src).label == "1.1"
    assert graph.node(part_of[0].dst).label == "ch 1"


def test_hierarchy_is_a_forest():
    registry = GraphRegistry()
    for i, chapters in enumerate([["Ch 1", "1.1"], ["Ch 1", "1.2"], ["Ch 2"]]):
        ingest_document(
            registry,
            doc("The oak supports the fern.", subject="env", chapters=chapters,
                doc_id=f"d{i}"),
            RuleExtractor(), append=(i > 0))
    graph = registry.get("env")
    parents = {}
    for edge in graph.edges(EdgeKind.PART_OF):
        assert edge.src not in parents, "hierarchy node with two parents"
        parents[edge.src] = edge.dst
    for start in parents:  # no cycles
        seen = set()
        node = start
        while node in parents:
            assert node not in seen
            seen.add(node)
            node = parents[node]


def test_provenance_on_created_text_entities():
    registry = GraphRegistry()
    ingest_document(registry, doc("The oak supports the fern.", subject="env"),
                    RuleExtractor())
    graph = registry.get("env")
    for node in graph.nodes(NodeKind.TEXT):
        assert node.source_refs, f"{node.label} lacks provenance"
        assert node.source_refs[0][0] == "d1"


def test_per_segment_failure_isolation():
    class FlakyExtractor:
        def __init__(self):
            self.calls = 0

        def extract(self, text):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("segment exploded")
            return RuleExtractor().extract(text)

    body = ("The oak supports the fern. " * 10 + "\n\n") * 3
    registry = GraphRegistry()
    report = ingest_document(registry, doc(body, subject="env"),
                             FlakyExtractor(), max_chars=300)
    assert report.segments >= 3
    assert len(report.failures) == 1
    assert report.failures[0]["segment"] == 1
    assert report.failures[0]["error_code"] == "extractor_failure"
    assert report.triples_added >= 1  # other segments landed


def test_conservation_triples_added_equals_new_fact_edges():
    registry = GraphRegistry()
    body = ("The oak supports the fern. The pine shades nothing useful here. "
            "The oak supports the fern. The fern needs the moss.")
    report = ingest_document(registry, doc(body, subject="env"), RuleExtractor())
    graph = registry.get("env")
    assert report.triples_added == len(graph.edges(EdgeKind.FACT))


# --- a failed segment or chapter path writes nothing ---

def _populated(subject="s"):
    registry = GraphRegistry()
    ingest_document(registry, doc("The oak supports the fern.", subject=subject),
                    RuleExtractor({"oak": ["tree"]}))
    return registry


# one good triple beside one field that normalizes to nothing; then a
# concept-map entity that no triple names, and labels that are not strings
EMPTY_AFTER_NORMALIZATION = [
    {"triples": [["oak", "supports", "fern"], ["moss", "!!!", "rock"]], "concepts": {}},
    {"triples": [["oak", "supports", "fern"], ["...", "covers", "rock"]], "concepts": {}},
    {"triples": [["oak", "supports", "fern"], ["moss", "covers", " - "]], "concepts": {}},
    {"triples": [["oak", "supports", "fern"]], "concepts": {"oak": ["plant", "?!"]}},
    {"triples": [["oak", "supports", "fern"]], "concepts": {"oak": ["tree", "?"]}},
    {"triples": [["oak", "supports", "fern"]], "concepts": {"moss": ["plant"]}},
    {"triples": [["oak", "supports", "fern"]], "concepts": {1: ["tree"]}},
    {"triples": [["oak", "supports", "fern"]], "concepts": {"oak": ["tree", 1]}},
    {"triples": [["oak", "supports", "fern"], ["moss", 1, "rock"]], "concepts": {}},
]


@pytest.mark.parametrize("entry", EMPTY_AFTER_NORMALIZATION)
def test_validate_extraction_rejects_labels_empty_after_normalization(entry):
    result = ExtractionResult([tuple(t) for t in entry["triples"]], entry["concepts"])
    with pytest.raises(InvalidExtraction):
        validate_extraction(result)


def test_failed_segment_on_new_subject_adds_no_triple():
    registry = GraphRegistry()
    report = apply_extractions(registry, "s", "d1", ["Ch 1"], [
        {"segment": 0, "triples": [["oak", "supports", "fern"], ["moss", "!!!", "rock"]],
         "concepts": {}}])
    assert [f["error_code"] for f in report.failures] == ["invalid_extraction"]
    assert report.triples_added == 0
    graph = registry.get("s")
    assert graph.edge_count == 0
    assert [n.label for n in graph.nodes()] == ["ch 1"]


# shapes a peer can get wrong: read at face value, each was a valid
# extraction of one-letter labels
WRONGLY_SHAPED = [
    {"triples": ["oak"], "concepts": {}},
    {"triples": {"oak": 1}, "concepts": {}},
    {"triples": [["oak", "supports", "fern"]], "concepts": {"oak": "tree"}},
]


@pytest.mark.parametrize("entry", EMPTY_AFTER_NORMALIZATION + WRONGLY_SHAPED)
def test_failed_segment_writes_nothing_through_apply_extractions(entry):
    registry = _populated()
    graph = registry.get("s")
    revision, snapshot = graph.revision, export_graph(graph)
    report = apply_extractions(registry, "s", "d2", ["Ch 1"],
                               [dict(entry, segment=0)], append=True)
    assert report.failures[0]["segment"] == 0
    assert report.failures[0]["error_code"] == "invalid_extraction"
    assert (report.triples_added, report.concepts_added) == (0, 0)
    assert graph.revision == revision
    assert export_graph(graph) == snapshot


@pytest.mark.parametrize("entry", EMPTY_AFTER_NORMALIZATION)
def test_failed_segment_writes_nothing_through_ingest_document(entry):
    class Stub:
        def extract(self, text):
            return ExtractionResult([tuple(t) for t in entry["triples"]],
                                    entry["concepts"])

    registry = _populated()
    graph = registry.get("s")
    revision = graph.revision
    report = ingest_document(registry, doc("Anything at all.", doc_id="d2"), Stub(),
                             append=True)
    assert [f["error_code"] for f in report.failures] == ["invalid_extraction"]
    assert report.triples_added == 0
    assert graph.revision == revision


def test_bad_chapter_path_leaves_registry_untouched():
    registry = GraphRegistry()
    document = SourceDocument("d1", "s", ["Ch 1", "!!!"], "Oak supports fern.")
    with pytest.raises(EmptyLabel) as exc_info:
        ingest_document(registry, document, RuleExtractor())
    assert exc_info.value.code == "empty_label"
    assert registry.subjects() == []
    # a retry with a good path needs no append flag
    report = ingest_document(registry, doc("Oak supports fern.", chapters=["Ch 1", "1.1"]),
                             RuleExtractor())
    assert report.triples_added == 1


def test_bad_chapter_path_leaves_registry_untouched_through_apply_extractions():
    entries = [{"segment": 0, "triples": [["oak", "supports", "fern"]], "concepts": {}}]
    registry = GraphRegistry()
    with pytest.raises(EmptyLabel):
        apply_extractions(registry, "s", "d1", ["Ch 1", "!!!"], entries)
    assert registry.subjects() == []

    registry = _populated()
    graph = registry.get("s")
    revision = graph.revision
    with pytest.raises(EmptyLabel):
        apply_extractions(registry, "s", "d2", ["Ch 2", " ? "], entries, append=True)
    assert graph.revision == revision


# --- one locked fold per segment builds what one public call per write did ---

def _apply_per_call(graph, result, leaf_chapter, source_ref, report):
    """The fold as separate public writes: one assert_fact_triple per triple,
    then one upsert_entity and two assert_link per concept."""
    for h, r, t in result.triples:
        before = graph.edge_count
        graph.assert_fact_triple(h, r, t, source_ref)
        report.triples_added += graph.edge_count - before
    for entity, concepts in result.concept_map.items():
        entity_id = graph.find_node(entity, NodeKind.TEXT)
        for concept in concepts:
            report.concepts_added += graph.find_node(concept, NodeKind.CONCEPT) is None
            concept_id = graph.upsert_entity(concept, NodeKind.CONCEPT)
            graph.assert_link(EdgeKind.IS_A, entity_id, concept_id)
            graph.assert_link(EdgeKind.INCLUDE_IN, concept_id, leaf_chapter)


def _surface(rng, word):
    return rng.choice([word, word.capitalize(), f" {word}.", word.upper(), f"{word}!"])


def _seeded_documents(seed):
    """Documents of segments whose labels repeat in several surface forms,
    whose triples repeat, and whose concepts recur across segments."""
    rng = random.Random(seed)
    words = ["hugite", "moss", "fern", "oak", "lichen", "spore", "résine"]
    relations = ["feeds", "shades", "needs"]
    concepts = ["mineral", "plant", "tree", "fungus"]
    documents = []
    for d in range(3):
        segments = []
        for _ in range(rng.randint(1, 4)):
            triples = [(_surface(rng, rng.choice(words)), _surface(rng, rng.choice(relations)),
                        _surface(rng, rng.choice(words))) for _ in range(rng.randint(1, 6))]
            triples += rng.sample(triples, rng.randint(0, len(triples)))
            entities = [x for h, _, t in triples for x in (h, t)]
            concept_map = {_surface(rng, normalize_label(e)): [
                _surface(rng, c) for c in rng.choices(concepts, k=rng.randint(1, 3))]
                for e in rng.sample(entities, rng.randint(0, min(3, len(entities))))}
            segments.append(ExtractionResult(triples, concept_map))
        documents.append((f"d{d}", ["Ch 1", f"1.{d % 2}"], segments))
    return documents


def test_ingest_normalizes_each_distinct_label_once_per_segment(monkeypatch):
    """On the write path, validation and the fold, each distinct label of a
    segment is normalized once; each chapter label is checked, then
    upserted."""
    calls = Counter()

    def counting(label):
        calls[label] += 1
        return normalize_label(label)

    for module in (ingestion_module, graph_module):
        monkeypatch.setattr(module, "normalize_label", counting)
    registry, expected = GraphRegistry(), Counter()
    for i, (doc_id, chapter_path, segments) in enumerate(_seeded_documents(3)):
        # paragraphs too long to share a 200-character segment
        by_text = {f"Paragraph {j}." + " Filler text." * 11: result
                   for j, result in enumerate(segments)}

        class Stub:
            def extract(self, text):
                return by_text[text]

        document = SourceDocument(doc_id, "s", chapter_path, "\n\n".join(by_text))
        report = ingest_document(registry, document, Stub(), append=i > 0, max_chars=200)
        assert (report.segments, report.failures) == (len(segments), [])
        for result in segments:
            expected.update({x for t in result.triples for x in t} | set(result.concept_map)
                            | {c for cs in result.concept_map.values() for c in cs})
        expected.update(chapter_path * 2)
    assert len(expected) > 20 and max(expected.values()) > 2
    assert set(calls) == set(expected)
    assert calls <= expected, calls - expected


@pytest.mark.parametrize("seed", range(8))
def test_fold_builds_the_graph_the_per_call_writes_build(seed):
    graphs, reports = [], []
    for apply in (apply_extraction, _apply_per_call):
        graph = KnowledgeGraph("s")
        report = IngestReport("d", "s")
        for doc_id, chapter_path, segments in _seeded_documents(seed):
            leaf = build_hierarchy(graph, chapter_path)
            for index, result in enumerate(segments):
                apply(graph, validate_extraction(result), leaf, (doc_id, index), report)
        graphs.append(graph)
        reports.append(report.to_dict())
    fold, per_call = graphs
    assert [tuple(n) for n in fold.nodes()] == [tuple(n) for n in per_call.nodes()]
    assert fold.edges() == per_call.edges()
    assert fold.revision == per_call.revision
    assert reports[0] == reports[1]
    assert reports[0]["concepts_added"] > 0
    assert max(len(n.raw_labels) for n in fold.nodes()) >= 3
    assert export_graph(fold) == export_graph(per_call)


@pytest.mark.parametrize("segment", ["x", 1.5, True, [1], -1, None])
def test_entry_with_a_non_integer_segment_fails_alone(segment):
    entries = [{"segment": 0, "triples": [["oak", "supports", "fern"]], "concepts": {}},
               {"segment": segment, "triples": [["moss", "covers", "rock"]], "concepts": {}},
               {"segment": 2, "triples": [["fern", "needs", "moss"]], "concepts": {}}]
    registry = GraphRegistry()
    report = apply_extractions(registry, "s", "d1", ["Ch 1"], entries)
    assert [(f["segment"], f["error_code"]) for f in report.failures] \
        == [(segment, "invalid_params")]
    assert report.triples_added == 2
    graph = registry.get("s")
    assert [n.label for n in graph.nodes(NodeKind.TEXT)] == ["oak", "fern", "moss"]
    assert export_graph(import_graph(export_graph(graph))) == export_graph(graph)

"""Graph revisions, per-revision views and the derived data memoised on
them: PageRank scores, the term lexicon and chapter rankings."""

import dataclasses
import json
import random
import sys
import threading
import unicodedata

import pytest

from examgraph import ranking
from examgraph.assessment import build_lexicon
from examgraph.errors import MalformedSnapshot
from examgraph.generation import ExamBlueprint, ExamSession, TemplateGenerator, generate_exam
from examgraph.ingestion import ExtractionResult, RuleExtractor, SourceDocument, ingest_document
from examgraph.kg import (
    EdgeKind,
    GraphRegistry,
    KnowledgeGraph,
    NodeKind,
    export_graph,
    import_graph,
)
from examgraph.ranking import cached_pagerank, pagerank
from examgraph.textutils import normalize_label

from helpers import ROOTS_A, ROOTS_B, blueprint_dict, build_registry, corpus_documents


def small_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "feeds", "b")
    graph.assert_fact_triple("b", "feeds", "c")
    graph.assert_fact_triple("c", "feeds", "a")
    return graph


def counting_pagerank(monkeypatch) -> list:
    calls = []
    real = ranking.pagerank

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ranking, "pagerank", counted)
    return calls


def test_effective_mutations_bump_revision_and_duplicates_do_not():
    graph = KnowledgeGraph("s")
    assert graph.revision == 0
    seen = [graph.revision]

    def bumped() -> bool:
        seen.append(graph.revision)
        return seen[-1] > seen[-2]

    graph.assert_fact_triple("a", "r", "b")
    assert bumped()
    graph.assert_fact_triple("a", "r", "b")
    assert not bumped(), "an exact duplicate triple changes nothing"
    graph.assert_fact_triple("A", "r", "b")
    assert bumped(), "new raw label"
    graph.assert_fact_triple("a", "r", "b", ("doc", 1))
    assert bumped(), "new source ref"
    graph.assert_fact_triple("a", "r", "b", ("doc", 1))
    assert not bumped()
    graph.assert_fact_triple("a", "s", "b")
    assert bumped(), "new edge between existing nodes"
    text = graph.find_node("a", NodeKind.TEXT)
    concept = graph.upsert_entity("letter", NodeKind.CONCEPT)
    assert bumped(), "new node"
    graph.assert_link(EdgeKind.IS_A, text, concept)
    assert bumped()
    graph.assert_link(EdgeKind.IS_A, text, concept)
    assert not bumped()


def test_view_is_built_once_per_revision_and_stays_frozen():
    graph = small_graph()
    first = graph.view()
    assert graph.view() is first
    assert first.revision == graph.revision
    assert [n.id for n in first.nodes] == sorted(n.id for n in first.nodes)
    assert list(first.edges) == graph.edges()

    graph.assert_fact_triple("a", "feeds", "d", ("doc", 2))
    second = graph.view()
    assert second is not first and second.revision == graph.revision
    assert len(first.nodes) == 3 and len(second.nodes) == 4
    a = graph.find_node("a", NodeKind.TEXT)
    assert first.node(a).source_refs == () and second.node(a).source_refs == (("doc", 2),)
    assert [e.dst for e in second.out_edges[a]] == sorted(e.dst for e in second.out_edges[a])


def test_two_exams_on_an_unchanged_graph_run_pagerank_once(monkeypatch):
    registry, _, _ = build_registry("envsci", ROOTS_A, chapters=3)
    graph = registry.get("envsci")
    calls = counting_pagerank(monkeypatch)
    blueprint = ExamBlueprint.from_dict(blueprint_dict("envsci", 3))
    for seed in (1, 2):
        exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=seed),
                             seed=seed)
        assert exam.complete
    assert len(calls) == 1


def test_mutation_between_reads_gives_fresh_scores_and_lexicon():
    graph = small_graph()
    scores, lexicon = cached_pagerank(graph), build_lexicon(graph)
    assert cached_pagerank(graph) is scores and build_lexicon(graph) is lexicon

    graph.assert_fact_triple("zed", "feeds", "a")
    fresh = cached_pagerank(graph)
    zed = graph.find_node("zed", NodeKind.TEXT)
    assert zed not in scores.scores and zed in fresh.scores
    assert fresh.scores == pagerank(graph).scores
    assert "zed" not in lexicon and "zed" in build_lexicon(graph)


def test_memo_belongs_to_the_revision_it_was_computed_from(monkeypatch):
    graph = small_graph()
    real = ranking.pagerank

    def writer_lands_mid_computation(view, config):
        result = real(view, config)
        graph.assert_fact_triple("late", "feeds", "a")
        return result

    monkeypatch.setattr(ranking, "pagerank", writer_lands_mid_computation)
    stale = cached_pagerank(graph)
    monkeypatch.setattr(ranking, "pagerank", real)
    fresh = cached_pagerank(graph)
    late = graph.find_node("late", NodeKind.TEXT)
    assert late not in stale.scores and late in fresh.scores

    # an old view keeps serving its own revision's data
    old = graph.view()
    graph.assert_fact_triple("later", "feeds", "a")
    assert cached_pagerank(old) is fresh
    assert graph.find_node("later", NodeKind.TEXT) in cached_pagerank(graph).scores


def test_pagerank_memo_is_keyed_by_config():
    graph = small_graph()
    default = cached_pagerank(graph)
    other = cached_pagerank(graph, ranking.PageRankConfig(damping=0.5))
    assert other is not default
    assert cached_pagerank(graph, ranking.PageRankConfig()) is default


def test_the_default_and_an_equal_config_share_one_memo_entry(monkeypatch):
    graph = small_graph()
    calls = counting_pagerank(monkeypatch)
    default = cached_pagerank(graph)
    assert cached_pagerank(graph, ranking.PageRankConfig()) is default
    assert cached_pagerank(graph, ranking.PageRankConfig(0.85, 1e-9, 1000)) is default
    assert len(calls) == 1


def test_readers_beside_a_writer_never_raise():
    registry, _, _ = build_registry("envsci", ROOTS_A, chapters=1)
    graph = registry.get("envsci")
    nodes_before = len(graph)
    blueprint = ExamBlueprint.from_dict(blueprint_dict("envsci", 1, 1, 1, 1))
    done = threading.Event()
    errors: list[Exception] = []

    def writer():
        try:
            for i in range(1500):
                graph.assert_fact_triple(f"extra {i}", "links", "borite",
                                         ("stream", i))
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    def reader(seed):
        try:
            while True:
                finished = done.is_set()
                graph.nodes()
                graph.edges()
                graph.stats()
                pagerank(graph)
                export_graph(graph)
                generate_exam(registry, blueprint,
                              TemplateGenerator(graph, seed=seed), seed=seed)
                if finished:
                    return
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often to provoke races
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # no write was lost, and the last view saw every one of them
    assert len(graph) == nodes_before + 1500
    view = graph.view()
    assert view.revision == graph.revision and len(view.nodes) == len(graph)


def _snapshot_lines() -> list[str]:
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r", "b")
    return export_graph(graph).decode().splitlines()


def test_import_normalizes_hand_edited_labels():
    lines = _snapshot_lines()
    record = json.loads(lines[1])
    record["label"] = "  Alpha   BETA "
    lines[1] = json.dumps(record)
    clone = import_graph("\n".join(lines))
    assert clone.find_node("alpha beta", NodeKind.TEXT) == record["id"]
    assert clone.node(record["id"]).label == "alpha beta"
    assert clone.revision > 0 and clone.view().revision == clone.revision


def test_import_rejects_labels_that_collide_after_normalization():
    lines = _snapshot_lines()
    record = json.loads(lines[2])
    record["label"] = " A "  # normalizes onto the first node's key
    lines[2] = json.dumps(record)
    with pytest.raises(MalformedSnapshot) as exc_info:
        import_graph("\n".join(lines))
    assert exc_info.value.line_no == 3
    assert exc_info.value.code == "malformed_snapshot"


def messy(rng: random.Random, label: str) -> str:
    """A surface form of ``label`` that normalizes back onto it."""
    label = "".join(c.upper() if rng.random() < 0.4 else c for c in label)
    label = label.replace(" ", rng.choice([" ", "  ", "\t", " \n "]))
    if rng.random() < 0.5:
        label = unicodedata.normalize("NFD", label)
    return rng.choice(["", " ", "\"", "(", "« "]) + label + rng.choice(["", ".", "!", " »", "  "])


class MessyExtractor:
    """Triples and concept names in untidy surface forms."""

    WORDS = ["école", "wind turbine", "grid", "solar cell", "ión", "heat pump"]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def extract(self, text: str) -> ExtractionResult:
        rng = self.rng
        triples = [(messy(rng, rng.choice(self.WORDS)), messy(rng, "Feeds"),
                    messy(rng, rng.choice(self.WORDS) + " unit")) for _ in range(4)]
        concepts = {h: [messy(rng, "Énergie source")] for h, _, _ in triples[:2]}
        return ExtractionResult(triples=triples, concept_map=concepts)


def assert_view_labels_normalized(graph) -> None:
    view = graph.view()
    assert view.nodes
    for node in view.nodes:
        assert normalize_label(node.label) == node.label, node
    for edge in view.edges:
        assert edge.label is None or normalize_label(edge.label) == edge.label, edge


def test_view_labels_are_normalized_after_ingest_append_and_import():
    """The template generator compares graph labels without normalizing
    them again; this pins the invariant it relies on."""
    registry = GraphRegistry()
    extractor = MessyExtractor(seed=7)
    documents = [
        SourceDocument(doc_id=f"d{i}", subject="energy",
                       chapter_path=["  UNIT 1: Power! ", f"Chapter  {i}."],
                       body="One sentence.\n\nAnother sentence.")
        for i in range(2)
    ]
    ingest_document(registry, documents[0], extractor)
    graph = registry.get("energy")
    assert_view_labels_normalized(graph)

    ingest_document(registry, documents[1], extractor, append=True)
    assert_view_labels_normalized(graph)

    rng = random.Random(11)
    lines = export_graph(graph).decode().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["type"] == "node":
            record["label"] = messy(rng, record["label"])
            lines[i] = json.dumps(record, ensure_ascii=False)
    clone = import_graph("\n".join(lines))
    assert_view_labels_normalized(clone)
    assert [n.label for n in clone.view().nodes] == [n.label for n in graph.view().nodes]


def test_session_writes_its_start_revision_exam_while_the_graph_grows():
    """Text appended under a chapter after the third verdict changes the
    graph's sibling facts, but not the exam of a session that began before
    it: material and distractors both come from the session's revision."""
    documents, lexicon, _ = corpus_documents("envsci", ROOTS_A + ROOTS_B, chapters=4)
    extractor = RuleExtractor(lexicon)
    registries = []
    for _ in range(2):
        registry = GraphRegistry()
        for i, document in enumerate(documents[:3]):
            ingest_document(registry, document, extractor, append=i > 0)
        registries.append(registry)
    blueprint = ExamBlueprint.from_dict(blueprint_dict("envsci", 3))
    start = generate_exam(registries[0], blueprint,
                          TemplateGenerator(registries[0].get("envsci"), seed=7), seed=7)

    registry = registries[1]
    graph = registry.get("envsci")
    session = ExamSession(graph, blueprint, TemplateGenerator(graph, seed=7), seed=7)
    for verdicts, candidate in enumerate(iter(session.next_candidate, None), start=1):
        session.record_result(candidate, session.evaluate(candidate))
        if verdicts == 3:
            revision = graph.revision
            ingest_document(registry, dataclasses.replace(
                documents[3], chapter_path=["Ch 1"]), extractor, append=True)
            assert graph.revision > revision
    assert session.build_exam().to_json() == start.to_json()

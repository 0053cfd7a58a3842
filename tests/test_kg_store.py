import json
import random

import pytest

from examgraph.errors import (
    DuplicateSubject,
    EmptyLabel,
    EmptySubject,
    KindMismatch,
    MalformedSnapshot,
    SubjectCollision,
    UnknownNode,
)
from examgraph.kg import (
    EdgeKind,
    GraphRegistry,
    KnowledgeGraph,
    NodeKind,
    export_graph,
    import_graph,
)

from examgraph.kg import snapshot as snapshot_module

from helpers import ROOTS_A, ROOTS_B, build_registry


def test_create_subject_graph_empty():
    registry = GraphRegistry()
    graph = registry.create("waste_mgmt")
    assert len(graph) == 0
    assert graph.edge_count == 0
    assert len(registry) == 1


def test_create_duplicate_subject_rejected():
    registry = GraphRegistry()
    registry.create("waste_mgmt")
    with pytest.raises(DuplicateSubject):
        registry.create("waste_mgmt")


def test_create_empty_subject_rejected():
    registry = GraphRegistry()
    with pytest.raises(EmptySubject):
        registry.create("")
    with pytest.raises(EmptySubject):
        registry.create("   ")


def test_upsert_normalization_collapses_surface_forms():
    graph = KnowledgeGraph("s")
    a = graph.upsert_entity("Ecosystem", NodeKind.TEXT)
    b = graph.upsert_entity("  ecosystem ", NodeKind.TEXT)
    assert a == b
    node = graph.node(a)
    assert node.label == "ecosystem"
    assert node.raw_labels == {"Ecosystem", "  ecosystem "}


def test_upsert_kind_partition_distinct_nodes():
    graph = KnowledgeGraph("s")
    a = graph.upsert_entity("Ecosystem", NodeKind.TEXT)
    b = graph.upsert_entity("Ecosystem", NodeKind.CONCEPT)
    assert a != b
    assert graph.node(a).kind == NodeKind.TEXT
    assert graph.node(b).kind == NodeKind.CONCEPT


def test_upsert_empty_label_rejected():
    graph = KnowledgeGraph("s")
    with pytest.raises(EmptyLabel):
        graph.upsert_entity("", NodeKind.TEXT)
    with pytest.raises(EmptyLabel):
        graph.upsert_entity("...", NodeKind.TEXT)  # nothing left after trim


def test_normalization_idempotent():
    graph = KnowledgeGraph("s")
    for label in ["Waste Water", "  MIXED   case  ", "trailing.", "école"]:
        first = graph.upsert_entity(label, NodeKind.TEXT)
        again = graph.upsert_entity(graph.node(first).label, NodeKind.TEXT)
        assert first == again


def test_normalization_idempotent_random_labels():
    from examgraph.errors import EmptyLabel
    from examgraph.textutils import normalize_label

    rng = random.Random(314159)
    alphabet = "aB é中9'!.,-_́\t"
    graph = KnowledgeGraph("s")
    for _ in range(500):
        label = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        norm = normalize_label(label)
        assert normalize_label(norm) == norm  # normalize is a projection
        try:
            first = graph.upsert_entity(label, NodeKind.TEXT)
        except EmptyLabel:
            assert norm == ""
            continue
        assert graph.upsert_entity(norm, NodeKind.TEXT) == first


def test_assert_fact_triple_adds_nodes_and_edge():
    graph = KnowledgeGraph("s")
    edge = graph.assert_fact_triple("Intentional pollution", "harms", "ecosystem")
    assert len(graph) == 2
    assert graph.edge_count == 1
    assert edge.kind == EdgeKind.FACT
    assert edge.label == "harms"
    assert graph.node(edge.src).label == "intentional pollution"
    assert graph.node(edge.dst).label == "ecosystem"


def test_assert_fact_triple_duplicate_is_idempotent():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r", "b")
    graph.assert_fact_triple("a", "r", "b")
    assert graph.edge_count == 1


def test_fact_edges_with_different_relations_are_distinct():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "harms", "b")
    graph.assert_fact_triple("a", "helps", "b")
    assert graph.edge_count == 2


def test_assert_fact_triple_empty_relation_rejected():
    graph = KnowledgeGraph("s")
    with pytest.raises(EmptyLabel):
        graph.assert_fact_triple("a", "", "b")


def test_assert_link_typing_matrix():
    graph = KnowledgeGraph("s")
    text = graph.upsert_entity("oak", NodeKind.TEXT)
    concept = graph.upsert_entity("tree", NodeKind.CONCEPT)
    child = graph.upsert_entity("1.2", NodeKind.HIERARCHY)
    parent = graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)

    graph.assert_link(EdgeKind.IS_A, text, concept)
    graph.assert_link(EdgeKind.PART_OF, child, parent)
    graph.assert_link(EdgeKind.INCLUDE_IN, concept, parent)
    assert graph.edge_count == 3

    with pytest.raises(KindMismatch):
        graph.assert_link(EdgeKind.IS_A, child, concept)
    with pytest.raises(KindMismatch):
        graph.assert_link(EdgeKind.PART_OF, text, parent)
    with pytest.raises(KindMismatch):
        graph.assert_link(EdgeKind.INCLUDE_IN, text, parent)


def test_assert_link_idempotent_and_unknown_node():
    graph = KnowledgeGraph("s")
    text = graph.upsert_entity("oak", NodeKind.TEXT)
    concept = graph.upsert_entity("tree", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.IS_A, text, concept)
    graph.assert_link(EdgeKind.IS_A, text, concept)
    assert graph.edge_count == 1
    with pytest.raises(UnknownNode):
        graph.assert_link(EdgeKind.IS_A, "n999", concept)


def test_query_neighbors_directions_and_filter():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r1", "b")
    graph.assert_fact_triple("c", "r2", "a")
    a = graph.find_node("a", NodeKind.TEXT)
    concept = graph.upsert_entity("thing", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.IS_A, a, concept)

    out = graph.query_neighbors(a, "out")
    assert {n.label for _, n in out} == {"b", "thing"}
    incoming = graph.query_neighbors(a, "in")
    assert [n.label for _, n in incoming] == ["c"]
    both = graph.query_neighbors(a, "both")
    assert len(both) == 3
    only_isa = graph.query_neighbors(a, "both", EdgeKind.IS_A)
    assert [n.label for _, n in only_isa] == ["thing"]


def test_query_neighbors_isolated_and_unknown():
    graph = KnowledgeGraph("s")
    lone = graph.upsert_entity("lone", NodeKind.TEXT)
    assert graph.query_neighbors(lone, "both") == []
    with pytest.raises(UnknownNode):
        graph.query_neighbors("n404", "both")


def test_query_neighbors_self_loop_listed_once():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("cycle", "feeds", "cycle")
    node = graph.find_node("cycle", NodeKind.TEXT)
    assert len(graph.query_neighbors(node, "both")) == 1
    assert len(graph.query_neighbors(node, "out")) == 1
    assert len(graph.query_neighbors(node, "in")) == 1


def test_query_neighbors_deterministic_order():
    graph = KnowledgeGraph("s")
    hub = graph.upsert_entity("hub", NodeKind.TEXT)
    for name in ["zeta", "alpha", "mid"]:
        graph.assert_fact_triple("hub", "links", name)
    order1 = [n.id for _, n in graph.query_neighbors(hub, "out")]
    order2 = [n.id for _, n in graph.query_neighbors(hub, "out")]
    assert order1 == order2 == sorted(order1)


def test_export_import_round_trip():
    registry, _, _ = build_registry("rt_subject", ROOTS_A, chapters=1)
    graph = registry.get("rt_subject")
    snapshot = export_graph(graph)

    clone = import_graph(snapshot)
    assert clone.subject == graph.subject
    assert {n.id for n in clone.nodes()} == {n.id for n in graph.nodes()}
    for node in graph.nodes():
        other = clone.node(node.id)
        assert other.kind == node.kind
        assert other.label == node.label
        assert other.raw_labels == node.raw_labels
        assert other.source_refs == node.source_refs
    assert set(clone.edges()) == set(graph.edges())
    # identical bytes when re-exported
    assert export_graph(clone) == snapshot


def test_unicode_labels_survive_round_trip():
    graph = KnowledgeGraph("intl")
    graph.assert_fact_triple("École Polytechnique", "enseigne", "génie civil")
    graph.assert_fact_triple("環境保護", "需要", "廃棄物管理")
    snapshot = export_graph(graph)
    clone = import_graph(snapshot)
    labels = {n.label for n in clone.nodes()}
    assert "école polytechnique" in labels
    assert "環境保護" in labels
    assert export_graph(clone) == snapshot


def test_import_preserves_id_counter():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r", "b")
    clone = import_graph(export_graph(graph))
    fresh = clone.upsert_entity("new one", NodeKind.TEXT)
    assert fresh not in {n.id for n in graph.nodes()}


def test_snapshot_header_and_line_schema():
    import json

    graph = KnowledgeGraph("subj")
    graph.assert_fact_triple("a", "harms", "b")
    lines = export_graph(graph).decode().splitlines()
    header = json.loads(lines[0])
    assert header == {"type": "header", "format": "kaqg-kg", "version": 1,
                      "subject": "subj"}
    node = json.loads(lines[1])
    assert set(node) == {"type", "id", "kind", "label", "raw_labels", "source_refs"}
    edge = json.loads(lines[-1])
    assert set(edge) == {"type", "kind", "from", "to", "label"}
    assert edge["kind"] == "fact"


def test_non_fact_edges_carry_no_label():
    import json

    graph = KnowledgeGraph("s")
    text = graph.upsert_entity("oak", NodeKind.TEXT)
    concept = graph.upsert_entity("tree", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.IS_A, text, concept)
    records = [json.loads(line) for line in export_graph(graph).decode().splitlines()]
    isa = [r for r in records if r.get("kind") == "is_a"]
    assert isa and all("label" not in r for r in isa)


def test_import_malformed_reports_line_numbers():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r", "b")
    lines = export_graph(graph).decode().splitlines()

    truncated = "\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]])
    with pytest.raises(MalformedSnapshot) as exc_info:
        import_graph(truncated)
    assert exc_info.value.line_no == 3

    with pytest.raises(MalformedSnapshot) as exc_info:
        import_graph("\n".join(['{"type":"node","id":"n0"}'] + lines[1:]))
    assert exc_info.value.line_no == 1  # header missing

    bad_edge = lines[:3] + ['{"type":"edge","kind":"fact","from":"n0","to":"n9","label":"x"}']
    with pytest.raises(MalformedSnapshot) as exc_info:
        import_graph("\n".join(bad_edge))
    assert exc_info.value.line_no == 4


def _snapshot_lines():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r", "b")
    return export_graph(graph).decode().splitlines()


def _node_line(tail):
    return '{"type":"node","id":"n9","kind":"text","label":"z"' + tail


SNAPSHOT_LINE_CASES = {
    "valid": lambda ls: ls,
    "spaces-and-tabs": lambda ls: [ls[0], " \t" + ls[1] + "\t ", *ls[2:]],
    "nbsp-before-record": lambda ls: [ls[0], "\u00a0" + ls[1], *ls[2:]],
    "nbsp-only-line": lambda ls: [ls[0], "\u00a0", *ls[1:]],
    "bom-before-header": lambda ls: ["\ufeff" + ls[0], *ls[1:]],
    "two-objects": lambda ls: [ls[0], ls[1] + ls[1], *ls[2:]],
    "two-objects-comma": lambda ls: [ls[0], ls[1] + "," + ls[2], *ls[3:]],
    "trailing-garbage": lambda ls: [ls[0], ls[1] + " x", *ls[2:]],
    "truncated-string": lambda ls: [*ls, _node_line("")[:-1]],
    "bad-escape": lambda ls: [*ls, _node_line(',"raw_labels":["\\q"]}')],
    "lone-surrogate": lambda ls: [*ls, _node_line(',"raw_labels":["\\ud800"]}')],
    "nan-in-source-ref": lambda ls: [*ls, _node_line(',"source_refs":[["d",NaN]]}')],
    "infinity-extra-key": lambda ls: [*ls, _node_line(',"x":-Infinity}')],
    "duplicate-keys": lambda ls: [*ls, _node_line(',"label":"y","id":"n8"}')],
    "array-line": lambda ls: [*ls, "[1, 2]"],
    "number-line": lambda ls: [*ls, "42"],
    "cross-line-object": lambda ls: [ls[0], ls[1] + "," + ls[2],
                                     _node_line(',"x":[{}'), "{}]}", *ls[3:]],
}


def _import_outcome(text):
    try:
        graph = import_graph(text)
    except MalformedSnapshot as exc:
        return ("malformed", exc.line_no, exc.reason)
    return ("graph", graph.subject,
            [(n.id, n.kind, n.label, sorted(n.raw_labels), n.source_refs)
             for n in graph.nodes()],
            [(e.kind, e.src, e.dst, e.label) for e in graph.edges()])


@pytest.mark.parametrize("case", sorted(SNAPSHOT_LINE_CASES))
def test_import_parses_lines_like_json_loads(case, monkeypatch):
    """Each line must be accepted or refused, with the same line number and
    message, as when every line goes through ``json.loads``."""
    text = "\n".join(SNAPSHOT_LINE_CASES[case](_snapshot_lines())) + "\n"
    outcome = _import_outcome(text)
    monkeypatch.setattr(snapshot_module, "_parse_line", json.loads)
    assert outcome == _import_outcome(text)
    assert (outcome[0] == "graph") == (case in {
        "valid", "spaces-and-tabs", "nbsp-only-line", "lone-surrogate",
        "infinity-extra-key", "duplicate-keys"})


def test_import_into_occupied_subject_collides():
    registry = GraphRegistry()
    graph = registry.create("busy")
    snapshot = export_graph(graph)
    with pytest.raises(SubjectCollision):
        registry.attach(import_graph(snapshot))


def test_isolation_random_interleavings():
    rng = random.Random(20240817)
    registry = GraphRegistry()
    _, lex_a, vocab_a = build_registry("subj_a", ROOTS_A, 2, registry)
    _, lex_b, vocab_b = build_registry("subj_b", ROOTS_B, 2, registry)
    assert not vocab_a & vocab_b

    graph_a = registry.get("subj_a")
    graph_b = registry.get("subj_b")
    for graph, own_vocab in ((graph_a, vocab_a), (graph_b, vocab_b)):
        nodes = graph.nodes()
        for _ in range(300):
            node = rng.choice(nodes)
            direction = rng.choice(["in", "out", "both"])
            kind = rng.choice([None, *EdgeKind])
            for _, neighbor in graph.query_neighbors(node.id, direction, kind):
                words = set(neighbor.label.split())
                if neighbor.kind != NodeKind.HIERARCHY:
                    assert words <= own_vocab


def test_registry_concurrent_create_and_lookup():
    import threading

    registry = GraphRegistry()
    errors = []

    def worker(start):
        try:
            for i in range(start, start + 25):
                registry.create(f"subject-{i}")
                registry.get(f"subject-{i}").upsert_entity("x", NodeKind.TEXT)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i * 25,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(registry) == 100

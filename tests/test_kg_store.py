import json
import random
import re

import pytest

from examgraph.errors import (
    DuplicateSubject,
    EmptyLabel,
    EmptySubject,
    InvalidParams,
    KindMismatch,
    MalformedSnapshot,
    SubjectCollision,
    UnknownNode,
)
from examgraph.kg import (
    Edge,
    EdgeKind,
    GraphRegistry,
    KnowledgeGraph,
    Node,
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


def _template_node(label="z", raw_labels='"z"', refs='["d", 1]', kind="text"):
    """Node ``n9`` in the export's own line template."""
    return ('{"type": "node", "id": "n9", "kind": "%s", "label": "%s", "raw_labels": [%s], '
            '"source_refs": [%s]}' % (kind, label, raw_labels, refs))


def _template_edge(kind="fact", src="n0", dst="n1", label=None):
    tail = "}" if label is None else ', "label": "%s"}' % label
    return '{"type": "edge", "kind": "%s", "from": "%s", "to": "%s"' % (kind, src, dst) + tail


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
    # lines in the export's templates, and near misses of them
    "template-node": lambda ls: [*ls, _template_node(raw_labels='"z", "Z"',
                                                     refs='["d", 1], ["e", 20]')],
    "template-escaped-quote": lambda ls: [*ls, _template_node(raw_labels='"\\"z\\""')],
    "template-backslash": lambda ls: [*ls, _template_node(raw_labels='"z\\\\"')],
    "template-control-character": lambda ls: [*ls, _template_node(raw_labels='"z\x01"')],
    "template-u2028": lambda ls: [*ls, _template_node("z\u2028y", '"z\u2028y"')],
    "template-empty-raw-label": lambda ls: [*ls, _template_node(raw_labels='""')],
    "template-segments": lambda ls: [*ls, _template_node(refs='["d", -0], ["d", -3]')],
    "template-trailing-blank": lambda ls: [*ls, _template_node() + " "],
    "template-fact-edge-without-label": lambda ls: [*ls, _template_edge()],
    "template-is-a-edge-with-label": lambda ls: [
        *ls, _template_node(kind="concept"), _template_edge("is_a", "n0", "n9", "r")],
    "template-quoted-relation": lambda ls: [*ls, _template_edge(label='\\"harms\\"')],
    "template-relation-collapses": lambda ls: [*ls, _template_edge(label=" R ")],
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

    match_nothing = re.compile(r"(?!)")  # sends every line to json.loads
    monkeypatch.setattr(snapshot_module, "_NODE_RE", match_nothing)
    monkeypatch.setattr(snapshot_module, "_EDGE_RE", match_nothing)
    assert outcome == _import_outcome(text)
    assert (outcome[0] == "graph") == (case in {
        "valid", "spaces-and-tabs", "nbsp-only-line", "lone-surrogate",
        "infinity-extra-key", "duplicate-keys", "template-node", "template-escaped-quote",
        "template-backslash", "template-u2028", "template-empty-raw-label",
        "template-segments", "template-trailing-blank", "template-quoted-relation"})


HEADER = {"type": "header", "format": "kaqg-kg", "version": 1, "subject": "s"}
NODE = {"type": "node", "id": "n2", "kind": "concept", "label": "c"}
EDGE = {"type": "edge", "kind": "fact", "from": "n0", "to": "n1", "label": "r"}
NODES = ['{"type":"node","id":"n0","kind":"text","label":"a"}',
         '{"type":"node","id":"n1","kind":"text","label":"b"}']
DROP = object()


def _record(base, **changes):
    record = {**base, **changes}
    return json.dumps({k: v for k, v in record.items() if v is not DROP})


def _header(**changes):
    return [_record(HEADER, **changes)]


def _node(**changes):
    return [_record(HEADER), _record(NODE, **changes)]


def _edge(**changes):
    return [_record(HEADER), *NODES, _record(EDGE, **changes)]


# One malformed record per rule: the snapshot, then the line and message that
# import_graph reports.
MALFORMED_SNAPSHOTS = {
    "not-utf8": (b"\xff", 0, "not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte"),
    "empty": ("", 0, "empty snapshot"),
    "blank-lines-only": ("\n \n", 0, "empty snapshot"),
    "invalid-json": ([_record(HEADER), "{"], 2,
                     "record is not JSON: Expecting property name enclosed in double quotes"),
    "not-an-object": ([_record(HEADER), "[1]"], 2, "record must be a JSON object, got [1]"),
    "no-header": (NODES, 1, "first record must be the header"),
    "unknown-format": (_header(format="x"), 1, "unknown format 'x'"),
    "unsupported-version": (_header(version=2), 1, "version must be an integer in 1..1, got 2"),
    "version-true": (_header(version=True), 1, "version must be an integer in 1..1, got True"),
    "version-float": (_header(version=1.0), 1, "version must be an integer in 1..1, got 1.0"),
    "no-subject": (_header(subject=DROP), 1, "header subject must be a string, got None"),
    "blank-subject": (_header(subject=" "), 1, "header subject must be a non-empty string"),
    "second-header": (_header() * 2, 2, "unexpected second header"),
    "unknown-type": ([_record(HEADER), '{"type":"x"}'], 2, "unknown record type 'x'"),
    "no-type": ([_record(HEADER), "{}"], 2, "unknown record type None"),
    "node-no-id": (_node(id=DROP), 2, "node id must be a string, got None"),
    "node-no-kind": (_node(kind=DROP), 2, "unknown node kind None"),
    "node-no-label": (_node(label=DROP), 2, "node label must be a string, got None"),
    "node-unknown-kind": (_node(kind="fact"), 2, "unknown node kind 'fact'"),
    "node-list-kind": (_node(kind=["text"]), 2, "unknown node kind ['text']"),
    "node-int-id": (_node(id=2), 2, "node id must be a string, got 2"),
    "node-empty-label": (_node(label=""), 2, "label '' is empty after normalization"),
    "node-blank-label": (_node(label=" "), 2, "label ' ' is empty after normalization"),
    "node-raw-labels": (_node(raw_labels=["x", 1]), 2,
                        "raw_labels must be a list of strings, got ['x', 1]"),
    "node-source-refs": (_node(source_refs="d"), 2, "source_refs must be a list, got 'd'"),
    "node-short-ref": (_node(source_refs=[["d"]]), 2, "bad source_ref ['d']"),
    "node-bool-ref": (_node(source_refs=[["d", True]]), 2, "bad source_ref ['d', True]"),
    "node-duplicate-id": ([*_edge()[:3], _record(NODE, id="n0")], 4,
                          "duplicate node 'n0' (concept, 'c')"),
    "node-duplicate-label": ([*_edge()[:3], _record(NODE, kind="text", label="A")], 4,
                             "duplicate node 'n2' (text, 'a')"),
    "edge-no-kind": (_edge(kind=DROP), 4, "unknown edge kind None"),
    "edge-no-from": (_edge(**{"from": DROP}), 4, "edge from must be a string, got None"),
    "edge-no-to": (_edge(to=DROP), 4, "edge to must be a string, got None"),
    "edge-unknown-kind": (_edge(kind="text"), 4, "unknown edge kind 'text'"),
    "edge-list-kind": (_edge(kind=["fact"]), 4, "unknown edge kind ['fact']"),
    "edge-no-label": (_edge(label=DROP), 4, "fact edge label must be a string, got None"),
    "edge-empty-label": (_edge(label=""), 4, "relation '' is empty after normalization"),
    "edge-label-on-link": (_edge(kind="is_a"), 4, "is_a edges carry no label"),
    "edge-list-from": (_edge(**{"from": ["n0"]}), 4, "edge from must be a string, got ['n0']"),
    "edge-int-to": (_edge(to=0), 4, "edge to must be a string, got 0"),
    "edge-unknown-node": (_edge(to="n9"), 4, "no node 'n9' in graph 's'"),
    "edge-before-its-node": ([*_edge(to="nX"), _record(NODE, id="nX", kind="text", label="x")],
                             4, "no node 'nX' in graph 's'"),
    "edge-kind-mismatch": (_edge(kind="is_a", label=DROP), 4,
                           "is_a requires text->concept, got text->text"),
    "edge-duplicate": (_edge() + _edge()[-1:], 5, "duplicate edge"),
    "edge-blank-relation": (_edge(label='" "'), 4, """relation '" "' is empty after normalization"""),
    "edge-relation-collapses": (_edge() + [_record(EDGE, label='"R"')], 5, "duplicate edge"),
    # every line is read as JSON before any record is checked
    "bad-record-then-invalid-json": ([_record(HEADER), '{"type":"x"}', "{"], 3,
                                     "record is not JSON: Expecting property name "
                                     "enclosed in double quotes"),
    "no-header-then-not-an-object": ([*NODES, "[1]"], 3,
                                     "record must be a JSON object, got [1]"),
}


@pytest.mark.parametrize("case", MALFORMED_SNAPSHOTS)
def test_import_rejects_each_malformed_record(case):
    snapshot, line_no, reason = MALFORMED_SNAPSHOTS[case]
    if isinstance(snapshot, list):
        snapshot = "\n".join(snapshot) + "\n"
    with pytest.raises(MalformedSnapshot) as exc_info:
        import_graph(snapshot)
    assert (exc_info.value.line_no, exc_info.value.reason) == (line_no, reason)
    assert exc_info.value.code == "malformed_snapshot"


def test_edges_compare_and_hash_by_value():
    edge = Edge(EdgeKind.FACT, "n0", "n1", "harms")
    same = Edge(kind=EdgeKind.FACT, src="n0", dst="n1", label="harms")
    assert edge == same and hash(edge) == hash(same)
    assert Edge(EdgeKind.IS_A, "n0", "n1") == Edge(EdgeKind.IS_A, "n0", "n1", None)
    others = [Edge(EdgeKind.FACT, "n0", "n1", "helps"), Edge(EdgeKind.FACT, "n1", "n0", "harms"),
              Edge(EdgeKind.FACT, "n0", "n2", "harms"), Edge(EdgeKind.IS_A, "n0", "n1")]
    assert all(edge != other for other in others)
    assert len({edge, same, *others}) == 5
    assert Edge._fields == ("kind", "src", "dst", "label")
    with pytest.raises(AttributeError):
        edge.label = "helps"
    # kinds hash by identity: equal members are the same object
    assert {EdgeKind("fact"): 1}[EdgeKind.FACT] == 1
    assert {NodeKind("text"): 1}[NodeKind.TEXT] == 1


def test_edges_sort_by_endpoints_kind_and_label():
    rng = random.Random(4242)
    graph = KnowledgeGraph("s")
    ids = {kind: [graph.upsert_entity(f"{kind.value} {i}", kind) for i in range(6)]
           for kind in NodeKind}
    for _ in range(200):
        kind = rng.choice(list(EdgeKind))
        if kind is EdgeKind.FACT:
            graph.assert_fact_triple(f"text {rng.randrange(6)}", rng.choice("rstuv"),
                                     f"text {rng.randrange(6)}")
            continue
        src_kind, dst_kind = {EdgeKind.IS_A: (NodeKind.TEXT, NodeKind.CONCEPT),
                              EdgeKind.PART_OF: (NodeKind.HIERARCHY, NodeKind.HIERARCHY),
                              EdgeKind.INCLUDE_IN: (NodeKind.CONCEPT, NodeKind.HIERARCHY)}[kind]
        graph.assert_link(kind, rng.choice(ids[src_kind]), rng.choice(ids[dst_kind]))
    edges = graph.edges()
    assert len(edges) == graph.edge_count > 100
    assert edges == sorted(edges, key=lambda e: (e.src, e.dst, e.kind.value, e.label or ""))
    view = graph.view()
    for node_id, out in view.out_edges.items():
        assert list(out) == [e for e in edges if e.src == node_id]
    for node_id, into in view.in_edges.items():
        assert list(into) == [e for e in edges if e.dst == node_id]


def test_import_normalizes_node_labels():
    snapshot = [_record(HEADER), _record(NODE, id="n4", kind="text", label="  Soil  Erosion ",
                                         raw_labels=["Soil Erosion"], source_refs=[["d", 1]])]
    graph = import_graph("\n".join(snapshot) + "\n")
    assert graph.find_node("soil erosion", NodeKind.TEXT) == "n4"
    assert graph.node("n4") == Node("n4", NodeKind.TEXT, "soil erosion",
                                    frozenset({"Soil Erosion"}), (("d", 1),))
    assert graph.upsert_entity("next", NodeKind.TEXT) == "n5"


def test_import_normalizes_fact_edge_relations():
    snapshot = [_record(HEADER), *NODES, _record(EDGE, label='"harms"')]
    (edge,) = import_graph("\n".join(snapshot) + "\n").edges()
    assert edge == Edge(EdgeKind.FACT, "n0", "n1", "harms")


def test_node_record_may_follow_the_edges():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r", "b", ("d", 1))
    graph.upsert_entity("c", NodeKind.CONCEPT)
    snapshot = export_graph(graph)
    header, *nodes, edge = snapshot.decode().splitlines()
    moved = "\n".join([header, *nodes[:-1], edge, nodes[-1]]) + "\n"
    assert _import_outcome(moved) == _import_outcome(snapshot)
    assert export_graph(import_graph(moved)) == snapshot


def test_nodes_are_immutable_and_shared_by_views():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("a", "r", "b", ("d", 1))
    a, b = graph.find_node("a", NodeKind.TEXT), graph.find_node("b", NodeKind.TEXT)
    first = graph.view()
    for node in (graph.node(a), first.node(a)):
        with pytest.raises(AttributeError):
            node.label = "z"
        with pytest.raises(AttributeError):
            node.raw_labels.add("z")
        with pytest.raises(AttributeError):
            node.source_refs.append(("d", 2))
    assert first.node(a) is graph.node(a)

    graph.upsert_entity("a", NodeKind.TEXT, ("d", 2))
    second = graph.view()
    assert first.node(a).source_refs == (("d", 1),)
    assert second.node(a).source_refs == (("d", 1), ("d", 2))
    assert second.node(a) is graph.node(a)
    assert second.node(b) is first.node(b) is graph.node(b)


def test_import_is_one_revision_and_its_view_shares_the_nodes():
    registry, _, _ = build_registry("rt_subject", ROOTS_A, chapters=1)
    clone = import_graph(export_graph(registry.get("rt_subject")))
    view = clone.view()
    assert view.revision == clone.revision == 1
    assert all(view.node(node.id) is clone.node(node.id) for node in view.nodes)
    assert len(view.nodes) == len(clone) > 0


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


def _json_dumps_snapshot(graph):
    """The snapshot as one json.dumps(record, ensure_ascii=False) per line."""
    def order(node):
        return (0, int(node.id[1:]), "") if re.fullmatch(r"n\d+", node.id) else (1, 0, node.id)

    records = [{"type": "header", "format": "kaqg-kg", "version": 1,
                "subject": graph.subject}]
    for node in sorted(graph.nodes(), key=order):
        records.append({"type": "node", "id": node.id, "kind": node.kind.value,
                        "label": node.label, "raw_labels": sorted(node.raw_labels),
                        "source_refs": [list(ref) for ref in node.source_refs]})
    for edge in graph.edges():
        record = {"type": "edge", "kind": edge.kind.value, "from": edge.src,
                  "to": edge.dst}
        if edge.kind is EdgeKind.FACT:
            record["label"] = edge.label
        records.append(record)
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), len(records)


# characters json.dumps(ensure_ascii=False) escapes or leaves as they are:
# quotes, backslashes, C0 controls, DEL, C1 controls, the line and paragraph
# separators, non-ASCII letters, a non-BMP character and a byte order mark
AWKWARD = ('"\\/\x00\x01\x08\t\n\x0c\r\x1b\x1f\x7f\x85\x9f\u2028\u2029'
           '\u00e9\u00df\u74b0\U0001f333\ufeff')


def test_export_bytes_equal_json_dumps_lines_and_round_trip():
    # non-ASCII, quotes, backslashes, C0 and C1 controls, the line and
    # paragraph separators that JSON leaves unescaped, an astral character
    # and a byte order mark, in labels, raw labels, a source ref and the subject
    graph = KnowledgeGraph("Umweltschutz \u00fc \u201cQ\u201d")
    awkward = [
        ("\u00c9cole \u00ab\u00e9t\u00e9\u00bb", "\u00e9claire", "\u74b0\u5883"),
        ('say "hi"', "quotes", "back\\slash \\u0041"),
        ("tab\there\nnewline", "bell\x07", "nul\x00 esc\x1b del\x7f"),
        ("nel\x85 ls\u2028 ps\u2029", "astral \U0001f333", "\ufeffbom"),
        ("oak", "supports", "fern"),
    ]
    for i, (head, relation, tail) in enumerate(awkward):
        graph.assert_fact_triple(head, relation, tail, ("d\u00f6c", i))
    graph.assert_fact_triple("OAK!", "supports", "Fern", ("d\u00f6c", 9))
    # several raw labels and source refs on one node, with awkward doc ids
    graph.assert_fact_triple('Oak "\u2028"', "supports", "fern", ('d"\\\x01', 3))
    graph.assert_fact_triple("oak\x85", "supports", "FERN", ("\U0001f333", 10 ** 20))
    tree = graph.upsert_entity('tr\u00e9e \\ "x"', NodeKind.CONCEPT)
    graph.upsert_entity('TR\u00c9E \\ "x"', NodeKind.CONCEPT)
    chapter = graph.upsert_entity("Ch \u2160", NodeKind.HIERARCHY)
    part = graph.upsert_entity('Part \u00a7 "1"', NodeKind.HIERARCHY)
    graph.assert_link(EdgeKind.IS_A, graph.find_node("oak", NodeKind.TEXT), tree)
    graph.assert_link(EdgeKind.INCLUDE_IN, tree, chapter)
    graph.assert_link(EdgeKind.PART_OF, chapter, part)
    # seeded labels and refs drawn from the awkward characters
    rng = random.Random(29)

    def draw():
        return "w" + "".join(rng.choice(AWKWARD + "ab ") for _ in range(rng.randint(0, 6)))

    for _ in range(60):
        graph.assert_fact_triple(draw(), draw(), draw(), (draw(), rng.randint(0, 10 ** 6)))
    assert {e.kind for e in graph.edges()} == set(EdgeKind)
    assert max(len(n.raw_labels) for n in graph.nodes()) >= 3
    assert max(len(n.source_refs) for n in graph.nodes()) >= 3

    expected, count = _json_dumps_snapshot(graph)
    snapshot = export_graph(graph)
    assert snapshot == expected.encode("utf-8")
    assert snapshot.count(b"\n") == count
    clone = import_graph(snapshot)
    assert clone.subject == graph.subject
    assert [(n.id, n.kind, n.label, n.raw_labels, n.source_refs) for n in clone.nodes()] \
        == [(n.id, n.kind, n.label, n.raw_labels, n.source_refs) for n in graph.nodes()]
    assert clone.edges() == graph.edges()
    assert export_graph(clone) == snapshot


def test_export_of_an_imported_graph_writes_awkward_node_ids_like_json_dumps():
    ids = ['x"\u2028\\', "n007", "\x00", "n3", "\U0001f333", "n12"]
    kinds = ["text", "text", "concept", "hierarchy", "hierarchy", "text"]
    records = [{"type": "header", "format": "kaqg-kg", "version": 1, "subject": AWKWARD}]
    records += [{"type": "node", "id": node_id, "kind": kind, "label": f"l{i}",
                 "raw_labels": [f"L{i}{AWKWARD}"] * (i % 2), "source_refs": [[AWKWARD, i]]}
                for i, (node_id, kind) in enumerate(zip(ids, kinds))]
    records += [
        {"type": "edge", "kind": "fact", "from": ids[0], "to": ids[1], "label": AWKWARD},
        {"type": "edge", "kind": "is_a", "from": ids[5], "to": ids[2]},
        {"type": "edge", "kind": "include_in", "from": ids[2], "to": ids[4]},
        {"type": "edge", "kind": "part_of", "from": ids[4], "to": ids[3]},
    ]
    graph = import_graph("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))
    expected, _ = _json_dumps_snapshot(graph)
    assert export_graph(graph) == expected.encode("utf-8")
    assert export_graph(import_graph(export_graph(graph))) == expected.encode("utf-8")


@pytest.mark.parametrize("seed", [5, 23, 61])
def test_awkward_graph_round_trips_through_both_line_readers(seed, monkeypatch):
    """Labels, relations and source refs drawn from plain and awkward
    characters put some lines on the template reader and the rest on
    json.loads; the import reproduces the graph either way."""
    rng = random.Random(seed)

    def draw():
        return "w" + "".join(rng.choice(AWKWARD + 'ab, []"\\') for _ in range(rng.randint(0, 3)))

    graph = KnowledgeGraph(draw())
    chapter = graph.upsert_entity("Ch 1 " + draw(), NodeKind.HIERARCHY)
    part = graph.upsert_entity("Part " + draw(), NodeKind.HIERARCHY)
    graph.assert_link(EdgeKind.PART_OF, chapter, part)
    for _ in range(40):
        edge = graph.assert_fact_triple(draw(), draw(), draw(),
                                        (draw(), rng.randint(-3, 10 ** 6)))
        concept = graph.upsert_entity(draw(), NodeKind.CONCEPT, (draw(), -rng.randint(0, 3)))
        graph.assert_link(EdgeKind.IS_A, edge.src, concept)
        graph.assert_link(EdgeKind.INCLUDE_IN, concept, chapter)
    snapshot = export_graph(graph)

    loads, json_loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: loads.append(1) or json_loads(*a, **kw))
    clone = import_graph(snapshot)
    assert 1 < len(loads) < snapshot.count(b"\n") - 1
    assert clone.subject == graph.subject
    assert [(n.id, n.kind, n.label, n.raw_labels, n.source_refs) for n in clone.nodes()] \
        == [(n.id, n.kind, n.label, n.raw_labels, n.source_refs) for n in graph.nodes()]
    assert clone.edges() == graph.edges()
    assert export_graph(clone) == snapshot


BAD_SOURCE_REFS = [("d", "x"), ("d", 1.5), ("d", True), ("d", [1]), ["d", 1], (1, 1),
                   ("d",), ("d", 1, 2), "d1"]


@pytest.mark.parametrize("ref", BAD_SOURCE_REFS, ids=repr)
def test_write_path_refuses_a_source_ref_a_snapshot_cannot_hold(ref):
    graph = KnowledgeGraph("s")
    leaf = graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    graph.assert_fact_triple("oak", "supports", "fern", ("d", 0))
    revision = graph.revision
    with pytest.raises(InvalidParams, match="source_ref"):
        graph.upsert_entity("moss", NodeKind.TEXT, ref)
    with pytest.raises(InvalidParams, match="source_ref"):
        graph.assert_fact_triple("oak", "supports", "moss", ref)
    with pytest.raises(InvalidParams, match="source_ref"):
        graph.fold_segment([("oak", "supports", "moss")], {},
                           {"oak": "oak", "supports": "supports", "moss": "moss"}, leaf, ref)
    assert graph.revision == revision
    assert import_graph(export_graph(graph)).revision == 1


# the labels of an extraction are checked by validate_extraction, before
# the fold (tests/test_ingestion.py, EMPTY_AFTER_NORMALIZATION); the leaf is
# checked by the fold, with or without a concept map to link to it
@pytest.mark.parametrize("triples, concepts, leaf, error", [
    ([("oak", "supports", "fern")], {"oak": ["tree"]}, "n99", UnknownNode),
    ([("oak", "supports", "fern")], {"oak": ["tree"]}, "n1", KindMismatch),
    ([("oak", "supports", "fern")], {}, "n2", KindMismatch),
    ([("oak", "supports", "fern")], {}, "n99", UnknownNode),
    ([("oak", "supports", "fern")], {}, "n1", KindMismatch),
])
def test_fold_segment_checks_everything_before_its_first_write(triples, concepts, leaf, error):
    graph = KnowledgeGraph("s")
    graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    graph.upsert_entity("tree", NodeKind.CONCEPT)
    graph.upsert_entity("moss", NodeKind.TEXT)
    revision, snapshot = graph.revision, export_graph(graph)
    labels = {"oak": "oak", "supports": "supports", "fern": "fern", "tree": "tree"}
    with pytest.raises(error):
        graph.fold_segment(triples, concepts, labels, leaf, ("d", 0))
    assert graph.revision == revision
    assert export_graph(graph) == snapshot

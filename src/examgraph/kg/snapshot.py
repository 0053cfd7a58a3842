"""Graph snapshots as UTF-8 JSON Lines.

Line 1 is a header record, then one record per node and per edge:

    {"type": "header", "format": "kaqg-kg", "version": 1, "subject": "..."}
    {"type": "node", "id": "n12", "kind": "text", "label": "...", "raw_labels": [...], "source_refs": [["doc1", 3]]}
    {"type": "edge", "kind": "fact", "from": "n12", "to": "n7", "label": "harms"}

Each line is ``json.dumps(record, ensure_ascii=False)``, byte for byte, but
is written from a fixed template per record type and kind: strings go
through ``json.encoder.encode_basestring``, the function that call uses for
them, and the one int of a source ref through ``%d``, which is its repr;
a lone surrogate, which UTF-8 cannot hold, as its JSON escape. The graph's
write path admits only (str, int) source refs of at most ``MAX_DIGITS``
digits, so every graph exports to a snapshot that imports.

Import reads each line that matches its template and holds no escape from
the regex match; every other line goes through ``checks.json_value`` and the
field checks of ``examgraph.checks``, with the same line numbers and
messages. Node labels and fact-edge relations are normalized again on either
path. ``import_graph(export_graph(g))`` reproduces the graph with identical
node ids, labels and edges.
"""

from __future__ import annotations

import re
from functools import partial
from json.encoder import encode_basestring

from ..checks import array, integer, json_value, member, obj, string, strings
from ..errors import KindMismatch, MalformedSnapshot
from ..textutils import normalize_label
from .graph import (ID_PATTERN, MAX_DIGITS, Edge, EdgeKind, KnowledgeGraph, Node, NodeKind,
                    check_edge_kinds, is_source_ref)

SNAPSHOT_FORMAT = "kaqg-kg"
SNAPSHOT_VERSION = 1

# line templates; the kind names are JSON strings that need no escaping
_NODE_LINE = {kind: '{"type": "node", "id": %s, "kind": "' + kind.value
              + '", "label": %s, "raw_labels": [%s], "source_refs": [%s]}'
              for kind in NodeKind}
_EDGE_LINE = {kind: '{"type": "edge", "kind": "' + kind.value + '", "from": %s, "to": %s'
              + (', "label": %s}' if kind is EdgeKind.FACT else "}")
              for kind in EdgeKind}
# kinds by value: the Enum constructor's lookup runs in Python
_NODE_KINDS = {kind.value: kind for kind in NodeKind}
_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}
# The templates as regexes. A string matches only where JSON decoding gives
# exactly its characters (no escape, no control character) and an int only in
# JSON's own form with at most MAX_DIGITS digits, so a matching line reads as
# the JSON path reads it. No string here holds '"', so a raw label list
# splits at '", "'.
_FIELD = {"s": r'[^"\\\x00-\x1f]+', "i": r"-?(?:0|[1-9][0-9]{0,%d})" % (MAX_DIGITS - 1)}
_FIELD["ref"] = r'\["%(s)s", %(i)s\]' % _FIELD
_REF_RE = re.compile(r'\["(%(s)s)", (%(i)s)\]' % _FIELD)
_NODE_RE = re.compile(
    r'\{"type": "node", "id": "(%(s)s)", "kind": "(text|concept|hierarchy)", "label": "(%(s)s)", '
    r'"raw_labels": \[(?:"(%(s)s(?:", "%(s)s)*)")?\], "source_refs": \[(%(ref)s(?:, %(ref)s)*)?\]\}'
    % _FIELD)
_EDGE_RE = re.compile(  # a label exactly where the kind is fact
    r'\{"type": "edge", "kind": "(?:(fact)|(is_a|part_of|include_in))", "from": "(%(s)s)", '
    r'"to": "(%(s)s)"(?(1), "label": "(%(s)s)")\}' % _FIELD)


def _node_sort_key(node_id: str) -> tuple:
    m = ID_PATTERN.match(node_id)
    return (0, int(m.group(1)), "") if m else (1, 0, node_id)


def export_graph(graph: KnowledgeGraph) -> bytes:
    """Serialize one subject graph; output bytes are deterministic."""
    nodes, edges = graph.contents()
    enc = encode_basestring
    lines = ['{"type": "header", "format": %s, "version": %d, "subject": %s}'
             % (enc(SNAPSHOT_FORMAT), SNAPSHOT_VERSION, enc(graph.subject))]
    for node in sorted(nodes, key=lambda n: _node_sort_key(n.id)):
        lines.append(_NODE_LINE[node.kind] % (
            enc(node.id), enc(node.label), ", ".join(map(enc, sorted(node.raw_labels))),
            ", ".join(["[%s, %d]" % (enc(doc), seg) for doc, seg in node.source_refs])))
    for edge in edges:
        lines.append(_EDGE_LINE[edge.kind] % (
            (enc(edge.src), enc(edge.dst), enc(edge.label)) if edge.kind is EdgeKind.FACT
            else (enc(edge.src), enc(edge.dst))))
    # a lone surrogate, which UTF-8 cannot hold, is written as its JSON escape
    return ("\n".join(lines) + "\n").encode("utf-8", "backslashreplace")


def _lines(text: str):
    """(line number, line) for each non-blank line."""
    # records end at "\n" only: JSON leaves U+0085 and U+2028 in a label
    # unescaped, and str.splitlines would break the record there
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if raw and not raw.isspace():
            yield line_no, raw


def _record(raw: str, error) -> dict:
    """A line read as JSON, which must give an object."""
    return obj(json_value(raw, "record", error), "record", error)


def import_graph(stream: bytes | str) -> KnowledgeGraph:
    """Rebuild a graph from snapshot bytes; the caller registers it
    (GraphRegistry.attach raises SubjectCollision on occupied subjects)."""
    try:
        text = stream if isinstance(stream, str) else stream.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedSnapshot(0, f"not valid UTF-8: {exc}") from None
    lines = _lines(text)
    try:
        return _build(lines)
    except MalformedSnapshot:
        # every line is read as JSON before any record is checked, so a
        # later line that is no JSON object is the error to report
        for line_no, raw in lines:
            _record(raw, partial(MalformedSnapshot, line_no))
        raise


def _build(lines) -> KnowledgeGraph:
    """Check each record against the tables built from the lines above it,
    then hand the tables to a new graph in one call."""
    line_no, raw = next(lines, (0, None))
    if raw is None:
        raise MalformedSnapshot(0, "empty snapshot")
    error = partial(MalformedSnapshot, line_no)
    header = _record(raw, error)
    if header.get("type") != "header":
        raise error("first record must be the header")
    if header.get("format") != SNAPSHOT_FORMAT:
        raise error(f"unknown format {header.get('format')!r}")
    integer(header.get("version"), "version", error, low=SNAPSHOT_VERSION, high=SNAPSHOT_VERSION)
    subject = string(header.get("subject"), "header subject", error)
    if not subject.strip():
        raise error("header subject must be a non-empty string")

    nodes: dict[str, Node] = {}
    keys: dict[tuple[NodeKind, str], str] = {}
    edges: dict[Edge, None] = {}
    relations: dict[str, str] = {}  # raw relation -> normalized, once each
    edge_match, node_match = _EDGE_RE.fullmatch, _NODE_RE.fullmatch
    for line_no, raw in lines:
        # a line in an export template is read from the match, any other as
        # JSON with every field checked; most lines are edges
        if m := edge_match(raw):
            fact, link, src, dst, label = m.groups()
            item = Edge(_EDGE_KINDS[fact or link], src, dst, label)
        elif m := node_match(raw):
            node_id, kind, label, raw_labels, refs = m.groups()
            item = Node(node_id, _NODE_KINDS[kind], label,
                        frozenset(raw_labels.split('", "') if raw_labels else ()),
                        tuple([(doc, int(seg)) for doc, seg in _REF_RE.findall(refs)])
                        if refs else ())
        else:
            error = partial(MalformedSnapshot, line_no)
            record = _record(raw, error)
            kind = record.get("type")
            if kind == "node":
                item = _parse_node(record, error)
            elif kind == "edge":
                item = _parse_edge(record, error)
            elif kind == "header":
                raise error("unexpected second header")
            else:
                raise error(f"unknown record type {kind!r}")
        if type(item) is Node:
            label = normalize_label(item.label)
            if not label:
                raise MalformedSnapshot(
                    line_no, f"label {item.label!r} is empty after normalization")
            if label != item.label:
                item = item._replace(label=label)
            key = (item.kind, label)
            if item.id in nodes or key in keys:
                raise MalformedSnapshot(
                    line_no, f"duplicate node {item.id!r} ({item.kind.value}, {label!r})")
            nodes[item.id] = item
            keys[key] = item.id
            continue
        if item.label is not None:
            label = relations.get(item.label)
            if label is None:
                label = relations[item.label] = normalize_label(item.label)
                if not label:
                    raise MalformedSnapshot(
                        line_no, f"relation {item.label!r} is empty after normalization")
            if label != item.label:
                item = item._replace(label=label)
        src, dst = nodes.get(item.src), nodes.get(item.dst)
        if src is None or dst is None:
            missing = item.src if src is None else item.dst
            raise MalformedSnapshot(line_no, f"no node {missing!r} in graph {subject!r}")
        try:
            check_edge_kinds(item.kind, src.kind, dst.kind)
        except KindMismatch as exc:
            raise MalformedSnapshot(line_no, str(exc)) from None
        if item in edges:
            raise MalformedSnapshot(line_no, "duplicate edge")
        edges[item] = None
    graph = KnowledgeGraph(subject)
    graph.load(nodes, keys, edges)
    return graph


def _parse_node(record: dict, error) -> Node:
    node_id = string(record.get("id"), "node id", error)
    if not node_id:
        raise error("node id must be a non-empty string")
    refs = array(record.get("source_refs", []), "source_refs", error)
    for ref in refs:
        if not (isinstance(ref, list) and is_source_ref(ref)):
            raise error(f"bad source_ref {ref!r}")
    return Node(node_id, member(record.get("kind"), "node kind", NodeKind, error),
                string(record.get("label"), "node label", error),
                frozenset(strings(record.get("raw_labels", []), "raw_labels", error)),
                tuple(map(tuple, refs)))


def _parse_edge(record: dict, error) -> Edge:
    kind = member(record.get("kind"), "edge kind", EdgeKind, error)
    label = None
    if kind is EdgeKind.FACT:
        label = string(record.get("label"), "fact edge label", error)
    elif "label" in record:
        raise error(f"{kind.value} edges carry no label")
    return Edge(kind, string(record.get("from"), "edge from", error),
                string(record.get("to"), "edge to", error), label)

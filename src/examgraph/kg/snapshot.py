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
the regex match; every other line goes through ``checks.json_value`` and its
field checks, with the same line numbers and messages. Node labels and fact-edge
relations are normalized again on either path. ``import_graph(export_graph(g))``
reproduces the graph with identical node ids, labels and edges.
"""

from __future__ import annotations

import re
from functools import partial
from json.encoder import encode_basestring

from ..checks import json_value, member
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


def _fail(line_no: int, reason: str):
    raise MalformedSnapshot(line_no, reason)


def _require(record: dict, keys: tuple[str, ...], line_no: int) -> list:
    """The values of ``keys``, failing on the first one missing."""
    try:
        return [record[key] for key in keys]
    except KeyError as exc:
        _fail(line_no, f"missing key {exc.args[0]!r}")


def _lines(text: str):
    """(line number, line) for each non-blank line."""
    # records end at "\n" only: JSON leaves U+0085 and U+2028 in a label
    # unescaped, and str.splitlines would break the record there
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if raw and not raw.isspace():
            yield line_no, raw


def _record(raw: str, line_no: int) -> dict:
    """A line read as JSON, which must give an object."""
    record = json_value(raw, "record", partial(MalformedSnapshot, line_no))
    if not isinstance(record, dict):
        _fail(line_no, "record is not an object")
    return record


def import_graph(stream: bytes | str) -> KnowledgeGraph:
    """Rebuild a graph from snapshot bytes; the caller registers it
    (GraphRegistry.attach raises SubjectCollision on occupied subjects)."""
    try:
        text = stream if isinstance(stream, str) else stream.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(0, f"not valid UTF-8: {exc}")
    lines = _lines(text)
    try:
        return _build(lines)
    except MalformedSnapshot:
        # every line is read as JSON before any record is checked, so a
        # later line that is no JSON object is the error to report
        for line_no, raw in lines:
            _record(raw, line_no)
        raise


def _build(lines) -> KnowledgeGraph:
    """Check each record against the tables built from the lines above it,
    then hand the tables to a new graph in one call."""
    line_no, raw = next(lines, (0, None))
    if raw is None:
        _fail(0, "empty snapshot")
    header = _record(raw, line_no)
    if header.get("type") != "header":
        _fail(line_no, "first record must be the header")
    if header.get("format") != SNAPSHOT_FORMAT:
        _fail(line_no, f"unknown format {header.get('format')!r}")
    version = header.get("version")
    if type(version) is not int or version != SNAPSHOT_VERSION:  # not true, not 1.0
        _fail(line_no, f"unsupported version {version!r}")
    [subject] = _require(header, ("subject",), line_no)
    if not isinstance(subject, str) or not subject.strip():
        _fail(line_no, "header subject must be a non-empty string")

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
            record = _record(raw, line_no)
            kind = record.get("type")
            if kind == "node":
                item = _parse_node(record, line_no)
            elif kind == "edge":
                item = _parse_edge(record, line_no)
            elif kind == "header":
                _fail(line_no, "unexpected second header")
            else:
                _fail(line_no, f"unknown record type {kind!r}")
        if type(item) is Node:
            label = normalize_label(item.label)
            if not label:
                _fail(line_no, f"label {item.label!r} is empty after normalization")
            if label != item.label:
                item = item._replace(label=label)
            key = (item.kind, label)
            if item.id in nodes or key in keys:
                _fail(line_no, f"duplicate node {item.id!r} ({item.kind.value}, {label!r})")
            nodes[item.id] = item
            keys[key] = item.id
            continue
        if item.label is not None:
            label = relations.get(item.label)
            if label is None:
                label = relations[item.label] = normalize_label(item.label)
                if not label:
                    _fail(line_no, f"relation {item.label!r} is empty after normalization")
            if label != item.label:
                item = item._replace(label=label)
        src, dst = nodes.get(item.src), nodes.get(item.dst)
        if src is None or dst is None:
            missing = item.src if src is None else item.dst
            _fail(line_no, f"no node {missing!r} in graph {subject!r}")
        try:
            check_edge_kinds(item.kind, src.kind, dst.kind)
        except KindMismatch as exc:
            _fail(line_no, str(exc))
        if item in edges:
            _fail(line_no, "duplicate edge")
        edges[item] = None
    graph = KnowledgeGraph(subject)
    graph.load(nodes, keys, edges)
    return graph


def _parse_node(record: dict, line_no: int) -> Node:
    node_id, kind_raw, label = _require(record, ("id", "kind", "label"), line_no)
    kind = member(kind_raw, "node kind", NodeKind, partial(MalformedSnapshot, line_no))
    if not isinstance(node_id, str) or not node_id:
        _fail(line_no, "node id must be a non-empty string")
    if not isinstance(label, str) or not label:
        _fail(line_no, "node label must be a non-empty string")
    raw_labels = record.get("raw_labels", [])
    refs = record.get("source_refs", [])
    if not isinstance(raw_labels, list) or not all(isinstance(r, str) for r in raw_labels):
        _fail(line_no, "raw_labels must be a list of strings")
    if not isinstance(refs, list):
        _fail(line_no, "source_refs must be a list")
    for ref in refs:
        if not (isinstance(ref, list) and is_source_ref(ref)):
            _fail(line_no, f"bad source_ref {ref!r}")
    return Node(node_id, kind, label, frozenset(raw_labels), tuple(map(tuple, refs)))


def _parse_edge(record: dict, line_no: int) -> Edge:
    kind_raw, src, dst = _require(record, ("kind", "from", "to"), line_no)
    kind = member(kind_raw, "edge kind", EdgeKind, partial(MalformedSnapshot, line_no))
    if not isinstance(src, str) or not isinstance(dst, str):
        _fail(line_no, "edge from and to must be node id strings")
    if kind is EdgeKind.FACT:
        [label] = _require(record, ("label",), line_no)
        if not isinstance(label, str) or not label:
            _fail(line_no, "fact edge label must be a non-empty string")
    else:
        if "label" in record:
            _fail(line_no, f"{kind.value} edges carry no label")
        label = None
    return Edge(kind, src, dst, label)

"""Per-subject knowledge graphs with typed nodes and edges.

Each subject owns an isolated graph of text entities, concept entities and
hierarchy (chapter) nodes, connected by four edge kinds:

* ``fact``        text -> text, labeled with the relation of an (h, r, t) triple
* ``is_a``        text -> concept (hypernym mapping)
* ``part_of``     hierarchy -> hierarchy (chapter nesting, child to parent)
* ``include_in``  concept -> hierarchy (concept filed under a chapter)

Writers serialize on the graph's lock, and each public write takes it once:
a whole extracted segment folds in one ``fold_segment`` call, so a reader's
``view()`` sees none of the segment or all of it. Every node write goes
through ``_upsert`` and every edge write through ``_link``; each effective
mutation (a new node, raw label, source ref or edge, not an exact
duplicate) bumps ``revision``. A source ref must be a (str, int) pair, the
shape a snapshot holds, of at most ``MAX_DIGITS`` digits. Nodes and edges
are immutable tuples; a write that gives a node a raw label or source ref
swaps in a new ``Node``. Readers
never touch the live dicts but read ``view()``: an immutable snapshot built
at most once per revision, on which derived data such as PageRank scores,
the lexicon and chapter rankings is memoised, and which shares the graph's
node and edge objects.
"""

from __future__ import annotations

import re
import threading
from collections import Counter
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from ..errors import (
    DuplicateSubject,
    EmptyLabel,
    EmptySubject,
    InvalidParams,
    KindMismatch,
    SubjectCollision,
    UnknownNode,
    UnknownSubject,
)
from ..textutils import normalize_label

# The most digits of an int in a snapshot (a segment, an n<digits> id): the
# least value of Python's int/str digit limit, so %d and int() take it always
MAX_DIGITS = 640
_SEGMENT_BOUND = 10 ** MAX_DIGITS
ID_PATTERN = re.compile(r"^n(\d{1,%d})$" % MAX_DIGITS)


class NodeKind(Enum):
    TEXT = "text"
    CONCEPT = "concept"
    HIERARCHY = "hierarchy"
    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python


class EdgeKind(Enum):
    FACT = "fact"
    IS_A = "is_a"
    PART_OF = "part_of"
    INCLUDE_IN = "include_in"
    __hash__ = object.__hash__


# Allowed (source kind, target kind) per edge kind.
_EDGE_TYPING = {
    EdgeKind.FACT: (NodeKind.TEXT, NodeKind.TEXT),
    EdgeKind.IS_A: (NodeKind.TEXT, NodeKind.CONCEPT),
    EdgeKind.PART_OF: (NodeKind.HIERARCHY, NodeKind.HIERARCHY),
    EdgeKind.INCLUDE_IN: (NodeKind.CONCEPT, NodeKind.HIERARCHY),
}
# Edge order of views and snapshots, (src, dst, kind, label): the endpoints'
# kinds fix the edge kind (_EDGE_TYPING), so equal endpoints never differ in it
_EDGE_ORDER = attrgetter("src", "dst", "label")


def check_edge_kinds(kind: EdgeKind, src: NodeKind, dst: NodeKind) -> None:
    """Raise KindMismatch unless an edge of ``kind`` may join these kinds."""
    want_src, want_dst = _EDGE_TYPING[kind]
    if src is not want_src or dst is not want_dst:
        raise KindMismatch(
            f"{kind.value} requires {want_src.value}->{want_dst.value}, "
            f"got {src.value}->{dst.value}")


def _normalized(label: str, what: str = "label") -> str:
    norm = normalize_label(label)
    if not norm:
        raise EmptyLabel(f"{what} {label!r} is empty after normalization")
    return norm


def is_source_ref(pair) -> bool:
    """Whether ``pair`` is a (document id, segment) that a snapshot holds."""
    return (len(pair) == 2 and isinstance(pair[0], str) and type(pair[1]) is int
            and -_SEGMENT_BOUND < pair[1] < _SEGMENT_BOUND)


def _check_source_ref(source_ref) -> None:
    """Refuse a source ref a snapshot could not hold."""
    if source_ref is not None and not (type(source_ref) is tuple and is_source_ref(source_ref)):
        try:
            shown = repr(source_ref)
        except ValueError:  # an int past Python's digit limit has no repr
            shown = "an int past Python's digit limit"
        raise InvalidParams(f"source_ref must be a (str, int) pair with at most "
                            f"{MAX_DIGITS} digits, got {shown}")


class Node(NamedTuple):
    id: str
    kind: NodeKind
    label: str  # normalized form
    raw_labels: frozenset[str] = frozenset()
    source_refs: tuple[tuple[str, int], ...] = ()


class Edge(NamedTuple):
    kind: EdgeKind
    src: str
    dst: str
    label: str | None = None  # relation label, fact edges only


class GraphView:
    """One revision of a graph, frozen: the graph's own immutable nodes sorted
    by id (shared, not copied), sorted edges, in/out adjacency tuples, and a
    memo for data derived from this revision."""

    def __init__(self, graph: KnowledgeGraph):  # under the graph's write lock
        self.subject = graph.subject
        self.revision = graph.revision
        self._by_id = dict(graph._nodes)
        self._by_key = dict(graph._by_key)
        self.nodes = tuple(map(self._by_id.__getitem__, sorted(self._by_id)))
        self.edges = tuple(sorted(graph._edges, key=_EDGE_ORDER))
        # a stable sort by target keeps each node's in-edges in source order
        by_dst = sorted(self.edges, key=attrgetter("dst"))
        self.out_edges = {k: tuple(es) for k, es in groupby(self.edges, attrgetter("src"))}
        self.in_edges = {k: tuple(es) for k, es in groupby(by_dst, attrgetter("dst"))}
        self._memo: dict = {}

    def view(self) -> GraphView:
        return self

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r} in graph {self.subject!r}") from None

    def find_node(self, label: str, kind: NodeKind) -> str | None:
        return self._by_key.get((kind, normalize_label(label)))

    def memo(self, key, compute):
        """``compute()``'s value for ``key``, the first stored if threads race."""
        if key not in self._memo:
            self._memo.setdefault(key, compute())
        return self._memo[key]


class KnowledgeGraph:
    """Mutable typed multigraph for one subject."""

    def __init__(self, subject: str):
        self.subject = subject
        self.revision = 0
        self._nodes: dict[str, Node] = {}
        self._by_key: dict[tuple[NodeKind, str], str] = {}
        # a dict for its order: a view sorts the edges, and timsort is
        # linear on the sorted order in which a snapshot import adds them
        self._edges: dict[Edge, None] = {}
        self._next_id = 0
        self._write_lock = threading.Lock()
        self._view = GraphView(self)

    # -- inspection --

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def view(self) -> GraphView:
        """The immutable view of the current revision."""
        with self._write_lock:
            if self._view.revision != self.revision:
                self._view = GraphView(self)
            return self._view

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r} in graph {self.subject!r}") from None

    def contents(self) -> tuple[list[Node], list[Edge]]:
        """The nodes, unordered, and the edges, in view order, of the
        current revision, read under the lock without building a view."""
        with self._write_lock:
            return list(self._nodes.values()), sorted(self._edges, key=_EDGE_ORDER)

    def nodes(self, kind: NodeKind | None = None) -> list[Node]:
        return [n for n in self.view().nodes if kind is None or n.kind == kind]

    def edges(self, kind: EdgeKind | None = None) -> list[Edge]:
        return [e for e in self.view().edges if kind is None or e.kind == kind]

    def find_node(self, label: str, kind: NodeKind) -> str | None:
        """NodeId for a (normalized) label of the given kind, if present."""
        return self._by_key.get((kind, normalize_label(label)))

    # -- mutation --

    def upsert_entity(self, surface_label: str, kind: NodeKind,
                      source_ref: tuple[str, int] | None = None) -> str:
        """Return the node for this label, creating it if needed.

        Labels that normalize to the same string and share a kind collapse to
        one node; every distinct surface form is retained in ``raw_labels``.
        """
        norm = _normalized(surface_label)
        _check_source_ref(source_ref)
        with self._write_lock:
            return self._upsert(kind, norm, surface_label, source_ref)

    def assert_fact_triple(self, head: str, relation: str, tail: str,
                           source_ref: tuple[str, int] | None = None) -> Edge:
        """Store an (h, r, t) triple: head/tail as text entities plus one
        labeled fact edge. Exact duplicates are idempotent."""
        rel = _normalized(relation, "relation")
        h, t = _normalized(head), _normalized(tail)
        _check_source_ref(source_ref)
        with self._write_lock:
            edge = Edge(EdgeKind.FACT, self._upsert(NodeKind.TEXT, h, head, source_ref),
                        self._upsert(NodeKind.TEXT, t, tail, source_ref), rel)
            self._link(edge)
        return edge

    def assert_link(self, kind: EdgeKind, src: str, dst: str) -> Edge:
        """Add a typed structural edge (is_a / part_of / include_in)."""
        if kind == EdgeKind.FACT:
            raise KindMismatch("fact edges are added via assert_fact_triple")
        edge = Edge(kind, src, dst)
        with self._write_lock:
            check_edge_kinds(kind, self.node(src).kind, self.node(dst).kind)
            self._link(edge)
        return edge

    def fold_segment(self, triples: list[tuple[str, str, str]],
                     concept_map: dict[str, list[str]], labels: dict[str, str],
                     leaf_chapter: str, source_ref: tuple[str, int] | None
                     ) -> tuple[int, int]:
        """Write one segment's extraction in one locked pass: each triple as
        by ``assert_fact_triple``, then for each entity of ``concept_map`` and
        each of its concepts a concept node with an is_a link from the entity
        and an include_in link to ``leaf_chapter``. The caller has checked the
        extraction (``ingestion.validate_extraction``): ``labels`` holds each
        label's non-empty normalized form, written as given, and each entity
        is a head or tail. The source ref and the leaf are checked before the
        first write. Returns the fact edges and concept nodes added."""
        _check_source_ref(source_ref)
        with self._write_lock:
            check_edge_kinds(EdgeKind.INCLUDE_IN, NodeKind.CONCEPT, self.node(leaf_chapter).kind)
            # each surface form once, in first-use order: a repeat of a form
            # with the same source ref would write nothing
            ids = {x: self._upsert(NodeKind.TEXT, labels[x], x, source_ref)
                   for x in dict.fromkeys(x for h, _, t in triples for x in (h, t))}
            edges = len(self._edges)
            for h, r, t in triples:
                self._link(Edge(EdgeKind.FACT, ids[h], ids[t], labels[r]))
            facts, concepts_added = len(self._edges) - edges, 0
            for entity, concepts in concept_map.items():
                entity_id = self._by_key[(NodeKind.TEXT, labels[entity])]
                for concept in concepts:
                    norm = labels[concept]
                    concepts_added += (NodeKind.CONCEPT, norm) not in self._by_key
                    concept_id = self._upsert(NodeKind.CONCEPT, norm, concept, None)
                    self._link(Edge(EdgeKind.IS_A, entity_id, concept_id))
                    self._link(Edge(EdgeKind.INCLUDE_IN, concept_id, leaf_chapter))
        return facts, concepts_added

    def load(self, nodes: dict[str, Node], keys: dict[tuple[NodeKind, str], str],
             edges: dict[Edge, None]) -> None:
        """Fill this empty graph, in one revision, with tables a snapshot
        import has checked: nodes by id, node ids by (kind, normalized
        label) and the edges in snapshot order. The graph keeps all three."""
        next_id = max((int(m.group(1)) + 1 for m in map(ID_PATTERN.match, nodes) if m),
                      default=0)
        with self._write_lock:
            self._nodes, self._by_key, self._edges = nodes, keys, edges
            self._next_id = next_id
            if nodes:
                self.revision += 1

    def _upsert(self, kind: NodeKind, norm: str, surface_label: str,
                source_ref: tuple[str, int] | None) -> str:
        """Every node write: the node of (kind, normalized label), created if
        needed, given the surface form and source ref. Under the lock."""
        revision = self.revision
        node_id = self._by_key.get((kind, norm))
        if node_id is None:
            node_id = f"n{self._next_id}"
            self._next_id += 1
            self._by_key[(kind, norm)] = node_id
            raw_labels, source_refs = frozenset(), ()
            self.revision += 1
        else:
            node = self._nodes[node_id]
            raw_labels, source_refs = node.raw_labels, node.source_refs
        if surface_label not in raw_labels:
            raw_labels |= {surface_label}
            self.revision += 1
        if source_ref is not None and source_ref not in source_refs:
            source_refs += (source_ref,)
            self.revision += 1
        if self.revision != revision:
            self._nodes[node_id] = Node(node_id, kind, norm, raw_labels, source_refs)
        return node_id

    def _link(self, edge: Edge) -> None:
        """Every edge write: add a checked edge unless already there. Under
        the lock."""
        if edge not in self._edges:
            self._edges[edge] = None
            self.revision += 1

    # -- queries --

    def query_neighbors(self, node_id: str, direction: str = "both",
                        kind_filter: EdgeKind | None = None) -> list[tuple[Edge, Node]]:
        """Incident edges with the node on the far end, deterministically
        ordered by (neighbor id, edge kind, label)."""
        view = self.view()
        view.node(node_id)  # raises UnknownNode
        if direction not in ("in", "out", "both"):
            raise InvalidParams(f"direction must be in/out/both, got {direction!r}")
        found: list[tuple[Edge, Node]] = []
        seen: set[tuple[Edge, str]] = set()  # self-loops are incident once
        if direction in ("out", "both"):
            for e in view.out_edges.get(node_id, ()):
                if kind_filter is None or e.kind == kind_filter:
                    found.append((e, view.node(e.dst)))
                    seen.add((e, e.dst))
        if direction in ("in", "both"):
            for e in view.in_edges.get(node_id, ()):
                if (kind_filter is None or e.kind == kind_filter) \
                        and (e, e.src) not in seen:
                    found.append((e, view.node(e.src)))
        found.sort(key=lambda pair: (pair[1].id, pair[0].kind.value, pair[0].label or ""))
        return found

    def stats(self) -> dict:
        view = self.view()
        nodes = Counter({k.value: 0 for k in NodeKind})
        nodes.update(n.kind.value for n in view.nodes)
        edges = Counter({k.value: 0 for k in EdgeKind})
        edges.update(e.kind.value for e in view.edges)
        return {"subject": self.subject, "nodes": nodes, "edges": edges,
                "node_total": len(view.nodes), "edge_total": len(view.edges)}


class GraphRegistry:
    """All subject graphs, keyed by subject label; safe for concurrent
    create/lookup. Cross-subject isolation holds because graphs share no
    state whatsoever."""

    def __init__(self):
        self._graphs: dict[str, KnowledgeGraph] = {}
        self._lock = threading.Lock()

    def create(self, subject: str) -> KnowledgeGraph:
        if not subject or not subject.strip():
            raise EmptySubject("subject label must be non-empty")
        with self._lock:
            if subject in self._graphs:
                raise DuplicateSubject(f"subject {subject!r} already registered")
            graph = KnowledgeGraph(subject)
            self._graphs[subject] = graph
            return graph

    def get(self, subject: str) -> KnowledgeGraph:
        try:
            return self._graphs[subject]
        except KeyError:
            raise UnknownSubject(f"no graph for subject {subject!r}") from None

    def has(self, subject: str) -> bool:
        return subject in self._graphs

    def get_or_create(self, subject: str) -> KnowledgeGraph:
        if not subject or not subject.strip():
            raise EmptySubject("subject label must be non-empty")
        with self._lock:
            if subject not in self._graphs:
                self._graphs[subject] = KnowledgeGraph(subject)
            return self._graphs[subject]

    def subjects(self) -> list[str]:
        return sorted(self._graphs)

    def attach(self, graph: KnowledgeGraph) -> None:
        """Register an existing graph (snapshot import path)."""
        with self._lock:
            if graph.subject in self._graphs:
                raise SubjectCollision(f"subject {graph.subject!r} already occupied")
            self._graphs[graph.subject] = graph

    def __len__(self) -> int:
        return len(self._graphs)

"""Concept and fact ranking over a subject graph.

The score update is the unnormalized recurrence

    PR(v) = (1 - d) + d * sum(PR(u) / outdeg(u) for u in In(v))

iterated to a fixed point from an all-ones start. There is no 1/N factor;
scores are not a probability distribution and are bounded below by (1 - d).
Nodes without outbound edges contribute to no one (their mass leaks), which
keeps the recurrence well defined. Every edge kind counts as one directed
link; parallel edges contribute once each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checks import integer, number
from .errors import EmptyGraph, NotAConcept, NotAHierarchyNode
from .kg import EdgeKind, GraphView, KnowledgeGraph, NodeKind


@dataclass(frozen=True)  # hashable: a config is its own memo key
class PageRankConfig:
    damping: float = 0.85
    tol: float = 1e-9
    max_iter: int = 1000

    def __post_init__(self):
        number(self.damping, "damping", above=0, below=1)
        number(self.tol, "tol", above=0)
        integer(self.max_iter, "max_iter", low=1)


DEFAULT_CONFIG = PageRankConfig()


@dataclass
class PageRankResult:
    scores: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = False


def pagerank(graph: KnowledgeGraph | GraphView,
             config: PageRankConfig = DEFAULT_CONFIG) -> PageRankResult:
    """Fixed-point scores for every node, computed afresh; deterministic for
    a given graph and config (fixed node order, fixed summation order)."""
    view = graph.view()
    if not view.nodes:
        raise EmptyGraph(f"graph {view.subject!r} has no nodes")

    # nodes in id order; edges are sorted source-first, so every in-link
    # list is in ascending source order too
    index = {node.id: i for i, node in enumerate(view.nodes)}
    out_degree = [len(view.out_edges.get(nid, ())) for nid in index]
    incoming = [[index[e.src] for e in view.in_edges.get(nid, ())] for nid in index]

    d = config.damping
    base = 1.0 - d
    scores = [1.0] * len(index)
    converged = False
    for iterations in range(1, config.max_iter + 1):
        share = [s / deg if deg else 0.0 for s, deg in zip(scores, out_degree)]
        new_scores = []
        delta = 0.0
        for old, sources in zip(scores, incoming):
            total = 0.0
            for src in sources:  # not sum(): keep this exact summation order
                total += share[src]
            value = base + d * total
            new_scores.append(value)
            change = abs(value - old)
            if change > delta:
                delta = change
        scores = new_scores
        converged = delta < config.tol
        if converged:
            break
    return PageRankResult(scores=dict(zip(index, scores)),
                          iterations=iterations, converged=converged)


def cached_pagerank(graph: KnowledgeGraph | GraphView,
                    config: PageRankConfig = DEFAULT_CONFIG) -> PageRankResult:
    """``pagerank`` of the current revision, computed once per revision and
    config and shared by every caller; treat the result as read-only."""
    view = graph.view()
    return view.memo(("pagerank", config), lambda: pagerank(view, config))


def _chapter_and_descendants(view: GraphView, chapter: str) -> set[str]:
    # part_of edges run child -> parent, so descendants arrive via in-edges
    members = {chapter}
    stack = [chapter]
    while stack:
        current = stack.pop()
        for edge in view.in_edges.get(current, ()):
            if edge.kind == EdgeKind.PART_OF and edge.src not in members:
                members.add(edge.src)
                stack.append(edge.src)
    return members


def _by_score(view: GraphView, node_ids: set[str],
              config: PageRankConfig) -> list[tuple[str, float]]:
    scores = cached_pagerank(view, config).scores
    ranked = [(nid, scores[nid]) for nid in node_ids]
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


def _cached_ranking(view: GraphView, kind: str, node_id: str, config: PageRankConfig,
                    members) -> list[tuple[str, float]]:
    """``members()`` ranked by ``_by_score``, once per revision, ranking
    kind, node and config; the stored list is shared, so callers copy it."""
    return view.memo((kind, node_id, config), lambda: _by_score(view, members(), config))


def rank_chapter_concepts(graph: KnowledgeGraph | GraphView, chapter: str,
                          config: PageRankConfig = DEFAULT_CONFIG) -> list[tuple[str, float]]:
    """Concepts filed under a chapter (or its nested sub-chapters), highest
    score first; ties break on ascending node id."""
    view = graph.view()
    node = view.node(chapter)
    if node.kind != NodeKind.HIERARCHY:
        raise NotAHierarchyNode(f"{chapter!r} is a {node.kind.value} node")
    return list(_cached_ranking(view, "chapter_concepts", chapter, config, lambda: {
        edge.src
        for ch in _chapter_and_descendants(view, chapter)
        for edge in view.in_edges.get(ch, ())
        if edge.kind == EdgeKind.INCLUDE_IN
    }))


def rank_concept_facts(graph: KnowledgeGraph | GraphView, concept: str, top_m: int,
                       config: PageRankConfig = DEFAULT_CONFIG) -> list[tuple[str, float]]:
    """Text entities tied to a concept by is_a edges, ranked by the same
    whole-graph scores, truncated to the top ``top_m``."""
    view = graph.view()
    node = view.node(concept)
    if node.kind != NodeKind.CONCEPT:
        raise NotAConcept(f"{concept!r} is a {node.kind.value} node")
    integer(top_m, "top_m", low=1)
    return _cached_ranking(view, "concept_facts", concept, config, lambda: {
        edge.src for edge in view.in_edges.get(concept, ()) if edge.kind == EdgeKind.IS_A
    })[:top_m]

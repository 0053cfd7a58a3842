"""Question material: for each top-ranked concept of a chapter, its
top-ranked facts plus the fact edges within one hop."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..checks import integer
from ..errors import NoConceptsInChapter
from ..kg import EdgeKind, GraphView, KnowledgeGraph
from ..ranking import rank_chapter_concepts, rank_concept_facts


@dataclass
class MaterialBundle:
    concept_id: str
    concept_label: str
    chapter_id: str
    chapter_label: str
    facts: list[tuple[str, str]]  # (node id, label), rank order
    sub_connections: list[tuple[str, str, str]] = field(default_factory=list)
    # the revision the bundle was assembled from, which its distractors
    # come from too
    view: GraphView | None = field(default=None, compare=False, repr=False)

    @property
    def fact_ids(self) -> list[str]:
        return [fid for fid, _ in self.facts]

    @property
    def fact_labels(self) -> list[str]:
        return [label for _, label in self.facts]


def _one_hop_fact_triples(view: GraphView, fact_ids: list[str]
                          ) -> list[tuple[str, str, str]]:
    triples: list[tuple[str, str, str]] = []
    seen = set()
    for fid in fact_ids:
        for edge in view.out_edges.get(fid, ()) + view.in_edges.get(fid, ()):
            if edge.kind != EdgeKind.FACT or edge in seen:
                continue
            seen.add(edge)
            triples.append((
                view.node(edge.src).label,
                edge.label or "",
                view.node(edge.dst).label,
            ))
    triples.sort()
    return triples


def assemble_material(graph: KnowledgeGraph | GraphView, chapter: str,
                      top_concepts: int = 10, top_m_facts: int = 5) -> list[MaterialBundle]:
    """Bundles for the chapter's ``top_concepts`` highest-ranked concepts.

    Each bundle carries the concept's ``top_m_facts`` best facts and the
    fact edges one hop from those facts (included unranked).
    """
    integer(top_concepts, "top_concepts", low=1)
    integer(top_m_facts, "top_m_facts", low=1)
    view = graph.view()
    concepts = rank_chapter_concepts(view, chapter)
    chapter_label = view.node(chapter).label
    if not concepts:
        raise NoConceptsInChapter(f"chapter {chapter_label!r} has no concepts")
    bundles = []
    for concept_id, _ in concepts[:top_concepts]:
        ranked_facts = rank_concept_facts(view, concept_id, top_m_facts)
        if not ranked_facts:
            continue
        fact_ids = [fid for fid, _ in ranked_facts]
        bundles.append(MaterialBundle(
            concept_id=concept_id,
            concept_label=view.node(concept_id).label,
            chapter_id=chapter,
            chapter_label=chapter_label,
            facts=[(fid, view.node(fid).label) for fid in fact_ids],
            sub_connections=_one_hop_fact_triples(view, fact_ids),
            view=view,
        ))
    if not bundles:
        raise NoConceptsInChapter(
            f"chapter {chapter_label!r} has concepts but none with facts")
    return bundles

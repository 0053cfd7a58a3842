import dataclasses
import random

import pytest

import examgraph.ranking as ranking_module
from examgraph.errors import EmptyGraph, InvalidParams, NotAConcept, NotAHierarchyNode
from examgraph.kg import EdgeKind, KnowledgeGraph, NodeKind
from examgraph.ranking import (
    PageRankConfig,
    pagerank,
    rank_chapter_concepts,
    rank_concept_facts,
)


def naive_pagerank(nodes, edges, d=0.85, tol=1e-9, max_iter=1000):
    """Independent straight-from-the-formula iteration oracle:
    PR(v) = (1-d) + d * sum(PR(u)/outdeg(u) for u in In(v))."""
    out_degree = {n: 0 for n in nodes}
    incoming = {n: [] for n in nodes}
    for src, dst in edges:
        out_degree[src] += 1
        incoming[dst].append(src)
    scores = {n: 1.0 for n in nodes}
    for _ in range(max_iter):
        new = {}
        for v in nodes:
            total = sum(scores[u] / out_degree[u] for u in sorted(incoming[v]))
            new[v] = (1 - d) + d * total
        if max(abs(new[n] - scores[n]) for n in nodes) < tol:
            return new
        scores = new
    return scores


def graph_from_edges(n_nodes, edges):
    graph = KnowledgeGraph("g")
    ids = [graph.upsert_entity(f"node {i}", NodeKind.TEXT) for i in range(n_nodes)]
    for src, dst in edges:
        graph.assert_fact_triple(f"node {src}", "links", f"node {dst}")
    return graph, ids


def test_config_validation():
    with pytest.raises(ValueError):
        PageRankConfig(damping=0.0)
    with pytest.raises(ValueError):
        PageRankConfig(damping=1.0)
    with pytest.raises(ValueError):
        PageRankConfig(tol=0)
    with pytest.raises(ValueError):
        PageRankConfig(max_iter=0)


@pytest.mark.parametrize("field, value", [
    ("damping", 1), ("damping", 0.0), ("damping", 2.0), ("damping", float("nan")),
    ("tol", float("nan")), ("tol", 0), ("tol", "1e-9"),
    ("max_iter", True), ("max_iter", 0), ("max_iter", 10.0),
])
def test_a_bad_config_value_is_invalid_params(field, value):
    with pytest.raises(InvalidParams) as exc_info:
        PageRankConfig(**{field: value})
    assert exc_info.value.code == "invalid_params"
    assert str(exc_info.value).startswith(f"{field} must be ")


def test_config_is_frozen_and_equal_configs_are_one_key():
    config = PageRankConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.damping = 0.5
    assert config == ranking_module.DEFAULT_CONFIG
    assert hash(config) == hash(PageRankConfig(0.85, 1e-9, 1000))


def test_rank_concept_facts_refuses_a_top_m_below_one():
    graph = KnowledgeGraph("g")
    concept = graph.upsert_entity("tree", NodeKind.CONCEPT)
    for top_m in (0, -1, True):
        with pytest.raises(InvalidParams) as exc_info:
            rank_concept_facts(graph, concept, top_m)
        assert exc_info.value.code == "invalid_params"


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        pagerank(KnowledgeGraph("empty"))


def test_two_node_mutual_link_fixed_point():
    graph, ids = graph_from_edges(2, [(0, 1), (1, 0)])
    result = pagerank(graph)
    assert result.converged
    for node_id in ids:
        assert result.scores[node_id] == 1.0


def test_three_node_dangling_example():
    # A -> C, B -> C; C has no out-links
    graph, ids = graph_from_edges(3, [(0, 2), (1, 2)])
    result = pagerank(graph)
    assert abs(result.scores[ids[0]] - 0.15) < 1e-9
    assert abs(result.scores[ids[1]] - 0.15) < 1e-9
    assert abs(result.scores[ids[2]] - 0.405) < 1e-9


def test_scores_bounded_below_by_base_term():
    rng = random.Random(7)
    n = 30
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(80)}
    edges = [(a, b) for a, b in edges if a != b]
    graph, _ = graph_from_edges(n, edges)
    result = pagerank(graph)
    assert all(score >= 0.15 - 1e-12 for score in result.scores.values())


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_symmetry_on_cycles_and_complete_graphs(n):
    cycle = [(i, (i + 1) % n) for i in range(n)]
    graph, _ = graph_from_edges(n, cycle)
    for score in pagerank(graph).scores.values():
        assert abs(score - 1.0) < 1e-9

    complete = [(i, j) for i in range(n) for j in range(n) if i != j]
    graph, _ = graph_from_edges(n, complete)
    for score in pagerank(graph).scores.values():
        assert abs(score - 1.0) < 1e-9


def test_deterministic_scores_bitwise():
    rng = random.Random(11)
    edges = list({(rng.randrange(20), rng.randrange(20)) for _ in range(50)})
    graph1, _ = graph_from_edges(20, edges)
    graph2, _ = graph_from_edges(20, edges)
    r1 = pagerank(graph1)
    r2 = pagerank(graph2)
    assert r1.scores == r2.scores
    assert r1.iterations == r2.iterations


def test_max_iter_reached_reported():
    # ring fed by an external source converges only geometrically
    graph, _ = graph_from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    result = pagerank(graph, PageRankConfig(tol=1e-30, max_iter=5))
    assert not result.converged
    assert result.iterations == 5


def test_oracle_equivalence_random_graphs():
    rng = random.Random(20240601)
    for _ in range(25):
        n = rng.randint(2, 50)
        possible = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = rng.sample(possible, min(len(possible), rng.randint(1, 3 * n)))
        graph, ids = graph_from_edges(n, edges)
        expected = naive_pagerank(list(range(n)), edges)
        result = pagerank(graph)
        for i in range(n):
            assert abs(result.scores[ids[i]] - expected[i]) < 1e-8


def chapter_fixture():
    """Chapter with two concepts: one backed by 5 facts, one by a single
    fact; facts point at their concepts via is_a (concepts gain in-links)."""
    graph = KnowledgeGraph("g")
    chapter = graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    big = graph.upsert_entity("busy concept", NodeKind.CONCEPT)
    small = graph.upsert_entity("quiet concept", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.INCLUDE_IN, big, chapter)
    graph.assert_link(EdgeKind.INCLUDE_IN, small, chapter)
    for i in range(5):
        fact = graph.upsert_entity(f"busy fact {i}", NodeKind.TEXT)
        graph.assert_link(EdgeKind.IS_A, fact, big)
    lone = graph.upsert_entity("quiet fact", NodeKind.TEXT)
    graph.assert_link(EdgeKind.IS_A, lone, small)
    return graph, chapter, big, small


def test_rank_chapter_concepts_orders_by_support():
    graph, chapter, big, small = chapter_fixture()
    ranked = rank_chapter_concepts(graph, chapter)
    assert [cid for cid, _ in ranked] == [big, small]
    # verify against the oracle on the same unified edge list
    nodes = [n.id for n in graph.nodes()]
    edges = [(e.src, e.dst) for e in graph.edges()]
    expected = naive_pagerank(nodes, edges)
    assert ranked[0][1] == pytest.approx(expected[big], abs=1e-8)
    assert ranked[1][1] == pytest.approx(expected[small], abs=1e-8)


def test_rank_chapter_concepts_includes_descendant_chapters():
    graph, chapter, big, small = chapter_fixture()
    sub = graph.upsert_entity("1.1", NodeKind.HIERARCHY)
    graph.assert_link(EdgeKind.PART_OF, sub, chapter)
    nested = graph.upsert_entity("nested concept", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.INCLUDE_IN, nested, sub)
    fact = graph.upsert_entity("nested fact", NodeKind.TEXT)
    graph.assert_link(EdgeKind.IS_A, fact, nested)
    ranked = rank_chapter_concepts(graph, chapter)
    assert nested in {cid for cid, _ in ranked}


def test_rank_chapter_concepts_empty_and_type_errors():
    graph = KnowledgeGraph("g")
    chapter = graph.upsert_entity("Ch 9", NodeKind.HIERARCHY)
    assert rank_chapter_concepts(graph, chapter) == []
    concept = graph.upsert_entity("c", NodeKind.CONCEPT)
    with pytest.raises(NotAHierarchyNode):
        rank_chapter_concepts(graph, concept)


def test_equal_scores_tie_break_on_node_id():
    graph = KnowledgeGraph("g")
    chapter = graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    first = graph.upsert_entity("aa", NodeKind.CONCEPT)
    second = graph.upsert_entity("bb", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.INCLUDE_IN, first, chapter)
    graph.assert_link(EdgeKind.INCLUDE_IN, second, chapter)
    ranked = rank_chapter_concepts(graph, chapter)
    assert ranked[0][1] == ranked[1][1]
    assert [cid for cid, _ in ranked] == sorted([first, second])


def test_rank_concept_facts_truncation_and_errors():
    graph, chapter, big, small = chapter_fixture()
    all_facts = rank_concept_facts(graph, big, top_m=10)
    assert len(all_facts) == 5
    top_one = rank_concept_facts(graph, big, top_m=1)
    assert top_one == all_facts[:1]
    with pytest.raises(NotAConcept):
        rank_concept_facts(graph, chapter, top_m=3)
    with pytest.raises(ValueError):
        rank_concept_facts(graph, big, top_m=0)


def test_rank_concept_facts_scores_match_global_pagerank():
    graph, chapter, big, small = chapter_fixture()
    global_scores = pagerank(graph).scores
    for fact_id, score in rank_concept_facts(graph, big, top_m=5):
        assert score == global_scores[fact_id]


def test_each_ranking_is_computed_once_per_revision_and_config_and_handed_out_as_a_copy(
        monkeypatch):
    graph, chapter, big, small = chapter_fixture()
    calls = []
    by_score = ranking_module._by_score
    monkeypatch.setattr(ranking_module, "_by_score", lambda *a: calls.append(1) or by_score(*a))
    concepts = rank_chapter_concepts(graph, chapter)
    facts = rank_concept_facts(graph, big, top_m=10)
    assert len(calls) == 2
    expected_concepts, expected_facts = list(concepts), list(facts)
    concepts.clear()
    facts.clear()
    assert rank_chapter_concepts(graph, chapter) == expected_concepts
    assert rank_concept_facts(graph, big, top_m=10) == expected_facts
    assert rank_concept_facts(graph, big, top_m=2) == expected_facts[:2]
    assert len(calls) == 2
    # another config is another ranking
    rank_chapter_concepts(graph, chapter, PageRankConfig(damping=0.5))
    assert len(calls) == 3
    # a new revision ranks again
    extra = graph.upsert_entity("new concept", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.INCLUDE_IN, extra, chapter)
    assert extra in {cid for cid, _ in rank_chapter_concepts(graph, chapter)}
    assert len(calls) == 4

import dataclasses
import json
import random

import pytest

from examgraph.assessment import (
    DEFAULT_TIERS,
    BloomLevel,
    DifficultyTier,
    RubricConfig,
    build_lexicon,
)
from examgraph.errors import (
    AllZeroCounts,
    BadRatios,
    GeneratorFailure,
    InvalidParams,
    MalformedCandidate,
    MalformedItem,
    NoConceptsInChapter,
    UnknownSubject,
)
from examgraph.generation import (
    DEFAULT_TIER_BLOOM,
    ExamBlueprint,
    ExamSession,
    LLMGenerator,
    QuestionItem,
    TemplateGenerator,
    allocate_counts,
    allocation_ratios,
    assemble_material,
    generate_candidate,
    generate_exam,
)
from examgraph.generation.exam import MAX_RETRIES
from examgraph.ingestion import RuleExtractor, SourceDocument, ingest_document
from examgraph.kg import GraphRegistry, KnowledgeGraph, NodeKind
from examgraph.ranking import rank_chapter_concepts

from helpers import ROOTS_A, ROOTS_B, blueprint_dict, build_registry


@pytest.fixture(scope="module")
def corpus():
    registry, lexicon, vocab = build_registry("envsci", ROOTS_A, chapters=3)
    return registry, lexicon, vocab


# --- chapter ratios and apportionment ---

def test_allocation_ratios_examples():
    assert allocation_ratios([2, 3, 5]) == [0.2, 0.3, 0.5]
    assert allocation_ratios([10]) == [1.0]
    with pytest.raises(AllZeroCounts):
        allocation_ratios([0, 0])
    with pytest.raises(ValueError):
        allocation_ratios([-1, 2])


def test_allocation_ratios_sum_to_one():
    rng = random.Random(1)
    for _ in range(100):
        counts = [rng.randint(0, 40) for _ in range(rng.randint(1, 12))]
        if sum(counts) == 0:
            counts[0] = 1
        assert abs(sum(allocation_ratios(counts)) - 1.0) <= 1e-12


def test_allocate_counts_examples():
    third = 1.0 / 3.0
    assert allocate_counts([third, third, third], 10) == [4, 3, 3]
    assert allocate_counts([0.2, 0.3, 0.5], 10) == [2, 3, 5]
    assert allocate_counts([1.0], 7) == [7]


def test_allocate_counts_errors():
    with pytest.raises(BadRatios):
        allocate_counts([0.5, 0.4], 10)
    with pytest.raises(BadRatios):
        allocate_counts([], 10)
    with pytest.raises(ValueError):
        allocate_counts([1.0], 0)


@pytest.mark.parametrize("call", [
    lambda: allocation_ratios([-1, 2]),
    lambda: allocation_ratios([1.5, 2]),
    lambda: allocation_ratios([True, 2]),
    lambda: allocate_counts([1.0], 0),
    lambda: allocate_counts([1.0], 2.0),
], ids=["negative-count", "float-count", "bool-count", "zero-total", "float-total"])
def test_a_bad_count_or_total_is_invalid_params(call):
    with pytest.raises(InvalidParams) as exc_info:
        call()
    assert exc_info.value.code == "invalid_params"


def test_allocate_counts_largest_remainder_properties():
    rng = random.Random(2)
    for _ in range(200):
        k = rng.randint(1, 9)
        weights = [rng.random() + 0.01 for _ in range(k)]
        total_weight = sum(weights)
        ratios = [w / total_weight for w in weights]
        n = rng.randint(1, 60)
        counts = allocate_counts(ratios, n)
        assert sum(counts) == n
        for count, ratio in zip(counts, ratios):
            assert abs(count - ratio * n) < 1.0


# --- blueprints ---

def test_blueprint_json_round_trip():
    data = blueprint_dict()
    blueprint = ExamBlueprint.from_dict(data)
    assert blueprint.total == 30
    assert blueprint.to_dict()["sections"][0]["tiers"] == \
        {"basic": 4, "applied": 3, "comprehensive": 3}
    assert ExamBlueprint.from_dict(blueprint.to_dict()).sha256() == blueprint.sha256()


def test_blueprint_validation():
    bad = blueprint_dict()
    bad["sections"][0]["count"] = 99  # tiers no longer sum to count
    with pytest.raises(ValueError):
        ExamBlueprint.from_dict(bad)
    with pytest.raises(ValueError):
        ExamBlueprint(subject="s", sections=[])
    with pytest.raises(InvalidParams):
        ExamBlueprint.from_dict(dict(blueprint_dict(), weights=[1.0] * 6))
    negative = blueprint_dict()
    negative["sections"][0]["count"] = -1
    with pytest.raises(ValueError, match="section count must be >= 0"):
        ExamBlueprint.from_dict(negative)


@pytest.mark.parametrize("count", [2.7, 3.0, True, "3", None])
def test_blueprint_counts_must_be_json_integers(count):
    """int() would read 2.7 as 2, true as 1 and "3" as 3."""
    for where in ("count", "tier"):
        data = blueprint_dict()
        section = data["sections"][0]
        if where == "count":
            section["count"] = count
        else:
            section["tiers"]["basic"] = count
        with pytest.raises(InvalidParams):
            ExamBlueprint.from_dict(data)


@pytest.mark.parametrize("change", [
    pytest.param(lambda data: data["sections"][0]["tiers"].update(hard=1), id="unknown-tier"),
    pytest.param(lambda data: data["sections"][0].pop("chapter"), id="no-chapter"),
    pytest.param(lambda data: data["sections"][0].update(chapter=1), id="chapter-number"),
    pytest.param(lambda data: data["sections"][0].pop("count"), id="no-count"),
    pytest.param(lambda data: data["sections"][0].update(tiers=[4, 3, 3]), id="tiers-list"),
    pytest.param(lambda data: data.update(sections="x"), id="sections-string"),
    pytest.param(lambda data: data["sections"].append("x"), id="section-string"),
])
def test_blueprint_shapes_from_json_are_checked(change):
    """Not the ValueError, KeyError or AttributeError of the value's first
    use."""
    data = blueprint_dict()
    change(data)
    with pytest.raises(InvalidParams):
        ExamBlueprint.from_dict(data)


def test_blueprint_is_frozen():
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    with pytest.raises(dataclasses.FrozenInstanceError):
        blueprint.epsilon = 0.0
    assert blueprint.epsilon is None


# --- material assembly ---

def test_assemble_material_single_concept():
    from examgraph.kg import EdgeKind

    graph = KnowledgeGraph("s")
    chapter = graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    concept = graph.upsert_entity("tree", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.INCLUDE_IN, concept, chapter)
    for name in ["oak", "pine"]:
        node = graph.upsert_entity(name, NodeKind.TEXT)
        graph.assert_link(EdgeKind.IS_A, node, concept)
    graph.assert_fact_triple("oak", "outgrows", "pine")

    bundles = assemble_material(graph, chapter, top_concepts=5, top_m_facts=5)
    assert len(bundles) == 1
    bundle = bundles[0]
    assert bundle.concept_label == "tree"
    assert set(bundle.fact_labels) == {"oak", "pine"}
    assert ("oak", "outgrows", "pine") in bundle.sub_connections
    for counts in ({"top_concepts": 0}, {"top_m_facts": 0}, {"top_m_facts": 2.0}):
        with pytest.raises(InvalidParams) as exc_info:
            assemble_material(graph, chapter, **counts)
        assert exc_info.value.code == "invalid_params"


def test_assemble_material_selects_top_ranked_concepts(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    ranked = rank_chapter_concepts(graph, chapter)
    assert len(ranked) >= 4
    bundles = assemble_material(graph, chapter, top_concepts=2, top_m_facts=3)
    assert [b.concept_id for b in bundles] == [cid for cid, _ in ranked[:2]]
    for bundle in bundles:
        assert 1 <= len(bundle.facts) <= 3


def test_assemble_material_empty_chapter():
    graph = KnowledgeGraph("s")
    chapter = graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    with pytest.raises(NoConceptsInChapter):
        assemble_material(graph, chapter)


# --- template generator ---

def test_template_generator_structural_validity(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    bundles = assemble_material(graph, chapter)
    generator = TemplateGenerator(graph, seed=5)
    for tier in DifficultyTier:
        item = generate_candidate(bundles[0], tier, DEFAULT_TIER_BLOOM[tier],
                                  generator, attempt=0, subject="envsci")
        assert len(item.options) == 4
        assert len(set(item.options)) == 4
        assert 0 <= item.answer_index <= 3
        assert item.provenance.concept == bundles[0].concept_id
        assert item.provenance.subject == "envsci"
        # the key really is the bundle's top fact
        assert bundles[0].fact_labels[0] in item.options[item.answer_index]


def test_template_generator_deterministic(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    bundle = assemble_material(graph, chapter)[0]
    a = TemplateGenerator(graph, seed=9).generate(
        bundle, DifficultyTier.BASIC_RECALL, BloomLevel.REMEMBER, 0)
    b = TemplateGenerator(graph, seed=9).generate(
        bundle, DifficultyTier.BASIC_RECALL, BloomLevel.REMEMBER, 0)
    assert a == b
    c = TemplateGenerator(graph, seed=10).generate(
        bundle, DifficultyTier.BASIC_RECALL, BloomLevel.REMEMBER, 0)
    assert set(c.options) == set(a.options)  # same pool, order may differ


def test_template_generator_attempt_changes_variant(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    bundle = assemble_material(graph, chapter)[0]
    generator = TemplateGenerator(graph, seed=4)
    first = generator.generate(bundle, DifficultyTier.BASIC_RECALL,
                               BloomLevel.REMEMBER, 1)
    second = generator.generate(bundle, DifficultyTier.BASIC_RECALL,
                                BloomLevel.REMEMBER, 2)
    assert first.stem != second.stem


def test_template_generator_distractors_from_siblings(corpus):
    registry, lexicon, _ = corpus
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    bundles = assemble_material(graph, chapter)
    generator = TemplateGenerator(graph, seed=0)
    item = generator.generate(bundles[0], DifficultyTier.BASIC_RECALL,
                              BloomLevel.REMEMBER, 0)
    key = item.options[item.answer_index]
    own_concept = bundles[0].concept_label
    for option in item.options:
        if option == key:
            assert lexicon[key] == [own_concept]
        else:
            # a distractor is never a member of the asked concept
            assert lexicon[option] != [own_concept]


def test_generator_without_material_fails():
    graph = KnowledgeGraph("s")
    chapter = graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    from examgraph.kg import EdgeKind

    concept = graph.upsert_entity("tree", NodeKind.CONCEPT)
    graph.assert_link(EdgeKind.INCLUDE_IN, concept, chapter)
    node = graph.upsert_entity("oak", NodeKind.TEXT)
    graph.assert_link(EdgeKind.IS_A, node, concept)
    bundle = assemble_material(graph, chapter)[0]
    with pytest.raises(GeneratorFailure):
        # only one fact in the whole graph: no distractors anywhere
        TemplateGenerator(graph).generate(bundle, DifficultyTier.BASIC_RECALL,
                                          BloomLevel.REMEMBER, 0)


class ThreeOptionGenerator:
    def generate(self, bundle, tier, bloom, attempt):
        return QuestionItem(id="x", stem="Which?", options=["a", "b", "c"],
                            answer_index=0, bloom=bloom, tier=tier)


def test_generate_candidate_rejects_malformed(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    bundle = assemble_material(graph, chapter)[0]
    with pytest.raises(MalformedCandidate):
        generate_candidate(bundle, DifficultyTier.BASIC_RECALL,
                           BloomLevel.REMEMBER, ThreeOptionGenerator(), 0)


@pytest.mark.parametrize("change", [
    pytest.param({"options": "wxyz"}, id="options-string"),
    pytest.param({"options": ["w", "x", "y", 4]}, id="option-number"),
    pytest.param({"options": {"w": 0, "x": 1, "y": 2, "z": 3}}, id="options-object"),
    pytest.param({"answer_index": True}, id="answer-true"),
    pytest.param({"answer_index": False}, id="answer-false"),
    pytest.param({"answer_index": 1.7}, id="answer-fraction"),
    pytest.param({"answer_index": "x"}, id="answer-string"),
    pytest.param({"answer_index": 4}, id="answer-out-of-range"),
    pytest.param({"stem": 5}, id="stem-number"),
    pytest.param({"stem": None}, id="stem-null"),
    pytest.param({"bloom": 7}, id="bloom-number"),
    pytest.param({"bloom": "ponder"}, id="bloom-unknown"),
    pytest.param({"tier": "hard"}, id="tier-unknown"),
    pytest.param({"id": 5}, id="id-number"),
    pytest.param({"provenance": "x"}, id="provenance-string"),
    pytest.param({"provenance": {"subject": "s", "concept": "c", "chapter": "h",
                                 "facts": "f"}}, id="provenance-facts-string"),
])
def test_question_item_from_payload_rejects_malformed_fields(change):
    """list() would split "wxyz" into four one-letter options, which the
    rubric grades and may pass, and int() would take true as 1 and 1.7 as
    1, which then passes."""
    payload = {"stem": "Define erosion in context.",
               "options": ["one", "two", "three", "four"], "answer_index": 0}
    assert QuestionItem.from_payload(payload).options == payload["options"]
    with pytest.raises(MalformedItem):
        QuestionItem.from_payload(payload | change)


def test_llm_generator_contract(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    bundle = assemble_material(graph, chapter)[0]

    seen = {}

    def fake_complete(system, user):
        seen["system"] = system
        seen["user"] = user
        return json.dumps({"stem": "Pick one.", "options": ["a", "b", "c", "d"],
                           "answer_index": 2})

    item = LLMGenerator(fake_complete).generate(
        bundle, DifficultyTier.BASIC_RECALL, BloomLevel.REMEMBER, 0)
    assert item.answer_index == 2
    assert '"answer_index"' in seen["system"]
    # the prompt serializes sub-connection triples as "h r t" lines
    assert any(len(line.split(" ")) >= 3 for line in seen["user"].splitlines()
               if line and ":" not in line)

    for reply in ("not json", "[]", json.dumps({"stem": "Pick one.", "options": "abcd",
                                                 "answer_index": 2}),
                  json.dumps({"stem": "Pick one.", "options": ["a", "b", "c", "d"],
                              "answer_index": True})):
        with pytest.raises(MalformedCandidate):
            LLMGenerator(lambda s, u: reply).generate(
                bundle, DifficultyTier.BASIC_RECALL, BloomLevel.REMEMBER, 0)
    with pytest.raises(GeneratorFailure):
        LLMGenerator(lambda s, u: (_ for _ in ()).throw(ConnectionError())).generate(
            bundle, DifficultyTier.BASIC_RECALL, BloomLevel.REMEMBER, 0)


# --- generate_exam ---

def test_generate_exam_single_basic_item(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    blueprint = ExamBlueprint.from_dict({
        "subject": "envsci",
        "sections": [{"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}],
    })
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=3),
                         RubricConfig(), seed=3)
    assert len(exam.items) == 1
    assert exam.complete
    item = exam.items[0]
    assert abs(item["difficulty"] - 9.0) <= 2.0


def test_generate_exam_conservation(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=1),
                         RubricConfig(), seed=1)
    unfilled_total = sum(cell["missing"] for cell in exam.unfilled)
    assert len(exam.items) + unfilled_total == 30
    per_chapter = {}
    for item in exam.items:
        chapter = item["provenance"]["chapter"]
        per_chapter[chapter] = per_chapter.get(chapter, 0) + 1
    assert all(count <= 10 for count in per_chapter.values())


def test_generate_exam_empty_graph_unfillable():
    registry = GraphRegistry()
    graph = registry.create("bare")
    graph.upsert_entity("x", NodeKind.TEXT)  # non-empty but useless
    blueprint = ExamBlueprint.from_dict({
        "subject": "bare",
        "sections": [{"chapter": "Ch 1", "count": 2,
                      "tiers": {"basic": 1, "applied": 1}}],
    })
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph),
                         RubricConfig())
    assert exam.items == []
    assert sum(cell["missing"] for cell in exam.unfilled) == 2
    assert all(cell["error_code"] == "insufficient_material"
               for cell in exam.unfilled)


def test_generate_exam_unknown_subject(corpus):
    registry, _, _ = corpus
    blueprint = ExamBlueprint.from_dict({
        "subject": "ghost",
        "sections": [{"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}],
    })
    with pytest.raises(UnknownSubject):
        generate_exam(registry, blueprint,
                      TemplateGenerator(registry.get("envsci")))


def test_generate_exam_deterministic_bytes(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    one = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=42),
                        RubricConfig(), seed=42)
    two = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=42),
                        RubricConfig(), seed=42)
    assert one.to_json().encode() == two.to_json().encode()


def test_generate_exam_items_reevaluate_within_band(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    lexicon = build_lexicon(graph)
    rubric = RubricConfig()
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=6),
                         rubric, seed=6)
    assert exam.complete
    for payload in exam.items:
        item = QuestionItem.from_payload(payload)
        tier = DifficultyTier(payload["tier"])
        result = rubric.evaluate(item, rubric.tiers[tier], lexicon)
        assert result.passed
        assert result.difficulty == payload["difficulty"]


def test_generate_exam_provenance_closure(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=2),
                         RubricConfig(), seed=2)
    for payload in exam.items:
        prov = payload["provenance"]
        assert prov["subject"] == "envsci"
        # node() raises unknown_node for an id the graph does not hold
        assert graph.node(prov["concept"]).id == prov["concept"]
        assert graph.node(prov["chapter"]).id == prov["chapter"]
        for fact in prov["facts"]:
            assert graph.node(fact).id == fact


def test_retry_ladder_alternates_variant_then_bundle():
    from examgraph.generation.exam import _attempt_pairs

    # (b0,v0) -> next variant -> next bundle -> next variant -> next bundle
    assert _attempt_pairs(0, 4, 5) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
    # slot rotation: later slots start at later bundles
    assert _attempt_pairs(2, 4, 5) == [(2, 0), (2, 1), (3, 1), (3, 2), (0, 2)]
    # a single bundle advances the template variant on every step
    assert _attempt_pairs(0, 1, 5) == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]


def test_hostile_key_label_absorbed_by_sibling_distractors():
    """A concept whose facts have long shared-word labels still yields a
    passing basic item because distractors come from sibling concepts."""
    from examgraph.ingestion import RuleExtractor, SourceDocument, ingest_document

    hyp = {
        "deep sea thermal vent plume": ["vent system"],
        "deep sea thermal vent crust": ["vent system"],
        "quartz": ["mineral"], "basalt": ["mineral"],
        "gneiss": ["mineral"], "schist": ["mineral"],
    }
    sentences = [
        "The deep sea thermal vent crust supports the deep sea thermal vent plume.",
        "The quartz supports the deep sea thermal vent plume.",
        "The basalt supports the deep sea thermal vent plume.",
        "The quartz supports the basalt.", "The gneiss affects the quartz.",
        "The schist needs the gneiss.",
    ]
    registry = GraphRegistry()
    ingest_document(registry,
                    SourceDocument(doc_id="d", subject="geo",
                                   chapter_path=["Ch 1"],
                                   body=" ".join(sentences)),
                    RuleExtractor(hyp))
    graph = registry.get("geo")
    blueprint = ExamBlueprint.from_dict({
        "subject": "geo",
        "sections": [{"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}],
    })
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=0),
                         RubricConfig(), seed=0)
    assert exam.complete
    item = exam.items[0]
    key = item["options"][item["answer_index"]]
    assert key == "deep sea thermal vent plume"
    distractors = [o for i, o in enumerate(item["options"])
                   if i != item["answer_index"]]
    assert all(len(d.split()) == 1 for d in distractors)


def test_generate_exam_against_parent_of_nested_chapters():
    """Concepts filed under subchapters are reachable when the blueprint
    names the parent chapter."""
    from examgraph.ingestion import RuleExtractor, SourceDocument, ingest_document

    from helpers import corpus_documents

    flat_docs, lexicon, _ = corpus_documents("nested", ROOTS_A, chapters=2)
    registry = GraphRegistry()
    extractor = RuleExtractor(lexicon)
    for i, flat in enumerate(flat_docs):
        nested = SourceDocument(
            doc_id=flat.doc_id, subject=flat.subject,
            chapter_path=["Unit 1", f"1.{i + 1}"],  # both under one parent
            body=flat.body, format=flat.format)
        ingest_document(registry, nested, extractor, append=(i > 0))

    graph = registry.get("nested")
    blueprint = ExamBlueprint.from_dict({
        "subject": "nested",
        "sections": [{"chapter": "Unit 1", "count": 3,
                      "tiers": {"basic": 1, "applied": 1, "comprehensive": 1}}],
    })
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=8),
                         RubricConfig(), seed=8)
    assert exam.complete
    parent = graph.find_node("Unit 1", NodeKind.HIERARCHY)
    subchapters = {graph.find_node("1.1", NodeKind.HIERARCHY),
                   graph.find_node("1.2", NodeKind.HIERARCHY)}
    for payload in exam.items:
        assert payload["provenance"]["chapter"] == parent
    assert None not in subchapters


def test_rejects_log_records_failed_candidates(corpus):
    registry, _, _ = corpus
    graph = registry.get("envsci")
    # force failures: an impossible target with a tight epsilon
    tiers = dict(DEFAULT_TIERS) | {DifficultyTier.BASIC_RECALL: 21.0}
    rubric = RubricConfig(tiers=tiers, epsilon=0.5)
    blueprint = ExamBlueprint.from_dict({
        "subject": "envsci",
        "sections": [{"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}],
    })
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=0),
                         rubric, seed=0, max_retries=3)
    assert not exam.items
    assert len(exam.rejects) == 3
    for reject in exam.rejects:
        assert reject["reason"] == "gate_failed"
        assert reject["difficulty"] < 20
        assert reject["breakdown"]
    assert exam.unfilled[0]["missing"] == 1


# --- the generate/evaluate/retry loop ---

@pytest.mark.parametrize("knobs", [
    pytest.param({"max_retries": 0}, id="retries-zero"),
    pytest.param({"max_retries": MAX_RETRIES + 1}, id="retries-over-bound"),
    pytest.param({"max_retries": 2.5}, id="retries-fraction"),
    pytest.param({"max_retries": True}, id="retries-bool"),
    pytest.param({"top_concepts": 0}, id="top-concepts-zero"),
    pytest.param({"top_m_facts": "3"}, id="top-facts-string"),
])
def test_exam_session_checks_its_knobs(corpus, knobs):
    """The CLI, the library call and the bus share this check; the bound
    itself is legal. The session is only built, never run."""
    registry, _, _ = corpus
    graph = registry.get("envsci")
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    ExamSession(graph, blueprint, TemplateGenerator(graph), max_retries=MAX_RETRIES)
    with pytest.raises(InvalidParams):
        ExamSession(graph, blueprint, TemplateGenerator(graph), **knobs)


def test_always_failing_generator_logs_rejects_and_exhausts_slot(corpus):
    registry, _, _ = corpus
    blueprint = ExamBlueprint.from_dict({
        "subject": "envsci",
        "sections": [{"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}],
    })
    exam = generate_exam(registry, blueprint, ThreeOptionGenerator(),
                         RubricConfig(), max_retries=4)
    assert exam.items == []
    assert len(exam.rejects) == 4
    assert {r["reason"] for r in exam.rejects} == {"malformed_candidate"}
    assert all(r["message"] for r in exam.rejects)
    assert exam.unfilled == [{"chapter": "Ch 1", "tier": "basic", "missing": 1,
                              "error_code": "insufficient_material",
                              "reason": "retries_exhausted"}]


def test_slots_in_one_cell_never_reuse_an_accepted_pair(corpus, monkeypatch):
    from examgraph.generation import ExamSession

    registry, _, _ = corpus
    graph = registry.get("envsci")
    accepted = []
    record_result = ExamSession.record_result

    def spy(self, candidate, result):
        ok = record_result(self, candidate, result)
        if ok:
            accepted.append((candidate.bundle_index, candidate.attempt))
        return ok

    monkeypatch.setattr(ExamSession, "record_result", spy)
    # six slots over four bundles: slots 4 and 5 start on pairs already taken
    blueprint = ExamBlueprint.from_dict({
        "subject": "envsci",
        "sections": [{"chapter": "Ch 1", "count": 6, "tiers": {"basic": 6}}],
    })
    exam = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=0),
                         RubricConfig(epsilon=100.0))
    assert exam.complete
    assert accepted == [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]


def test_record_result_refuses_a_candidate_that_is_not_pending(corpus):
    """The refused verdict changes nothing: the pending candidate stays
    pending, and the session still builds generate_exam's exam."""
    registry, _, _ = corpus
    graph = registry.get("envsci")
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    session = ExamSession(graph, blueprint, TemplateGenerator(graph, seed=3), seed=3)
    pending = session.next_candidate()
    stale = dataclasses.replace(pending)
    with pytest.raises(InvalidParams, match="pending candidate"):
        session.record_result(stale, session.evaluate(pending))
    assert session.pending is pending
    for candidate in iter(session.next_candidate, None):
        session.record_result(candidate, session.evaluate(candidate))
    reference = generate_exam(registry, blueprint, TemplateGenerator(graph, seed=3), seed=3)
    assert session.build_exam().to_json() == reference.to_json()


def test_chapter_with_no_concepts_is_unfilled_with_its_reason():
    registry = GraphRegistry()
    ingest_document(registry, SourceDocument(
        "d1", "s", ["Ch 1"], "The oak supports the fern. The elm needs the ash.", "plain"),
        RuleExtractor({}))  # no lexicon: facts, but no concept above them
    blueprint = ExamBlueprint.from_dict({
        "subject": "s", "sections": [{"chapter": "Ch 1", "count": 2, "tiers": {"basic": 2}}]})
    exam = generate_exam(registry, blueprint, TemplateGenerator(registry.get("s")))
    assert exam.items == [] and exam.rejects == []
    assert exam.unfilled == [{"chapter": "Ch 1", "tier": "basic", "missing": 2,
                              "error_code": "insufficient_material",
                              "reason": "chapter 'ch 1' has no concepts"}]


def test_loop_call_counts(corpus, monkeypatch):
    import examgraph.generation.exam as exam_module
    from examgraph.generation import ExamSession

    registry, _, _ = corpus
    graph = registry.get("envsci")
    calls = {"assemble": 0, "record": 0, "evaluate": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(exam_module, "assemble_material",
                        counted("assemble", exam_module.assemble_material))
    monkeypatch.setattr(ExamSession, "record_result",
                        counted("record", ExamSession.record_result))
    monkeypatch.setattr(RubricConfig, "evaluate",
                        counted("evaluate", RubricConfig.evaluate))
    spec = blueprint_dict()
    spec["epsilon"] = 0.05  # forces rejects and retries
    exam = generate_exam(registry, ExamBlueprint.from_dict(spec),
                         TemplateGenerator(graph, seed=11), seed=11)
    gate_failed = [r for r in exam.rejects if r["reason"] == "gate_failed"]
    assert gate_failed
    assert calls["assemble"] == len(spec["sections"])
    # a later slot logs a copy of a reject its cell already graded
    graded = {(r["chapter"], r["tier"], r["attempt"], r["bundle_index"]) for r in gate_failed}
    assert len(graded) < len(gate_failed)
    assert calls["record"] == calls["evaluate"] == len(exam.items) + len(graded)


def test_exam_48_shaped_op_reads_its_header_by_json_and_ranks_each_chapter_and_concept_once(
        monkeypatch):
    """The benchmark's exam op on a corpus of its shape: 48 chapters of four
    concepts, ten items a chapter. The snapshot's node and edge lines are
    read by template, and material and distractor pools share one ranking
    per chapter and per concept."""
    import itertools

    import examgraph.ranking as ranking_module
    from examgraph.kg import export_graph, import_graph

    roots = ["".join(p) for p in itertools.product("bdfgkmnprstvz", "aeiou", "bdgklnrsx")]
    registry, _, _ = build_registry("bio", roots[:48 * 4], chapters=48)
    snapshot = export_graph(registry.get("bio"))
    loads, by_score = [], []
    json_loads, rank = json.loads, ranking_module._by_score
    monkeypatch.setattr(json, "loads", lambda *a, **kw: loads.append(1) or json_loads(*a, **kw))
    monkeypatch.setattr(ranking_module, "_by_score",
                        lambda *a: by_score.append(1) or rank(*a))
    graph = import_graph(snapshot)
    assert len(loads) == 1
    imported = GraphRegistry()
    imported.attach(graph)
    exam = generate_exam(imported, ExamBlueprint.from_dict(blueprint_dict("bio", 48)),
                         TemplateGenerator(graph, seed=42), seed=42)
    assert len(exam.items) == 480
    assert len(by_score) == 48 + 48 * 4 == 240


def test_tight_blueprint_grades_each_pair_once_per_cell():
    """The golden tight-epsilon blueprint: later slots of a cell reach pairs
    an earlier slot saw rejected, log a copy of that reject and generate
    and grade nothing for it."""
    registry, _, _ = build_registry("envsci", ROOTS_A + ROOTS_B, chapters=6)
    graph = registry.get("envsci")
    spec = dict(blueprint_dict("envsci", 6), epsilon=0.05)
    session = ExamSession(graph, ExamBlueprint.from_dict(spec),
                          TemplateGenerator(graph, seed=11), seed=11)
    graded = []
    for candidate in iter(session.next_candidate, None):
        graded.append((candidate.slot.section, candidate.slot.tier,
                       candidate.attempt, candidate.bundle_index))
        session.record_result(candidate, session.evaluate(candidate))
    assert len(graded) == len(set(graded))
    logged = [(r["chapter"], r["tier"], r["attempt"], r["bundle_index"])
              for r in session.rejects]
    assert len(set(logged)) < len(logged)


def test_words_outside_ascii_stay_whole_from_ingest_to_grading():
    """Letters outside ASCII are word letters: a French/Swedish chapter
    ingests whole labels, and the rubric grades an exam over it on whole
    tokens."""
    from examgraph.ingestion import RuleExtractor, SourceDocument, ingest_document
    from examgraph.textutils import tokenize

    registry = GraphRegistry()
    ingest_document(registry, SourceDocument(
        doc_id="kapitel", subject="språk", chapter_path=["Kapitel 1"],
        body="Le café contains caféine. The fjäll supports the ljung."),
        RuleExtractor())
    labels = {node.label for node in registry.get("språk").view().nodes}
    assert {"le café", "caféine", "fjäll", "ljung"} <= labels

    registry, _, _ = build_registry("ord", ["café", "fjäll", "smör", "ström"], chapters=1)
    graph = registry.get("ord")
    exam = generate_exam(registry, ExamBlueprint.from_dict(blueprint_dict("ord", 1, 2, 1, 1)),
                         TemplateGenerator(graph, seed=3), seed=3).to_dict()
    lexicon = build_lexicon(graph)
    assert len(exam["items"]) == 4
    for item in exam["items"]:
        words = [word.strip("?.,:").lower() for word in item["stem"].split()]
        assert tokenize(item["stem"]) == words
        raw = {row["feature"]: row["raw"] for row in item["breakdown"]}
        assert raw["vocab_density"] == sum(word in lexicon for word in words) / len(words)

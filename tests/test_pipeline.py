import json
import queue

import pytest

from examgraph.assessment import RubricConfig, build_lexicon
from examgraph.bus import MessageBus, TcpBusClient, TcpBusServer, run_pipeline
from examgraph.generation import (
    ExamBlueprint,
    QuestionItem,
    TemplateGenerator,
    generate_exam,
)
from examgraph.generation.exam import MAX_RETRIES
from examgraph.ingestion import RuleExtractor, SourceDocument, ingest_document
from examgraph.kg import EdgeKind, GraphRegistry, NodeKind

from helpers import ROOTS_A, ROOTS_B, blueprint_dict, build_registry, corpus_documents


def drain(sub, timeout=0.3):
    collected = []
    while True:
        try:
            message = sub.get(timeout=timeout)
        except queue.Empty:
            return collected
        if message is None:
            return collected
        collected.append(message)


@pytest.fixture
def stack():
    documents, lexicon, _ = corpus_documents("envsci", ROOTS_A, chapters=1)
    registry = GraphRegistry()
    bus = MessageBus()
    pipeline = run_pipeline(bus, registry, RuleExtractor(lexicon))
    try:
        yield bus, registry, pipeline, documents, lexicon
    finally:
        pipeline.stop()
        bus.close()


def publish_and_wait(bus, sub, topic, payload, correlation_id, timeout=15):
    bus.publish(topic, payload, sender="client", correlation_id=correlation_id)
    while True:
        message = sub.get(timeout=timeout)
        if message is None:
            raise AssertionError("bus closed while waiting")
        if message.correlation_id == correlation_id:
            return message


def test_ingest_and_single_item_exam_equivalence(stack):
    bus, registry, pipeline, documents, lexicon = stack
    reports = bus.subscribe("watch-report", "ingest/report")
    completes = bus.subscribe("watch-complete", "exam/complete")
    qualified = bus.subscribe("watch-qualified", "exam/qualified")

    document = documents[0]
    report = publish_and_wait(bus, reports, "ingest/request", {
        "doc": {
            "doc_id": document.doc_id,
            "subject": document.subject,
            "chapter_path": document.chapter_path,
            "body": document.body,
            "format": document.format,
        },
    }, "ingest-1")
    assert report.payload["failures"] == []
    assert report.payload["triples_added"] > 0

    blueprint = {"subject": "envsci", "sections": [
        {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}
    complete = publish_and_wait(bus, completes, "exam/request",
                                {"blueprint": blueprint, "seed": 42}, "exam-1")
    assert complete.payload["item_count"] == 1

    qualified_messages = drain(qualified)
    assert len(qualified_messages) == 1

    # library-call path over an identically built registry
    reference_registry = GraphRegistry()
    ingest_document(reference_registry, document, RuleExtractor(lexicon))
    reference = generate_exam(
        reference_registry, ExamBlueprint.from_dict(blueprint),
        TemplateGenerator(reference_registry.get("envsci"), seed=42),
        RubricConfig(), seed=42)
    assert json.dumps(complete.payload, sort_keys=True) == \
        json.dumps(reference.to_dict(), sort_keys=True)
    # the verdict names its slot and carries the evaluation, not the item
    verdict = qualified_messages[0].payload
    assert verdict["evaluation"]["breakdown"] == reference.items[0]["breakdown"]
    assert verdict["slot"] == {"section": 0, "chapter": "Ch 1",
                               "tier": reference.items[0]["tier"], "slot": 0}
    assert "item" not in verdict


def test_failing_candidate_emits_reject_then_retry(stack):
    bus, registry, pipeline, documents, lexicon = stack
    reports = bus.subscribe("watch-report", "ingest/report")
    completes = bus.subscribe("watch-complete", "exam/complete")
    rejects = bus.subscribe("watch-reject", "exam/reject")
    candidates = bus.subscribe("watch-candidates", "exam/candidate")

    document = documents[0]
    publish_and_wait(bus, reports, "ingest/request", {
        "doc": {"doc_id": document.doc_id, "subject": document.subject,
                "chapter_path": document.chapter_path, "body": document.body,
                "format": document.format}}, "ingest-1")

    # a 10x weight on stem length inflates D far beyond any tier target,
    # so every candidate fails the gate and lands on exam/reject
    blueprint = {"subject": "envsci",
                 "weights": [10, 1, 1, 1, 1, 1, 1],
                 "sections": [{"chapter": "Ch 1", "count": 1,
                               "tiers": {"basic": 1}}]}
    complete = publish_and_wait(bus, completes, "exam/request", {
        "blueprint": blueprint, "seed": 0, "max_retries": 3}, "exam-1")

    reject_messages = drain(rejects)
    candidate_messages = drain(candidates)
    assert complete.payload["item_count"] == 0
    assert complete.payload["unfilled"][0]["missing"] == 1
    assert len(reject_messages) == 3, "each failed candidate hits exam/reject"
    # every reject triggered a retry publication until retries ran out
    assert len(candidate_messages) == 3
    for reject in reject_messages:
        assert reject.payload["evaluation"]["breakdown"]
        assert reject.payload["evaluation"]["difficulty"] > 9


def test_duplicate_and_stale_verdicts_are_ignored(stack):
    """Grade by hand and send every verdict twice: the copy names a
    candidate that is no longer pending, so it must not resolve the next
    one, and the exam still equals the direct call's."""
    bus, registry, pipeline, documents, lexicon = stack
    next(agent for agent in pipeline.agents
         if agent.name == "question_evaluation").stop()
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    inbox = queue.Queue()
    for topic in ("exam/candidate", "exam/complete"):
        bus.subscribe("watch", topic, shared_queue=inbox)
    lexicon_of_graph = build_lexicon(registry.get("envsci"))
    # a narrow gate: some candidates qualify, most are rejected
    blueprint = {"subject": "envsci", "epsilon": 0.5, "sections": [
        {"chapter": "Ch 1", "count": 3,
         "tiers": {"basic": 1, "applied": 1, "comprehensive": 1}}]}
    bus.publish("exam/request", {"blueprint": blueprint, "seed": 42},
                sender="client", correlation_id="exam-1")

    verdicts = []
    while (message := inbox.get(timeout=15)).topic == "exam/candidate":
        candidate = message.payload["candidate"]
        result = RubricConfig().evaluate(
            QuestionItem.from_payload(candidate["item"]), candidate["target"],
            lexicon_of_graph, epsilon=candidate["epsilon"],
            weights=candidate["weights"])
        verdict = {"slot": candidate["slot"], "attempt": candidate["attempt"],
                   "bundle_index": candidate["bundle_index"],
                   "evaluation": result.to_dict()}
        topic = "exam/qualified" if result.passed else "exam/reject"
        verdicts.append(topic)
        for _ in range(2):
            bus.publish(topic, verdict, sender="client", correlation_id="exam-1")

    reference = generate_exam(
        registry, ExamBlueprint.from_dict(blueprint),
        TemplateGenerator(registry.get("envsci"), seed=42), RubricConfig(), seed=42)
    assert message.payload == reference.to_dict()
    assert verdicts.count("exam/qualified") == len(reference.items) > 0
    assert verdicts.count("exam/reject") == len(
        [r for r in reference.rejects if r["reason"] == "gate_failed"]) > 0


def test_exam_request_unknown_subject_reports_error(stack):
    bus, registry, pipeline, documents, lexicon = stack
    errors = bus.subscribe("watch-errors", "system/errors")
    blueprint = {"subject": "ghost", "sections": [
        {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}
    message = publish_and_wait(bus, errors, "exam/request",
                               {"blueprint": blueprint, "seed": 0}, "exam-x")
    assert message.payload["error_code"] == "unknown_subject"
    assert message.payload["agent"] == "question_generation"


def test_exam_request_with_zero_epsilon_reports_error(stack):
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    errors = bus.subscribe("watch-errors", "system/errors")
    candidates = bus.subscribe("watch-candidates", "exam/candidate")
    blueprint = {"subject": "envsci", "epsilon": 0, "sections": [
        {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}
    message = publish_and_wait(bus, errors, "exam/request",
                               {"blueprint": blueprint, "seed": 0}, "exam-eps")
    assert message.payload["agent"] == "question_generation"
    assert message.payload["error_code"] == "invalid_params"
    assert "epsilon" in message.payload["message"]
    assert drain(candidates) == []


def test_exam_request_with_string_weights_reports_invalid_params(stack):
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    errors = bus.subscribe("watch-errors", "system/errors")
    blueprint = {"subject": "envsci", "weights": ["x"] * 7, "sections": [
        {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}
    message = publish_and_wait(bus, errors, "exam/request",
                               {"blueprint": blueprint, "seed": 0}, "exam-w")
    assert message.payload["agent"] == "question_generation"
    assert message.payload["error_code"] == "invalid_params"


def test_exam_request_with_fractional_count_reports_invalid_params(stack):
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    errors = bus.subscribe("watch-errors", "system/errors")
    candidates = bus.subscribe("watch-candidates", "exam/candidate")
    blueprint = {"subject": "envsci", "sections": [
        {"chapter": "Ch 1", "count": 2.7, "tiers": {"basic": 2}}]}
    message = publish_and_wait(bus, errors, "exam/request",
                               {"blueprint": blueprint, "seed": 0}, "exam-count")
    assert message.payload["agent"] == "question_generation"
    assert message.payload["error_code"] == "invalid_params"
    assert "2.7" in message.payload["message"]
    assert drain(candidates) == []


@pytest.mark.parametrize("sections", [
    pytest.param([{"chapter": "Ch 1", "count": 1, "tiers": {"hard": 1}}], id="unknown-tier"),
    pytest.param([{"count": 1, "tiers": {"basic": 1}}], id="no-chapter"),
    pytest.param("x", id="sections-string"),
])
def test_exam_request_with_wrongly_shaped_blueprint_reports_invalid_params(stack, sections):
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    errors = bus.subscribe("watch-errors", "system/errors")
    candidates = bus.subscribe("watch-candidates", "exam/candidate")
    message = publish_and_wait(bus, errors, "exam/request", {
        "blueprint": {"subject": "envsci", "sections": sections}, "seed": 0},
        "exam-shape")
    assert message.payload["agent"] == "question_generation"
    assert message.payload["error_code"] == "invalid_params"
    assert drain(candidates) == []


@pytest.mark.parametrize("change", [
    pytest.param({"options": "wxyz"}, id="options-string"),
    pytest.param({"answer_index": True}, id="answer-true"),
    pytest.param({"answer_index": 1.7}, id="answer-fraction"),
    pytest.param({"answer_index": "x"}, id="answer-string"),
    pytest.param({"answer_index": 4}, id="answer-out-of-range"),
    pytest.param({"stem": 5}, id="stem-number"),
    pytest.param({"bloom": 7}, id="bloom-number"),
    pytest.param({"tier": "hard"}, id="unknown-tier"),
    pytest.param({"provenance": {"subject": "envsci"}}, id="provenance-partial"),
])
def test_candidate_with_malformed_item_reports_malformed_item(stack, change):
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    errors = bus.subscribe("watch-errors", "system/errors")
    verdicts = bus.subscribe("watch-verdicts", "exam/*")
    item = {"stem": "Define erosion in context.",
            "options": ["one", "two", "three", "four"], "answer_index": 0} | change
    message = publish_and_wait(bus, errors, "exam/candidate", {
        "subject": "envsci", "candidate": {
            "slot": {"section": 0, "chapter": "Ch 1", "tier": "basic", "slot": 0},
            "attempt": 0, "bundle_index": 0, "item": item,
            "target": 9.0, "epsilon": 2.0}}, "cand-bad")
    assert message.payload["agent"] == "question_evaluation"
    assert message.payload["error_code"] == "malformed_item"
    assert [m.topic for m in drain(verdicts)] == ["exam/candidate"]


def test_direct_and_pipeline_ingest_reports_match_with_failing_segment():
    class FlakyExtractor:
        def extract(self, text):
            if "exploded" in text:
                raise RuntimeError("segment exploded")
            return RuleExtractor().extract(text)

    paragraphs = ["The oak supports the fern. " * 10,
                  "The fern exploded. " * 10,
                  "The pine shades the moss. " * 10]
    document = {"doc_id": "d1", "subject": "env", "chapter_path": ["Ch 1"],
                "body": "\n\n".join(paragraphs), "format": "plain"}
    direct = ingest_document(GraphRegistry(), SourceDocument(**document),
                             FlakyExtractor(), max_chars=300)
    assert [f["segment"] for f in direct.failures] == [1]

    bus = MessageBus()
    pipeline = run_pipeline(bus, GraphRegistry(), FlakyExtractor(), max_chars=300)
    reports = bus.subscribe("watch-report", "ingest/report")
    try:
        report = publish_and_wait(bus, reports, "ingest/request",
                                  {"doc": document}, "ingest-flaky")
    finally:
        pipeline.stop()
        bus.close()
    assert report.payload == direct.to_dict()


def test_kg_query_round_trip(stack):
    bus, registry, pipeline, documents, lexicon = stack
    reports = bus.subscribe("watch-report", "ingest/report")
    replies = bus.subscribe("watch-replies", "kg/reply")
    document = documents[0]
    publish_and_wait(bus, reports, "ingest/request", {
        "doc": {"doc_id": document.doc_id, "subject": document.subject,
                "chapter_path": document.chapter_path, "body": document.body,
                "format": document.format}}, "ingest-1")

    stats = publish_and_wait(bus, replies, "kg/query",
                             {"op": "stats", "subject": "envsci"}, "q-1")
    assert stats.payload["stats"]["nodes"]["concept"] == 4

    bad = publish_and_wait(bus, replies, "kg/query",
                           {"op": "stats", "subject": "nope"}, "q-2")
    assert bad.payload["error_code"] == "unknown_subject"


def test_kg_query_neighbors_reply_and_its_refusals(stack):
    """Every reply names its op; a refusal is the op plus an error report."""
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    graph = registry.get("envsci")
    chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
    replies = bus.subscribe("watch-replies", "kg/reply")
    found = publish_and_wait(bus, replies, "kg/query", {
        "op": "neighbors", "subject": "envsci", "node": chapter,
        "direction": "in", "kind": "include_in"}, "q-1")
    expected = [
        {"edge": {"kind": "include_in", "from": edge.src, "to": edge.dst, "label": edge.label},
         "node": {"id": node.id, "kind": node.kind.value, "label": node.label}}
        for edge, node in graph.query_neighbors(chapter, "in", EdgeKind.INCLUDE_IN)]
    assert len(expected) == 4  # the chapter's four concepts
    assert found.payload == {"op": "neighbors", "neighbors": expected}
    unknown = publish_and_wait(bus, replies, "kg/query",
                               {"op": "paths", "subject": "envsci"}, "q-2")
    assert unknown.payload == {"op": "paths", "error_code": "bad_query",
                               "message": "unknown op 'paths'"}
    sideways = publish_and_wait(bus, replies, "kg/query", {
        "op": "neighbors", "subject": "envsci", "node": chapter, "direction": "up"}, "q-3")
    assert sideways.payload == {"op": "neighbors", "error_code": "invalid_params",
                                "message": "direction must be in/out/both, got 'up'"}


def test_llm_agent_serves_mock_replies(stack):
    bus, registry, pipeline, documents, lexicon = stack
    replies = bus.subscribe("watch-llm", "llm/reply")
    from examgraph.ingestion import EXTRACTION_SYSTEM_PROMPT

    message = publish_and_wait(bus, replies, "llm/request", {
        "system_prompt": EXTRACTION_SYSTEM_PROMPT,
        "user_prompt": "A harms B.",
    }, "llm-1")
    parsed = json.loads(message.payload["text"])
    assert parsed["triples"] == [["a", "harms", "b"]]


def test_llm_backed_generator_runs_in_pipeline():
    """An LLM-backed generator inside question_generation calls the provider
    through its injected complete_fn, and each of its candidates goes
    through the evaluation gate."""
    from examgraph.gateway import completion_fn
    from examgraph.generation import LLMGenerator

    documents, lexicon, _ = corpus_documents("envsci", ROOTS_A, chapters=1)
    registry = GraphRegistry()
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    bus = MessageBus()
    pipeline = run_pipeline(
        bus, registry, RuleExtractor(lexicon),
        generator_factory=lambda graph, seed: LLMGenerator(completion_fn(seed=5)))
    completes = bus.subscribe("watch-complete", "exam/complete")
    try:
        blueprint = {"subject": "envsci", "sections": [
            {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}
        complete = publish_and_wait(bus, completes, "exam/request",
                                    {"blueprint": blueprint, "seed": 5,
                                     "max_retries": 2}, "exam-llm")
        # mock items carry no difficulty engineering; accepted or not,
        # every candidate must have gone through the evaluation gate
        assert complete.payload["item_count"] + \
            sum(c["missing"] for c in complete.payload["unfilled"]) == 1
    finally:
        pipeline.stop()
        bus.close()


def test_tcp_loopback_pipeline_byte_identical(stack):
    bus, registry, pipeline, documents, lexicon = stack
    server = TcpBusServer(bus)
    server.start()
    client = TcpBusClient("127.0.0.1", server.port, "requirement-client",
                          subscriptions=["exam/complete", "ingest/report"])
    try:
        document = documents[0]
        client.publish("ingest/request", {
            "doc": {"doc_id": document.doc_id, "subject": document.subject,
                    "chapter_path": document.chapter_path, "body": document.body,
                    "format": document.format}}, correlation_id="ing-1")
        while True:
            message = client.get(timeout=15)
            assert message is not None
            if message.topic == "ingest/report":
                break

        blueprint = {"subject": "envsci", "sections": [
            {"chapter": "Ch 1", "count": 3,
             "tiers": {"basic": 1, "applied": 1, "comprehensive": 1}}]}
        client.publish("exam/request", {"blueprint": blueprint, "seed": 42},
                       correlation_id="exam-1")
        while True:
            message = client.get(timeout=30)
            assert message is not None
            if message.topic == "exam/complete":
                tcp_exam = message.payload
                break

        reference_registry = GraphRegistry()
        ingest_document(reference_registry, document, RuleExtractor(lexicon))
        reference = generate_exam(
            reference_registry, ExamBlueprint.from_dict(blueprint),
            TemplateGenerator(reference_registry.get("envsci"), seed=42),
            RubricConfig(), seed=42)
        assert json.dumps(tcp_exam, sort_keys=True).encode() == \
            json.dumps(reference.to_dict(), sort_keys=True).encode()
    finally:
        client.close()
        server.stop()


def test_tcp_candidate_with_eight_weights_reports_invalid_params(stack):
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    server = TcpBusServer(bus)
    server.start()
    client = TcpBusClient("127.0.0.1", server.port, "peer", subscriptions=[
        "system/errors", "exam/qualified", "exam/reject"])
    try:
        client.publish("exam/candidate", {"subject": "envsci", "candidate": {
            "slot": {"section": 0, "chapter": "Ch 1", "tier": "basic", "slot": 0},
            "attempt": 0,
            "bundle_index": 0,
            "item": {"stem": "Define erosion in context.",
                     "options": ["one", "two", "three", "four"],
                     "answer_index": 0},
            "target": 9.0,
            "epsilon": 2.0,
            "weights": [1.0] * 8,
        }}, correlation_id="cand-8")
        message = client.get(timeout=15)
        assert message is not None
        assert message.topic == "system/errors"
        assert message.correlation_id == "cand-8"
        assert message.payload["agent"] == "question_evaluation"
        assert message.payload["error_code"] == "invalid_params"
    finally:
        client.close()
        server.stop()


def test_append_ingest_then_pipeline_exam_matches_direct_call():
    documents, lexicon, _ = corpus_documents("envsci", ROOTS_A, chapters=2)
    registry = GraphRegistry()
    bus = MessageBus()
    pipeline = run_pipeline(bus, registry, RuleExtractor(lexicon))
    reports = bus.subscribe("watch-report", "ingest/report")
    completes = bus.subscribe("watch-complete", "exam/complete")
    try:
        for i, document in enumerate(documents):
            report = publish_and_wait(bus, reports, "ingest/request", {
                "doc": {"doc_id": document.doc_id, "subject": document.subject,
                        "chapter_path": document.chapter_path,
                        "body": document.body, "format": document.format},
                "append": i > 0}, f"ingest-{i}")
            assert report.payload["failures"] == []
            # an exam after every ingest, so a lexicon cached from the first
            # revision would be visible in the second exam
            blueprint = {"subject": "envsci", "sections": [
                {"chapter": f"Ch {i + 1}", "count": 3,
                 "tiers": {"basic": 1, "applied": 1, "comprehensive": 1}}]}
            complete = publish_and_wait(bus, completes, "exam/request",
                                        {"blueprint": blueprint, "seed": 3},
                                        f"exam-{i}")
            reference = generate_exam(
                registry, ExamBlueprint.from_dict(blueprint),
                TemplateGenerator(registry.get("envsci"), seed=3), seed=3)
            assert json.dumps(complete.payload, sort_keys=True) == \
                json.dumps(reference.to_dict(), sort_keys=True)
    finally:
        pipeline.stop()
        bus.close()


def test_pipeline_exam_with_retries_matches_direct_call_bytes():
    # the 6-chapter, tight-epsilon blueprint of tests/test_golden.py
    registry, _, _ = build_registry("envsci", ROOTS_A + ROOTS_B, chapters=6)
    spec = blueprint_dict("envsci", 6)
    spec["epsilon"] = 0.05
    direct = generate_exam(registry, ExamBlueprint.from_dict(spec),
                           TemplateGenerator(registry.get("envsci"), seed=11),
                           seed=11)
    assert direct.rejects and direct.unfilled
    assert any(r["reason"] == "gate_failed" for r in direct.rejects)

    bus = MessageBus()
    pipeline = run_pipeline(bus, registry, RuleExtractor())
    completes = bus.subscribe("watch-complete", "exam/complete")
    try:
        complete = publish_and_wait(bus, completes, "exam/request",
                                    {"blueprint": spec, "seed": 11}, "exam-golden")
    finally:
        pipeline.stop()
        bus.close()
    assert json.dumps(complete.payload, sort_keys=True).encode() == \
        json.dumps(direct.to_dict(), sort_keys=True).encode()


def test_two_pipelines_keep_their_sessions_apart():
    """Each pipeline's generation agent holds its own session table: two
    exams under one correlation id, in flight at once on two buses, each
    end in one exam/complete, the direct call's exam for its blueprint."""
    cases = [(build_registry("envsci", ROOTS_A, chapters=3)[0], blueprint_dict("envsci", 3)),
             (build_registry("geo", ROOTS_B, chapters=2)[0], blueprint_dict("geo", 2, 2, 2, 1))]
    stacks = []
    try:
        for registry, spec in cases:
            bus = MessageBus()
            stacks.append((bus, run_pipeline(bus, registry, RuleExtractor()),
                           bus.subscribe("watch", "exam/complete")))
        for (bus, _, _), (_, spec) in zip(stacks, cases):
            bus.publish("exam/request", {"blueprint": spec, "seed": 3},
                        sender="client", correlation_id="same")
        completes = [[sub.get(timeout=0.5)] + drain(sub, timeout=0.2) for _, _, sub in stacks]
    finally:
        for bus, pipeline, _ in stacks:
            pipeline.stop()
            bus.close()
    for (registry, spec), messages in zip(cases, completes):
        blueprint = ExamBlueprint.from_dict(spec)
        direct = generate_exam(registry, blueprint,
                               TemplateGenerator(registry.get(blueprint.subject), seed=3),
                               seed=3)
        assert [m.correlation_id for m in messages] == ["same"]
        assert json.dumps(messages[0].payload, sort_keys=True) == \
            json.dumps(direct.to_dict(), sort_keys=True)


def test_one_bundle_slot_never_repeats_a_candidate():
    """With one material bundle, each retry of a slot takes the next
    template variant: no slot tries one (attempt, bundle_index) twice,
    directly or over the bus, where that pair names the verdict."""
    registry, _, _ = build_registry("envsci", ROOTS_A, chapters=1)
    spec = dict(blueprint_dict("envsci", 1), epsilon=0.5)
    direct = generate_exam(registry, ExamBlueprint.from_dict(spec),
                           TemplateGenerator(registry.get("envsci"), seed=42),
                           seed=42, top_concepts=1)
    tried = [(r["tier"], r["slot"], r["attempt"], r["bundle_index"])
             for r in direct.rejects]
    assert {r["reason"] for r in direct.rejects} == {"gate_failed"}
    assert len(tried) > 10 and len(set(tried)) == len(tried)

    bus = MessageBus()
    pipeline = run_pipeline(bus, registry, RuleExtractor())
    completes = bus.subscribe("watch-complete", "exam/complete")
    candidates = bus.subscribe("watch-candidates", "exam/candidate")
    try:
        complete = publish_and_wait(bus, completes, "exam/request", {
            "blueprint": spec, "seed": 42, "top_concepts": 1}, "exam-1")
        frames = [m.payload["candidate"] for m in drain(candidates)]
    finally:
        pipeline.stop()
        bus.close()
    assert complete.payload == direct.to_dict()
    names = [(json.dumps(c["slot"], sort_keys=True), c["attempt"], c["bundle_index"])
             for c in frames]
    # every slot of the cell starts on the same pairs: each is graded once
    graded = {(r["tier"], r["attempt"], r["bundle_index"]) for r in direct.rejects}
    assert len(names) == len(direct.items) + len(graded) < len(direct.items) + len(tried)
    assert len(set(names)) == len(names)


_BLUEPRINT = {"subject": "envsci", "sections": [
    {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}
_CANDIDATE = {"slot": {"section": 0, "chapter": "Ch 1", "tier": "basic", "slot": 0},
              "attempt": 0, "bundle_index": 0, "target": 9.0, "epsilon": 2.0,
              "item": {"stem": "Define erosion in context.",
                       "options": ["one", "two", "three", "four"], "answer_index": 0}}
_DOC = {"doc_id": "d1", "subject": "envsci", "chapter_path": ["Ch 1"],
        "body": "The oak supports the fern.", "format": "plain"}


@pytest.mark.parametrize("topic, payload, reply_topic, code", [
    pytest.param("exam/request", {"seed": 0}, "system/errors", "invalid_params",
                 id="request-no-blueprint"),
    pytest.param("exam/request", {"blueprint": _BLUEPRINT, "seed": "x"},
                 "system/errors", "invalid_params", id="request-seed-string"),
    pytest.param("exam/request", {"blueprint": _BLUEPRINT, "seed": 1.5},
                 "system/errors", "invalid_params", id="request-seed-fraction"),
    pytest.param("exam/request", {"blueprint": _BLUEPRINT, "max_retries": "x"},
                 "system/errors", "invalid_params", id="request-retries-string"),
    pytest.param("exam/request", {"blueprint": _BLUEPRINT, "max_retries": 0},
                 "system/errors", "invalid_params", id="request-retries-zero"),
    pytest.param("exam/request", {"blueprint": _BLUEPRINT, "max_retries": MAX_RETRIES + 1},
                 "system/errors", "invalid_params", id="request-retries-over-bound"),
    pytest.param("exam/request", {"blueprint": _BLUEPRINT, "top_concepts": 0},
                 "system/errors", "invalid_params", id="request-top-concepts-zero"),
    pytest.param("exam/request", {"blueprint": "x"}, "system/errors", "invalid_params",
                 id="request-blueprint-string"),
    pytest.param("exam/request", {"blueprint": dict(_BLUEPRINT, subject="")},
                 "system/errors", "invalid_params", id="request-empty-subject"),
    pytest.param("exam/request", {"blueprint": dict(_BLUEPRINT, sections=[
        {"chapter": "Ch 1", "count": 2, "tiers": {"basic": 1}}])},
                 "system/errors", "invalid_params", id="request-tiers-do-not-sum"),
    pytest.param("exam/request", "x", "system/errors", "invalid_params",
                 id="request-payload-string"),
    pytest.param("exam/candidate", {"subject": "envsci"}, "system/errors",
                 "invalid_params", id="candidate-missing"),
    pytest.param("exam/candidate", {"subject": "envsci", "candidate": dict(
        _CANDIDATE, target="x")}, "system/errors", "invalid_params",
                 id="candidate-target-string"),
    pytest.param("exam/candidate", {"candidate": _CANDIDATE}, "system/errors",
                 "invalid_params", id="candidate-no-subject"),
    pytest.param("ingest/request", {"doc": "x"}, "system/errors", "invalid_params",
                 id="ingest-doc-string"),
    pytest.param("ingest/request", {"doc": {"doc_id": "d1", "subject": "envsci"}},
                 "system/errors", "invalid_params", id="ingest-doc-missing-fields"),
    pytest.param("ingest/request", {"doc": dict(_DOC, body="")}, "system/errors",
                 "invalid_params", id="ingest-doc-empty-body"),
    pytest.param("ingest/request", {"doc": _DOC, "max_chars": "x"}, "system/errors",
                 "invalid_params", id="ingest-max-chars-string"),
    pytest.param("kg/assert", {"subject": "envsci", "chapter_path": ["Ch 1"]},
                 "system/errors", "invalid_params", id="assert-no-doc-id"),
    pytest.param("kg/assert", {"subject": "envsci", "doc_id": "d1", "chapter_path": "Ch 1"},
                 "system/errors", "invalid_params", id="assert-chapter-path-string"),
    pytest.param("kg/query", {"op": "neighbors", "subject": "envsci"}, "kg/reply",
                 "invalid_params", id="query-no-node"),
    pytest.param("kg/query", {"op": "neighbors", "subject": "envsci", "node": "x",
                              "kind": "cousin_of"}, "kg/reply", "invalid_params",
                 id="query-unknown-kind"),
    pytest.param("kg/query", {"op": "stats", "subject": ["envsci"]}, "kg/reply",
                 "invalid_params", id="query-subject-list"),
    pytest.param("kg/query", {"op": "paths", "subject": "envsci"}, "kg/reply", "bad_query",
                 id="query-unknown-op"),
    pytest.param("kg/assert", {"subject": "", "doc_id": "d1", "chapter_path": ["Ch 1"]},
                 "system/errors", "empty_subject", id="assert-empty-subject"),
    pytest.param("llm/request", {}, "llm/reply", "invalid_params", id="llm-empty"),
    pytest.param("llm/request", "x", "llm/reply", "invalid_params", id="llm-payload-string"),
])
def test_malformed_payload_reports_its_error_code(stack, topic, payload, reply_topic, code):
    """Each reply comes under the request's correlation id with a stable
    code: never the fallback error, nor a bare KeyError or TypeError
    message."""
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    replies = bus.subscribe("watch-replies", reply_topic)
    candidates = bus.subscribe("watch-candidates", "exam/candidate")
    message = publish_and_wait(bus, replies, topic, payload, "bad-1")
    assert message.payload["error_code"] == code
    if topic == "exam/request":
        assert drain(candidates) == []


@pytest.mark.parametrize("evaluation", [
    pytest.param("x", id="string"),
    pytest.param({"difficulty": "9", "target": 9.0, "epsilon": 2.0, "passed": True,
                  "breakdown": []}, id="difficulty-string"),
    pytest.param({"difficulty": 9.0, "target": 9.0, "epsilon": 2.0, "passed": "yes",
                  "breakdown": []}, id="passed-string"),
    pytest.param({"difficulty": 9.0, "target": 9.0, "epsilon": 2.0, "passed": True,
                  "breakdown": [{"rating": 1}]}, id="entry-without-feature"),
])
def test_malformed_verdict_reports_invalid_params_and_keeps_the_session(stack, evaluation):
    """The pending candidate stays pending: a well-formed verdict that
    follows still completes the exam, equal to the direct call's."""
    bus, registry, pipeline, documents, lexicon = stack
    next(agent for agent in pipeline.agents
         if agent.name == "question_evaluation").stop()
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    errors = bus.subscribe("watch-errors", "system/errors")
    inbox = queue.Queue()
    for topic in ("exam/candidate", "exam/complete"):
        bus.subscribe("watch", topic, shared_queue=inbox)
    bus.publish("exam/request", {"blueprint": _BLUEPRINT, "seed": 42},
                sender="client", correlation_id="exam-v")
    candidate = inbox.get(timeout=15).payload["candidate"]
    ref = {key: candidate[key] for key in ("slot", "attempt", "bundle_index")}
    error = publish_and_wait(bus, errors, "exam/qualified",
                             dict(ref, evaluation=evaluation), "exam-v")
    assert error.payload["error_code"] == "invalid_params"
    while True:
        result = RubricConfig().evaluate(
            QuestionItem.from_payload(candidate["item"]), candidate["target"],
            build_lexicon(registry.get("envsci")), epsilon=candidate["epsilon"])
        bus.publish("exam/qualified" if result.passed else "exam/reject",
                    dict(ref, evaluation=result.to_dict()),
                    sender="client", correlation_id="exam-v")
        message = inbox.get(timeout=15)
        if message.topic == "exam/complete":
            break
        candidate = message.payload["candidate"]
        ref = {key: candidate[key] for key in ("slot", "attempt", "bundle_index")}
    reference = generate_exam(
        registry, ExamBlueprint.from_dict(_BLUEPRINT),
        TemplateGenerator(registry.get("envsci"), seed=42), RubricConfig(), seed=42)
    assert message.payload == reference.to_dict()


@pytest.mark.parametrize("topic, append", [
    ("ingest/request", "false"), ("ingest/request", "no"), ("ingest/request", 0),
    ("kg/assert", "false"), ("kg/assert", "no"), ("kg/assert", 1),
])
def test_append_that_is_not_a_json_boolean_reports_invalid_params(stack, topic, append):
    """A truthy string must not pass for append=true: the populated subject
    is left as it was, and the request ends on system/errors."""
    bus, registry, pipeline, documents, lexicon = stack
    ingest_document(registry, documents[0], RuleExtractor(lexicon))
    graph = registry.get("envsci")
    revision = graph.revision
    replies = queue.Queue()
    for reply_topic in ("ingest/report", "system/errors"):
        bus.subscribe("watch", reply_topic, shared_queue=replies)
    payload = {"doc": dict(_DOC, doc_id="d2", body="The moss covers the rock."),
               "append": append}
    if topic == "kg/assert":
        payload = {"subject": "envsci", "doc_id": "d2", "chapter_path": ["Ch 1"],
                   "append": append, "segments": 1, "extractions": [
                       {"segment": 0, "triples": [["moss", "covers", "rock"]], "concepts": {}}]}
    bus.publish(topic, payload, sender="client", correlation_id="append-1")
    message = replies.get(timeout=15)
    assert message.topic == "system/errors"
    assert message.correlation_id == "append-1"
    assert message.payload["error_code"] == "invalid_params"
    assert graph.revision == revision

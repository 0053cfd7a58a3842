"""The five-agent question pipeline over the pub-sub bus.

Flow (topics in backticks): an `ingest/request` is transcribed, segmented
and mined by *file_extraction*, whose `kg/assert` output *kg_management*
folds into the subject graph (reporting on `ingest/report` and answering
`kg/query` on `kg/reply`). An `exam/request` drives *question_generation*,
which emits one `exam/candidate` at a time; *question_evaluation* grades
each candidate and routes it to `exam/qualified` or back via `exam/reject`
for a retry. When every blueprint slot is resolved the full exam appears on
`exam/complete`. The *llm* agent answers `llm/request` on `llm/reply` for
TCP peers; an LLM-backed extractor or generator in this process calls the
provider directly through a ``complete_fn`` from ``gateway.completion_fn``.
Errors surface on `system/errors`.

Extraction, generation and evaluation run the same extract_document /
ExamSession / RubricConfig.evaluate code as the direct library call, so with
a deterministic stack the pipeline exam is byte-identical to
``generate_exam``'s.
"""

from __future__ import annotations

from typing import Callable

from ..assessment import EvaluationResult, RubricConfig, build_lexicon
from ..checks import array, boolean, integer, member, number, obj, string, strings
from ..gateway import completion_fn
from ..generation import (
    ExamBlueprint,
    ExamSession,
    QuestionItem,
    TemplateGenerator,
)
from ..ingestion import PLAIN, SourceDocument, apply_extractions, extract_document
from ..kg import EdgeKind, GraphRegistry
from .agents import AgentDescriptor, AgentHandle, Outgoing, spawn_agent
from .core import MessageBus

CompleteFn = Callable[[str, str], str]
GeneratorFactory = Callable[..., object]  # (graph, seed) -> Generator


def _file_extraction_agent(max_chars: int, extractor) -> AgentDescriptor:
    def handler(message):
        payload = obj(message.payload, "ingest/request")
        append = boolean(payload.get("append", False), "append")
        doc = obj(payload.get("doc"), "doc")
        doc = SourceDocument(
            **{key: string(doc.get(key), f"doc {key}") for key in ("doc_id", "subject", "body")},
            chapter_path=strings(doc.get("chapter_path"), "doc chapter_path"),
            format=string(doc.get("format", PLAIN), "doc format"))
        segments, extractions, failures = extract_document(
            doc, extractor, integer(payload.get("max_chars", max_chars), "max_chars"))
        return [Outgoing("kg/assert", {
            "subject": doc.subject,
            "doc_id": doc.doc_id,
            "chapter_path": list(doc.chapter_path),
            "append": append,
            "segments": segments,
            "extractions": [{
                "segment": index,
                "triples": [list(t) for t in result.triples],
                "concepts": {k: list(v) for k, v in result.concept_map.items()},
            } for index, result in extractions],
            "failures": failures,
        })]

    return AgentDescriptor("file_extraction", ["ingest/request"], handler)


def _kg_management_agent(registry: GraphRegistry) -> AgentDescriptor:
    def handler(message):
        payload = obj(message.payload, message.topic)
        if message.topic == "kg/assert":
            report = apply_extractions(
                registry, string(payload.get("subject"), "subject"),
                string(payload.get("doc_id"), "doc_id"),
                strings(payload.get("chapter_path"), "chapter_path"),
                array(payload.get("extractions", []), "extractions"),
                append=boolean(payload.get("append", False), "append"),
                segments=integer(payload.get("segments", 0), "segments"),
                failures=array(payload.get("failures", []), "failures"),
            )
            return [Outgoing("ingest/report", report.to_dict())]
        return [Outgoing("kg/reply", _answer_query(registry, payload))]

    return AgentDescriptor("kg_management", ["kg/assert", "kg/query"], handler)


def _answer_query(registry: GraphRegistry, payload: dict) -> dict:
    op = payload.get("op")
    try:
        graph = registry.get(string(payload.get("subject", ""), "subject"))
        if op == "stats":
            return {"op": op, "stats": graph.stats()}
        if op == "neighbors":
            kind = member(payload["kind"], "edge kind", EdgeKind) if payload.get("kind") else None
            pairs = graph.query_neighbors(string(payload.get("node"), "node"),
                                          payload.get("direction", "both"), kind)
            return {"op": op, "neighbors": [
                {
                    "edge": {"kind": e.kind.value, "from": e.src, "to": e.dst,
                             "label": e.label},
                    "node": {"id": n.id, "kind": n.kind.value, "label": n.label},
                }
                for e, n in pairs
            ]}
        return {"op": op, "error_code": "bad_query",
                "message": f"unknown op {op!r}"}
    except Exception as exc:
        return {"op": op, "error_code": getattr(exc, "code", "error"),
                "message": str(exc)}


def _question_generation_agent(registry: GraphRegistry,
                               generator_factory: GeneratorFactory,
                               rubric: RubricConfig) -> AgentDescriptor:
    sessions: dict[str, ExamSession] = {}  # by request id; read by this agent's thread only

    def handler(message):
        payload = obj(message.payload, message.topic)
        if message.topic == "exam/request":
            request_id = message.correlation_id or f"{message.sender}-{message.seq}"
            blueprint = ExamBlueprint.from_dict(payload.get("blueprint"))
            seed = integer(payload.get("seed", 0), "seed")
            graph = registry.get(blueprint.subject)  # raises -> system/errors
            generator = generator_factory(graph, seed)
            # absent settings take ExamSession's defaults; it checks the others
            knobs = {key: payload[key] for key in
                     ("top_concepts", "top_m_facts", "max_retries") if key in payload}
            session = sessions[request_id] = ExamSession(
                graph, blueprint, generator, rubric, seed=seed, **knobs)
        else:
            request_id = message.correlation_id
            session = sessions.get(request_id)
            pending = session.pending if session is not None else None
            if pending is None:
                return []
            ref = pending.ref()
            # a duplicate or stale verdict names another candidate: drop it
            if {key: payload.get(key) for key in ref} != ref:
                return []
            session.record_result(pending,
                                  EvaluationResult.from_dict(payload.get("evaluation")))
        candidate = session.next_candidate()
        if candidate is None:
            del sessions[request_id]
            return [Outgoing("exam/complete", session.build_exam().to_dict(),
                             correlation_id=request_id)]
        return [Outgoing("exam/candidate", {
            "subject": session.blueprint.subject,
            "candidate": candidate.to_payload(),
        }, correlation_id=request_id)]

    return AgentDescriptor(
        "question_generation",
        ["exam/request", "exam/reject", "exam/qualified"],
        handler,
    )


def _question_evaluation_agent(registry: GraphRegistry,
                               rubric: RubricConfig) -> AgentDescriptor:
    def handler(message):
        payload = obj(message.payload, "exam/candidate")
        candidate = obj(payload.get("candidate"), "candidate")
        target = candidate.get("target")
        number(target, "target")  # the verdict carries it as JSON gave it
        result = rubric.evaluate(
            QuestionItem.from_payload(candidate.get("item")), target,
            build_lexicon(registry.get(string(payload.get("subject"), "subject"))),
            epsilon=candidate.get("epsilon"), weights=candidate.get("weights"),
        )
        # the verdict names its candidate but does not carry it: the
        # generation agent holds the pending item
        return [Outgoing("exam/qualified" if result.passed else "exam/reject", {
            "slot": candidate.get("slot"), "attempt": candidate.get("attempt"),
            "bundle_index": candidate.get("bundle_index"),
            "evaluation": result.to_dict(),
        })]

    return AgentDescriptor("question_evaluation", ["exam/candidate"], handler)


def _llm_agent(complete_fn: CompleteFn) -> AgentDescriptor:
    def handler(message):
        try:
            payload = obj(message.payload, "llm/request")
            text = complete_fn(string(payload.get("system_prompt"), "system_prompt"),
                               string(payload.get("user_prompt"), "user_prompt"))
            return [Outgoing("llm/reply", {"text": text})]
        except Exception as exc:
            return [Outgoing("llm/reply", {
                "error_code": getattr(exc, "code", "error"),
                "message": str(exc),
            })]

    return AgentDescriptor("llm", ["llm/request"], handler)


class PipelineHandle:
    def __init__(self, agents: list[AgentHandle]):
        self.agents = agents

    @property
    def agent_names(self) -> list[str]:
        return [a.name for a in self.agents]

    def stop(self) -> None:
        for agent in reversed(self.agents):
            agent.stop()


def run_pipeline(bus: MessageBus, registry: GraphRegistry, extractor,
                 generator_factory: GeneratorFactory | None = None,
                 rubric: RubricConfig | None = None, *,
                 llm_complete: CompleteFn | None = None,
                 max_chars: int = 2000) -> PipelineHandle:
    """Spawn the five pipeline agents on the bus and return their handle.

    With no ``generator_factory`` the deterministic template generator is
    used; with no ``llm_complete`` the llm agent serves the offline mock.
    """
    rubric = rubric or RubricConfig()
    generator_factory = generator_factory or (
        lambda graph, seed: TemplateGenerator(graph, seed=seed))
    complete_fn = llm_complete or completion_fn()
    agents = [
        spawn_agent(bus, _file_extraction_agent(max_chars, extractor)),
        spawn_agent(bus, _kg_management_agent(registry)),
        spawn_agent(bus, _question_generation_agent(
            registry, generator_factory, rubric)),
        spawn_agent(bus, _llm_agent(complete_fn)),
        spawn_agent(bus, _question_evaluation_agent(registry, rubric)),
    ]
    return PipelineHandle(agents)

"""Operator command line. Every output is JSON on stdout; domain errors are
JSON on stderr with exit code 1; usage errors exit 2.

Graphs persist between invocations as snapshot files in the data directory
(one ``<subject>.kg.jsonl`` per subject).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # not POSIX: SnapshotStore.locked takes no lock
    fcntl = None

from .assessment import DifficultyTier, RubricConfig
from .checks import integer, json_file, obj, string, text_file
from .errors import (
    ExamGraphError, InsufficientMaterial, MalformedItem, SubjectCollision, UnknownNode)
from .gateway import ProviderConfig, completion_fn
from .generation import (
    ExamBlueprint,
    LLMGenerator,
    QuestionItem,
    TemplateGenerator,
    generate_exam,
    pretty_json,
)
from .ingestion import (
    LLMExtractor,
    RuleExtractor,
    SourceDocument,
    ingest_document,
    load_hypernym_lexicon,
)
from .kg import GraphRegistry, NodeKind, export_graph, import_graph
from .psychometrics import ResponseMatrix, analyze
from .ranking import PageRankConfig, rank_chapter_concepts, rank_concept_facts

DEFAULT_DATA_DIR = "./kgdata"


def _slug(subject: str) -> str:
    return re.sub(r"[^a-z0-9_-]+", "_", subject.lower()).strip("_") or "subject"


class SnapshotStore:
    """Filesystem-backed registry: snapshots loaded on demand, saved after
    mutation. A save renames a finished temporary file into place, so a
    reader sees the old snapshot or the new one, never a prefix."""

    def __init__(self, data_dir: str):
        self.root = Path(data_dir)
        self.registry = GraphRegistry()

    def _path(self, subject: str) -> Path:
        """The snapshot file of ``subject``. ``_slug`` maps some subjects to
        one name, so a file whose header names another subject is refused."""
        path = self.root / f"{_slug(subject)}.kg.jsonl"
        if path.exists():
            with path.open("rb") as fh:
                owner = import_graph(fh.readline()).subject
            if owner != subject:
                raise SubjectCollision(f"{path.name} holds subject {owner!r}, not {subject!r}")
        return path

    @contextmanager
    def locked(self, subject: str):
        """Hold ``subject``'s lock file, ``.<slug>.kg.lock`` in the data
        directory, so that one writer's load, fold and save never interleave
        with another's. ``fcntl.flock`` is POSIX only; elsewhere no lock is
        taken, and two concurrent appends can lose one of their chapters."""
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / f".{_slug(subject)}.kg.lock", "ab") as fh:
            if fcntl is not None:
                fcntl.flock(fh, fcntl.LOCK_EX)
            yield

    def load(self, subject: str) -> None:
        if self.registry.has(subject):
            return
        path = self._path(subject)
        if path.exists():
            self.registry.attach(import_graph(path.read_bytes()))

    def load_all(self) -> None:
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*.kg.jsonl")):
            graph = import_graph(path.read_bytes())
            if not self.registry.has(graph.subject):
                self.registry.attach(graph)

    def save(self, subject: str) -> None:
        graph = self.registry.get(subject)
        path = self._path(subject)
        self.root.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            temp.write_bytes(export_graph(graph))
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)

    def get(self, subject: str):
        self.load(subject)
        return self.registry.get(subject)


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        return obj(json_file(args.config, "config"), "config")
    return {}


def _data_dir(args, config: dict) -> str:
    if getattr(args, "data_dir", None):
        return args.data_dir
    return string(config.get("data_dir", DEFAULT_DATA_DIR), "data_dir")


def _rubric(args, config: dict) -> RubricConfig:
    if getattr(args, "rubric", None):
        return RubricConfig.load(args.rubric)
    rubric_cfg = config.get("rubric")
    if isinstance(rubric_cfg, str):
        return RubricConfig.load(rubric_cfg)
    return RubricConfig() if rubric_cfg is None else RubricConfig.from_dict(rubric_cfg)


def _provider(config: dict) -> ProviderConfig:
    provider = config.get("provider")
    if not provider:
        raise ExamGraphError("no provider configured; add one to --config "
                             "or use the mock backend")
    provider = obj(provider, "provider")
    return ProviderConfig(
        endpoint=string(provider.get("endpoint"), "provider endpoint"),
        model=string(provider.get("model", ""), "provider model"),
        auth_env=string(provider.get("auth_env", "EXAMGRAPH_API_TOKEN"), "provider auth_env"),
        retries=integer(provider.get("retries", 3), "provider retries", low=0),
    )


def _backend_complete(args, config: dict):
    """Completion callable for ``--backend``: the seeded mock or, for
    ``http``, the configured provider."""
    return completion_fn(_provider(config) if args.backend == "http" else None,
                         args.seed)


def _extractor(args, config: dict):
    """``--extractor``: rule-based, LLM-backed on the seeded mock
    (``mock-llm``) or on the configured provider (``llm``)."""
    if args.extractor == "rule":
        return RuleExtractor(load_hypernym_lexicon(args.lexicon) if args.lexicon else {})
    provider = _provider(config) if args.extractor == "llm" else None
    return LLMExtractor(completion_fn(provider, args.seed))


def _emit(data, out: str | None = None) -> None:
    # a lone surrogate, which UTF-8 cannot hold, is written as its JSON escape
    _write((pretty_json(data) + "\n").encode("utf-8", "backslashreplace"), out)


def _write(payload: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)


def _emit_error(exc: Exception) -> None:
    payload = {"error_code": getattr(exc, "code", "error"), "message": str(exc)}
    if hasattr(exc, "line_no"):
        payload["line"] = exc.line_no
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


# --- subcommands ---

def cmd_ingest(args) -> int:
    config = _load_config(args)
    store = SnapshotStore(_data_dir(args, config))
    extractor = _extractor(args, config)
    doc_path = Path(args.doc)
    fmt = args.format or ("markdown" if doc_path.suffix.lower() in (".md", ".markdown")
                          else "plain")
    chapters = args.chapter or [doc_path.stem]
    document = SourceDocument(
        doc_id=args.doc_id or doc_path.name,
        subject=args.subject,
        chapter_path=chapters,
        body=text_file(doc_path, "document"),
        format=fmt,
    )
    with store.locked(args.subject):
        store.load(args.subject)
        report = ingest_document(store.registry, document, extractor,
                                 append=args.append, max_chars=args.max_chars)
        store.save(args.subject)
    _emit(report.to_dict())
    return 0


def cmd_graph_export(args) -> int:
    config = _load_config(args)
    store = SnapshotStore(_data_dir(args, config))
    _write(export_graph(store.get(args.subject)), args.out)
    return 0


def cmd_graph_stats(args) -> int:
    config = _load_config(args)
    store = SnapshotStore(_data_dir(args, config))
    _emit(store.get(args.subject).stats())
    return 0


def cmd_rank(args) -> int:
    config = _load_config(args)
    pr_config = PageRankConfig(damping=args.damping, tol=args.tol,
                               max_iter=args.max_iter)
    top = integer(args.top, "--top", low=1)
    graph = SnapshotStore(_data_dir(args, config)).get(args.subject)
    if args.facts_of:
        concept = graph.find_node(args.facts_of, NodeKind.CONCEPT)
        if concept is None:
            raise UnknownNode(f"no concept {args.facts_of!r} in {args.subject!r}")
        ranked = rank_concept_facts(graph, concept, top, pr_config)
    else:
        chapter = graph.find_node(args.chapter, NodeKind.HIERARCHY)
        if chapter is None:
            raise UnknownNode(f"no chapter {args.chapter!r} in {args.subject!r}")
        ranked = rank_chapter_concepts(graph, chapter, pr_config)[:top]
    _emit([
        {"node": node_id, "label": graph.node(node_id).label, "score": score}
        for node_id, score in ranked
    ])
    return 0


def cmd_blueprint_validate(args) -> int:
    blueprint = ExamBlueprint.load(args.blueprint)
    _emit({
        "valid": True,
        "subject": blueprint.subject,
        "total": blueprint.total,
        "ratios": blueprint.ratios(),
        "sha256": blueprint.sha256(),
        "sections": blueprint.to_dict()["sections"],
    })
    return 0


def cmd_generate(args) -> int:
    config = _load_config(args)
    store = SnapshotStore(_data_dir(args, config))
    blueprint = ExamBlueprint.load(args.blueprint)
    graph = store.get(blueprint.subject)
    rubric = _rubric(args, config)
    if args.generator == "template":
        generator = TemplateGenerator(graph, seed=args.seed)
    else:
        generator = LLMGenerator(_backend_complete(args, config))
    exam = generate_exam(store.registry, blueprint, generator, rubric,
                         seed=args.seed, top_concepts=args.top_concepts,
                         top_m_facts=args.top_facts, max_retries=args.retries)
    _write(exam.to_json().encode("utf-8", "backslashreplace"), args.out)
    if not exam.complete:
        _emit_error(InsufficientMaterial(
            f"{len(exam.unfilled)} blueprint cell(s) unfillable; see 'unfilled'"))
        return 1
    return 0


def cmd_evaluate_item(args) -> int:
    config = _load_config(args)
    rubric = _rubric(args, config)
    item = QuestionItem.from_payload(json_file(args.item, "item", MalformedItem))
    target = args.target if args.target is not None else rubric.target(
        DifficultyTier(args.tier) if args.tier else item.tier)
    lexicon: frozenset[str] = frozenset()
    if args.subject:
        from .assessment import build_lexicon

        store = SnapshotStore(_data_dir(args, config))
        lexicon = build_lexicon(store.get(args.subject))
    result = rubric.evaluate(item, target, lexicon)
    _emit(result.to_dict())
    return 0


def cmd_analyze(args) -> int:
    matrix = ResponseMatrix.from_csv(text_file(args.responses, "responses"))
    groups = None
    if args.groups:
        groups = obj(json_file(args.groups, "groups"), "groups")
        for pid, label in groups.items():
            string(label, f"group label of {pid!r}")
    report = analyze(matrix, groups, discrimination_fraction=args.fraction)
    _emit(report, args.out)
    return 0


def cmd_agents_run(args) -> int:
    from .bus import MessageBus, TcpBusServer, run_pipeline

    if args.tcp:
        host, _, port = args.tcp.partition(":")
        port = integer(int(port) if port.isdecimal() else port or 0,
                       "--tcp port", low=0, high=65535)
    config = _load_config(args)
    store = SnapshotStore(_data_dir(args, config))
    store.load_all()
    extractor = _extractor(args, config)
    rubric = _rubric(args, config)
    bus = MessageBus()
    pipeline = run_pipeline(bus, store.registry, extractor, rubric=rubric,
                            llm_complete=_backend_complete(args, config))
    server = None
    try:
        status = {"status": "running", "agents": pipeline.agent_names,
                  "subjects": store.registry.subjects()}
        if args.tcp:
            server = TcpBusServer(bus, host or "127.0.0.1", port)
            server.start()
            status["tcp"] = {"host": server.host, "port": server.port}
        sys.stdout.write(json.dumps(status, sort_keys=True) + "\n")
        sys.stdout.flush()
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.stop()
        pipeline.stop()
        bus.close()
    return 0


# --- parser ---

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", help=f"snapshot directory (default {DEFAULT_DATA_DIR})")
    parser.add_argument("--config", help="global config JSON (flags win)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="examgraph",
        description="knowledge-graph construction, exam generation and item analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest a document into a subject graph")
    p.add_argument("--subject", required=True)
    p.add_argument("--doc", required=True, help="text or markdown file")
    p.add_argument("--doc-id", default=None)
    p.add_argument("--chapter", action="append",
                   help="chapter path element (repeatable, outermost first)")
    p.add_argument("--format", choices=["plain", "markdown"], default=None)
    p.add_argument("--lexicon", help="hypernym lexicon JSON file")
    p.add_argument("--append", action="store_true",
                   help="allow adding to an already-populated subject")
    p.add_argument("--max-chars", type=int, default=2000)
    p.add_argument("--extractor", choices=["rule", "mock-llm", "llm"], default="rule")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("graph", help="graph snapshots and statistics")
    graph_sub = p.add_subparsers(dest="graph_command", required=True)
    pe = graph_sub.add_parser("export")
    pe.add_argument("--subject", required=True)
    pe.add_argument("--out")
    _add_common(pe)
    pe.set_defaults(func=cmd_graph_export)
    ps = graph_sub.add_parser("stats")
    ps.add_argument("--subject", required=True)
    _add_common(ps)
    ps.set_defaults(func=cmd_graph_stats)

    p = sub.add_parser("rank", help="rank chapter concepts (or a concept's facts)")
    p.add_argument("--subject", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--chapter", help="chapter label to rank concepts for")
    target.add_argument("--facts-of", help="concept label: rank its facts instead")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("blueprint", help="blueprint tools")
    bp_sub = p.add_subparsers(dest="blueprint_command", required=True)
    pv = bp_sub.add_parser("validate")
    pv.add_argument("--blueprint", required=True)
    _add_common(pv)
    pv.set_defaults(func=cmd_blueprint_validate)

    p = sub.add_parser("generate", help="generate an exam from a blueprint")
    p.add_argument("--blueprint", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="exam JSON output path (stdout when omitted)")
    p.add_argument("--rubric", help="rubric config JSON")
    p.add_argument("--generator", choices=["template", "llm"], default="template")
    p.add_argument("--backend", choices=["mock", "http"], default="mock",
                   help="completion backend for --generator llm")
    p.add_argument("--mock", action="store_true",
                   help="force the fully offline stack (template generator)")
    p.add_argument("--retries", type=int, default=5)
    p.add_argument("--top-concepts", type=int, default=10)
    p.add_argument("--top-facts", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate-item", help="difficulty breakdown for one item JSON")
    p.add_argument("--item", required=True)
    p.add_argument("--rubric")
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--tier", choices=[t.value for t in DifficultyTier], default=None)
    p.add_argument("--subject", help="subject graph supplying the term lexicon")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate_item)

    p = sub.add_parser("analyze", help="item statistics from a response CSV")
    p.add_argument("--responses", required=True)
    p.add_argument("--groups", help="JSON object: participant id -> group label")
    p.add_argument("--fraction", type=float, default=0.25)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("agents", help="agent runtime")
    ag_sub = p.add_subparsers(dest="agents_command", required=True)
    pr = ag_sub.add_parser("run")
    pr.add_argument("--tcp", help="HOST:PORT for the TCP hub (port 0 = ephemeral)")
    pr.add_argument("--duration", type=float, default=None,
                    help="run for N seconds then exit (default: until interrupt)")
    pr.add_argument("--extractor", choices=["rule", "mock-llm", "llm"], default="rule")
    pr.add_argument("--lexicon")
    pr.add_argument("--backend", choices=["mock", "http"], default="mock")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--rubric")
    _add_common(pr)
    pr.set_defaults(func=cmd_agents_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mock", False):
        args.generator = "template"
        args.backend = "mock"
    try:
        return args.func(args)
    except (ExamGraphError, ValueError, OSError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the program.

The tracer replaces public functions of examgraph at the places where their
callers look them up (module globals and class attributes) with wrappers
that record a span: calls, total time and self time. Self time is a span's
time minus the time of spans opened inside it on the same thread. Each
thread keeps its own span stack, so agent and transport threads trace
independently. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
from time import perf_counter

def _count_iterations(counts, result):
    counts["ranking.pagerank_iterations"] += result.iterations


def _count_segments(counts, result):
    counts["ingestion.segments"] += len(result)


def _count_triples(counts, result):
    counts["ingestion.triples"] += len(result.triples)


def _count_frame_bytes(counts, result):
    counts["bus.codec.encode_bytes"] += len(result)


def _count_accepted(counts, result):
    if result:
        counts["generation.accepted"] += 1


# (module, attribute, span name, observer); a dotted attribute names a
# method. A span name of None counts calls under "kg.scan_calls" without
# opening a span. Call sites that imported a function by name are listed
# beside the function's own module. Targets missing from the sources are
# skipped and reported, so the benchmark outlives refactors of its targets.
_GRAPH = "examgraph.kg.graph"
_PIPELINE = "examgraph.bus.pipeline"
_GENERATOR = "examgraph.generation.generator"
_MATERIAL = "examgraph.generation.material"
_EXAM = "examgraph.generation.exam"
_INGESTION = "examgraph.ingestion"
_RANKING = "examgraph.ranking"
_REPORT = "examgraph.psychometrics.report"

TARGETS = [
    ("examgraph.kg", "import_graph", "kg.snapshot.import", None),
    (_GRAPH, "KnowledgeGraph.upsert_entity", "kg.assert", None),
    (_GRAPH, "KnowledgeGraph.assert_fact_triple", "kg.assert", None),
    (_GRAPH, "KnowledgeGraph.assert_link", "kg.assert", None),
    (_GRAPH, "KnowledgeGraph.nodes", None, None),
    (_GRAPH, "KnowledgeGraph.edges", None, None),
    (_INGESTION, "transcribe", "ingestion.transcribe", None),
    (_INGESTION, "segment_text", "ingestion.segment", _count_segments),
    (_INGESTION, "extract_segment", "ingestion.extract", _count_triples),
    (_INGESTION, "build_hierarchy", "ingestion.assemble", None),
    (_INGESTION, "apply_extraction", "ingestion.assemble", None),
    (_PIPELINE, "transcribe", "ingestion.transcribe", None),
    (_PIPELINE, "segment_text", "ingestion.segment", _count_segments),
    (_PIPELINE, "extract_segment", "ingestion.extract", _count_triples),
    (_RANKING, "pagerank", "ranking.pagerank", _count_iterations),
    (_MATERIAL, "pagerank", "ranking.pagerank", _count_iterations),
    (_GENERATOR, "pagerank", "ranking.pagerank", _count_iterations),
    (_RANKING, "rank_chapter_concepts", "ranking.rank", None),
    (_RANKING, "rank_concept_facts", "ranking.rank", None),
    (_MATERIAL, "rank_chapter_concepts", "ranking.rank", None),
    (_MATERIAL, "rank_concept_facts", "ranking.rank", None),
    (_GENERATOR, "rank_chapter_concepts", "ranking.rank", None),
    (_GENERATOR, "rank_concept_facts", "ranking.rank", None),
    (_EXAM, "assemble_material", "generation.material", None),
    (_EXAM, "generate_candidate", "generation.candidate", None),
    (_EXAM, "Exam.to_json", "generation.exam_json", None),
    (_EXAM, "ExamSession.record_result", "generation.record", _count_accepted),
    (_EXAM, "evaluate_candidate", "assessment.evaluate", None),
    (_PIPELINE, "evaluate_candidate", "assessment.evaluate", None),
    (_EXAM, "build_lexicon", "assessment.lexicon", None),
    (_PIPELINE, "build_lexicon", "assessment.lexicon", None),
    ("examgraph.psychometrics.itemstats", "ResponseMatrix.from_csv",
     "psychometrics.parse", None),
    (_REPORT, "item_p_value", "psychometrics.item_stats", None),
    (_REPORT, "item_discrimination", "psychometrics.item_stats", None),
    (_REPORT, "one_way_anova", "psychometrics.group_tests", None),
    (_REPORT, "levene_test", "psychometrics.group_tests", None),
    (_REPORT, "pairwise_welch_bonferroni", "psychometrics.group_tests", None),
    ("examgraph.bus.core", "MessageBus.publish", "bus.publish", None),
    ("examgraph.bus.tcp", "encode_frame", "bus.codec.encode", _count_frame_bytes),
    ("examgraph.bus.codec", "FrameReader.feed", "bus.codec.decode", None),
]

COUNTERS = ("ranking.pagerank_iterations", "ingestion.segments",
            "ingestion.triples", "bus.codec.encode_bytes",
            "generation.accepted", "kg.scan_calls")


class Aggregate:
    """Totals for one phase: per span name [calls, total_s, self_s], plus
    the counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def merged(self, other: "Aggregate") -> "Aggregate":
        out = Aggregate()
        for source in (self, other):
            for name, (calls, total, own) in source.spans.items():
                entry = out.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, value in source.counts.items():
                out.counts[name] += value
        return out


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._agg = Aggregate()
        self._installed: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []  # targets not found at the last install
        self.active = False

    def take(self) -> Aggregate:
        """Return the totals gathered since the last take and start afresh."""
        with self._lock:
            agg, self._agg = self._agg, Aggregate()
        return agg

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, elapsed: float, own: float) -> None:
        with self._lock:
            entry = self._agg.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += own

    def _observe(self, observer, result) -> None:
        with self._lock:
            observer(self._agg.counts, result)

    def _span(self, fn, name: str, observer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                # a layer calling itself (a triple upserting its entities)
                # stays one span
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer._record(name, elapsed, elapsed - frame[1])
            if observer is not None:
                tracer._observe(observer, result)
            return result

        return wrapper

    def _scan_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                with tracer._lock:
                    tracer._agg.counts["kg.scan_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def tracing(self):
        """Install the wrappers and record spans for the ``with`` body."""
        self.install()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    def install(self) -> None:
        self.skipped = []
        for module, path, name, observer in TARGETS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module}:{path}")
                continue
            if isinstance(static, classmethod):
                replacement = classmethod(self._span(static.__func__, name, observer))
            elif name is None:
                replacement = self._scan_counter(static)
            else:
                replacement = self._span(static, name, observer)
            self._installed.append((owner, attr, static))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

"""The benchmark workloads. Each one builds its inputs from the seed, sets
the program up, computes reference outputs outside every timer, and then
runs whole rounds of operations until the measuring window has passed.

Every operation's output is checked; a wrong output, an error, a
``system/errors`` message or a missed deadline counts as a failed op.

Each op's wall time is kept, and also scaled by the host's speed measured
around it (``calibrate.py``); the end-to-end metrics are medians of the
scaled times. ``KERNELS`` maps each op, and the set-up, to its kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import queue
import random
import statistics
import threading
import traceback
from time import perf_counter

import examgraph.kg
from examgraph.bus import MessageBus, TcpBusClient, TcpBusServer, run_pipeline
from examgraph.generation import ExamBlueprint, TemplateGenerator, generate_exam
from examgraph.ingestion import RuleExtractor, ingest_document
from examgraph.kg import GraphRegistry, export_graph
from examgraph.psychometrics import ResponseMatrix, analyze

import calibrate
import inputs

DEADLINE_S = 30.0  # longest wait for any reply before the op counts as failed
MAX_ERRORS = 5     # failure messages kept for the report


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Phase:
    """Samples and outcomes of one measuring window. Safe to record into
    from several threads.

    ``samples`` holds wall times. ``scaled`` holds the same times scaled to
    the reference host; a time gets there at the next ``calibrate()`` call,
    so a window calls it before its first op and after its last. Without a
    calibrator nothing is scaled."""

    def __init__(self, calibrator: calibrate.Calibrator | None = None,
                 kernels: dict[str, str] | None = None, on_first_round=None):
        self.samples: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.speeds: list[dict[str, float]] = []
        self.calibration_s = 0.0
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []
        self.rounds = 0
        self.round1: dict[str, int] = {}
        self.elapsed = 0.0
        self._on_first_round = on_first_round
        self._calibrator = calibrator
        self._kernels = kernels or {}
        self._pending: list[tuple[str, float]] = []
        self._lock = threading.Lock()

    def record(self, op: str, seconds: float | None, error: str | None = None) -> None:
        """One attempted op; ``seconds`` is None when no reply came."""
        with self._lock:
            self.attempted[op] = self.attempted.get(op, 0) + 1
            self.failed.setdefault(op, 0)
            if seconds is not None:
                self.samples.setdefault(op, []).append(seconds)
                self._pending.append((op, seconds))
            if error is not None:
                self.failed[op] += 1
                if len(self.errors) < MAX_ERRORS:
                    self.errors.append(f"{op}: {error}")

    def calibrate(self) -> None:
        """Measure the host's speed and scale the times recorded since the
        previous call by the mean of the two measurements. Call it only
        while no op is in flight."""
        if self._calibrator is None:
            return
        start = perf_counter()
        speed = self._calibrator.measure()
        with self._lock:
            if self.speeds:
                for op, seconds in self._pending:
                    factor = calibrate.scale(self._kernels[op], self.speeds[-1], speed)
                    self.scaled.setdefault(op, []).append(seconds * factor)
            self._pending.clear()
            self.speeds.append(speed)
            self.calibration_s += perf_counter() - start

    def busy(self) -> float:
        """Seconds of the window spent on ops, calibration left out."""
        return self.elapsed - self.calibration_s

    def round_done(self) -> None:
        """Called once per whole round, while no op is in flight."""
        self.rounds += 1
        if self.rounds == 1:
            self.round1 = dict(self.attempted)
            if self._on_first_round is not None:
                self._on_first_round()


def _timed(phase: Phase, op: str, run, check) -> None:
    """Time ``run()``; ``check(output)`` returns an error string or None
    and runs outside the timer."""
    start = perf_counter()
    try:
        output = run()
    except Exception:
        phase.record(op, None, traceback.format_exc(limit=3))
        return
    elapsed = perf_counter() - start
    phase.record(op, elapsed, check(output))


class Exam48:
    """What ``examgraph generate`` plus ``examgraph analyze`` do, without
    process start or file I/O. Chosen because ranking does most of the exam
    work here (one whole-graph PageRank per blueprint section plus the
    generator's own), the bus does none, and psychometrics is measured
    nowhere else."""

    name = "exam-48"
    OPS = ("exam", "analyze")
    KERNELS = {"exam": "graph", "analyze": "table", "setup": "graph"}
    CHAPTERS = 48
    EXAM_SEED = 42
    RESPONDENTS = 400
    SUBJECT = "biology"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}|{seed}")
        roots = inputs.draw_roots(rng, self.CHAPTERS * inputs.CONCEPTS_PER_CHAPTER)
        self.documents, lexicon = inputs.corpus(self.SUBJECT, roots, self.CHAPTERS)
        self.extractor = RuleExtractor(lexicon)
        self.blueprint = ExamBlueprint.from_dict(
            inputs.blueprint(self.SUBJECT, list(range(1, self.CHAPTERS + 1))))
        self.response_rng = random.Random(f"{self.name}|responses|{seed}")
        self.setup_documents = len(self.documents)

    def setup(self) -> bytes:
        """Ingest every chapter and export the snapshot the exam op loads."""
        registry = GraphRegistry()
        for i, document in enumerate(self.documents):
            report = ingest_document(registry, document, self.extractor, append=i > 0)
            if report.failures:
                raise RuntimeError(f"ingest failed: {report.failures}")
        return export_graph(registry.get(self.SUBJECT))

    def teardown(self, snapshot: bytes) -> None:
        pass

    def _exam(self, snapshot: bytes) -> str:
        graph = examgraph.kg.import_graph(snapshot)
        registry = GraphRegistry()
        registry.attach(graph)
        exam = generate_exam(registry, self.blueprint,
                             TemplateGenerator(graph, seed=self.EXAM_SEED),
                             seed=self.EXAM_SEED)
        return exam.to_json()

    def _analyze(self) -> str:
        matrix = ResponseMatrix.from_csv(self.responses)
        report = analyze(matrix, self.groups)
        return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)

    def prepare(self, snapshot: bytes) -> None:
        exam_json = self._exam(snapshot)
        self.exam_sha = hashlib.sha256(exam_json.encode("utf-8")).hexdigest()
        items = json.loads(exam_json)["items"]
        if len(items) != self.blueprint.total:
            raise RuntimeError(f"reference exam has {len(items)} items")
        self.responses, self.groups = inputs.simulate_responses(
            self.response_rng, items, self.RESPONDENTS)
        self.analysis = self._analyze()

    def _check_exam(self, exam_json: str) -> str | None:
        digest = hashlib.sha256(exam_json.encode("utf-8")).hexdigest()
        return None if digest == self.exam_sha else f"exam sha256 {digest[:12]} differs"

    def _check_analysis(self, text: str) -> str | None:
        return None if text == self.analysis else "analysis differs from reference"

    def measure(self, snapshot: bytes, seconds: float, phase: Phase) -> bytes:
        start = perf_counter()
        phase.calibrate()
        while True:
            _timed(phase, "exam", lambda: self._exam(snapshot), self._check_exam)
            phase.calibrate()
            _timed(phase, "analyze", self._analyze, self._check_analysis)
            phase.calibrate()
            phase.round_done()
            if perf_counter() - start >= seconds:
                break
        phase.elapsed = perf_counter() - start
        return snapshot

    @staticmethod
    def end_to_end(phase: Phase) -> dict:
        """Scaled medians of the exam and the analysis op."""
        return {"exam_ms": statistics.median(phase.scaled["exam"]) * 1e3,
                "aux_ms": statistics.median(phase.scaled["analyze"]) * 1e3}

    @staticmethod
    def named(phase: Phase) -> dict:
        exams, analyses = phase.samples["exam"], phase.samples["analyze"]
        return {"exam_s": (statistics.median(exams), "s"),
                "analyze_s": (statistics.median(analyses), "s"),
                "exams_per_s": (len(exams) / phase.busy(), "1/s")}


@dataclasses.dataclass
class _Serving:
    registry: GraphRegistry
    bus: MessageBus
    pipeline: object
    server: TcpBusServer
    clients: list[TcpBusClient]
    completes_seen: list[int]
    next_id: list[int]


class TcpServe:
    """An in-process pipeline behind a TCP hub, the shape of ``examgraph
    agents run --tcp``, loaded by TCP clients in a closed loop: each sends
    its next 1-chapter exam request only after its previous exam arrived,
    as requesters that wait for their exam do. Chosen because the frame
    codec, the bus and the agent hand-offs dominate while ranking is small
    (two PageRank runs on a 75-node graph per exam)."""

    name = "tcp-serve"
    OPS = ("exam",)
    KERNELS = {"exam": "table", "setup": "graph"}
    SUBJECTS = 4
    CHAPTERS = 3
    WARMUP_PER_CLIENT = 6

    def __init__(self, seed: int, nproc: int):
        rng = random.Random(f"{self.name}|{seed}")
        per_subject = self.CHAPTERS * inputs.CONCEPTS_PER_CHAPTER
        roots = inputs.draw_roots(rng, self.SUBJECTS * per_subject)
        self.corpora = []
        for s in range(self.SUBJECTS):
            subject = f"subject-{s + 1}"
            documents, lexicon = inputs.corpus(
                subject, roots[s * per_subject:(s + 1) * per_subject], self.CHAPTERS)
            self.corpora.append((documents, RuleExtractor(lexicon)))
        self.setup_documents = self.SUBJECTS * self.CHAPTERS
        exam_seeds = rng.sample(range(1, 10_000), 2)
        self.requests = [(f"subject-{s + 1}", c, exam_seed)
                         for s in range(self.SUBJECTS)
                         for c in range(1, self.CHAPTERS + 1)
                         for exam_seed in exam_seeds]
        # never more load connections than processors
        self.clients = min(2, nproc)
        self.orders = [rng.sample(self.requests, len(self.requests))
                       for _ in range(self.clients)]

    def setup(self) -> _Serving:
        registry = GraphRegistry()
        for documents, extractor in self.corpora:
            for i, document in enumerate(documents):
                report = ingest_document(registry, document, extractor, append=i > 0)
                if report.failures:
                    raise RuntimeError(f"ingest failed: {report.failures}")
        bus = MessageBus()
        pipeline = run_pipeline(bus, registry, RuleExtractor())
        server = TcpBusServer(bus)
        server.start()
        clients = [TcpBusClient("127.0.0.1", server.port, f"load-{i}",
                                subscriptions=["exam/*", "system/errors"],
                                timeout=DEADLINE_S)
                   for i in range(self.clients)]
        return _Serving(registry, bus, pipeline, server, clients,
                        [0] * self.clients, [0] * self.clients)

    def teardown(self, serving: _Serving) -> None:
        for client in serving.clients:
            client.close()
        serving.server.stop()
        serving.pipeline.stop()
        serving.bus.close()

    def prepare(self, serving: _Serving) -> None:
        self.references = {}
        for subject, chapter, exam_seed in self.requests:
            graph = serving.registry.get(subject)
            exam = generate_exam(
                serving.registry,
                ExamBlueprint.from_dict(inputs.blueprint(subject, [chapter])),
                TemplateGenerator(graph, seed=exam_seed), seed=exam_seed)
            self.references[(subject, chapter, exam_seed)] = canonical(exam.to_dict())
        warmup = Phase()
        orders = [order[:self.WARMUP_PER_CLIENT] for order in self.orders]
        self._rounds(serving, orders, 0.0, warmup)
        if sum(warmup.failed.values()):
            raise RuntimeError(f"warm-up failed: {warmup.errors}")

    def _await(self, serving: _Serving, idx: int, correlation: str | None,
               completes: int | None = None) -> tuple[dict | None, str | None]:
        """Read frames until the exam for ``correlation`` arrives, or until
        ``completes`` exam/complete frames have been seen in all."""
        client = serving.clients[idx]
        deadline = perf_counter() + DEADLINE_S
        while completes is None or serving.completes_seen[idx] < completes:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                return None, "deadline passed"
            try:
                message = client.get(timeout=remaining)
            except queue.Empty:
                return None, "deadline passed"
            if message is None:
                return None, "connection closed"
            if message.topic == "exam/complete":
                serving.completes_seen[idx] += 1
                if message.correlation_id == correlation:
                    return message.payload, None
            elif message.topic == "system/errors" and message.correlation_id == correlation:
                return None, f"system/errors: {message.payload}"
        return None, None

    def _client(self, serving, idx, order, phase, barrier, state) -> None:
        client = serving.clients[idx]
        per_round = sum(len(o) for o in state["orders"])
        expected = serving.completes_seen[idx]
        while not state["stop"]:
            for subject, chapter, exam_seed in order:
                serving.next_id[idx] += 1
                correlation = f"c{idx}-{serving.next_id[idx]:06d}"
                request = {"blueprint": inputs.blueprint(subject, [chapter]),
                           "seed": exam_seed}
                start = perf_counter()
                client.publish("exam/request", request, correlation_id=correlation)
                payload, error = self._await(serving, idx, correlation)
                if error is not None:
                    phase.record("exam", None, error)
                    state["stop"] = True
                    barrier.abort()
                    return
                elapsed = perf_counter() - start
                reference = self.references[(subject, chapter, exam_seed)]
                phase.record("exam", elapsed, None if canonical(payload) == reference
                             else f"exam {correlation} differs from generate_exam")
            # the round ends once every exam of every client has reached this
            # connection, so nothing of it is still being encoded
            expected += per_round
            _, error = self._await(serving, idx, None, expected)
            if error is not None:
                phase.record("exam", None, f"round end: {error}")
                state["stop"] = True
                barrier.abort()
                return
            try:
                barrier.wait(timeout=DEADLINE_S)
            except threading.BrokenBarrierError:
                return

    def _rounds(self, serving: _Serving, orders, seconds: float, phase: Phase) -> None:
        state = {"stop": False, "orders": orders}
        start = perf_counter()

        def end_of_round():
            phase.calibrate()
            phase.elapsed = perf_counter() - start
            phase.round_done()
            state["stop"] = phase.elapsed >= seconds

        barrier = threading.Barrier(len(orders), action=end_of_round)
        phase.calibrate()
        threads = [threading.Thread(target=self._client, name=f"load-{i}",
                                    args=(serving, i, orders[i], phase, barrier, state))
                   for i in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def measure(self, serving: _Serving, seconds: float, phase: Phase) -> _Serving:
        self._rounds(serving, self.orders, seconds, phase)
        return serving

    @staticmethod
    def end_to_end(phase: Phase) -> dict:
        exams = phase.scaled["exam"]
        return {"exam_ms": statistics.median(exams) * 1e3, "aux_ms": p90(exams) * 1e3}

    @staticmethod
    def named(phase: Phase) -> dict:
        exams = phase.samples["exam"]
        return {"tcp_exams_per_s": (len(exams) / phase.busy(), "1/s"),
                "tcp_exam_p50_ms": (statistics.median(exams) * 1e3, "ms"),
                "tcp_exam_p90_ms": (p90(exams) * 1e3, "ms")}


@dataclasses.dataclass
class _Appending:
    registry: GraphRegistry
    bus: MessageBus
    pipeline: object
    inbox: object  # first of the load's subscriptions; all share one queue


class AppendExam:
    """Write beside read: a fresh registry and in-process pipeline per pass;
    each of 48 markdown chapters is appended through ``ingest/request``
    and then examined with a 1-chapter ``exam/request``. Chosen because
    every exam follows a new graph revision, so per-revision caching cannot
    help, and any cost a read-side change moves into writes shows in the
    ingest time; ingestion is measured nowhere else."""

    name = "append-exam"
    OPS = ("ingest", "exam")
    KERNELS = {"ingest": "graph", "exam": "graph", "setup": "graph"}
    CHAPTERS = 48
    SUBJECT = "geology"
    setup_documents = 0

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}|{seed}")
        roots = inputs.draw_roots(rng, self.CHAPTERS * inputs.CONCEPTS_PER_CHAPTER)
        self.documents, lexicon = inputs.corpus(self.SUBJECT, roots, self.CHAPTERS,
                                                markdown=True)
        self.extractor = RuleExtractor(lexicon)
        self.exam_seed = rng.randrange(1, 10_000)
        self.blueprints = [inputs.blueprint(self.SUBJECT, [c])
                           for c in range(1, self.CHAPTERS + 1)]
        self.passes = 0

    def setup(self) -> _Appending:
        registry = GraphRegistry()
        bus = MessageBus()
        pipeline = run_pipeline(bus, registry, self.extractor)
        shared: queue.Queue = queue.Queue()
        subscriptions = [bus.subscribe("load", topic, shared_queue=shared)
                         for topic in ("ingest/report", "exam/complete", "system/errors")]
        return _Appending(registry, bus, pipeline, subscriptions[0])

    def teardown(self, appending: _Appending) -> None:
        appending.pipeline.stop()
        appending.bus.close()

    def prepare(self, appending: _Appending) -> None:
        """Reference exams from direct ingest and ``generate_exam`` on the
        same sequence of graph states the pipeline passes through."""
        registry = GraphRegistry()
        self.references = []
        for i, document in enumerate(self.documents):
            report = ingest_document(registry, document, self.extractor, append=i > 0)
            if report.failures:
                raise RuntimeError(f"reference ingest failed: {report.failures}")
            graph = registry.get(self.SUBJECT)
            exam = generate_exam(registry, ExamBlueprint.from_dict(self.blueprints[i]),
                                 TemplateGenerator(graph, seed=self.exam_seed),
                                 seed=self.exam_seed)
            self.references.append(canonical(exam.to_dict()))
        self.final_snapshot = export_graph(registry.get(self.SUBJECT))

    @staticmethod
    def _await(appending: _Appending, topic: str, correlation: str
               ) -> tuple[dict | None, str | None]:
        deadline = perf_counter() + DEADLINE_S
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                return None, "deadline passed"
            try:
                message = appending.inbox.get(timeout=remaining)
            except queue.Empty:
                return None, "deadline passed"
            if message is None:
                return None, "bus closed"
            if message.correlation_id != correlation:
                continue
            if message.topic == topic:
                return message.payload, None
            if message.topic == "system/errors":
                return None, f"system/errors: {message.payload}"

    def _request(self, appending, phase, op, topic, payload, reply_topic,
                 correlation, check) -> bool:
        start = perf_counter()
        appending.bus.publish(topic, payload, sender="load", correlation_id=correlation)
        reply, error = self._await(appending, reply_topic, correlation)
        elapsed = perf_counter() - start
        if error is not None:
            phase.record(op, None, error)
            return False
        phase.record(op, elapsed, check(reply))
        return True

    def _pass(self, appending: _Appending, phase: Phase) -> bool:
        self.passes += 1
        for k, document in enumerate(self.documents):
            tag = f"{self.passes:04d}-{k + 1:02d}"
            ok = self._request(
                appending, phase, "ingest", "ingest/request",
                {"doc": dataclasses.asdict(document), "append": k > 0},
                "ingest/report", f"i{tag}",
                lambda report: (f"ingest report lists failures: {report['failures']}"
                                if report["failures"] else None))
            reference = self.references[k]
            ok = ok and self._request(
                appending, phase, "exam", "exam/request",
                {"blueprint": self.blueprints[k], "seed": self.exam_seed},
                "exam/complete", f"e{tag}",
                lambda exam, k=k, reference=reference: (
                    None if canonical(exam) == reference
                    else f"chapter {k + 1} exam differs from generate_exam"))
            if not ok:
                return False
        return True

    def measure(self, appending: _Appending, seconds: float, phase: Phase) -> _Appending:
        """Passes until ``seconds`` of pass time; returns a fresh set-up."""
        while True:
            start = perf_counter()
            phase.calibrate()
            ok = self._pass(appending, phase)
            phase.calibrate()
            phase.elapsed += perf_counter() - start
            if ok:
                same = (export_graph(appending.registry.get(self.SUBJECT))
                        == self.final_snapshot)
                phase.record("graph", None,
                             None if same else "pipeline graph differs from direct ingest")
                phase.round_done()
            self.teardown(appending)
            appending = self.setup()
            if not ok or phase.elapsed >= seconds:
                return appending

    @staticmethod
    def end_to_end(phase: Phase) -> dict:
        return {"exam_ms": statistics.median(phase.scaled["exam"]) * 1e3,
                "aux_ms": statistics.median(phase.scaled["ingest"]) * 1e3}

    @staticmethod
    def named(phase: Phase) -> dict:
        exams = phase.samples["exam"]
        return {"ingest_doc_ms": (statistics.median(phase.samples["ingest"]) * 1e3, "ms"),
                "append_exam_ms": (statistics.median(exams) * 1e3, "ms"),
                "exams_per_s": (len(exams) / phase.busy(), "1/s")}

"""Tests of the benchmark itself: seeded inputs, span accounting and the
exact repetition of per-op counts. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from examgraph.ingestion import RuleExtractor, ingest_document  # noqa: E402
from examgraph.kg import GraphRegistry  # noqa: E402

# counts per op that must repeat exactly between runs of one code and seed
EXACT = ("ranking.pagerank_calls", "ranking.pagerank_iterations",
         "generation.candidates", "assessment.evaluations",
         "bus.codec.encode_bytes")


def _ingest(documents, lexicon):
    registry = GraphRegistry()
    extractor = RuleExtractor(lexicon)
    for i, document in enumerate(documents):
        report = ingest_document(registry, document, extractor, append=i > 0)
        assert report.failures == []
    return registry.get(documents[0].subject)


def test_seed_changes_words_not_graph_shape():
    graphs = []
    for seed in (1, 2):
        roots = inputs.draw_roots(random.Random(seed), 12)
        graphs.append(_ingest(*inputs.corpus("s", roots, 3)))
    assert graphs[0].stats() == graphs[1].stats()
    assert graphs[0].stats()["node_total"] == 75
    labels = [{n.label for n in g.nodes()} for g in graphs]
    assert labels[0] != labels[1]


def test_markdown_rendering_builds_the_plain_graph():
    roots = inputs.draw_roots(random.Random(7), 8)
    plain = _ingest(*inputs.corpus("s", roots, 2))
    markdown = _ingest(*inputs.corpus("s", roots, 2, markdown=True))
    assert [(n.id, n.label) for n in markdown.nodes()] == \
        [(n.id, n.label) for n in plain.nodes()]
    assert markdown.edges() == plain.edges()


def test_self_time_excludes_child_spans():
    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    tracer = spans.Tracer()
    module.inner = tracer._span(inner, "child", None)
    module.outer = tracer._span(outer, "parent", None)
    tracer.active = True
    module.outer()
    agg = tracer.take()
    assert agg.calls("parent") == agg.calls("child") == 1
    assert agg.total("parent") >= agg.total("child") >= 0.02
    assert agg.self_time("parent") == pytest.approx(
        agg.total("parent") - agg.total("child"))


def test_targets_missing_from_the_sources_are_skipped(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [
        ("examgraph.ranking", "pagerank", "ranking.pagerank", None),
        ("examgraph.ranking", "no_such_function", "x", None),
        ("examgraph.no_such_module", "f", "x", None),
    ])
    tracer = spans.Tracer()
    with tracer.tracing():
        assert tracer.skipped == ["examgraph.ranking:no_such_function",
                                  "examgraph.no_such_module:f"]


class _FakeCalibrator:
    """Kernel times from a list, one measurement per call."""

    def __init__(self, speeds):
        self.speeds = iter(speeds)

    def measure(self):
        return next(self.speeds)


def test_times_are_scaled_by_the_speed_around_them():
    ref = calibrate.REFERENCE_S
    phase = workloads.Phase(_FakeCalibrator([
        {"graph": ref["graph"], "table": ref["table"]},
        {"graph": 3 * ref["graph"], "table": ref["table"]},
        {"graph": ref["graph"], "table": 2 * ref["table"]},
    ]), {"exam": "graph", "analyze": "table"})
    phase.calibrate()
    phase.record("exam", 1.0)
    phase.calibrate()
    phase.record("analyze", 3.0)
    phase.record("exam", 4.0, "wrong output")
    phase.calibrate()
    assert phase.samples == {"exam": [1.0, 4.0], "analyze": [3.0]}
    # mean kernel time 2x then 2x and 1.5x the reference
    assert phase.scaled["exam"] == pytest.approx([0.5, 2.0])
    assert phase.scaled["analyze"] == pytest.approx([2.0])
    assert phase.failed == {"exam": 1, "analyze": 0}


def test_calibration_kernels_run_near_their_reference_time():
    speed = calibrate.Calibrator().measure()
    assert set(speed) == set(calibrate.REFERENCE_S)
    for kernel, seconds in speed.items():
        # the host's speed drifts, but not by tenfold
        assert 0.1 < seconds / calibrate.REFERENCE_S[kernel] < 10


def _traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT}


@pytest.mark.parametrize("workload", ["exam-48", "tcp-serve", "append-exam"])
def test_counts_per_op_repeat_exactly(workload):
    first = _traced_counts(workload)
    assert _traced_counts(workload) == first
    if workload == "exam-48":
        assert first["ranking.pagerank_calls"] == 49
    if workload == "tcp-serve":
        assert first["bus.codec.encode_bytes"] > 0

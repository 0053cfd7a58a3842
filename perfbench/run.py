"""examgraph benchmark.

    python3 perfbench/run.py --workload exam-48 --seed 1 --seconds 40 --trace 0

Runs one workload (or ``all`` of them, each in its own process) against the
examgraph sources in ``src/`` of the checkout it is run from. Prints one
report line per workload, a JSON object with the workload's own metric
names, the op counts and the run's records, and then, as the last line,
the result object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
Their timings are wall times scaled by the host's speed measured around
them (``calibrate.py``); the report line keeps the wall times. A workload's
process runs on one CPU: with the interpreter lock only one of its threads
runs Python at a time, and on a shared host a hand-off between threads on
two CPUs waits for the host to wake the other CPU (README.md has figures).

With ``--trace 1`` the workload runs a traced window and then an untraced
one; the metrics are the per-layer numbers from the traced window plus the
tracing overhead (traced minus untraced) of each end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
WORKLOAD_NAMES = ("exam-48", "tcp-serve", "append-exam")
SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
UNITS = {"exam_ms": "ms", "aux_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_workload(name: str, seed: int, cpus: int):
    import workloads

    if name == "exam-48":
        return workloads.Exam48(seed)
    if name == "tcp-serve":
        return workloads.TcpServe(seed, cpus)
    return workloads.AppendExam(seed)


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def layer_metrics(setup, round1, window, phase, setup_documents: int) -> dict:
    """Per-layer metrics. Counts come from the first round, which is the
    same list of ops in every run, so a count per op repeats exactly; times
    come from the whole traced window. Ingestion and graph assertions are
    per ingested document, set-up included; psychometrics per analysis;
    everything else per exam."""
    exams1, exams = phase.round1.get("exam", 0), phase.attempted.get("exam", 0)
    analyses = phase.attempted.get("analyze", 0)
    docs1 = setup_documents + phase.round1.get("ingest", 0)
    docs = setup_documents + phase.attempted.get("ingest", 0)
    ingest1, ingest = setup.merged(round1), setup.merged(window)
    candidates = round1.calls("generation.candidate")
    values = {
        "kg.snapshot.import_s": (_per(window.total("kg.snapshot.import"), exams), "s/exam"),
        "kg.assert_calls": (_per(ingest1.calls("kg.assert"), docs1), "count/doc"),
        "kg.assert_s": (_per(ingest.total("kg.assert"), docs), "s/doc"),
        "kg.scan_calls": (_per(round1.counts["kg.scan_calls"], exams1), "count/exam"),
        "ingestion.segments": (_per(ingest1.counts["ingestion.segments"], docs1),
                               "count/doc"),
        "ingestion.triples": (_per(ingest1.counts["ingestion.triples"], docs1),
                              "count/doc"),
        "ranking.pagerank_calls": (_per(round1.calls("ranking.pagerank"), exams1),
                                   "count/exam"),
        "ranking.pagerank_iterations": (
            _per(round1.counts["ranking.pagerank_iterations"], exams1), "count/exam"),
        "ranking.pagerank_s": (_per(window.total("ranking.pagerank"), exams), "s/exam"),
        "ranking.rank_s": (_per(window.self_time("ranking.rank"), exams), "s/exam"),
        "generation.material_s": (_per(window.self_time("generation.material"), exams),
                                  "s/exam"),
        "generation.candidate_s": (_per(window.self_time("generation.candidate"), exams),
                                   "s/exam"),
        "generation.exam_json_s": (_per(window.total("generation.exam_json"), exams),
                                   "s/exam"),
        "generation.candidates": (_per(candidates, exams1), "count/exam"),
        "generation.accept_ratio": (_per(round1.counts["generation.accepted"],
                                         candidates), "ratio"),
        "assessment.evaluations": (_per(round1.calls("assessment.evaluate"), exams1),
                                   "count/exam"),
        "assessment.evaluate_s": (_per(window.total("assessment.evaluate"), exams),
                                  "s/exam"),
        "assessment.lexicon_builds": (_per(round1.calls("assessment.lexicon"), exams1),
                                      "count/exam"),
        "assessment.lexicon_s": (_per(window.total("assessment.lexicon"), exams), "s/exam"),
        "psychometrics.parse_s": (_per(window.total("psychometrics.parse"), analyses),
                                  "s/analysis"),
        "psychometrics.item_stats_s": (
            _per(window.total("psychometrics.item_stats"), analyses), "s/analysis"),
        "psychometrics.group_tests_s": (
            _per(window.total("psychometrics.group_tests"), analyses), "s/analysis"),
        "bus.publish_calls": (_per(round1.calls("bus.publish"), exams1), "count/exam"),
        "bus.publish_s": (_per(window.total("bus.publish"), exams), "s/exam"),
        "bus.codec.encode_calls": (_per(round1.calls("bus.codec.encode"), exams1),
                                   "count/exam"),
        "bus.codec.encode_s": (_per(window.total("bus.codec.encode"), exams), "s/exam"),
        "bus.codec.encode_bytes": (_per(round1.counts["bus.codec.encode_bytes"], exams1),
                                   "B/exam"),
        "bus.codec.decode_s": (_per(window.total("bus.codec.decode"), exams), "s/exam"),
    }
    for stage in ("transcribe", "segment", "extract", "assemble"):
        values[f"ingestion.{stage}_s"] = (
            _per(ingest.total(f"ingestion.{stage}"), docs), "s/doc")
    return values


def _settle_threads(timeout: float = 1.0) -> dict[str, int]:
    """Threads other than this one still alive ``timeout`` after teardown,
    counted by name."""
    deadline = perf_counter() + timeout
    while True:
        others = [t.name for t in threading.enumerate()
                  if t is not threading.current_thread()]
        if not others or perf_counter() >= deadline:
            return dict(Counter(others))
        threading.Event().wait(0.05)


def _ops(phase) -> dict:
    return {op: {"attempted": n, "failed": phase.failed[op],
                 "samples": len(phase.samples.get(op, []))}
            for op, n in phase.attempted.items()}


def _speeds(phase) -> dict[str, float]:
    """Median seconds of each calibration kernel over a window."""
    return {kernel: statistics.median(speed[kernel] for speed in phase.speeds)
            for kernel in phase.speeds[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import calibrate
    import spans
    import workloads

    cpus = nproc()
    # before any thread starts, so that every thread inherits it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = make_workload(name, seed, cpus)
    calibrator = calibrate.Calibrator()
    kernel = workload.KERNELS["setup"]

    def timed_setup(instance, tracer=None):
        """A fresh set-up after tearing ``instance`` down: the instance, its
        wall seconds and its scaled seconds."""
        if instance is not None:
            workload.teardown(instance)
        before = calibrator.measure()
        start = perf_counter()
        if tracer is None:
            instance = workload.setup()
        else:
            with tracer.tracing():
                instance = workload.setup()
        elapsed = perf_counter() - start
        return instance, elapsed, elapsed * calibrate.scale(kernel, before,
                                                            calibrator.measure())

    wall, scaled = [], []
    instance = None
    for _ in range(SETUP_REPEATS):
        instance, elapsed, elapsed_scaled = timed_setup(instance)
        wall.append(elapsed)
        scaled.append(elapsed_scaled)
    setup_s = statistics.median(scaled)

    if trace:
        tracer = spans.Tracer()
        instance, _, traced_setup_s = timed_setup(instance, tracer)
        setup_agg = tracer.take()

    workload.prepare(instance)

    phases = []
    if trace:
        round1 = []
        traced = workloads.Phase(calibrator, workload.KERNELS,
                                 on_first_round=lambda: round1.append(tracer.take()))
        rss_before = peak_rss_mb()
        with tracer.tracing():
            instance = workload.measure(instance, seconds, traced)
        rss_growth = peak_rss_mb() - rss_before
        phases.append(traced)
    untraced = workloads.Phase(calibrator, workload.KERNELS)
    instance = workload.measure(instance, seconds, untraced)
    phases.append(untraced)
    workload.teardown(instance)

    failed = sum(sum(p.failed.values()) for p in phases)
    complete = all(p.scaled.get(op) for p in phases for op in workload.OPS)
    rss = peak_rss_mb()
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": cpus,
        "cpus_used": nproc(),
        "setup_repeats": SETUP_REPEATS,
        "setup_wall_s": statistics.median(wall),
        "calibration_s": _speeds(untraced),
        "rounds": untraced.rounds,
        "ops": _ops(untraced),
        "errors": [e for p in phases for e in p.errors],
        "leftover_threads": _settle_threads(),
    }
    result = {"correct": failed == 0 and complete,
              "attempted": sum(sum(p.attempted.values()) for p in phases),
              "failed": failed, "metrics": {}}
    if not complete:
        return report, result

    end_to_end = workload.end_to_end(untraced)
    end_to_end.update(setup_s=setup_s, peak_rss_mb=rss)
    named = dict(workload.named(untraced), setup_s=(setup_s, "s"), peak_rss_mb=(rss, "MB"))
    report["named"] = {key: {"value": value, "unit": unit}
                       for key, (value, unit) in named.items()}

    if not trace:
        result["metrics"] = {key: {"value": value, "unit": UNITS[key]}
                             for key, value in end_to_end.items()}
        return report, result

    report["traced_rounds"] = traced.rounds
    report["untraced_targets"] = tracer.skipped
    report["traced_ops"] = _ops(traced)
    layers = layer_metrics(setup_agg, round1[0], round1[0].merged(tracer.take()),
                           traced, workload.setup_documents)
    overhead = workload.end_to_end(traced)
    for key in overhead:
        overhead[key] -= end_to_end[key]
    overhead["setup_s"] = traced_setup_s - setup_s
    # peak memory cannot be split by phase: report what the traced window added
    overhead["peak_rss_mb"] = rss_growth
    layers.update({f"trace_overhead.{key}": (value, UNITS[key])
                   for key, value in overhead.items()})
    result["metrics"] = {key: {"value": value, "unit": unit}
                         for key, (value, unit) in sorted(layers.items())}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SOURCES / "examgraph" / "__init__.py").is_file():
        print(f"examgraph sources not found under {SOURCES}", file=sys.stderr)
        return 2

    if args.workload == "all":
        # one process per workload, so no state or peak memory carries over
        status = 0
        for name in WORKLOAD_NAMES:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=False)
            status = status or done.returncode
        return status

    sys.path.insert(0, str(SOURCES))
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

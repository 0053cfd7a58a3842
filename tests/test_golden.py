"""Golden digests: fixed-seed exams, a graph snapshot and an item-analysis
report must stay byte-identical across refactors of ranking, material,
generation and psychometrics.

The exam and snapshot digests were taken from the implementation that reran
PageRank for every blueprint section; memoising scores per graph revision
and the integer-indexed power iteration must not change a single byte. The
report digest was taken from the implementation that ranked participants
once per item; ranking them once per matrix must not change it either. The
CSV-read report digest was taken from the implementation that converted
every response cell with ``int``; the binary-row fast path of
``ResponseMatrix.from_csv`` must not change it.
"""

import hashlib
import json
import random

from examgraph.generation import ExamBlueprint, TemplateGenerator, generate_exam
from examgraph.kg import export_graph
from examgraph.psychometrics import ResponseMatrix, analyze

from helpers import ROOTS_A, ROOTS_B, blueprint_dict, build_registry

SNAPSHOT_SHA256 = "ecf53ff799983e4e0c2683cec90730018ce8f4c0cb8dd520f90e62c482ba7471"
EXAM_SHA256 = {
    # default epsilon: every slot filled
    None: "7d7ef23df7cdd9f21cca3429ce9b59a619c137b381996615e19e1df2bf9454d5",
    # tight epsilon: rejects, retries and unfilled cells
    0.05: "b9c8cbf25010ebff6ff76664e63c6aedc56a6aae6e5998a3192aaf36adaf2fd5",
}
# 40 participants x 12 items in three groups, serialised as `examgraph analyze`
ANALYSIS_SHA256 = "1cddd26253eda67e1f38aa66440353e54ca20acd0935b489bef140472ebf25fb"
# 200 participants x 96 items in three groups, written with to_csv and read
# back with from_csv
CSV_ANALYSIS_SHA256 = "61b9f787653e2b79498c7587ba3a0db6774542df26f63c0d47047ce920aa380a"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_six_chapter_exams_and_snapshot_match_golden_digests():
    registry, _, _ = build_registry("envsci", ROOTS_A + ROOTS_B, chapters=6)
    graph = registry.get("envsci")
    assert _sha256(export_graph(graph)) == SNAPSHOT_SHA256
    for epsilon, digest in EXAM_SHA256.items():
        spec = blueprint_dict("envsci", 6)
        if epsilon is not None:
            spec["epsilon"] = epsilon
        exam = generate_exam(registry, ExamBlueprint.from_dict(spec),
                             TemplateGenerator(graph, seed=11), seed=11)
        assert _sha256(exam.to_json().encode("utf-8")) == digest, epsilon


def test_analysis_report_digest():
    rng = random.Random(2505)
    participants = [f"p{i:03d}" for i in range(40)]
    rows = [[1 if rng.random() < 0.3 + 0.01 * i else 0 for _ in range(12)]
            for i in range(40)]
    matrix = ResponseMatrix(participants, [f"q{j:02d}" for j in range(12)], rows)
    groups = {pid: "abc"[i % 3] for i, pid in enumerate(participants)}
    text = json.dumps(analyze(matrix, groups), indent=2, sort_keys=True,
                      ensure_ascii=False)
    assert _sha256(text.encode("utf-8")) == ANALYSIS_SHA256


def test_analysis_from_csv_digest():
    rng = random.Random(9609)
    participants = [f"p{i:03d}" for i in range(200)]
    rows = [[1 if rng.random() < 0.2 + 0.003 * i else 0 for _ in range(96)]
            for i in range(200)]
    written = ResponseMatrix(participants, [f"q{j:02d}" for j in range(96)], rows)
    matrix = ResponseMatrix.from_csv(written.to_csv())
    assert matrix.rows == rows
    groups = {pid: "abc"[i % 3] for i, pid in enumerate(participants)}
    text = json.dumps(analyze(matrix, groups), indent=2, sort_keys=True,
                      ensure_ascii=False)
    assert _sha256(text.encode("utf-8")) == CSV_ANALYSIS_SHA256

"""Golden digests: fixed-seed exams and a graph snapshot must stay
byte-identical across refactors of ranking, material and generation.

The digests were taken from the implementation that reran PageRank for
every blueprint section; memoising scores per graph revision and the
integer-indexed power iteration must not change a single byte.
"""

import hashlib

from examgraph.generation import ExamBlueprint, TemplateGenerator, generate_exam
from examgraph.kg import export_graph

from helpers import ROOTS_A, ROOTS_B, blueprint_dict, build_registry

SNAPSHOT_SHA256 = "ecf53ff799983e4e0c2683cec90730018ce8f4c0cb8dd520f90e62c482ba7471"
EXAM_SHA256 = {
    # default epsilon: every slot filled
    None: "7d7ef23df7cdd9f21cca3429ce9b59a619c137b381996615e19e1df2bf9454d5",
    # tight epsilon: rejects, retries and unfilled cells
    0.05: "b9c8cbf25010ebff6ff76664e63c6aedc56a6aae6e5998a3192aaf36adaf2fd5",
}


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

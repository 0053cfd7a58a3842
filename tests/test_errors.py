"""Every code the program reports is declared once, by an ``ExamGraphError``
subclass in ``examgraph.errors``, and every report has the shape that
``error_report`` gives it."""

import ast
from pathlib import Path

import examgraph.errors as errors
from examgraph.errors import ExamGraphError, InvalidParams, MalformedSnapshot, error_report

CLASSES = [value for value in vars(errors).values()
           if isinstance(value, type) and issubclass(value, ExamGraphError)]
DECLARED = {cls.code for cls in CLASSES}

# the tests that read error codes off the pipeline, the TCP hub, the CLI and
# the other boundaries
OBSERVERS = ["test_boundaries.py", "test_bus.py", "test_cli.py", "test_ingestion.py",
             "test_pipeline.py"]


def test_every_error_class_declares_its_own_code():
    assert all("code" in vars(cls) for cls in CLASSES)
    assert len(DECLARED) == len(CLASSES)
    assert ExamGraphError.code == "error"


def test_error_report_is_the_code_the_message_and_the_context():
    assert error_report(InvalidParams("bad seed"), segment=2) == {
        "error_code": "invalid_params", "message": "bad seed", "segment": 2}
    assert error_report(MalformedSnapshot(3, "not JSON")) == {
        "error_code": "malformed_snapshot", "message": "line 3: not JSON"}
    assert error_report(OSError("disk gone")) == {"error_code": "error",
                                                  "message": "disk gone"}


def _strings(node):
    """The string constants of a constant or of a list, tuple or set of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return [s for elt in node.elts for s in _strings(elt)]
    return []


def _mentions_code(node) -> bool:
    return "'error_code'" in ast.unparse(node)


def _observed_codes(tree):
    """The codes a test module expects: the ``error_code`` of a dict
    literal, what an ``error_code`` is compared with, and the ``code``
    argument of a parametrized test."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if _strings(key) == ["error_code"]:
                    yield from _strings(value)
        elif isinstance(node, ast.Compare) and _mentions_code(node.left):
            for right in node.comparators:
                if isinstance(node.left, ast.Tuple) and isinstance(right, ast.Tuple):
                    for left_elt, right_elt in zip(node.left.elts, right.elts):
                        if _mentions_code(left_elt):
                            yield from _strings(right_elt)
                else:
                    yield from _strings(right)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("parametrize")
              and _strings(node.args[0])):
            names = [name.strip() for name in node.args[0].value.split(",")]
            if "code" not in names:
                continue
            for case in node.args[1].elts:
                if isinstance(case, ast.Call):  # pytest.param(...)
                    case = ast.Tuple(case.args)
                yield from _strings(case.elts[names.index("code")] if len(names) > 1 else case)


def test_every_code_the_tests_observe_is_declared():
    observed = {code for module in OBSERVERS for code in _observed_codes(
        ast.parse((Path(__file__).parent / module).read_text(encoding="utf-8")))}
    # the scan finds the codes of the bus, the TCP hub and the boundaries
    assert {"queue_overflow", "bad_query", "bad_sender", "protocol_error",
            "wildcard_publish", "empty_subject", "malformed_frame", "invalid_params",
            "error"} <= observed
    assert observed <= DECLARED, observed - DECLARED

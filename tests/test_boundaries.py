"""Every reader of JSON from outside the program fails with its own stable
error code, never with a bare ``ValueError`` or ``RecursionError``.

``json.loads`` raises a plain ``ValueError`` for an integer past Python's
4,300-digit limit and ``RecursionError`` for deep nesting. Part one pins
those two probes at each reader and at the CLI. Part two is a seeded fuzz:
it mutates a valid input of each reader with huge integers, deep nesting,
lone surrogates, NaN and Infinity, a byte order mark, truncation and wrong
types, and every failure must be an ``ExamGraphError`` whose code is in that
reader's allowed set. A failing draw prints itself.
"""

import json
import random

import pytest

from examgraph.assessment import FEATURE_ORDER, BloomLevel, DifficultyTier, RubricConfig
from examgraph.bus import decode_frame
from examgraph.cli import main
from examgraph.errors import ExamGraphError, InvalidParams
from examgraph.gateway import _extract_choice
from examgraph.generation import ExamBlueprint, TemplateGenerator, generate_exam
from examgraph.generation.generator import _parse_item_reply
from examgraph.ingestion import LLMExtractor, TextSegment, extract_segment, load_hypernym_lexicon
from examgraph.kg import EdgeKind, KnowledgeGraph, NodeKind, export_graph, import_graph

from helpers import blueprint_dict, build_registry

HUGE_INT = "1" * 5000
DEEP = "[" * 100_000 + "]" * 100_000
PROBES = {"huge_int": HUGE_INT, "deep": DEEP}


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def _file(tmp_path, reader):
    """Call ``reader`` on a file that holds the fed bytes."""
    def call(data: bytes):
        path = tmp_path / "fed.json"
        path.write_bytes(data)
        return reader(path)
    return call


def _cli(capsys, tmp_path, *argv):
    """Run the CLI with the fed file at ``{}`` in ``argv``; raise what its
    error line reports, as the ExamGraphError with that code."""
    def call(data: bytes):
        path = tmp_path / "fed.json"
        path.write_bytes(data)
        capsys.readouterr()
        status = main([str(path) if arg == "{}" else arg for arg in argv])
        out, err = capsys.readouterr()
        if status == 0:
            return out
        (line,) = err.splitlines()
        report = json.loads(line)
        error = ExamGraphError(report["message"])
        error.code = report["error_code"]
        raise error
    return call


def _readers(tmp_path, capsys):
    """Each outside reader: (valid input, call on bytes or str, allowed
    error codes). Inputs are JSON text; a reader of bytes gets it encoded."""
    tier, bloom = DifficultyTier.BASIC_RECALL, BloomLevel.REMEMBER
    responses = tmp_path / "responses.csv"
    responses.write_text("participant,q1,q2\np1,1,0\np2,1,1\np3,0,0\np4,0,1\n")
    item = tmp_path / "item.json"
    item.write_text(json.dumps({"stem": "What supports the fern?", "answer_index": 0,
                                "options": ["oak", "elm", "ash", "pine"]}))
    frame_body = {"topic": "exam/request", "correlation_id": "c-1", "sender": "peer",
                  "seq": 0, "payload": {"subject": "s", "blueprint": {"sections": []}}}
    snapshot = KnowledgeGraph("s")
    snapshot.assert_fact_triple("oak", "supports", "fern", ("d", 1))
    snapshot.fold_segment([("oak", "needs", "moss")], {"moss": ["plant"]},
                          {"oak": "oak", "needs": "needs", "moss": "moss", "plant": "plant"},
                          snapshot.upsert_entity("Ch 1", NodeKind.HIERARCHY), ("d", 2))
    snapshot.assert_link(EdgeKind.PART_OF, snapshot.find_node("ch 1", NodeKind.HIERARCHY),
                         snapshot.upsert_entity("Part 1", NodeKind.HIERARCHY))
    rubric = {"tau": 0.5, "epsilon": 0.2, "weights": [1, 1, 1, 1, 1, 1, 1],
              "thresholds": {f.value: [1, 2] for f in FEATURE_ORDER},
              "tiers": {"basic": {"target": 0.3}}, "bloom_verbs": {"remember": ["name"]}}
    blueprint = {"subject": "s", "epsilon": 0.2, "sections": [
        {"chapter": "Ch 1", "count": 2, "tiers": {"basic": 1, "applied": 1}}]}
    return {
        "frame": (json.dumps(frame_body), lambda b: decode_frame(_frame(b)),
                  {"malformed_frame", "frame_too_large"}),
        "snapshot": (export_graph(snapshot).decode(), import_graph, {"malformed_snapshot"}),
        "blueprint": (json.dumps(blueprint), _cli(capsys, tmp_path, "blueprint", "validate",
                                                  "--blueprint", "{}"),
                      {"invalid_params", "all_zero_counts", "bad_ratios"}),
        "rubric": (json.dumps(rubric), _file(tmp_path, RubricConfig.load),
                   {"invalid_params", "all_zero_weights"}),
        "config": (json.dumps({"data_dir": "kg", "rubric": rubric}),
                   _cli(capsys, tmp_path, "evaluate-item", "--item", str(item),
                        "--config", "{}"),
                   {"invalid_params", "all_zero_weights"}),
        "groups": (json.dumps({"p1": "a", "p2": "a", "p3": "b", "p4": "b"}),
                   _cli(capsys, tmp_path, "analyze", "--responses", str(responses),
                        "--groups", "{}"),
                   {"invalid_params"}),
        "item": (item.read_text(), _cli(capsys, tmp_path, "evaluate-item", "--item", "{}"),
                 {"malformed_item", "invalid_params"}),
        "lexicon": (json.dumps({"oak": ["tree"], "fern": ["plant", "green"]}),
                    _file(tmp_path, load_hypernym_lexicon), {"invalid_extraction"}),
        "extraction_reply": (
            json.dumps({"triples": [["oak", "supports", "fern"]], "concepts": {"oak": ["tree"]}}),
            lambda reply: extract_segment(TextSegment("d", 0, "text"),
                                          LLMExtractor(lambda system, user: reply)),
            {"invalid_extraction", "extractor_failure"}),
        "item_reply": (json.dumps({"stem": "What supports the fern?", "answer_index": 2,
                                   "options": ["oak", "elm", "ash", "pine"]}),
                       lambda reply: _parse_item_reply(reply, tier, bloom),
                       {"malformed_candidate"}),
        "gateway_body": (json.dumps({"choices": [{"message": {"content": "hello"}}]}),
                         _extract_choice, {"malformed_response"}),
    }


# readers that take text; the others take bytes
TEXT_READERS = {"snapshot", "extraction_reply", "item_reply"}


# --- part one: the two probes at each reader ---

HOLE = json.dumps("\x01HOLE\x01")


def _hostile(valid: str, probe: str) -> str:
    """``valid`` with the value of its first key replaced by the probe text."""
    value = json.loads(valid)
    value[next(iter(value))] = json.loads(HOLE)
    return json.dumps(value).replace(HOLE, probe)


PROBE_CODES = {
    "frame": "malformed_frame", "snapshot": "malformed_snapshot",
    "blueprint": "invalid_params", "rubric": "invalid_params", "config": "invalid_params",
    "groups": "invalid_params", "item": "malformed_item", "lexicon": "invalid_extraction",
    "extraction_reply": "invalid_extraction", "item_reply": "malformed_candidate",
    "gateway_body": "malformed_response",
}


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("name", PROBE_CODES)
def test_each_reader_refuses_a_huge_int_and_deep_nesting_with_its_code(
        name, probe, tmp_path, capsys):
    valid, call, _ = _readers(tmp_path, capsys)[name]
    if name == "snapshot":  # a node line after the header
        header, node = valid.splitlines()[:2]
        assert '["d", 1]' in node
        text = header + "\n" + node.replace('["d", 1]', '["d", %s]' % PROBES[probe])
    else:
        text = _hostile(valid, PROBES[probe])
    with pytest.raises(ExamGraphError) as caught:
        call(text if name in TEXT_READERS else text.encode())
    assert caught.value.code == PROBE_CODES[name]
    assert "is not JSON" in str(caught.value)
    assert ("digits" if probe == "huge_int" else "recursion") in str(caught.value)
    if name == "snapshot":
        assert caught.value.line_no == 2


@pytest.mark.parametrize("probe", PROBES)
def test_cli_prints_one_error_line_for_a_hostile_blueprint(probe, tmp_path, capsys):
    path = tmp_path / "blueprint.json"
    path.write_text('{"subject": "s", "sections": %s}' % PROBES[probe])
    assert main(["blueprint", "validate", "--blueprint", str(path)]) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert json.loads(line)["error_code"] == "invalid_params"
    assert out == ""


def test_a_segment_past_the_template_bound_is_a_malformed_snapshot_at_its_line():
    graph = KnowledgeGraph("s")
    graph.assert_fact_triple("oak", "supports", "fern", ("d", 1))
    lines = export_graph(graph).decode().splitlines()
    assert '["d", 1]' in lines[1]
    for digits, reason in [(641, "bad source_ref"), (5000, "record is not JSON")]:
        bad = lines[1].replace('["d", 1]', '["d", %s]' % ("7" * digits))
        with pytest.raises(ExamGraphError) as caught:
            import_graph("\n".join([lines[0], lines[2], bad]) + "\n")
        assert (caught.value.code, caught.value.line_no) == ("malformed_snapshot", 3)
        assert caught.value.reason.startswith(reason)
    longest = lines[1].replace('["d", 1]', '["d", -%s]' % ("9" * 640))
    graph = import_graph("\n".join([lines[0], longest, *lines[2:]]) + "\n")
    assert graph.node("n0").source_refs == (("d", -(10 ** 640 - 1)),)


def test_the_write_path_refuses_a_segment_a_snapshot_cannot_hold():
    graph = KnowledgeGraph("s")
    for segment in (10 ** 640, -10 ** 640, 10 ** 5000):
        with pytest.raises(InvalidParams, match="at most 640 digits"):
            graph.upsert_entity("oak", NodeKind.TEXT, ("d", segment))
    assert graph.revision == 0
    graph.upsert_entity("oak", NodeKind.TEXT, ("d", 10 ** 640 - 1))
    assert import_graph(export_graph(graph)).nodes() == graph.nodes()


def test_a_node_id_past_the_digit_limit_imports_and_exports():
    """An ``n<digits>`` id with more digits than int() reads is an id like
    any other, not a bare ValueError from numbering the next node."""
    node_id = "n" + "1" * 5000
    text = ('{"type": "header", "format": "kaqg-kg", "version": 1, "subject": "s"}\n'
            '{"type": "node", "id": "%s", "kind": "text", "label": "oak", "raw_labels": [], '
            '"source_refs": []}\n' % node_id)
    graph = import_graph(text)
    assert [node.id for node in graph.nodes()] == [node_id]
    assert export_graph(graph) == text.encode()
    assert graph.upsert_entity("fern", NodeKind.TEXT) == "n0"


def test_a_lone_surrogate_label_exports_as_its_escape_and_round_trips():
    graph = KnowledgeGraph("s\ud800")
    graph.assert_fact_triple("oak\udfff", "supports", "fern", ("d\ud800", 1))
    snapshot = export_graph(graph)
    assert b"\\ud800" in snapshot and b"\\udfff" in snapshot
    clone = import_graph(snapshot)
    assert clone.subject == graph.subject and clone.nodes() == graph.nodes()
    assert export_graph(clone) == snapshot


# defects the fuzz found past the readers

def test_a_rubric_without_a_tiers_target_is_invalid_params(tmp_path, capsys):
    rubric = tmp_path / "rubric.json"
    rubric.write_text('{"tiers": {"applied": {"target": 9}}}')
    item = tmp_path / "item.json"
    item.write_text(json.dumps({"stem": "What supports the fern?", "answer_index": 0,
                                "options": ["oak", "elm", "ash", "pine"], "tier": "basic"}))
    assert main(["evaluate-item", "--item", str(item), "--rubric", str(rubric)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error_code": "invalid_params",
                                "message": "the rubric gives no target for tier 'basic'"}
    registry, _, _ = build_registry(chapters=1)
    blueprint = ExamBlueprint.from_dict(blueprint_dict(chapters=1, applied=0, comprehensive=0))
    graph = registry.get(blueprint.subject)
    with pytest.raises(InvalidParams, match="no target for tier 'basic'"):
        generate_exam(registry, blueprint, TemplateGenerator(graph), RubricConfig.load(rubric))


def test_cli_writes_a_lone_surrogate_as_its_json_escape(tmp_path, capsysbinary):
    responses = tmp_path / "responses.csv"
    responses.write_text("participant,q1,q2\np1,1,0\np2,1,1\np3,0,0\np4,0,1\n")
    groups = tmp_path / "groups.json"
    groups.write_text('{"p1": "a\\ud800", "p2": "a\\ud800", "p3": "b", "p4": "b"}')
    assert main(["analyze", "--responses", str(responses), "--groups", str(groups)]) == 0
    out = capsysbinary.readouterr().out
    assert b'"a\\ud800"' in out
    assert "a\ud800" in json.loads(out)["groups"]


# --- part two: a seeded fuzz of every reader ---

SEED = 31
DRAWS = 120
NESTED_OK = "[" * 400 + "]" * 400  # parses, and is a wrong type anywhere
HOSTILE_VALUES = [
    HUGE_INT, "-" + "9" * 4301, DEEP, "{\"a\":" * 60_000 + "1" + "}" * 60_000, NESTED_OK,
    "NaN", "Infinity", "-Infinity", "1e400", "-0", "0", "-1", "3", "1.5", "2.0",
    "true", "false", "null", '""', '" "', '"x"', '"\\ud800"', '"a\\udfffb"',
    '"\\ufeff"', '"\\u0000"', "[]", "{}", "[1, 2]", '{"a": []}', '["x", "y", "z", "w"]',
]


def _paths(value, path=()):
    """Every path to a value inside ``value``, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _mutate_value(rng, text: str) -> tuple[str, str]:
    """One JSON-level change: a value replaced by a hostile one, a key or
    element dropped, or a key added or renamed."""
    value = json.loads(text)
    path = rng.choice(list(_paths(value)))
    hole, hostile = json.loads(HOLE), rng.choice(HOSTILE_VALUES)
    op = rng.choice(["replace", "replace", "replace", "drop", "add", "rename"])
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if not path or op == "replace" or not isinstance(parent, (dict, list)):
        op = "replace"
        if path:
            parent[path[-1]] = hole
        else:
            value = hole
    elif op == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        name = rng.choice(["x", "\ud800", "", path[-1] + " "])
        if op == "rename":
            parent[name] = parent.pop(path[-1])
        else:
            parent[name] = hole
    else:
        parent.insert(path[-1], hole)
    out = json.dumps(value, ensure_ascii=rng.random() < 0.5)
    return out.replace(HOLE, hostile), f"{op} at {list(path)!r} with {hostile[:40]!r}"


def _mutate_text(rng, text: str) -> tuple[str, str]:
    op = rng.choice(["truncate", "bom", "surrogate", "char"])
    at = rng.randrange(len(text) + 1)
    if op == "truncate":
        return text[:at], f"truncate at {at}"
    if op == "bom":
        return "\ufeff" + text, "byte order mark"
    if op == "surrogate":
        return text[:at] + "\udc80" + text[at:], f"lone surrogate at {at}"
    char = rng.choice('{}[]",:\\0-e. \x00\n')
    return text[:at] + char + text[at + 1:], f"{char!r} at {at}"


def _encode(rng, text: str) -> tuple[bytes, str]:
    encoding = rng.choice(["utf-8", "utf-8", "utf-8", "utf-8-sig", "utf-16", "utf-32-le"])
    data = text.encode(encoding, "surrogatepass")
    if rng.random() < 0.1 and data:
        at = rng.randrange(len(data))
        data = data[:at] + bytes([rng.choice([0x80, 0xc0, 0xed, 0xff])]) + data[at + 1:]
        encoding += f", byte {at} replaced"
    return data, encoding


def _draw(rng, name: str, valid: str):
    """A mutated input of reader ``name`` and the steps that made it: a
    JSON-level change of the valid input, a text-level change, or both."""
    steps = []
    lines = valid.split("\n") if name == "snapshot" else [valid]  # each line is JSON
    value_change = rng.random() < 0.8
    for mutate in [_mutate_value] * value_change + [_mutate_text] * (
            not value_change or rng.random() < 0.3):
        at = rng.randrange(len(lines) - (name == "snapshot"))  # not the empty last line
        lines[at], step = mutate(rng, lines[at])
        steps.append(f"line {at + 1}: {step}" if name == "snapshot" else step)
    text = "\n".join(lines)
    if name in TEXT_READERS:
        return text, steps
    data, encoding = _encode(rng, text)
    return data, [*steps, encoding]


@pytest.mark.parametrize("name", PROBE_CODES)
def test_fuzzed_inputs_fail_only_with_the_readers_codes(name, tmp_path, capsys):
    valid, call, allowed = _readers(tmp_path, capsys)[name]
    call(valid if name in TEXT_READERS else valid.encode())  # the valid input reads
    rng = random.Random(f"{SEED}-{name}")
    for draw in range(DRAWS):
        data, steps = _draw(rng, name, valid)
        try:
            call(data)
        except ExamGraphError as exc:
            if exc.code in allowed:
                continue
            outcome = f"{exc.code}: {exc}"
        except Exception as exc:  # a bare ValueError or RecursionError
            outcome = f"bare {type(exc).__name__}: {exc}"
        else:
            continue
        pytest.fail(f"{name} draw {draw} (seed {SEED}) {steps}: {outcome[:300]}\n"
                    f"input: {data[:2000]!r}")

import json
import socket
import threading
from pathlib import Path

import pytest

from examgraph.cli import SnapshotStore, main
from examgraph.errors import SubjectCollision
from examgraph.kg import KnowledgeGraph, NodeKind

from helpers import ROOTS_A, blueprint_dict, corpus_documents


@pytest.fixture
def workspace(tmp_path):
    """Corpus files on disk plus a data dir, ready for CLI runs."""
    documents, lexicon, _ = corpus_documents("envsci", ROOTS_A, chapters=3)
    doc_paths = []
    for document in documents:
        path = tmp_path / f"{document.doc_id}.txt"
        path.write_text(document.body, encoding="utf-8")
        doc_paths.append(path)
    lexicon_path = tmp_path / "hypernyms.json"
    lexicon_path.write_text(json.dumps(lexicon))
    blueprint_path = tmp_path / "blueprint.json"
    blueprint_path.write_text(json.dumps(blueprint_dict()))
    data_dir = tmp_path / "kgdata"
    return {
        "tmp": tmp_path,
        "docs": doc_paths,
        "documents": documents,
        "lexicon": lexicon_path,
        "blueprint": blueprint_path,
        "data_dir": str(data_dir),
    }


def ingest_all(workspace):
    for i, (path, document) in enumerate(zip(workspace["docs"],
                                             workspace["documents"])):
        argv = ["ingest", "--subject", "envsci", "--doc", str(path),
                "--doc-id", document.doc_id,
                "--chapter", document.chapter_path[0],
                "--lexicon", str(workspace["lexicon"]),
                "--data-dir", workspace["data_dir"]]
        if i > 0:
            argv.append("--append")
        assert main(argv) == 0


def test_ingest_emits_report_json(workspace, capsys):
    argv = ["ingest", "--subject", "envsci", "--doc", str(workspace["docs"][0]),
            "--chapter", "Ch 1", "--lexicon", str(workspace["lexicon"]),
            "--data-dir", workspace["data_dir"]]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["subject"] == "envsci"
    assert report["triples_added"] > 0
    assert report["failures"] == []


def test_ingest_with_mock_llm_extractor(workspace, capsys):
    argv = ["ingest", "--subject", "envsci", "--doc", str(workspace["docs"][0]),
            "--chapter", "Ch 1", "--extractor", "mock-llm",
            "--data-dir", workspace["data_dir"]]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["triples_added"] > 0
    assert report["failures"] == []


def test_reingest_without_append_fails_cleanly(workspace, capsys):
    ingest_all(workspace)
    argv = ["ingest", "--subject", "envsci", "--doc", str(workspace["docs"][0]),
            "--chapter", "Ch 1", "--data-dir", workspace["data_dir"]]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "subject_collision"


def test_subjects_sharing_a_file_name_collide(workspace, capsys):
    """Subjects "Bio Logy" and "bio_logy" map to one snapshot file: the
    second can neither load nor save over the first's."""
    def ingest(subject):
        return main(["ingest", "--subject", subject, "--doc", str(workspace["docs"][0]),
                     "--chapter", "Ch 1", "--data-dir", workspace["data_dir"]])

    assert ingest("Bio Logy") == 0
    (snapshot,) = Path(workspace["data_dir"]).glob("*.kg.jsonl")
    before = snapshot.read_bytes()
    capsys.readouterr()
    assert ingest("bio_logy") == 1
    assert json.loads(capsys.readouterr().err)["error_code"] == "subject_collision"
    store = SnapshotStore(workspace["data_dir"])
    store.registry.attach(KnowledgeGraph("bio_logy"))
    with pytest.raises(SubjectCollision):
        store.save("bio_logy")
    assert snapshot.read_bytes() == before
    assert sorted(path.name for path in Path(workspace["data_dir"]).iterdir()) \
        == [".bio_logy.kg.lock", snapshot.name]


def test_save_that_fails_midway_keeps_the_old_snapshot(workspace, monkeypatch):
    ingest_all(workspace)
    store = SnapshotStore(workspace["data_dir"])
    store.load("envsci")
    store.registry.get("envsci").upsert_entity("zephyrite", NodeKind.TEXT)
    (snapshot,) = Path(workspace["data_dir"]).glob("*.kg.jsonl")
    before = snapshot.read_bytes()

    def half_write(path, data):
        with open(path, "wb") as fh:
            fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_write)
    with pytest.raises(OSError, match="no space"):
        store.save("envsci")
    assert snapshot.read_bytes() == before
    assert sorted(path.name for path in Path(workspace["data_dir"]).iterdir()) \
        == [".envsci.kg.lock", snapshot.name]


def test_two_threads_save_one_subject_each_through_its_own_temporary_file(workspace,
                                                                          monkeypatch):
    """Each write waits up to 0.5 s for the other thread's, so both temporary
    files are written before either is renamed: with one name per process the
    second rename finds no file."""
    ingest_all(workspace)
    stores = [SnapshotStore(workspace["data_dir"]) for _ in range(2)]
    for store, word in zip(stores, ("zephyrite", "quillwort")):
        store.load("envsci")
        store.registry.get("envsci").upsert_entity(word, NodeKind.TEXT)
    written, wrote = [], threading.Condition()
    write_bytes = Path.write_bytes

    def slow_write(path, data):
        write_bytes(path, data)
        with wrote:
            written.append(data)
            wrote.notify_all()
            wrote.wait_for(lambda: len(written) == 2, timeout=0.5)

    monkeypatch.setattr(Path, "write_bytes", slow_write)
    errors = []

    def save(store):
        try:
            store.save("envsci")
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=save, args=(store,)) for store in stores]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(set(written)) == 2
    (snapshot,) = Path(workspace["data_dir"]).glob("*.kg.jsonl")
    assert snapshot.read_bytes() in written
    assert [p.name for p in Path(workspace["data_dir"]).iterdir() if p.name.endswith(".tmp")] == []


def test_concurrent_appends_to_one_subject_both_land(workspace, monkeypatch):
    """Each load waits up to 0.5 s for the other ingest's load: without the
    subject's lock both load before either saves, and one chapter is lost."""
    loads, loaded = [], threading.Condition()
    load = SnapshotStore.load

    def slow_load(self, subject):
        load(self, subject)
        with loaded:
            loads.append(subject)
            loaded.notify_all()
            loaded.wait_for(lambda: len(loads) == 2, timeout=0.5)

    monkeypatch.setattr(SnapshotStore, "load", slow_load)
    statuses = []

    def ingest(i):
        statuses.append(main(["ingest", "--subject", "envsci", "--doc", str(workspace["docs"][i]),
                              "--chapter", f"Ch {i + 1}", "--lexicon", str(workspace["lexicon"]),
                              "--data-dir", workspace["data_dir"], "--append"]))

    threads = [threading.Thread(target=ingest, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert statuses == [0, 0]
    graph = SnapshotStore(workspace["data_dir"]).get("envsci")
    assert None not in (graph.find_node("Ch 1", NodeKind.HIERARCHY),
                        graph.find_node("Ch 2", NodeKind.HIERARCHY))


def test_graph_stats_and_export(workspace, capsys, tmp_path):
    ingest_all(workspace)
    capsys.readouterr()  # discard ingest reports
    assert main(["graph", "stats", "--subject", "envsci",
                 "--data-dir", workspace["data_dir"]]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes"]["concept"] == 12

    out = tmp_path / "snapshot.jsonl"
    assert main(["graph", "export", "--subject", "envsci",
                 "--out", str(out), "--data-dir", workspace["data_dir"]]) == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert first["format"] == "kaqg-kg"


def test_rank_emits_sorted_scores(workspace, capsys):
    ingest_all(workspace)
    capsys.readouterr()  # discard ingest reports
    assert main(["rank", "--subject", "envsci", "--chapter", "Ch 1",
                 "--data-dir", workspace["data_dir"]]) == 0
    ranking = json.loads(capsys.readouterr().out)
    assert ranking, "chapter should have ranked concepts"
    scores = [entry["score"] for entry in ranking]
    assert scores == sorted(scores, reverse=True)
    assert all(set(entry) == {"node", "label", "score"} for entry in ranking)


def test_rank_facts_of_concept(workspace, capsys):
    ingest_all(workspace)
    capsys.readouterr()
    assert main(["rank", "--subject", "envsci", "--facts-of", "borlore",
                 "--top", "3", "--data-dir", workspace["data_dir"]]) == 0
    ranking = json.loads(capsys.readouterr().out)
    assert 1 <= len(ranking) <= 3
    assert all(entry["label"].startswith("bor") for entry in ranking)


def test_graph_export_to_stdout(workspace, capsysbinary):
    ingest_all(workspace)
    capsysbinary.readouterr()
    assert main(["graph", "export", "--subject", "envsci",
                 "--data-dir", workspace["data_dir"]]) == 0
    out = capsysbinary.readouterr().out
    header = json.loads(out.splitlines()[0])
    assert header["subject"] == "envsci"


def test_blueprint_validate(workspace, capsys):
    assert main(["blueprint", "validate",
                 "--blueprint", str(workspace["blueprint"])]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["valid"] is True
    assert result["total"] == 30
    assert sum(result["ratios"]) == pytest.approx(1.0)

    bad = workspace["tmp"] / "bad.json"
    counts = blueprint_dict()
    counts["sections"][0]["count"] = 5  # tiers sum to 10
    epsilon = dict(blueprint_dict(), epsilon=0)
    weights = dict(blueprint_dict(), weights=[0] * 7)
    six_weights = dict(blueprint_dict(), weights=[1] * 6)
    fractional = blueprint_dict()
    fractional["sections"][0]["count"] = 2.7
    bool_tier = blueprint_dict()
    bool_tier["sections"][0]["tiers"]["basic"] = True
    negative = blueprint_dict()
    negative["sections"][0]["count"] = -1
    unknown_tier = blueprint_dict()
    unknown_tier["sections"][0]["tiers"]["hard"] = 1
    no_chapter = blueprint_dict()
    del no_chapter["sections"][0]["chapter"]
    sections_string = dict(blueprint_dict(), sections="x")
    for data, code in ((counts, "invalid_params"), (epsilon, "invalid_params"),
                       (weights, "all_zero_weights"),
                       (six_weights, "invalid_params"),
                       (fractional, "invalid_params"), (bool_tier, "invalid_params"),
                       (negative, "invalid_params"), (unknown_tier, "invalid_params"),
                       (no_chapter, "invalid_params"),
                       (sections_string, "invalid_params")):
        bad.write_text(json.dumps(data))
        assert main(["blueprint", "validate", "--blueprint", str(bad)]) == 1
        assert json.loads(capsys.readouterr().err)["error_code"] == code


def test_generate_deterministic_files(workspace, tmp_path):
    ingest_all(workspace)
    outs = []
    for name in ("exam1.json", "exam2.json"):
        out = tmp_path / name
        assert main(["generate", "--blueprint", str(workspace["blueprint"]),
                     "--seed", "42", "--mock", "--out", str(out),
                     "--data-dir", workspace["data_dir"]]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    exam = json.loads(outs[0])
    assert exam["item_count"] == 30
    assert exam["unfilled"] == []


def test_generate_partial_exam_exits_nonzero(workspace, capsys, tmp_path):
    ingest_all(workspace)
    blueprint = blueprint_dict()
    blueprint["sections"].append(
        {"chapter": "Ch 99", "count": 2, "tiers": {"basic": 2}})
    path = tmp_path / "over.json"
    path.write_text(json.dumps(blueprint))
    out = tmp_path / "exam.json"
    assert main(["generate", "--blueprint", str(path), "--seed", "1",
                 "--out", str(out), "--data-dir", workspace["data_dir"]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "insufficient_material"
    exam = json.loads(out.read_text())
    assert exam["item_count"] == 30
    assert exam["unfilled"][0]["chapter"] == "Ch 99"


def test_evaluate_item(workspace, capsys, tmp_path):
    item = {"stem": "Define the borite process in one word.",
            "options": ["alpha", "beta", "gamma", "delta"],
            "answer_index": 1, "tier": "basic"}
    path = tmp_path / "item.json"
    path.write_text(json.dumps(item))
    assert main(["evaluate-item", "--item", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"difficulty", "target", "epsilon", "passed", "breakdown"}
    assert result["target"] == 9.0
    assert len(result["breakdown"]) == 7

    assert main(["evaluate-item", "--item", str(path), "--target", "21"]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert strict["passed"] is False


@pytest.mark.parametrize("rubric", [
    pytest.param({"thresholds": {"bogus": [1, 2]}}, id="unknown-feature"),
    pytest.param({"tiers": {"hard": {"target": 9}}}, id="unknown-tier"),
    pytest.param({"tiers": {"basic": 9}}, id="tier-number"),
])
def test_evaluate_item_with_wrongly_shaped_rubric_is_invalid_params(capsys, tmp_path, rubric):
    item = {"stem": "Define the borite process in one word.",
            "options": ["alpha", "beta", "gamma", "delta"],
            "answer_index": 1, "tier": "basic"}
    item_path = tmp_path / "item.json"
    item_path.write_text(json.dumps(item))
    rubric_path = tmp_path / "rubric.json"
    rubric_path.write_text(json.dumps(rubric))
    assert main(["evaluate-item", "--item", str(item_path),
                 "--rubric", str(rubric_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error_code"] == "invalid_params"


def test_analyze_csv(workspace, capsys, tmp_path):
    rows = ["participant,q1,q2,q3"]
    for i in range(8):
        rows.append(f"p{i},{i % 2},{(i // 2) % 2},1")
    csv_path = tmp_path / "responses.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps(
        {f"p{i}": ("a" if i < 4 else "b") for i in range(8)}))
    assert main(["analyze", "--responses", str(csv_path),
                 "--groups", str(groups_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["participants"] == 8
    assert report["item_stats"][2]["p_value"] == 1.0
    assert set(report["groups"]) == {"a", "b"}
    assert "anova" in report


def test_analyze_bad_fraction_is_invalid_params(capsys, tmp_path):
    csv_path = tmp_path / "responses.csv"
    csv_path.write_text("participant,q1\n" + "".join(
        f"p{i},{i % 2}\n" for i in range(8)))
    assert main(["analyze", "--responses", str(csv_path),
                 "--fraction", "0.7"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error_code"] == "invalid_params"


def test_config_file_supplies_defaults_flags_win(workspace, capsys, tmp_path):
    ingest_all(workspace)
    capsys.readouterr()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data_dir": workspace["data_dir"]}))
    # data dir comes from the config file
    assert main(["graph", "stats", "--subject", "envsci",
                 "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["subject"] == "envsci"
    # an explicit flag overrides the config value
    assert main(["graph", "stats", "--subject", "envsci",
                 "--config", str(config),
                 "--data-dir", str(tmp_path / "elsewhere")]) == 1
    assert json.loads(capsys.readouterr().err)["error_code"] == "unknown_subject"


@pytest.mark.parametrize("command, config", [
    (["graph", "stats", "--subject", "envsci"], [1]),
    (["graph", "stats", "--subject", "envsci"], {"data_dir": 5}),
    (["agents", "run", "--duration", "0.1", "--extractor", "llm"],
     {"provider": {"model": "m"}}),
    (["agents", "run", "--duration", "0.1", "--extractor", "llm"],
     {"provider": {"endpoint": "https://x", "retries": "3"}}),
    (["agents", "run", "--duration", "0.1", "--extractor", "llm"],
     {"provider": {"endpoint": "ftp://x"}}),
    (["evaluate-item", "--item", "item.json"], {"rubric": 5}),
], ids=["config-list", "data-dir-number", "provider-without-endpoint",
        "provider-retries-string", "provider-ftp-endpoint", "rubric-number"])
def test_malformed_config_file_is_invalid_params(capsys, tmp_path, monkeypatch,
                                                 command, config):
    """Not the AttributeError, TypeError or KeyError traceback of the
    value's first use."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "item.json").write_text(json.dumps(
        {"stem": "Define erosion.", "options": ["a", "b", "c", "d"], "answer_index": 0}))
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(command + ["--config", "config.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error_code"] == "invalid_params"


def test_groups_file_must_be_an_object(capsys, tmp_path):
    csv_path = tmp_path / "responses.csv"
    csv_path.write_text("participant,q1\n" + "".join(
        f"p{i},{i % 2}\n" for i in range(8)))
    groups_path = tmp_path / "groups.json"
    groups_path.write_text("[1]")
    assert main(["analyze", "--responses", str(csv_path),
                 "--groups", str(groups_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error_code"] == "invalid_params"


@pytest.mark.parametrize("label", [1, ["a"]], ids=["number", "list"])
def test_group_label_must_be_a_string(capsys, tmp_path, label):
    """Not the TypeError traceback of sorting or hashing the labels."""
    csv_path = tmp_path / "responses.csv"
    csv_path.write_text("participant,q1\n" + "".join(
        f"p{i},{i % 2}\n" for i in range(1, 5)))
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps({"p1": label, "p2": "a", "p3": label, "p4": "a"}))
    assert main(["analyze", "--responses", str(csv_path),
                 "--groups", str(groups_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error_code"] == "invalid_params"


@pytest.mark.parametrize("text", [
    "participant,q1,q1\np1,1,0\np2,0,1\n",
    "participant,q1\np1,1\n",
    "participant,q1\np1,2\np2,0\n",
    "participant,q1\np1,1,0\np2,0\n",
    "participant,q1\np1,x\np2,0\n",
    "id,q1\np1,1\np2,0\n",
    "",
    'participant,q1\n"' + "p" * 140_000 + '",1\np2,0\n',
], ids=["duplicate-items", "one-participant", "cell-2", "long-row", "non-integer",
        "no-participant-column", "empty", "field-over-limit"])
def test_bad_response_csv_is_invalid_params(capsys, tmp_path, text):
    csv_path = tmp_path / "responses.csv"
    csv_path.write_text(text)
    assert main(["analyze", "--responses", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error_code"] == "invalid_params"
    if len(text) > 100_000:
        assert error["message"].startswith("malformed CSV on line 2:")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["rank", "--subject", "x", "--no-such-flag"])
    assert exc_info.value.code == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("targets", [[], ["--chapter", "Ch 1", "--facts-of", "tree"]],
                         ids=["neither", "both"])
def test_rank_takes_exactly_one_of_chapter_and_facts_of(capsys, targets):
    """Neither once ended in an AttributeError traceback."""
    with pytest.raises(SystemExit) as exc_info:
        main(["rank", "--subject", "x", *targets])
    assert exc_info.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_missing_snapshot_is_domain_error(workspace, capsys):
    assert main(["graph", "stats", "--subject", "nothing",
                 "--data-dir", workspace["data_dir"]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "unknown_subject"


def test_agents_run_smoke(workspace, capsys):
    ingest_all(workspace)
    capsys.readouterr()  # discard ingest reports
    assert main(["agents", "run", "--duration", "0.2", "--tcp", "127.0.0.1:0",
                 "--lexicon", str(workspace["lexicon"]),
                 "--data-dir", workspace["data_dir"]]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "running"
    assert set(status["agents"]) == {"file_extraction", "kg_management",
                                     "question_generation", "llm",
                                     "question_evaluation"}
    assert status["subjects"] == ["envsci"]
    assert status["tcp"]["port"] > 0


@pytest.mark.parametrize("address", ["127.0.0.1:x", "127.0.0.1:70000"],
                         ids=["not-a-number", "out-of-range"])
def test_agents_run_bad_tcp_port_is_invalid_params(workspace, capsys, address):
    """Checked before the agents start, so no agent thread is left running
    and no OverflowError comes out of bind()."""
    before = threading.active_count()
    assert main(["agents", "run", "--duration", "0.1", "--tcp", address,
                 "--data-dir", workspace["data_dir"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error_code"] == "invalid_params"
    assert threading.active_count() == before


def test_agents_run_port_in_use_stops_the_agents(workspace, capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        before = threading.active_count()
        assert main(["agents", "run", "--duration", "0.1",
                     "--tcp", f"127.0.0.1:{taken.getsockname()[1]}",
                     "--data-dir", workspace["data_dir"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error_code"] == "error"
    assert threading.active_count() == before


def test_agents_run_llm_extractor_needs_provider(workspace, capsys):
    assert main(["agents", "run", "--duration", "0.1", "--extractor", "llm",
                 "--data-dir", workspace["data_dir"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no provider configured" in json.loads(captured.err)["message"]


@pytest.mark.parametrize("flag, label", [("--chapter", "Ch 9"),
                                         ("--facts-of", "nolore")])
def test_rank_missing_node_reports_unknown_node(workspace, capsys, flag, label):
    ingest_all(workspace)
    capsys.readouterr()
    assert main(["rank", "--subject", "envsci", flag, label,
                 "--data-dir", workspace["data_dir"]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "unknown_node"


@pytest.fixture
def bio(tmp_path, monkeypatch):
    """A one-chapter subject with two concepts, "tree" and "plant", and a
    blueprint for it, in ``tmp_path``, the working directory."""
    monkeypatch.chdir(tmp_path)
    Path("ch1.txt").write_text(
        "The oak supports the elm. The oak supports the ash. The oak supports the pine. "
        "The elm needs the ash. The fern needs the moss. The fern needs the lichen. "
        "The fern needs the sedge. The oak affects the fern.\n")
    Path("lex.json").write_text(json.dumps({
        "oak": ["tree"], "elm": ["tree"], "ash": ["tree"], "pine": ["tree"],
        "fern": ["plant"], "moss": ["plant"], "lichen": ["plant"], "sedge": ["plant"]}))
    Path("bp.json").write_text(json.dumps({"subject": "bio", "sections": [
        {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}))
    assert main(["ingest", "--data-dir", "kgdata", "--subject", "bio", "--doc", "ch1.txt",
                 "--chapter", "Ch 1", "--lexicon", "lex.json"]) == 0
    Path("items.csv").write_text("participant,q1,q2\np1,1,0\np2,1,1\np3,0,0\np4,0,1\n")
    Path("absent-rubric.json").write_text(json.dumps({"rubric": "nothere.json"}))
    Path("nul-rubric.json").write_text(json.dumps({"rubric": "a\u0000b"}))


def _one_error_line(capsys, argv) -> str:
    """The error code of a CLI run that must exit 1 with one JSON line on
    stderr and nothing on stdout."""
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return json.loads(line)["error_code"]


RANK = ["rank", "--data-dir", "kgdata", "--subject", "bio"]


@pytest.mark.parametrize("argv", [
    RANK + ["--chapter", "Ch 1", "--damping", "2"],
    RANK + ["--chapter", "Ch 1", "--damping", "1"],
    RANK + ["--chapter", "Ch 1", "--max-iter", "0"],
    RANK + ["--chapter", "Ch 1", "--tol", "nan"],
    RANK + ["--chapter", "Ch 1", "--top", "-1"],
    RANK + ["--chapter", "Ch 1", "--top", "0"],
    RANK + ["--facts-of", "tree", "--top", "0"],
], ids=["damping-2", "damping-1", "max-iter-0", "tol-nan", "top-minus-1", "top-0",
        "facts-top-0"])
def test_a_bad_rank_value_is_invalid_params(bio, capsys, monkeypatch, argv):
    """Refused before any PageRank iteration runs, with one error line."""
    import examgraph.ranking

    def no_pagerank(*args):
        raise AssertionError("PageRank ran")

    monkeypatch.setattr(examgraph.ranking, "pagerank", no_pagerank)
    assert _one_error_line(capsys, argv) == "invalid_params"


@pytest.mark.parametrize("argv, code", [
    (["graph", "stats", "--subject", "bio", "--config", "missing.json"], "invalid_params"),
    (["graph", "stats", "--subject", "bio", "--config", "a\x00b"], "invalid_params"),
    (["generate", "--data-dir", "kgdata", "--blueprint", "bp.json", "--rubric", "missing.json"],
     "invalid_params"),
    (["generate", "--data-dir", "kgdata", "--blueprint", "bp.json",
      "--config", "absent-rubric.json"], "invalid_params"),
    (["generate", "--data-dir", "kgdata", "--blueprint", "bp.json",
      "--config", "nul-rubric.json"], "invalid_params"),
    (["blueprint", "validate", "--blueprint", "missing.json"], "invalid_params"),
    (["blueprint", "validate", "--blueprint", "."], "invalid_params"),
    (["evaluate-item", "--item", "missing.json"], "malformed_item"),
    (["analyze", "--responses", "items.csv", "--groups", "missing.json"], "invalid_params"),
    (["ingest", "--data-dir", "kgdata", "--subject", "bio", "--doc", "ch1.txt", "--append",
      "--lexicon", "missing.json"], "invalid_extraction"),
], ids=["config", "config-nul", "rubric", "config-rubric", "config-rubric-nul", "blueprint",
        "blueprint-directory", "item", "groups", "lexicon"])
def test_a_json_file_that_cannot_be_read_ends_in_its_readers_code(bio, capsys, argv, code):
    assert _one_error_line(capsys, argv) == code


INGEST = ["ingest", "--data-dir", "kgdata", "--subject", "bio", "--append", "--doc"]


@pytest.mark.parametrize("argv", [
    INGEST + ["nothere.txt"],
    INGEST + ["latin1.txt"],
    ["analyze", "--responses", "nothere.csv"],
    ["analyze", "--responses", "latin1.txt"],
], ids=["doc", "doc-not-utf8", "responses", "responses-not-utf8"])
def test_a_text_file_that_cannot_be_read_is_invalid_params(bio, capsys, argv):
    """A document or response file that is missing or not UTF-8 is refused
    before the snapshot is touched."""
    Path("latin1.txt").write_bytes(b"The \xff oak supports the elm.\n")
    snapshot = Path("kgdata", "bio.kg.jsonl").read_bytes()
    assert _one_error_line(capsys, argv) == "invalid_params"
    assert Path("kgdata", "bio.kg.jsonl").read_bytes() == snapshot


def test_analyze_reads_crlf_responses_by_the_fast_path(bio, capsys, monkeypatch):
    """Universal newlines hand ``from_csv`` the text with ``\\n`` line ends, so
    the packed-row reader takes it and the report is the LF file's."""
    import examgraph.psychometrics.itemstats as itemstats

    binary_rows, packed = itemstats._binary_rows, []

    def spy(text, width):
        packed.append(binary_rows(text, width))
        return packed[-1]

    monkeypatch.setattr(itemstats, "_binary_rows", spy)
    Path("crlf.csv").write_bytes(Path("items.csv").read_bytes().replace(b"\n", b"\r\n"))
    reports = []
    for name in ("items.csv", "crlf.csv"):
        assert main(["analyze", "--responses", name]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert len(packed) == 2 and None not in packed


@pytest.mark.parametrize("out", ["nodir/x.json", ".", "a\x00b"],
                         ids=["missing-dir", "directory", "nul"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--responses", "items.csv"],
    ["graph", "export", "--data-dir", "kgdata", "--subject", "bio"],
    ["generate", "--data-dir", "kgdata", "--blueprint", "bp.json"],
], ids=["analyze", "graph-export", "generate"])
def test_an_out_path_that_cannot_be_written_is_invalid_params(bio, capsys, argv, out):
    assert _one_error_line(capsys, argv + ["--out", out]) == "invalid_params"
    assert not Path("nodir").exists()

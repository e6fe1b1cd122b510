from __future__ import annotations

import json
import re
import shutil

import pytest

import trajmem.harness as harness
from trajmem.cli import main, read_config
from trajmem.errors import TrajmemError
from trajmem.model import Phase, count_tokens
from trajmem.store import MemoryStore

from helpers import DEEP_JSON, UNRENDERABLE, break_segments, chat_server, restamp_index_line


@pytest.fixture()
def pipeline_dirs(tmp_path):
    ws = tmp_path / "ws"
    store = tmp_path / "store"
    manifest = tmp_path / "manifest.json"
    assert main(["fixtures", "--out", str(ws)]) == 0
    assert (
        main(
            [
                "synth",
                "--workspace",
                str(ws),
                "--workload",
                str(ws / "workload.txt"),
                "--budget",
                "4",
                "--store",
                str(store),
            ]
        )
        == 0
    )
    assert (
        main(["mine", "--store", str(store), "--out", str(manifest), "--tau", "0.5"])
        == 0
    )
    return ws, store, manifest


def _run(ws, store, manifest, out, *flags):
    return main(
        [
            "run",
            "--questions",
            str(ws / "questions.jsonl"),
            "--workspace",
            str(ws),
            "--store",
            str(store),
            "--manifest",
            str(manifest),
            "--out",
            str(out),
            *flags,
        ]
    )


def test_full_pipeline_and_report(pipeline_dirs, tmp_path, capsys):
    ws, store, manifest = pipeline_dirs
    assert _run(ws, store, manifest, tmp_path / "full") == 0
    assert _run(ws, store, manifest, tmp_path / "nomem", "--no-memory") == 0
    capsys.readouterr()
    assert (
        main(
            [
                "report",
                "--runs",
                str(tmp_path / "full"),
                "--baseline",
                str(tmp_path / "nomem"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "full" in out and "nomem" in out
    assert "+" in out  # baseline deltas present


def test_mine_output_contains_bootstrap_pair(pipeline_dirs):
    _, _, manifest = pipeline_dirs
    data = json.loads(manifest.read_text())
    names = [c["name"] for c in data["composites"]]
    assert "get_ext_then_get_ddl" in names


def test_ablation_flags_change_tool_usage(pipeline_dirs, tmp_path):
    ws, store, manifest = pipeline_dirs
    _run(ws, store, manifest, tmp_path / "comp", "--no-memory")
    _run(ws, store, manifest, tmp_path / "nocomp", "--no-memory", "--no-composites")
    with_composites = (tmp_path / "comp" / "trajectories" / "f1.json").read_text()
    without = (tmp_path / "nocomp" / "trajectories" / "f1.json").read_text()
    assert "get_ext_then_get_ddl" in with_composites
    assert "get_ext_then_get_ddl" not in without


def test_classify_command_json(pipeline_dirs, tmp_path, capsys):
    ws, store, manifest = pipeline_dirs
    _run(ws, store, manifest, tmp_path / "runs", "--no-memory")
    capsys.readouterr()
    code = main(
        [
            "--json",
            "classify",
            "--trajectory",
            str(tmp_path / "runs" / "trajectories" / "r2.json"),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"phases", "segments"}
    assert "execution" in payload["phases"]


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"question_id": "q", "database_id": "d", "steps": [1]}', id="int-step"),
        pytest.param("[1]", id="top-level-list"),
        pytest.param('{"database_id": "d"}', id="no-question-id"),
        pytest.param('{"question_id": "q", "database_id": "d", "steps": "ab"}', id="string-steps"),
        pytest.param('{"question_id": "q", "database_id": "d", "steps": [{"index": 0, "phase": 5}]}',
                     id="int-phase"),
        pytest.param("null", id="null"),
        pytest.param(DEEP_JSON, id="nested-too-deeply"),
    ],
)
def test_classify_of_a_file_that_holds_no_trajectory_exits_2(tmp_path, capsys, text):
    path = tmp_path / "t.json"
    path.write_text(text, encoding="utf-8")
    assert main(["classify", "--trajectory", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_retrieve_command_prints_path(pipeline_dirs, capsys):
    ws, store, _ = pipeline_dirs
    capsys.readouterr()
    code = main(
        [
            "retrieve",
            "--question",
            "How many rows are in flights?",
            "--db",
            "flights",
            "--store",
            str(store),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert "flights" in out and "syn-flights" in out


def test_retrieve_command_handles_empty_store(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(
        [
            "retrieve",
            "--question",
            "anything",
            "--db",
            "flights",
            "--store",
            str(tmp_path / "empty"),
        ]
    )
    assert code == 0
    assert "no stored entry" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_a_store_path_that_is_no_directory_exits_2_naming_it(pipeline_dirs, tmp_path, capsys,
                                                             kind):
    ws, _, manifest = pipeline_dirs
    store = tmp_path / "nosuch"
    if kind == "file":
        store.write_text("not a store\n")
    capsys.readouterr()
    # Read as a store, it would find no entry: memory off, with no word said.
    assert _run(ws, store, manifest, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(store) in err
    assert not (tmp_path / "out").exists()
    assert main(["retrieve", "--question", "How many rows are in flights?",
                 "--db", "flights", "--store", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(store) in captured.err
    # Memory switched off leaves the path unread; synth makes a new store.
    assert _run(ws, store, manifest, tmp_path / "off", "--no-memory") == 0
    if kind == "missing":
        assert main(["synth", "--workspace", str(ws), "--workload", str(ws / "workload.txt"),
                     "--budget", "2", "--store", str(store)]) == 0
        assert _run(ws, store, manifest, tmp_path / "made") == 0


def test_a_memory_on_run_without_a_store_exits_2_naming_both_ways_out(pipeline_dirs, tmp_path,
                                                                     capsys):
    ws, _, manifest = pipeline_dirs
    capsys.readouterr()
    code = main(["run", "--questions", str(ws / "questions.jsonl"), "--workspace", str(ws),
                 "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "--store" in captured.err and "--no-memory" in captured.err
    assert not (tmp_path / "out").exists()


def test_report_missing_runs_dir_exits_nonzero(tmp_path, capsys):
    assert main(["report", "--runs", str(tmp_path / "nothing")]) == 2


def test_synth_budget_error_exits_nonzero(tmp_path, capsys):
    ws = tmp_path / "ws"
    main(["fixtures", "--out", str(ws)])
    code = main(
        [
            "synth",
            "--workspace",
            str(ws),
            "--workload",
            str(ws / "workload.txt"),
            "--budget",
            "1",
            "--store",
            str(tmp_path / "store"),
        ]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_read_config_parses_values(tmp_path):
    config = tmp_path / "conf"
    config.write_text('tau = 0.4\nmax_size=3  # inline comment\nchat_url="http://x"\n')
    values = read_config(config)
    assert values == {"tau": "0.4", "max_size": "3", "chat_url": "http://x"}
    config.write_text("not a pair")
    with pytest.raises(TrajmemError):
        read_config(config)


def test_config_file_feeds_miner(pipeline_dirs, tmp_path, capsys):
    _, store, _ = pipeline_dirs
    config = tmp_path / "conf"
    config.write_text("tau=1.0\n")
    out = tmp_path / "strict.json"
    code = main(
        ["--config", str(config), "mine", "--store", str(store), "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert all(c["support_ratio"] >= 1.0 for c in data["composites"])


def test_record_then_replay_round_trip(pipeline_dirs, tmp_path):
    ws, store, manifest = pipeline_dirs
    script = tmp_path / "recorded.json"
    assert (
        _run(ws, store, manifest, tmp_path / "recorded_run", "--record", str(script)) == 0
    )
    assert (
        _run(
            ws,
            store,
            manifest,
            tmp_path / "replayed_run",
            "--policy",
            f"replay:{script}",
        )
        == 0
    )
    for qid in ("f1", "f6", "r2"):
        recorded = json.loads(
            (tmp_path / "recorded_run" / "records" / f"{qid}.json").read_text()
        )
        replayed = json.loads(
            (tmp_path / "replayed_run" / "records" / f"{qid}.json").read_text()
        )
        recorded.pop("wall_time_ms")
        replayed.pop("wall_time_ms")
        assert recorded == replayed


def test_unknown_policy_spec_exits_nonzero(pipeline_dirs, tmp_path, capsys):
    ws, store, manifest = pipeline_dirs
    code = _run(ws, store, manifest, tmp_path / "runs", "--policy", "carrier-pigeon")
    assert code == 2
    assert "unknown policy spec" in capsys.readouterr().err


def test_an_http_policy_without_a_host_exits_2_before_any_episode(tmp_path, capsys):
    assert _run_without_memory(tmp_path, "--policy", "http:///chat") == 2
    assert "not http(s) with a host" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def _records(run):
    """A run's records by file name, latency aside."""
    found = {}
    for path in sorted((run / "records").glob("*.json")):
        record = json.loads(path.read_text())
        record.pop("wall_time_ms")
        found[path.name] = record
    return found


def test_an_http_policy_run_posts_to_the_endpoint_and_replays_without_it(
    tmp_path, monkeypatch
):
    ws = tmp_path / "ws"
    assert main(["fixtures", "--out", str(ws)]) == 0
    config = tmp_path / "conf"
    config.write_text("chat_model = m1\nchat_auth_env = TRAJMEM_TEST_TOKEN\n")
    monkeypatch.setenv("TRAJMEM_TEST_TOKEN", "tok")
    script = tmp_path / "recorded.json"

    def run(out, policy, *flags):
        return main(["--config", str(config), "run", "--questions", str(ws / "questions.jsonl"),
                     "--workspace", str(ws), "--out", str(tmp_path / out), "--no-memory",
                     "--policy", policy, *flags])

    action = 'Thought: probe\nAction:\nsql_execute(query="SELECT 1")'
    with chat_server(
        (200, {"choices": [{"message": {"content": action}}]}),
        (200, {"choices": [{"message": {"content": "Final Answer: 42"}}]}),
    ) as (url, posts):
        assert run("live", url) == 0
        assert run("recorded", url, "--record", str(script)) == 0
    questions = len((ws / "questions.jsonl").read_text().splitlines())
    live = _records(tmp_path / "live")
    assert len(live) == questions
    assert all((r["steps"], r["answer_rows"]) == (2, [[1]]) for r in live.values())
    assert len(posts) == 2 * 2 * questions
    assert {post["json"]["model"] for post in posts} == {"m1"}
    assert {post["headers"]["Authorization"] for post in posts} == {"Bearer tok"}
    assert run("replayed", f"replay:{script}") == 0
    assert _records(tmp_path / "replayed") == _records(tmp_path / "recorded") == live


def _chat_reply(body):
    """A probe as an episode's first reply and its answer as the second,
    whichever episode the call comes from."""
    if "Observation:" in body["messages"][-1]["content"]:
        content = "Final Answer: 42"
    else:
        content = 'Thought: probe\nAction:\nsql_execute(query="SELECT 1")'
    return 200, {"choices": [{"message": {"content": content}}]}


def _latency_aside(path):
    return re.sub(rb'"wall_time_ms": \d+', b'"wall_time_ms": 0', path.read_bytes())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_run_stopped_by_a_failed_episode_keeps_the_files_of_every_episode_that_ended(
    tmp_path, capsys, workers
):
    ws = tmp_path / "ws"
    assert main(["fixtures", "--out", str(ws)]) == 0

    def run(out, url):
        return main(["run", "--questions", str(ws / "questions.jsonl"), "--workspace", str(ws),
                     "--out", str(tmp_path / out), "--no-memory", "--policy", url,
                     "--workers", workers])

    with chat_server(_chat_reply) as (url, _):
        assert run("clean", url) == 0
    # Two calls an episode: eleven episodes end before the one call that fails.
    with chat_server(*[_chat_reply] * 22, (400, {"error": "bad request"})) as (url, posts):
        assert run("stopped", url) == 2
    assert "HTTP Error 400" in capsys.readouterr().err
    assert len(posts) in (23, 24)  # with two workers, the other episode may end after it
    kept = {}
    for kind in ("records", "trajectories"):
        kept[kind] = sorted(path.name for path in (tmp_path / "stopped" / kind).iterdir())
        for name in kept[kind]:
            stopped, clean = (_latency_aside(tmp_path / side / kind / name)
                              for side in ("stopped", "clean"))
            assert stopped == clean, f"{kind}/{name}"
    assert len(kept["records"]) == 11 and kept["records"] == kept["trajectories"]


def test_run_json_output(pipeline_dirs, tmp_path, capsys):
    ws, store, manifest = pipeline_dirs
    capsys.readouterr()
    code = main(
        [
            "--json",
            "run",
            "--questions",
            str(ws / "questions.jsonl"),
            "--workspace",
            str(ws),
            "--out",
            str(tmp_path / "runs"),
            "--no-memory",
            "--no-composites",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["questions"] == 12
    assert payload["correct"] == 11


@pytest.mark.parametrize(
    "config_steps, flags, expected",
    [("30", ("--max-steps", "2"), 2 * 12), ("2", (), 2 * 12), ("2", ("--max-steps", "30"), 108)],
    ids=["flag-wins", "config-without-flag", "larger-flag-wins"],
)
def test_max_steps_flag_wins_over_the_config_file(
    pipeline_dirs, tmp_path, capsys, config_steps, flags, expected
):
    ws, store, manifest = pipeline_dirs
    config = tmp_path / "conf"
    config.write_text(f"max_planner_steps={config_steps}\n")
    capsys.readouterr()
    code = main(
        [
            "--json",
            "--config",
            str(config),
            "run",
            "--questions",
            str(ws / "questions.jsonl"),
            "--workspace",
            str(ws),
            "--out",
            str(tmp_path / "runs"),
            "--no-memory",
            "--no-composites",
            *flags,
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["total_steps"] == expected


def _run_fixture_questions(ws, questions, out, *global_flags):
    return main(
        [
            *global_flags,
            "run",
            "--questions",
            str(questions),
            "--workspace",
            str(ws),
            "--out",
            str(out),
            "--no-memory",
            "--no-composites",
        ]
    )


def test_run_malformed_questions_file_exits_nonzero(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(["fixtures", "--out", str(ws)]) == 0
    questions = tmp_path / "questions.jsonl"
    questions.write_text('{"id": "f1", "database_id": "flights"}\n', encoding="utf-8")
    assert _run_fixture_questions(ws, questions, tmp_path / "runs") == 2
    assert "questions.jsonl line 1" in capsys.readouterr().err


def test_config_naming_schema_link_budget_still_runs(tmp_path):
    ws = tmp_path / "ws"
    assert main(["fixtures", "--out", str(ws)]) == 0
    config = tmp_path / "conf"
    config.write_text("schema_link_budget=5\n", encoding="utf-8")
    questions = ws / "questions.jsonl"
    assert _run_fixture_questions(ws, questions, tmp_path / "plain") == 0
    assert (
        _run_fixture_questions(ws, questions, tmp_path / "old", "--config", str(config)) == 0
    )
    for path in sorted((tmp_path / "plain" / "records").glob("*.json")):
        plain = json.loads(path.read_text())
        old = json.loads((tmp_path / "old" / "records" / path.name).read_text())
        plain.pop("wall_time_ms")
        old.pop("wall_time_ms")
        assert plain == old


def test_retrieve_json_reports_what_the_load_did(pipeline_dirs, capsys):
    ws, store, _ = pipeline_dirs
    capsys.readouterr()
    assert main(
        ["--json", "retrieve", "--question", "How many rows are in flights?",
         "--db", "flights", "--store", str(store)]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    entries = len([p for p in (store / "flights").iterdir() if not p.name.startswith(".")])
    # Every entry comes from the index; only the winner's meta.json is parsed.
    assert payload["entries"] == {"indexed": entries, "parsed": 1, "corrupt": 0, "healed": 0}

    (store / "flights" / "broken").mkdir()
    (store / "flights" / "broken" / "meta.json").write_text("{broken")
    assert main(
        ["--json", "retrieve", "--question", "anything",
         "--db", "flights", "--store", str(store)]
    ) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == {
        "indexed": entries, "parsed": 2, "corrupt": 1, "healed": 0
    }

    # Without the index, every entry is parsed and gets its line back.
    (store / "flights" / ".index.jsonl").unlink()
    for healed in (entries, 0):
        assert main(
            ["--json", "retrieve", "--question", "anything",
             "--db", "flights", "--store", str(store)]
        ) == 0
        counts = json.loads(capsys.readouterr().out)["entries"]
        assert (counts["indexed"], counts["healed"]) == (entries - healed, healed)


def _retrieve_json(store, question, capsys):
    capsys.readouterr()
    assert main(
        ["--json", "retrieve", "--question", question, "--db", "flights", "--store", str(store)]
    ) == 0
    return json.loads(capsys.readouterr().out)


def test_retrieve_reports_the_tokens_of_the_prefix_an_episode_injects(pipeline_dirs, capsys):
    ws, store, _ = pipeline_dirs
    question = "How many flights are recorded in total?"
    payload = _retrieve_json(store, question, capsys)
    (entry,) = [
        e for e in MemoryStore(store).load_entries("flights")
        if e.question.id == payload["question_id"]
    ]
    prefix = entry.structured.phase_document(Phase.EXPLORATION)
    assert prefix and payload["prefix_tokens"] == count_tokens(prefix)

    assert main(
        ["retrieve", "--question", question, "--db", "flights", "--store", str(store)]
    ) == 0
    assert f"prefix tokens: {count_tokens(prefix)}" in capsys.readouterr().out

    (store.parent / "empty").mkdir()
    empty = _retrieve_json(store.parent / "empty", question, capsys)
    assert (empty["entry"], empty["prefix_tokens"]) == (None, 0)


@pytest.mark.parametrize("damage", UNRENDERABLE)
def test_retrieve_skips_a_winner_whose_segments_cannot_be_rebuilt(
    pipeline_dirs, tmp_path, capsys, damage
):
    ws, store, _ = pipeline_dirs
    question = "How many flights are recorded in total?"
    winner = _retrieve_json(store, question, capsys)["question_id"]
    expected = tmp_path / "expected"
    shutil.copytree(store, expected)
    shutil.rmtree(expected / "flights" / winner)
    following = _retrieve_json(expected, question, capsys)["question_id"]
    assert following not in (None, winner)

    broken = store / "flights" / winner
    break_segments(broken, damage)
    restamp_index_line(broken)

    payload = _retrieve_json(store, question, capsys)
    assert payload["question_id"] == following
    assert payload["entries"]["corrupt"] == 1


@pytest.mark.parametrize("db", ["..", "../store", ".", "a/b", ""])
def test_retrieve_of_an_unsafe_database_id_is_an_error(pipeline_dirs, capsys, db):
    ws, store, _ = pipeline_dirs
    capsys.readouterr()
    code = main(["retrieve", "--question", "anything", "--db", db, "--store", str(store)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unsafe database id" in captured.err


def test_mine_skips_a_store_directory_whose_name_is_not_an_id(pipeline_dirs, tmp_path):
    ws, store, manifest = pipeline_dirs
    stray = store / "not an id"
    shutil.copytree(store / "flights", stray)
    out = tmp_path / "again.json"
    assert main(["mine", "--store", str(store), "--out", str(out), "--tau", "0.5"]) == 0
    assert out.read_bytes() == manifest.read_bytes()


def test_synth_on_an_existing_store_parses_no_indexed_entry(pipeline_dirs, monkeypatch):
    import trajmem.cli as cli_module

    ws, store, _ = pipeline_dirs
    stores = []
    original = cli_module.MemoryStore

    def recording(*args, **kwargs):
        stores.append(original(*args, **kwargs))
        return stores[-1]

    monkeypatch.setattr(cli_module, "MemoryStore", recording)
    before = len([p for db in store.iterdir() if db.is_dir() for p in db.iterdir()
                  if not p.name.startswith(".")])
    assert main(
        ["synth", "--workspace", str(ws), "--budget", "4", "--store", str(store)]
    ) == 0
    (synth_store,) = stores
    assert synth_store.counts.parsed == 0
    assert synth_store.counts.indexed == before


_GOOD_COMPOSITE = {"name": "get_ext_then_get_ddl", "description": "",
                   "tools": ["get_ext", "get_ddl"], "phase": "exploration",
                   "support_count": 3, "support_ratio": 0.5}


def _composite(**changes):
    composite = {**_GOOD_COMPOSITE, **changes}
    return {key: value for key, value in composite.items() if value is not None}


# Texts that are not JSON, or not JSON the parser can read; written as they are.
_NOT_JSON = [
    pytest.param("{'composites': []}", id="not-json"),
    pytest.param(DEEP_JSON, id="nested-too-deeply"),
]


def _json_text(value):
    return value if isinstance(value, str) else json.dumps(value)


def _run_without_memory(tmp_path, *flags):
    """Exit code of a memory-off run of the fixture questions."""
    ws = tmp_path / "ws"
    assert main(["fixtures", "--out", str(ws)]) == 0
    code = main(["run", "--questions", str(ws / "questions.jsonl"), "--workspace", str(ws),
                 "--out", str(tmp_path / "runs"), "--no-memory", *flags])
    return code


@pytest.mark.parametrize(
    "manifest",
    [
        pytest.param([], id="top-level-list"),
        pytest.param({"version": 1, "composites": {"name": "x"}}, id="composites-object"),
        pytest.param({"composites": ["get_ext_then_get_ddl"]}, id="composite-string"),
        *[pytest.param({"composites": [_composite(**{field: None})]}, id=f"no-{field}")
          for field in ("name", "tools", "phase", "support_count", "support_ratio")],
        pytest.param({"composites": [_composite(name=3)]}, id="int-name"),
        pytest.param({"composites": [_composite(tools="get_ext")]}, id="string-tools"),
        pytest.param({"composites": [_composite(tools=["get_ext", 3])]}, id="int-tool"),
        pytest.param({"composites": [_composite(phase=2)]}, id="int-phase"),
        pytest.param({"composites": [_composite(phase="nowhere")]}, id="unknown-phase"),
        pytest.param({"composites": [_composite(support_count="3")]}, id="string-count"),
        pytest.param({"composites": [_composite(support_count=True)]}, id="bool-count"),
        pytest.param({"composites": [_composite(support_ratio="0.5")]}, id="string-ratio"),
        pytest.param({"composites": [_composite(description=["x"])]}, id="list-description"),
        pytest.param({"composites": [_GOOD_COMPOSITE, _composite(tools=["get_ext"])]},
                     id="one-tool"),
        *_NOT_JSON,
    ],
)
def test_a_malformed_manifest_exits_2_naming_the_file(tmp_path, capsys, manifest):
    path = tmp_path / "m.json"
    path.write_text(_json_text(manifest))
    assert _run_without_memory(tmp_path, "--manifest", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_a_well_formed_manifest_runs(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"version": 1, "composites": [_GOOD_COMPOSITE]}))
    assert _run_without_memory(tmp_path, "--manifest", str(path)) == 0


def test_switched_off_memory_and_composites_open_no_store_and_no_manifest(tmp_path):
    # Given as they are: run_suite alone leaves them unread when switched off.
    store, manifest = tmp_path / "store", tmp_path / "m.json"
    manifest.write_text("not a manifest")
    flags = ("--store", str(store), "--manifest", str(manifest), "--no-composites")
    assert _run_without_memory(tmp_path, *flags) == 0
    assert not store.exists()


@pytest.mark.parametrize("switch", ["--no-memory", "--no-composites"])
def test_each_switch_alone_leaves_its_own_path_unread(pipeline_dirs, tmp_path, switch):
    ws, store, manifest = pipeline_dirs
    if switch == "--no-memory":
        # The store shortens a run that reads it, and leaves this one as no store does.
        assert _run(ws, store, manifest, tmp_path / "read") == 0
        assert _run(ws, store, manifest, tmp_path / "unread", switch) == 0
        assert _run(ws, tmp_path / "none", manifest, tmp_path / "bare", switch) == 0
    else:
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not a manifest")
        assert _run(ws, store, garbage, tmp_path / "read") == 2
        assert _run(ws, store, garbage, tmp_path / "unread", switch) == 0
        assert _run(ws, store, manifest, tmp_path / "bare", switch) == 0
    assert _records(tmp_path / "unread") == _records(tmp_path / "bare")
    if switch == "--no-memory":
        assert _records(tmp_path / "read") != _records(tmp_path / "unread")


def _steps_of_readme_run(tmp_path, label, *flags):
    """Total steps of the fixture questions run over the README store
    (``synth --budget 12``) and its mined manifest."""
    ws, store, manifest = tmp_path / "ws", tmp_path / "store", tmp_path / "manifest.json"
    if not ws.exists():
        assert main(["fixtures", "--out", str(ws)]) == 0
        assert main(["synth", "--workspace", str(ws), "--workload", str(ws / "workload.txt"),
                     "--budget", "12", "--store", str(store)]) == 0
        assert main(["mine", "--store", str(store), "--tau", "0.5", "--max-size", "4",
                     "--out", str(manifest)]) == 0
    assert _run(ws, store, manifest, tmp_path / label, *flags) == 0
    records = (tmp_path / label / "records").glob("*.json")
    return sum(json.loads(path.read_text(encoding="utf-8"))["steps"] for path in records)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the scripted policy asks only "
                   "whether a memory prefix exists, so any text saves the steps real "
                   "memory saves")
def test_a_filler_memory_prefix_saves_no_step_against_memory_off(tmp_path, monkeypatch):
    without_memory = _steps_of_readme_run(tmp_path, "nomem", "--no-memory")
    monkeypatch.setattr(harness, "memory_prefix", lambda store, entry: "x")
    assert _steps_of_readme_run(tmp_path, "filler") >= without_memory


@pytest.mark.parametrize(
    "script",
    [
        pytest.param([], id="top-level-list"),
        pytest.param({"fingerprints": ["abc"]}, id="fingerprints-list"),
        pytest.param({"fingerprints": {"abc": 3}}, id="decision-int"),
        pytest.param({"fingerprints": {"abc": {"thought": 3}}}, id="thought-int"),
        pytest.param({"fingerprints": {}, "refinements": {"select 1": 1}}, id="refinement-int"),
        *_NOT_JSON,
    ],
)
def test_a_malformed_replay_script_exits_2_naming_the_file(tmp_path, capsys, script):
    path = tmp_path / "rp.json"
    path.write_text(_json_text(script))
    assert _run_without_memory(tmp_path, "--policy", f"replay:{path}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


_RECORD = {"question_id": "f1", "database_id": "flights", "steps": 3, "input_tokens": 1,
           "output_tokens": 1, "wall_time_ms": 1, "phase_counts": {"exploration": 1},
           "answer_rows": None, "correct": None}


@pytest.mark.parametrize(
    "record",
    [
        pytest.param([], id="top-level-list"),
        *[pytest.param({k: v for k, v in _RECORD.items() if k != field}, id=f"no-{field}")
          for field in ("question_id", "database_id", "steps")],
        pytest.param({**_RECORD, "phase_counts": ["exploration"]}, id="list-phase-counts"),
        pytest.param({**_RECORD, "correct": "false"}, id="string-correct"),
        pytest.param({**_RECORD, "question_id": 7}, id="int-question-id"),
        pytest.param({**_RECORD, "database_id": ["flights"]}, id="list-database-id"),
        pytest.param({**_RECORD, "steps": True}, id="bool-steps"),
        pytest.param({**_RECORD, "input_tokens": "3"}, id="string-input-tokens"),
        pytest.param({**_RECORD, "output_tokens": None}, id="null-output-tokens"),
        pytest.param({**_RECORD, "wall_time_ms": 2.7}, id="float-wall-time"),
        pytest.param({**_RECORD, "phase_counts": {"exploration": "1"}}, id="string-phase-count"),
        pytest.param({**_RECORD, "phase_counts": {"exploration": True}}, id="bool-phase-count"),
        pytest.param({**_RECORD, "answer_rows": "1"}, id="string-answer-rows"),
        *_NOT_JSON,
    ],
)
def test_a_malformed_run_record_exits_2_naming_the_file(tmp_path, capsys, record):
    records = tmp_path / "runs" / "records"
    records.mkdir(parents=True)
    (records / "f0.json").write_text(json.dumps(_RECORD))
    path = records / "f1.json"
    path.write_text(_json_text(record))
    assert main(["report", "--runs", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_mine_json_reports_what_the_load_did(pipeline_dirs, tmp_path, capsys):
    ws, store, manifest = pipeline_dirs
    out = tmp_path / "again.json"
    capsys.readouterr()
    assert main(["--json", "mine", "--store", str(store), "--out", str(out), "--tau", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entries = sum(
        1 for db in store.iterdir() if db.is_dir()
        for p in db.iterdir() if not p.name.startswith(".")
    )
    assert payload["corpus_size"] == entries
    assert payload["entries"] == {"indexed": 0, "parsed": entries, "corrupt": 0, "healed": 0}
    assert main(["mine", "--store", str(store), "--out", str(out), "--tau", "0.5"]) == 0
    assert "corrupt" not in capsys.readouterr().out

    (store / "flights" / "broken").mkdir()
    (store / "flights" / "broken" / "meta.json").write_text("{broken")
    assert main(["--json", "mine", "--store", str(store), "--out", str(out), "--tau", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["corpus_size"] == entries
    assert payload["entries"] == {
        "indexed": 0, "parsed": entries + 1, "corrupt": 1, "healed": 0
    }
    assert out.read_bytes() == manifest.read_bytes()
    assert main(["mine", "--store", str(store), "--out", str(out), "--tau", "0.5"]) == 0
    assert "skipped 1 corrupt stored entry(s)" in capsys.readouterr().out


@pytest.mark.parametrize("index", ["kept", "deleted"])
def test_show_prints_the_document_of_each_stored_entry(pipeline_dirs, capsysbinary, index):
    ws, store, _ = pipeline_dirs
    if index == "deleted":
        for line_file in store.glob("*/.index.jsonl"):
            line_file.unlink()
    loaded = MemoryStore(store)
    entries = [e for db in loaded.database_ids() for e in loaded.load_entries(db)]
    assert len(entries) == 4 and all(e.structured.segments for e in entries)
    for entry in entries:
        capsysbinary.readouterr()
        args = ["--store", str(store), "--db", entry.database_id, "--id", entry.question.id]
        assert main(["show", *args]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == entry.structured.full_document.encode("utf-8")
        assert captured.err == b""
        assert main(["--json", "show", *args]) == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload == {"entry": str(entry.path), "document": entry.structured.full_document}
    assert sorted({p.name for p in store.glob("*/*/*")}) == ["meta.json"]


@pytest.mark.parametrize(
    ("db", "question_id", "damage", "problem"),
    [
        ("flights", "syn-flights-999", None, "no readable memory entry"),
        ("nowhere", "syn-flights-001", None, "no readable memory entry"),
        ("flights", "..", None, "no readable memory entry"),
        ("flights", "syn-flights-001", "not json", "no readable memory entry"),
        *(("flights", "syn-flights-001", damage, "no readable memory entry")
          for damage in UNRENDERABLE),
        ("..", "syn-flights-001", None, "unsafe database id"),
    ],
)
def test_show_of_an_unknown_or_corrupt_entry_exits_2(
    pipeline_dirs, capsys, db, question_id, damage, problem
):
    ws, store, _ = pipeline_dirs
    entry_dir = store / "flights" / "syn-flights-001"
    if damage == "not json":
        (entry_dir / "meta.json").write_text("{broken", encoding="utf-8")
    elif damage is not None:
        # The index still takes the entry; its segments fail when read.
        break_segments(entry_dir, damage)
        restamp_index_line(entry_dir)
    capsys.readouterr()
    assert main(["show", "--store", str(store), "--db", db, "--id", question_id]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and problem in captured.err

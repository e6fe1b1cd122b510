from __future__ import annotations

import json

import pytest

from trajmem.cli import main, read_config
from trajmem.errors import TrajmemError


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
    ],
)
def test_a_malformed_manifest_exits_2_naming_the_file(tmp_path, capsys, manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert _run_without_memory(tmp_path, "--manifest", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_a_well_formed_manifest_runs(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"version": 1, "composites": [_GOOD_COMPOSITE]}))
    assert _run_without_memory(tmp_path, "--manifest", str(path)) == 0


@pytest.mark.parametrize(
    "script",
    [
        pytest.param([], id="top-level-list"),
        pytest.param({"fingerprints": ["abc"]}, id="fingerprints-list"),
        pytest.param({"fingerprints": {"abc": 3}}, id="decision-int"),
        pytest.param({"fingerprints": {"abc": {"thought": 3}}}, id="thought-int"),
        pytest.param({"fingerprints": {}, "refinements": {"select 1": 1}}, id="refinement-int"),
    ],
)
def test_a_malformed_replay_script_exits_2_naming_the_file(tmp_path, capsys, script):
    path = tmp_path / "rp.json"
    path.write_text(json.dumps(script))
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
    ],
)
def test_a_malformed_run_record_exits_2_naming_the_file(tmp_path, capsys, record):
    records = tmp_path / "runs" / "records"
    records.mkdir(parents=True)
    (records / "f0.json").write_text(json.dumps(_RECORD))
    path = records / "f1.json"
    path.write_text(json.dumps(record))
    assert main(["report", "--runs", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import szzvc
from szzvc.cli import main
from szzvc.report import SCHEMA, loads_report
from conftest import HELLO_WORLD_PD, maxpat_doc
from test_miner import PATCH_V1, PATCH_V2, PATCH_V3, T


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- diff ---------------------------------------------------------------


def test_diff_max_depth(hello_world_pair, capsys):
    old, new = hello_world_pair
    code, out, _ = run_cli(capsys, "diff", str(old), str(new))
    assert code == 0
    assert out == "Modified root[obj-0]['serialized_contents']['text']\n"


def test_diff_depth_one(hello_world_pair, capsys):
    old, new = hello_world_pair
    code, out, _ = run_cli(capsys, "diff", str(old), str(new), "--depth", "1")
    assert code == 0
    assert out == "Modified root[obj-0]\n"


def test_diff_identical_files(hello_world_pair, capsys):
    old, _ = hello_world_pair
    code, out, _ = run_cli(capsys, "diff", str(old), str(old))
    assert code == 0
    assert out == ""


def test_diff_parse_failure_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("#N canvas 0 0 1 1 10;\n#X msg 5 5 oops")
    good = tmp_path / "good.pd"
    good.write_text(HELLO_WORLD_PD)
    code, _, err = run_cli(capsys, "diff", str(bad), str(good))
    assert code == 4
    assert "parse failure" in err
    assert "lines 2-2" in err


def test_diff_structured_output(hello_world_pair, tmp_path, capsys):
    old, new = hello_world_pair
    out_path = tmp_path / "diff.json"
    code, _, _ = run_cli(capsys, "diff", str(old), str(new), "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["records"] == [
        {"kind": "modified",
         "path": "root[obj-0]['serialized_contents']['text']",
         "depth": 3}
    ]


def test_diff_bad_depth_is_config_error(hello_world_pair, capsys):
    old, new = hello_world_pair
    code, _, err = run_cli(capsys, "diff", str(old), str(new), "--depth", "zero")
    assert code == 2
    assert "depth" in err


def test_diff_across_languages_is_config_error(hello_world_pair, tmp_path, capsys):
    old, _ = hello_world_pair
    other = tmp_path / "b.maxpat"
    other.write_text(maxpat_doc([{"id": "obj-1", "maxclass": "newobj", "text": "print"}]))
    code, _, err = run_cli(capsys, "diff", str(old), str(other))
    assert code == 2
    assert "pure-data" in err and "max-msp" in err


# Golden outputs: ``--show-values`` prints the ``repr`` of node values, so the
# order of contents keys and of connection tuples shows in these bytes; a
# changed golden file is a changed CLI output.
GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_run(capsys, tmp_path, monkeypatch, files: dict, *argv) -> str:
    for name, golden in files.items():
        shutil.copy(GOLDEN / golden, tmp_path / name)
    monkeypatch.chdir(tmp_path)  # relative paths: source_path shows in reprs
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return out


@pytest.mark.parametrize("flags, golden", [
    ((), "diff_show_values.txt"),
    (("--include-layout",), "diff_show_values_layout.txt"),
])
def test_diff_show_values_golden(capsys, tmp_path, monkeypatch, flags, golden):
    # a node added and one deleted (in a subpatch), connections rewired, a
    # text changed, and an added subpatch that holds array data
    out = _golden_run(capsys, tmp_path, monkeypatch,
                      {"old.pd": "diff_old.pd", "new.pd": "diff_new.pd"},
                      "diff", "old.pd", "new.pd", "--show-values", *flags)
    assert out == (GOLDEN / golden).read_text()


# a box added (its two patchlines out of order) and one deleted, a patchline
# rewired, a text changed and a nested patcher changed; in both files the
# boxes, the patchlines and the keys of objects are out of order
MAX_PAIR = {"diff_old.maxpat": "diff_old.maxpat", "diff_new.maxpat": "diff_new.maxpat"}


def test_max_diff_show_values_golden(capsys, tmp_path, monkeypatch):
    out = _golden_run(capsys, tmp_path, monkeypatch, MAX_PAIR,
                      "diff", "diff_old.maxpat", "diff_new.maxpat", "--show-values")
    assert out == (GOLDEN / "diff_show_values_max.txt").read_text()


# --- parse ---------------------------------------------------------------


@pytest.mark.parametrize("flags, golden", [
    ((), "parse.json"),
    (("--include-layout",), "parse_layout.json"),
])
def test_parse_golden(capsys, tmp_path, monkeypatch, flags, golden):
    # 14 nodes (obj-10 sorts before obj-2), a subpatch, an array with #A data
    out = _golden_run(capsys, tmp_path, monkeypatch, {"parse.pd": "parse.pd"},
                      "parse", "parse.pd", *flags)
    assert out == (GOLDEN / golden).read_text()


def test_max_parse_golden(capsys, tmp_path, monkeypatch):
    out = _golden_run(capsys, tmp_path, monkeypatch, MAX_PAIR, "parse", "diff_new.maxpat")
    assert out == (GOLDEN / "parse_max.json").read_text()


def test_parse_dumps_canonical_ir(hello_world_pair, capsys):
    old, _ = hello_world_pair
    code, out, _ = run_cli(capsys, "parse", str(old))
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "visual-ir/1"
    assert set(doc["subtrees"]) == {"obj-0", "obj-1"}


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("#Z nope;")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 4


def test_parse_unknown_extension_needs_language(tmp_path, capsys):
    mystery = tmp_path / "patch.dat"
    mystery.write_text(HELLO_WORLD_PD)
    code, _, err = run_cli(capsys, "parse", str(mystery))
    assert code == 2
    assert "--language" in err
    code, out, _ = run_cli(capsys, "parse", str(mystery), "--language", "pure-data")
    assert code == 0


# --- analyze -------------------------------------------------------------


def _seed_repo(repo_fixture, tmp_path):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": PATCH_V3}, "c3 repair", T[2])
    issues = tmp_path / "issues.jsonl"
    issues.write_text(
        json.dumps({"issue_key": "GH-1", "fixing_commit_ids": [c3],
                    "report_time": "2021-05-02T12:00:00Z"}) + "\n"
    )
    return c2, c3, issues


def test_analyze_fixture_repo(repo_fixture, tmp_path, capsys):
    c2, c3, issues = _seed_repo(repo_fixture, tmp_path)
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path),
        "--issues", str(issues), "--method", "both",
        "--no-timing", "--out", str(out_path),
    )
    assert code == 0
    report = loads_report(out_path.read_text())
    assert [f["commit"] for f in report["fixing_commits"]] == [c3]
    entry = report["fixing_commits"][0]
    assert entry["language"] == "pure-data"
    assert entry["diffs"]["p.pd"]["nodes_touched"] == 1
    vc = entry["methods"]["szz-vc-max"]
    assert [c["inducing_commit"] for c in vc["candidates"]] == [c2]
    assert vc["candidates"][0]["matched_paths"] == [
        {"path": "root[obj-0]['serialized_contents']['text']", "effective_depth": 3}
    ]
    textual = entry["methods"]["textual"]
    assert [c["inducing_commit"] for c in textual["candidates"]] == [c2]
    assert not vc["unfiltered"]


def test_analyze_no_fixing_commits(repo_fixture, tmp_path, capsys):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    empty_issues = tmp_path / "none.jsonl"
    empty_issues.write_text("")
    code, out, _ = run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path),
        "--issues", str(empty_issues), "--no-timing",
    )
    assert code == 0
    assert loads_report(out)["fixing_commits"] == []


def test_analyze_nonexistent_repo_exits_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--repo", str(tmp_path / "missing"))
    assert code == 3
    assert "repository" in err


def test_analyze_invalid_config_exits_2(repo_fixture, tmp_path, capsys):
    config = tmp_path / "config.json"
    for text in ('{"depth": -2}', '{"parallelism": 2}', '{"message_regex": 5}'):
        config.write_text(text)
        code, _, err = run_cli(
            capsys, "analyze", "--repo", str(repo_fixture.path), "--config", str(config)
        )
        assert code == 2
        assert "config error" in err


def test_analyze_is_deterministic(repo_fixture, tmp_path, capsys):
    _, _, issues = _seed_repo(repo_fixture, tmp_path)
    args = (
        "analyze", "--repo", str(repo_fixture.path), "--issues", str(issues),
        "--method", "both", "--no-timing",
    )
    code1, first, _ = run_cli(capsys, *args)
    code2, second, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert first == second


def _cli_output(hash_seed: int, cwd: Path, *argv) -> bytes:
    """stdout of ``szzvc`` run in a fresh interpreter with one hash seed."""
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": str(Path(szzvc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "from szzvc.cli import entrypoint; entrypoint()", *argv],
        cwd=cwd, env=env, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_does_not_depend_on_the_hash_seed(repo_fixture):
    # sets of strings iterate in an order that the hash seed chooses
    old_max, new_max = ((GOLDEN / name).read_text() for name in MAX_PAIR)
    repo_fixture.commit({"p.pd": PATCH_V1, "m.maxpat": old_max}, "c1", T[0])
    repo_fixture.commit({"p.pd": PATCH_V2, "m.maxpat": new_max}, "c2", T[1])
    repo_fixture.commit({"p.pd": PATCH_V3, "m.maxpat": old_max}, "fix #1", T[2])
    for cwd, argv in (
        (GOLDEN, ("diff", "diff_old.maxpat", "diff_new.maxpat", "--show-values")),
        (repo_fixture.path, ("analyze", "--repo", ".", "--no-timing", "--method", "both")),
    ):
        first, second = (_cli_output(seed, cwd, *argv) for seed in (0, 1))
        assert first and first == second, argv


def test_analyze_reports_partial_failures(repo_fixture, tmp_path, capsys):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    repo_fixture.commit({"p.pd": "#N canvas 0 0 1 1 10;\n#X msg 1 1 broke"},
                        "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": PATCH_V2}, "c3 repair", T[2])
    issues = tmp_path / "issues.jsonl"
    issues.write_text(
        json.dumps({"issue_key": "GH-2", "fixing_commit_ids": [c3]}) + "\n"
    )
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path),
        "--issues", str(issues), "--no-timing", "--out", str(out_path),
    )
    assert code == 1  # partial report written, nonzero exit
    report = loads_report(out_path.read_text())
    warnings = report["fixing_commits"][0]["warnings"]
    assert any("unparseable version" in w for w in warnings)
    assert any("time filter skipped" in w for w in warnings)

    code_strict, _, err = run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path),
        "--issues", str(issues), "--strict",
    )
    assert code_strict == 1
    assert "strict" in err


def test_analyze_env_var_config(repo_fixture, tmp_path, capsys, monkeypatch):
    _, c3, issues = _seed_repo(repo_fixture, tmp_path)
    config = tmp_path / "config.json"
    config.write_text('{"depth": 1}')
    monkeypatch.setenv("SZZVC_CONFIG", str(config))
    code, out, _ = run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path),
        "--issues", str(issues), "--no-timing",
    )
    assert code == 0
    report = loads_report(out)
    assert report["config"]["depth"] == 1
    assert "szz-vc-depth1" in report["fixing_commits"][0]["methods"]


def test_analyze_flags_override_config(repo_fixture, tmp_path, capsys):
    _, _, issues = _seed_repo(repo_fixture, tmp_path)
    config = tmp_path / "config.json"
    config.write_text('{"depth": 1, "follow_renames": true}')
    code, out, _ = run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path),
        "--issues", str(issues), "--config", str(config),
        "--depth", "max", "--follow-renames=false", "--no-timing",
    )
    assert code == 0
    report = loads_report(out)
    assert report["config"]["depth"] == "max"
    assert report["config"]["follow_renames"] is False


def test_both_methods_warn_once_per_fix_without_report_time(repo_fixture, capsys):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    repo_fixture.commit({"p.pd": PATCH_V2}, "fix #1 wiring", T[1])
    code, out, _ = run_cli(capsys, "analyze", "--repo", str(repo_fixture.path),
                           "--method", "both", "--no-timing")
    assert code == 0
    (entry,) = loads_report(out)["fixing_commits"]
    assert entry["methods"]["textual"]["unfiltered"]
    assert entry["warnings"] == [
        "time filter skipped: fixing commit has no linked report time"
    ]


def test_report_schema_roundtrip(repo_fixture, tmp_path, capsys):
    _, _, issues = _seed_repo(repo_fixture, tmp_path)
    code, out, _ = run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path),
        "--issues", str(issues), "--no-timing",
    )
    from szzvc.report import dumps_report

    report = loads_report(out)
    assert loads_report(dumps_report(report)) == report


# --- score ---------------------------------------------------------------


def test_score_end_to_end(repo_fixture, tmp_path, capsys):
    c2, c3, issues = _seed_repo(repo_fixture, tmp_path)
    report_path = tmp_path / "report.json"
    run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path), "--issues", str(issues),
        "--method", "both", "--no-timing", "--out", str(report_path),
    )
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text(
        json.dumps({"fixing_commit": c3, "inducing_commit": c2, "label": "TP"}) + "\n"
    )
    eval_path = tmp_path / "eval.json"
    code, out, _ = run_cli(capsys, "score", str(report_path), str(verdicts),
                           "--out", str(eval_path))
    assert code == 0
    header_lines = [l for l in out.splitlines() if l.startswith("Commit")]
    assert all(l.split() == ["Commit", "TP", "FP", "U", "TDIC", "Pr"]
               for l in header_lines)
    assert len(header_lines) == 2
    assert "szz-vc-max" in out and "textual" in out
    data = json.loads(eval_path.read_text())
    assert data["szz-vc-max"]["rows"][0]["precision"] == 1.0
    assert data["textual"]["averages"]["overall"] == 1.0


def test_score_malformed_verdicts_exits_2(repo_fixture, tmp_path, capsys):
    _, _, issues = _seed_repo(repo_fixture, tmp_path)
    report_path = tmp_path / "report.json"
    run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path), "--issues", str(issues),
        "--no-timing", "--out", str(report_path),
    )
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely: not json\n")
    code, _, err = run_cli(capsys, "score", str(report_path), str(bad))
    assert code == 2
    assert "malformed verdict" in err


def test_score_missing_verdict_exits_2_unless_partial(repo_fixture, tmp_path, capsys):
    _, _, issues = _seed_repo(repo_fixture, tmp_path)
    report_path = tmp_path / "report.json"
    run_cli(
        capsys, "analyze", "--repo", str(repo_fixture.path), "--issues", str(issues),
        "--no-timing", "--out", str(report_path),
    )
    empty = tmp_path / "none.jsonl"
    empty.write_text("")
    code, _, err = run_cli(capsys, "score", str(report_path), str(empty))
    assert code == 2
    assert "without a verdict" in err
    code, out, _ = run_cli(capsys, "score", str(report_path), str(empty),
                           "--allow-partial")
    assert code == 0


def _section(*candidates):
    return {"candidates": [{"inducing_commit": c} for c in candidates]}


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"schema": SCHEMA, "fixing_commits": {"c3": {}}}),
    json.dumps({"schema": SCHEMA, "fixing_commits": ["c3"]}),
    json.dumps({"schema": SCHEMA, "fixing_commits": [
        {"methods": {"textual": _section("c2")}}]}),
    json.dumps({"schema": SCHEMA, "fixing_commits": [
        {"commit": "c3", "methods": [["textual", _section("c2")]]}]}),
    json.dumps({"schema": SCHEMA, "fixing_commits": [
        {"commit": "c3", "methods": {"textual": {"candidates": "c2"}}}]}),
    json.dumps({"schema": SCHEMA, "fixing_commits": [
        {"commit": "c3", "language": ["pd"], "methods": {"textual": _section("c2")}}]}),
    json.dumps({"schema": SCHEMA, "fixing_commits": [
        {"commit": "c3", "methods": {"textual": _section(2)}}]}),
], ids=["bad-json", "commits-object", "commit-string", "no-commit", "methods-list",
        "candidates-string", "language-list", "candidate-number"])
def test_score_unusable_report_exits_2(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text(
        json.dumps({"fixing_commit": "c3", "inducing_commit": "c2", "label": "TP"}) + "\n"
    )
    code, out, err = run_cli(capsys, "score", str(report), str(verdicts),
                             "--allow-partial")
    assert code == 2
    assert "not a usable report" in err
    assert out == ""


@pytest.mark.parametrize("verdict", [
    {"fixing_commit": ["a"], "inducing_commit": "b", "label": "TP"},
    {"fixing_commit": "c3", "inducing_commit": 2, "label": "TP"},
], ids=["fixing-list", "inducing-number"])
def test_score_verdict_with_non_string_id_exits_2(tmp_path, capsys, verdict):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"schema": SCHEMA, "fixing_commits": [
        {"commit": "c3", "language": "pure-data",
         "methods": {"textual": _section("c2")}}]}))
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text("\n" + json.dumps(verdict) + "\n")
    code, out, err = run_cli(capsys, "score", str(report), str(verdicts),
                             "--allow-partial")
    assert code == 2
    assert "malformed verdict at line 2" in err
    assert out == ""


# --- history ---------------------------------------------------------------


def test_history_command(repo_fixture, capsys):
    c1 = repo_fixture.commit({"a.pd": PATCH_V1}, "c1", T[0])
    repo_fixture.move("a.pd", "b.pd")
    c2 = repo_fixture.commit({}, "c2", T[1])
    c3 = repo_fixture.commit({"b.pd": PATCH_V2}, "c3", T[2])
    code, out, _ = run_cli(capsys, "history", "b.pd",
                           "--repo", str(repo_fixture.path))
    assert code == 0
    assert out.splitlines() == [f"{c2} b.pd", f"{c1} a.pd"]
    code, out, _ = run_cli(capsys, "history", "b.pd",
                           "--repo", str(repo_fixture.path),
                           "--follow-renames=false")
    assert out.splitlines() == [f"{c2} b.pd"]


def test_history_never_existed(repo_fixture, capsys):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    code, out, err = run_cli(capsys, "history", "ghost.pd",
                             "--repo", str(repo_fixture.path))
    assert code == 3
    assert out == ""
    assert "never existed" in err

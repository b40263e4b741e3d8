import json
from datetime import datetime, timezone

import pytest

from szzvc import gitrepo as gitrepo_module
from szzvc import miner as miner_module
from szzvc.diff import MAX_DEPTH, ChangeKind
from szzvc.errors import ConfigError
from szzvc.gitrepo import ChangedFile, Repository
from szzvc.miner import (
    FixingCommit,
    InducingCandidate,
    IssueRecord,
    MinerConfig,
    filter_candidates,
    find_inducing,
    history_steps,
    identify_fixing_commits,
    language_for_path,
    load_issue_links,
)
from szzvc.ir import Language
from szzvc import report as report_module
from szzvc.report import run_analysis
from szzvc.textual import textual_find_inducing
from conftest import maxpat_doc, nested_pd

T = [f"2021-05-{day:02d}T10:00:00+00:00" for day in range(1, 10)]

PATCH_V1 = """#N canvas 0 0 450 300 12;
#X msg 50 50 hello world;
#X obj 50 120 print;
#X connect 0 0 1 0;
"""
PATCH_V2 = PATCH_V1.replace("hello world", "hello there")
PATCH_V3 = PATCH_V2.replace("hello there", "hello again")


def _repo(repo_fixture):
    return Repository(str(repo_fixture.path))


def test_config_validation():
    with pytest.raises(ConfigError):
        MinerConfig(extensions={})
    with pytest.raises(ConfigError):
        MinerConfig(depth_mode=0)
    with pytest.raises(ConfigError):
        MinerConfig(fixing_detection="psychic")
    with pytest.raises(ConfigError):
        MinerConfig(message_regex="(unclosed")
    assert MinerConfig(depth_mode=1).method_tag_vc == "szz-vc-depth1"
    assert MinerConfig().method_tag_vc == "szz-vc-max"
    # JSON values of the wrong type: "false" is truthy, ".pd" is three
    # one-letter extensions, true is depth 1 and 2.5 would be truncated
    for raw in (
        {"follow_renames": "false"},
        {"all_matches": "false"},
        {"include_layout": 1},
        {"extensions": {"pure-data": ".pd"}},
        {"extensions": {"pure-data": [".pd", 5]}},
        {"extensions": {"pure-data": [""]}},
        {"message_regex": 5},
        {"depth": True},
        {"depth": 2.5},
        {"property_filter": {"mode": "exclude-list", "keys": "rect"}},
    ):
        with pytest.raises(ConfigError):
            MinerConfig.from_dict(raw)


def test_config_roundtrip_and_unknown_keys():
    config = MinerConfig(depth_mode=2, follow_renames=False, all_matches=True)
    assert MinerConfig.from_dict(config.to_dict()) == config
    assert MinerConfig.from_dict({"depth": "2"}).depth_mode == 2
    with pytest.raises(ConfigError, match="unknown config keys"):
        MinerConfig.from_dict({"depht": 1})
    with pytest.raises(ConfigError, match="unknown config keys: parallelism"):
        MinerConfig.from_dict({"parallelism": 2})


def test_language_for_path():
    exts = MinerConfig().extensions
    assert language_for_path("x/y.pd", exts) is Language.PURE_DATA
    assert language_for_path("a.maxpat", exts) is Language.MAX_MSP
    assert language_for_path("a.MAXHELP", exts) is Language.MAX_MSP
    assert language_for_path("a.txt", exts) is None


def test_identify_from_issue_links(repo_fixture, tmp_path):
    repo_fixture.commit({"p.pd": PATCH_V1}, "start", T[0])
    fix = repo_fixture.commit({"p.pd": PATCH_V2}, "change text", T[1])
    issues = tmp_path / "issues.jsonl"
    issues.write_text(
        json.dumps(
            {
                "issue_key": "GH-7",
                "fixing_commit_ids": [fix],
                "report_time": "2021-05-01T12:00:00Z",
            }
        )
        + "\n"
    )
    config = MinerConfig(fixing_detection="explicit-list")
    found = identify_fixing_commits(
        _repo(repo_fixture), config, issue_links=load_issue_links(str(issues))
    )
    assert len(found) == 1
    assert found[0].commit_id == fix
    assert found[0].linked_issue == "GH-7"
    assert found[0].report_time == datetime(2021, 5, 1, 12, tzinfo=timezone.utc)
    assert [(c.status, c.path) for c in found[0].visual_files] == [("modified", "p.pd")]


def test_identify_requires_issue_links_in_explicit_mode(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "start", T[0])
    with pytest.raises(ConfigError, match="issue-link table"):
        identify_fixing_commits(
            _repo(repo_fixture), MinerConfig(fixing_detection="explicit-list")
        )


def test_identify_regex_drops_commits_without_visual_files(repo_fixture):
    repo_fixture.commit({"notes.txt": "x\n"}, "start", T[0])
    repo_fixture.commit({"notes.txt": "y\n"}, "fixes #1 typo", T[1])
    config = MinerConfig(fixing_detection="message-regex")
    assert identify_fixing_commits(_repo(repo_fixture), config) == []


def test_identify_both_mode_deduplicates(repo_fixture, tmp_path):
    repo_fixture.commit({"p.pd": PATCH_V1}, "start", T[0])
    fix = repo_fixture.commit({"p.pd": PATCH_V2}, "fixes #3 text bug", T[1])
    issues = tmp_path / "issues.jsonl"
    issues.write_text(
        json.dumps({"issue_key": "GH-3", "fixing_commit_ids": [fix],
                    "report_time": "2021-05-02T00:00:00Z"}) + "\n"
    )
    config = MinerConfig(fixing_detection="both")
    found = identify_fixing_commits(
        _repo(repo_fixture), config, issue_links=load_issue_links(str(issues))
    )
    assert len(found) == 1  # union semantics, not duplication
    assert found[0].linked_issue == "GH-3"  # explicit link wins: report time kept
    assert found[0].report_time is not None


def test_identify_rejects_unknown_commit_in_table(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "start", T[0])
    config = MinerConfig(fixing_detection="explicit-list")
    links = [IssueRecord("GH-9", ("0000000000000000000000000000000000000000",))]
    with pytest.raises(ConfigError, match="unknown commit"):
        identify_fixing_commits(_repo(repo_fixture), config, issue_links=links)


def test_malformed_issue_table(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"issue_key": "X"}\n')
    with pytest.raises(ConfigError, match="malformed issue link table at line 1"):
        load_issue_links(str(bad))


@pytest.mark.parametrize("record, message", [
    # a string would become its characters: ('d', 'e', 'a', ...)
    ({"issue_key": "X", "fixing_commit_ids": "deadbeef"}, "list of strings"),
    ({"issue_key": "X", "fixing_commit_ids": ["deadbeef", 7]}, "list of strings"),
    ({"issue_key": "X", "fixing_commit_ids": {"deadbeef": 1}}, "list of strings"),
    # a number would reach the report as the issue key
    ({"issue_key": 12, "fixing_commit_ids": ["deadbeef"]}, "issue_key"),
    ({"issue_key": None, "fixing_commit_ids": []}, "issue_key"),
])
def test_issue_table_values_are_type_checked(tmp_path, record, message):
    table = tmp_path / "issues.jsonl"
    good = {"issue_key": "GH-1", "fixing_commit_ids": ["cafe"]}
    table.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n")
    with pytest.raises(ConfigError,
                       match=f"malformed issue link table at line 3: .*{message}"):
        load_issue_links(str(table))
    table.write_text(json.dumps(good) + "\n")
    assert load_issue_links(str(table)) == [IssueRecord("GH-1", ("cafe",))]


def test_report_head_is_the_commit_that_was_mined(repo_fixture, monkeypatch):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    mined = repo_fixture.commit({"p.pd": PATCH_V2}, "fix #1", T[1])
    identify = report_module.identify_fixing_commits

    def identify_then_move_head(*args, **kwargs):
        found = identify(*args, **kwargs)
        repo_fixture.commit({"p.pd": PATCH_V3}, "fix #2, after mining", T[2])
        return found

    monkeypatch.setattr(report_module, "identify_fixing_commits",
                        identify_then_move_head)
    report, _ = run_analysis(str(repo_fixture.path), MinerConfig(), with_timing=False)
    assert repo_fixture._git("rev-parse", "HEAD").strip() != mined
    assert report["config"]["head"] == mined
    assert [entry["commit"] for entry in report["fixing_commits"]] == [mined]


def test_run_resolves_head_once(repo_fixture, monkeypatch):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    repo_fixture.commit({"p.pd": PATCH_V2}, "fix #1", T[1])
    real = gitrepo_module.subprocess
    commands = []  # each git process's arguments after ``git -C <path>``

    class Recording:
        def __getattr__(self, name):
            return getattr(real, name)

        def run(self, argv, *args, **kwargs):
            commands.append(argv[3:5])
            return real.run(argv, *args, **kwargs)

        def Popen(self, argv, *args, **kwargs):
            commands.append(argv[3:5])
            return real.Popen(argv, *args, **kwargs)

    monkeypatch.setattr(gitrepo_module, "subprocess", Recording())
    report, _ = run_analysis(str(repo_fixture.path), MinerConfig(),
                             methods=("szz-vc", "textual"), with_timing=False)
    assert len(report["fixing_commits"]) == 1
    assert commands.count(["rev-parse", "--verify"]) == 1, commands


@pytest.mark.parametrize("path, fix_message", [
    ("p.pd", "fix \x01 bug \x02 #1"),
    ("p\x01q.pd", "fix bug #1"),
])
def test_header_byte_in_a_message_or_a_path(repo_fixture, path, fix_message):
    # the history walk opens each commit with \x01, which a message or a
    # path may hold too
    repo_fixture.commit({path: PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({path: PATCH_V2}, "c2", T[1])
    fix = repo_fixture.commit({path: PATCH_V3}, fix_message, T[2])
    report, had_failures = run_analysis(str(repo_fixture.path), MinerConfig(),
                                        methods=("szz-vc", "textual"),
                                        with_timing=False)
    assert not had_failures
    (entry,) = report["fixing_commits"]
    assert entry["commit"] == fix
    for method in ("szz-vc-max", "textual"):
        candidates = entry["methods"][method]["candidates"]
        assert [(c["inducing_commit"], c["file_path"]) for c in candidates] == \
            [(c2, path)], method
    assert _repo(repo_fixture).commit_message(fix) == fix_message + "\n"


def _history(repo, path, before, follow_renames=True):
    steps = history_steps(repo, path, before, follow_renames=follow_renames)
    return [(step.entry.commit_id, step.path_new) for step in steps]


def test_file_history_linear(repo_fixture):
    c1 = repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": PATCH_V3}, "c3", T[2])
    repo = _repo(repo_fixture)
    assert _history(repo, "p.pd", c3) == [(c2, "p.pd"), (c1, "p.pd")]


def test_file_history_rename_follow_matches_git_follow(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": PATCH_V1}, "c1", T[0])
    repo_fixture.move("a.pd", "b.pd")
    c2 = repo_fixture.commit({}, "c2 rename", T[1])
    c3 = repo_fixture.commit({"b.pd": PATCH_V2}, "c3", T[2])
    repo = _repo(repo_fixture)

    followed = _history(repo, "b.pd", c3, follow_renames=True)
    assert followed == [(c2, "b.pd"), (c1, "a.pd")]
    # independent oracle: git's own rename-following log (minus c3 itself)
    oracle = repo_fixture.log_follow("b.pd")
    assert [rev for rev, _ in followed] == [rev for rev in oracle if rev != c3]

    assert _history(repo, "b.pd", c3, follow_renames=False) == [(c2, "b.pd")]


def _fixing(repo, commit_id, report_time=None):
    found = [
        FixingCommit(
            commit_id=commit_id,
            message=repo.commit_message(commit_id),
            report_time=report_time,
            visual_files=tuple(
                c for c in repo.changed_files(commit_id)
                if language_for_path(c.path, MinerConfig().extensions)
            ),
        )
    ]
    return found[0]


def test_find_inducing_three_commit_fixture(repo_fixture):
    # oracle: hand-walk of the 3-commit history
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": PATCH_V3}, "c3 fix", T[2])
    repo = _repo(repo_fixture)
    result = find_inducing(repo, _fixing(repo, c3), MinerConfig(depth_mode=MAX_DEPTH))
    assert len(result.candidates) == 1
    candidate = result.candidates[0]
    assert candidate.inducing_commit == c2
    assert candidate.matched_paths == (
        (("obj-0", "serialized_contents", "text"), 3),
    )
    assert not candidate.via_addition_reduction
    assert result.failures == ()
    # ancestry oracle: the blamed commit is an ancestor of the fix
    assert repo_fixture.is_ancestor(candidate.inducing_commit, c3)
    assert candidate.inducing_commit != c3


def test_hand_built_fix_reads_blob_ids_from_the_index(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": PATCH_V3}, "c3 fix", T[2])
    repo = _repo(repo_fixture)
    fixing = FixingCommit(commit_id=c3, message="c3 fix",
                          visual_files=(ChangedFile("modified", "p.pd"),))
    for find in (find_inducing, textual_find_inducing):
        result = find(repo, fixing, MinerConfig())
        assert [c.inducing_commit for c in result.candidates] == [c2], find


def test_depth1_addition_yields_no_candidates(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    with_node = PATCH_V1 + "#X obj 60 160 metro 500;\n"
    c2 = repo_fixture.commit({"p.pd": with_node}, "c2 fix adds node", T[1])
    repo = _repo(repo_fixture)
    for mode in (MAX_DEPTH, 1):
        result = find_inducing(repo, _fixing(repo, c2), MinerConfig(depth_mode=mode))
        assert result.candidates == ()


def test_addition_depth_reduction_blames_node_creator(repo_fixture):
    # oracle: hand-walk applying the depth-reduction rule
    box = {"id": "obj-1", "maxclass": "newobj", "text": "counter"}
    c1 = repo_fixture.commit({"p.maxpat": maxpat_doc([box])}, "c1", T[0])
    repo_fixture.commit({"junk.txt": "x\n"}, "c2 unrelated", T[1])
    box_after = dict(box, varname="count1")
    c3 = repo_fixture.commit({"p.maxpat": maxpat_doc([box_after])}, "c3 fix", T[2])
    repo = _repo(repo_fixture)
    result = find_inducing(repo, _fixing(repo, c3), MinerConfig(depth_mode=MAX_DEPTH))
    assert len(result.candidates) == 1
    candidate = result.candidates[0]
    assert candidate.inducing_commit == c1
    assert candidate.via_addition_reduction
    assert candidate.matched_paths == (
        (("obj-1", "serialized_contents", "varname"), 1),
    )
    # reduction always lands strictly above the original depth
    assert all(depth < 3 for _, depth in candidate.matched_paths)


def test_most_recent_match_wins_and_all_matches_collects(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": PATCH_V3}, "c3", T[2])
    c4 = repo_fixture.commit(
        {"p.pd": PATCH_V3.replace("hello again", "hello world")}, "c4 fix", T[3]
    )
    repo = _repo(repo_fixture)
    latest = find_inducing(repo, _fixing(repo, c4), MinerConfig())
    assert [c.inducing_commit for c in latest.candidates] == [c3]

    every = find_inducing(repo, _fixing(repo, c4), MinerConfig(all_matches=True))
    assert {c.inducing_commit for c in every.candidates} == {c2, c3}


def test_unparseable_history_version_is_skipped(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    broken = repo_fixture.commit({"p.pd": "#N canvas 0 0 1 1 10;\n#X msg 5 5 oops"},
                                 "c3 hand-edited", T[2])
    c4 = repo_fixture.commit({"p.pd": PATCH_V3}, "c4", T[3])
    c5 = repo_fixture.commit(
        {"p.pd": PATCH_V3.replace("hello again", "back")}, "c5 fix", T[4]
    )
    repo = _repo(repo_fixture)
    result = find_inducing(repo, _fixing(repo, c5), MinerConfig())
    # c4 and the broken commit both lack a comparable IR pair (the broken
    # version sits on one side of each); matching continues back to c2
    assert [c.inducing_commit for c in result.candidates] == [c2]
    failed_commits = {f.commit_id for f in result.failures}
    assert failed_commits == {broken, c4}


def test_unparseable_fixing_side_records_failure(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": "#X not a canvas;"}, "c2 fix", T[1])
    repo = _repo(repo_fixture)
    result = find_inducing(repo, _fixing(repo, c2), MinerConfig())
    assert result.candidates == ()
    assert len(result.failures) == 1
    assert result.failures[0].commit_id == c2


def test_depth1_superset_of_max_on_fixture(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    repo_fixture.commit({"p.pd": PATCH_V3}, "c3", T[2])
    c4 = repo_fixture.commit(
        {"p.pd": PATCH_V3.replace("hello again", "done")}, "c4 fix", T[3]
    )
    repo = _repo(repo_fixture)
    fixing = _fixing(repo, c4)
    for all_matches in (False, True):
        at_max = find_inducing(
            repo, fixing, MinerConfig(depth_mode=MAX_DEPTH, all_matches=all_matches)
        )
        at_one = find_inducing(
            repo, fixing, MinerConfig(depth_mode=1, all_matches=all_matches)
        )
        assert {c.inducing_commit for c in at_max.candidates} <= {
            c.inducing_commit for c in at_one.candidates
        }


def test_filter_candidates_by_report_time():
    def cand(when):
        return InducingCandidate(
            fixing_commit="f", inducing_commit=f"i-{when.day}", file_path="p.pd",
            matched_paths=(), via_addition_reduction=False,
            inducing_commit_time=when,
        )

    early = cand(datetime(2021, 4, 30, tzinfo=timezone.utc))
    late = cand(datetime(2021, 5, 2, tzinfo=timezone.utc))
    fixing = FixingCommit(
        commit_id="f", message="",
        report_time=datetime(2021, 5, 1, tzinfo=timezone.utc),
    )
    outcome = filter_candidates([early, late], fixing)
    assert outcome.kept == (early,)
    assert outcome.dropped == (late,)
    assert not outcome.unfiltered

    no_report = FixingCommit(commit_id="f", message="")
    outcome = filter_candidates([early, late], no_report)
    assert outcome.kept == (early, late)
    assert outcome.unfiltered


def test_renamed_file_fix_walks_old_name(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"a.pd": PATCH_V2}, "c2", T[1])
    repo_fixture.move("a.pd", "b.pd")
    (repo_fixture.path / "b.pd").write_text(PATCH_V3)
    c3 = repo_fixture.commit({}, "c3 fix renames and edits", T[2])
    repo = _repo(repo_fixture)
    fixing = _fixing(repo, c3)
    assert fixing.visual_files[0].status == "renamed-from"
    result = find_inducing(repo, fixing, MinerConfig())
    assert [c.inducing_commit for c in result.candidates] == [c2]
    assert result.candidates[0].file_path == "b.pd"


def test_merge_commits_walk_first_parent(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    main_edit = repo_fixture.commit({"p.pd": PATCH_V2}, "c2 main", T[1])
    repo_fixture.checkout("side", create=True, at="HEAD~1")
    repo_fixture.commit({"other.pd": PATCH_V1}, "side adds other", T[2])
    repo_fixture.checkout("main")
    merge = repo_fixture.merge("side", "merge side", T[3])
    fix = repo_fixture.commit({"p.pd": PATCH_V3}, "fix", T[4])
    repo = _repo(repo_fixture)
    steps = history_steps(repo, "p.pd", fix)
    assert [s.entry.commit_id for s in steps][0:1] == [main_edit]
    result = find_inducing(repo, _fixing(repo, fix), MinerConfig())
    assert [c.inducing_commit for c in result.candidates] == [main_edit]
    assert merge not in {c.inducing_commit for c in result.candidates}


def _count_parses(monkeypatch) -> list[str]:
    texts = []
    real = miner_module.parse_pd

    def counting(text, *args, **kwargs):
        texts.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(miner_module, "parse_pd", counting)
    return texts


def test_run_parses_each_blob_once(repo_fixture, monkeypatch):
    versions = [PATCH_V1, PATCH_V2, PATCH_V3, PATCH_V1,
                PATCH_V3.replace("hello again", "hi"), PATCH_V2,
                PATCH_V2.replace("print", "print out")]
    for day, text in enumerate(versions):
        message = "fix #%d" % day if day in (2, 4, 6) else f"c{day}"
        repo_fixture.commit({"p.pd": text}, message, T[day])
    texts = _count_parses(monkeypatch)
    steps = []
    real = miner_module.diff_ir

    def counting(old, new, old_version, new_version):
        steps.append((old_version, new_version))
        return real(old, new, old_version=old_version, new_version=new_version)

    monkeypatch.setattr(miner_module, "diff_ir", counting)
    report, had_failures = run_analysis(str(repo_fixture.path), MinerConfig(),
                                        with_timing=False)
    assert not had_failures
    assert len(report["fixing_commits"]) == 3
    blobs = set(repo_fixture._git("log", "--format=%T", "p.pd").split())
    blobs = {repo_fixture._git("rev-parse", f"{tree}:p.pd").strip() for tree in blobs}
    assert len(blobs) == 5  # seven versions, two of them repeats
    assert len(texts) == len(set(texts)) == len(blobs)
    # seven steps, the creation included; a fix is a step of every later
    # fix, and one diff serves both
    assert len(steps) == len(set(steps)) == 7


def test_unparseable_version_warns_in_every_fix(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    broken = repo_fixture.commit({"p.pd": "#N canvas 0 0 1 1 10;\n#X msg 5 5 oops"},
                                 "c3 hand-edited", T[2])
    repo_fixture.commit({"p.pd": PATCH_V3}, "c4", T[3])
    repo_fixture.commit({"p.pd": PATCH_V3.replace("hello again", "back")},
                        "fix #1", T[4])
    repo_fixture.commit({"p.pd": PATCH_V3.replace("hello again", "back again")},
                        "fix #2", T[5])
    report, had_failures = run_analysis(str(repo_fixture.path), MinerConfig(),
                                        with_timing=False)
    assert had_failures
    entries = report["fixing_commits"]
    assert len(entries) == 2
    for entry in entries:
        assert any(w.startswith(f"unparseable version {broken}:p.pd")
                   for w in entry["warnings"])


def test_over_deep_version_is_unparseable_and_the_run_goes_on(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    # deep enough to overflow the stack of a recursive parse or diff
    deep = repo_fixture.commit({"p.pd": nested_pd(1000)}, "c3 nest", T[2])
    c4 = repo_fixture.commit({"p.pd": PATCH_V3}, "c4", T[3])
    repo_fixture.commit({"p.pd": PATCH_V3.replace("hello again", "back")},
                        "c5 fix #1", T[4])
    report, had_failures = run_analysis(str(repo_fixture.path), MinerConfig(),
                                        methods=("szz-vc", "textual"),
                                        with_timing=False)
    assert had_failures
    (entry,) = report["fixing_commits"]
    # the deep version is one side of the diffs of c3 and c4
    assert sorted(w.split(":")[0] for w in entry["warnings"]
                  if "subcanvases nest deeper than" in w) == sorted(
        f"unparseable version {commit}" for commit in (deep, c4)
    )
    candidates = entry["methods"]["szz-vc-max"]["candidates"]
    assert [c["inducing_commit"] for c in candidates] == [c2]
    assert entry["methods"]["textual"]["candidates"]


def test_unchanged_blob_across_rename_is_parsed_once(repo_fixture, monkeypatch):
    repo_fixture.commit({"a.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"a.pd": PATCH_V2}, "c2", T[1])
    repo_fixture.move("a.pd", "b.pd")
    renamed = repo_fixture.commit({}, "c3 pure rename", T[2])
    fix = repo_fixture.commit({"b.pd": PATCH_V3}, "c4 fix", T[3])
    repo = _repo(repo_fixture)
    steps = history_steps(repo, "b.pd", fix)
    assert [s.entry.commit_id for s in steps][:2] == [renamed, c2]
    assert steps[0].old_blob == steps[0].new_blob
    texts = _count_parses(monkeypatch)
    result = find_inducing(repo, _fixing(repo, fix), MinerConfig())
    assert sorted(texts) == sorted([PATCH_V1, PATCH_V2, PATCH_V3])
    assert [(c.inducing_commit, c.file_path, c.matched_paths)
            for c in result.candidates] == [
        (c2, "b.pd", ((("obj-0", "serialized_contents", "text"), 3),)),
    ]

from datetime import datetime, timezone

import pytest

from szzvc.errors import GitError
from szzvc.gitrepo import Repository

T1 = "2021-01-01T10:00:00+00:00"
T2 = "2021-01-02T10:00:00+00:00"
T3 = "2021-01-03T10:00:00+00:00"
T4 = "2021-01-04T10:00:00+00:00"


def test_unreadable_repository(tmp_path):
    with pytest.raises(GitError, match="not a readable git repository"):
        Repository(str(tmp_path / "nope"))


def test_log_statuses_and_rename(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "one\n"}, "c1", T1)
    c2 = repo_fixture.commit({"a.pd": "one\ntwo\n"}, "c2", T2)
    repo_fixture.move("a.pd", "b.pd")
    c3 = repo_fixture.commit({"junk.txt": "x\n"}, "c3", T3)
    c4 = repo_fixture.commit({"b.pd": None}, "c4", T4)

    repo = Repository(str(repo_fixture.path))
    entries = repo.first_parent_log("HEAD")
    assert [e.commit_id for e in entries] == [c4, c3, c2, c1]
    assert entries[0].changes[0].status == "deleted"
    by_path = {c.path: c for c in entries[1].changes}
    assert by_path["b.pd"].status == "renamed-from"
    assert by_path["b.pd"].old_path == "a.pd"
    assert by_path["junk.txt"].status == "added"
    assert entries[2].changes == (entries[2].changes[0],)
    assert entries[2].changes[0].status == "modified"
    assert entries[3].changes[0].status == "added"  # root commit vs empty tree
    assert entries[3].parents == ()
    assert entries[0].commit_time == datetime(2021, 1, 4, 10, tzinfo=timezone.utc)


def test_merge_diffs_against_first_parent(repo_fixture):
    repo_fixture.commit({"a.pd": "base\n"}, "c1", T1)
    main_tip = repo_fixture.commit({"main.txt": "m\n"}, "c2", T2)
    repo_fixture.checkout("side", create=True, at="HEAD~1")
    repo_fixture.commit({"a.pd": "base\nside\n"}, "side work", T3)
    repo_fixture.checkout("main")
    merge = repo_fixture.merge("side", "merge side", T4)

    repo = Repository(str(repo_fixture.path))
    entries = repo.first_parent_log("HEAD")
    assert entries[0].commit_id == merge
    assert entries[0].parents[0] == main_tip
    # the merge's first-parent diff shows the side branch's file change
    assert [(c.status, c.path) for c in entries[0].changes] == [("modified", "a.pd")]
    # the side commit itself is not on the first-parent chain
    assert len(entries) == 3


def test_read_file_and_absences(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "hello\n"}, "c1", T1)
    repo = Repository(str(repo_fixture.path))
    assert repo.read_file(c1, "a.pd") == b"hello\n"
    assert repo.read_file(c1, "missing.pd") is None
    with pytest.raises(GitError):
        repo.rev_parse("deadbeef")


def test_changed_files_and_messages(repo_fixture):
    repo_fixture.commit({"a.pd": "x\n"}, "c1", T1)
    c2 = repo_fixture.commit({"a.pd": "y\n", "b.txt": "t\n"}, "fix: solves #12", T2)
    repo = Repository(str(repo_fixture.path))
    changed = repo.changed_files(c2)
    assert {(c.status, c.path) for c in changed} == {
        ("modified", "a.pd"), ("added", "b.txt")
    }
    commits = repo.all_commits("HEAD")
    assert commits[0][0] == c2
    assert "solves #12" in commits[0][2]
    assert repo.commit_message(c2).startswith("fix: solves #12")
    assert repo.is_ancestor(commits[1][0], c2)
    assert not repo.is_ancestor(c2, commits[1][0])


def _hunks(repo_fixture, old: str, new: str):
    c1 = repo_fixture.commit({"f.pd": old}, "c1", T1)
    c2 = repo_fixture.commit({"f.pd": new}, "c2", T2)
    return Repository(str(repo_fixture.path)).line_hunks(c1, "f.pd", c2, "f.pd")


@pytest.mark.parametrize("old, new, hunks", [
    ("a\nb\n", "a\nx\nb\n", ((1, 0, 2, 1),)),  # pure insertion: -a,0
    ("a\nb\nc\n", "a\nc\n", ((2, 1, 1, 0),)),  # pure deletion: +c,0
    ("a\nb", "a\nc", ((2, 1, 2, 1),)),  # last line without a newline
    ("a\nb", "a\nb\n", ((2, 1, 2, 1),)),  # adding that newline changes it
    ("a\x00\nb\n", "a\x00\nc\n", ((2, 1, 2, 1),)),  # NUL byte: still text
    ("x\n", "x\n", ()),
])
def test_line_hunks(repo_fixture, old, new, hunks):
    assert _hunks(repo_fixture, old, new) == hunks


def test_line_hunks_across_paths_and_renames(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "one\ntwo\n"}, "c1", T1)
    repo_fixture.move("a.pd", "b.pd")
    c2 = repo_fixture.commit({"b.pd": "zero\none\ntwo\n"}, "c2", T2)
    repo = Repository(str(repo_fixture.path))
    assert repo.line_hunks(c1, "a.pd", c2, "b.pd") == ((0, 0, 1, 1),)
    with pytest.raises(GitError):
        repo.line_hunks(c1, "b.pd", c2, "b.pd")


def test_line_hunks_ignore_diff_config(repo_fixture):
    # histogram aligns the first pair differently; an inter-hunk context
    # would merge the two hunks of the second pair
    c1 = repo_fixture.commit({"f.pd": "\n\nb\na\na\n", "g.pd": "a\nb\nc\nd\ne\n"},
                             "c1", T1)
    c2 = repo_fixture.commit({"f.pd": "a\n\t}\nb\n", "g.pd": "A\nb\nc\nD\ne\n"},
                             "c2", T2)
    expected = {
        "f.pd": ((1, 4, 0, 0), (5, 0, 2, 2)),
        "g.pd": ((1, 1, 1, 1), (4, 1, 4, 1)),
    }

    def hunks():
        repo = Repository(str(repo_fixture.path))
        return {path: repo.line_hunks(c1, path, c2, path) for path in expected}

    assert hunks() == expected
    for key, value in (("diff.algorithm", "histogram"), ("diff.external", "false"),
                       ("color.diff", "always"), ("diff.interHunkContext", "3"),
                       ("diff.indentHeuristic", "false")):
        repo_fixture._git("config", key, value)
    assert hunks() == expected
    # the config does act on a git diff without the pinned flags
    plain = repo_fixture._git("diff", "--no-ext-diff", "--no-color", "-U0",
                              f"{c1}:f.pd", f"{c2}:f.pd")
    assert "@@ -1,4 +0,0 @@" not in plain


def test_line_hunks_are_memoized(repo_fixture, monkeypatch):
    c1 = repo_fixture.commit({"f.pd": "a\n"}, "c1", T1)
    c2 = repo_fixture.commit({"f.pd": "b\n"}, "c2", T2)
    repo = Repository(str(repo_fixture.path))
    first = repo.line_hunks(c1, "f.pd", c2, "f.pd")
    monkeypatch.setattr(repo, "_run", None)  # a second git call would fail
    assert repo.line_hunks(c1, "f.pd", c2, "f.pd") is first

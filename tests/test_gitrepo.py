import sys
import threading
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


def test_read_file_through_the_batch_reader(repo_fixture):
    files = {
        "dir/nested.pd": "nested\n",
        "with space .pd": "spaced\n",
        "line\nbreak.pd": "newline in name\n",
        "ends in cr.pd\r": "carriage return\n",
        "nul.pd": "a\x00b\n",
        "crlf.pd": "one\r\ntwo\r\n",
        "no-final-newline.pd": "last",
    }
    c1 = repo_fixture.commit(files, "c1", T1)
    repo = Repository(str(repo_fixture.path))
    for path, content in files.items():
        assert repo.read_file(c1, path) == content.encode()
    assert repo.read_file(c1, "missing.pd") is None
    assert repo.read_file(c1, "dir") is None  # a tree, not a file
    assert repo.read_file("0" * 40, "nul.pd") is None
    assert repo.read_file(c1, "nul.pd") == b"a\x00b\n"  # the reader is in sync


def test_newline_path_reads_without_the_batch_reader(repo_fixture):
    c1 = repo_fixture.commit({"line\nbreak.pd": "x\n"}, "c1", T1)
    repo = Repository(str(repo_fixture.path))
    assert repo.read_file(c1, "line\nbreak.pd") == b"x\n"
    assert repo._batch is None


def test_concurrent_reads_share_one_reader(repo_fixture):
    files = {f"f{k}.pd": f"{k}\n" * (k * 700 + 1) for k in range(6)}
    c1 = repo_fixture.commit(files, "c1", T1)
    repo = Repository(str(repo_fixture.path))
    mismatches = []

    def reader(offset: int) -> None:
        paths = sorted(files)
        for n in range(60):
            path = paths[(n + offset) % len(paths)]
            if repo.read_file(c1, path) != files[path].encode():
                mismatches.append(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    process = repo._batch
    repo.close()
    assert process.returncode is not None and repo._batch is None
    assert repo.read_file(c1, "f1.pd") == files["f1.pd"].encode()  # restarts
    repo.close()


def test_context_manager_ends_the_reader(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "a\n"}, "c1", T1)
    with Repository(str(repo_fixture.path)) as repo:
        assert repo.read_file(c1, "a.pd") == b"a\n"
        process = repo._batch
    assert process.returncode is not None


_STATUS = {"M": "modified", "A": "added", "D": "deleted", "R": "renamed-from"}


def _direct_first_parent_walk(repo_fixture, commit: str) -> list[tuple]:
    """Oracle: (id, time, parents, changes) of ``git log --first-parent
    --name-status`` from ``commit``, with changes as sorted tuples."""
    out = repo_fixture._git(
        "log", "--first-parent", "--diff-merges=first-parent", "--find-renames",
        "--name-status", "--format=%x01%H %ct %P", commit,
    )
    walk = []
    for chunk in out.split("\x01")[1:]:
        header, *lines = chunk.strip("\n").split("\n")
        commit_id, epoch, *parents = header.split()
        changes = []
        for line in filter(None, lines):
            status, *paths = line.split("\t")
            old_path = paths[0] if status[0] == "R" else None
            changes.append((_STATUS[status[0]], paths[-1], old_path))
        walk.append((commit_id, datetime.fromtimestamp(int(epoch), tz=timezone.utc),
                     tuple(parents), sorted(changes)))
    return walk


def test_index_matches_a_direct_first_parent_walk(repo_fixture, monkeypatch):
    repo_fixture.commit({"a.pd": "a\n", "b.pd": "b\n"}, "c1", T1)
    repo_fixture.checkout("side", create=True)
    repo_fixture.commit({"a.pd": "a\nside\n"}, "fix: side #1", T2)
    repo_fixture.move("b.pd", "c.pd")
    repo_fixture.commit({"d.pd": "d\n"}, "side rename", T3)
    repo_fixture.checkout("main")
    repo_fixture.commit({"e.pd": "e\n", "b.pd": "b\nmain\n"}, "main work", T3)
    repo_fixture.merge("side", "merge side", T4)
    repo_fixture.commit({"a.pd": None}, "fix: drop a #2", T4)
    commits = repo_fixture._git("rev-list", "--all").split()
    assert len(commits) == 6

    repo = Repository(str(repo_fixture.path))
    assert [c for c, _, _ in repo.all_commits("HEAD")] == \
        repo_fixture._git("log", "--format=%H").split()
    # every commit is indexed now: no name resolution, no further process
    monkeypatch.setattr(repo, "rev_parse", None)
    monkeypatch.setattr(repo, "_run", None)
    for commit in commits:
        walk = [(e.commit_id, e.commit_time, e.parents,
                 sorted((c.status, c.path, c.old_path) for c in e.changes))
                for e in repo.first_parent_log(commit)]
        assert walk == _direct_first_parent_walk(repo_fixture, commit)
        assert sorted((c.status, c.path, c.old_path)
                      for c in repo.changed_files(commit)) == walk[0][3]
        assert repo.commit_time(commit) == walk[0][1]
        message = repo_fixture._git("log", "-1", "--format=%B", commit)
        assert repo.commit_message(commit) + "\n" == message


def test_changed_files_carry_blob_ids(repo_fixture):
    repo_fixture.commit({"a.pd": "a\n", "gone.pd": "g\n"}, "c1", T1)
    repo_fixture.move("a.pd", "b.pd")
    c2 = repo_fixture.commit({"b.pd": "a\nb\n", "gone.pd": None, "new.pd": "n\n"},
                             "c2", T2)
    repo = Repository(str(repo_fixture.path))

    def blob(spec: str) -> str:
        return repo_fixture._git("rev-parse", spec).strip()

    by_path = {c.path: c for c in repo.changed_files(c2)}
    assert by_path["b.pd"].status == "renamed-from"
    assert (by_path["b.pd"].old_blob, by_path["b.pd"].new_blob) == \
        (blob(f"{c2}^:a.pd"), blob(f"{c2}:b.pd"))
    assert (by_path["gone.pd"].old_blob, by_path["gone.pd"].new_blob) == \
        (blob(f"{c2}^:gone.pd"), None)
    assert (by_path["new.pd"].old_blob, by_path["new.pd"].new_blob) == \
        (None, blob(f"{c2}:new.pd"))

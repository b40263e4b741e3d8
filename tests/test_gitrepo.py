import gc
import os
import re
import subprocess
from datetime import datetime, timezone

import pytest

from conftest import RepoFixture, within
from oracle import rev_parse_commit
from szzvc import gitrepo
from szzvc.errors import GitError
from szzvc.gitrepo import Repository

T1 = "2021-01-01T10:00:00+00:00"
T2 = "2021-01-02T10:00:00+00:00"
T3 = "2021-01-03T10:00:00+00:00"
T4 = "2021-01-04T10:00:00+00:00"


def test_unreadable_repository(tmp_path):
    path = tmp_path / "nope"
    with pytest.raises(GitError, match="not a readable git repository") as caught:
        Repository(str(path))
    # the constructor's words, then git's own
    git = subprocess.run(["git", "-C", str(path), "log"], capture_output=True,
                         text=True)
    assert git.returncode != 0 and git.stderr.strip()
    assert str(caught.value).startswith(f"not a readable git repository: {path}: ")
    assert str(caught.value).endswith(git.stderr.strip())


def test_repository_with_an_unborn_head_is_readable(repo_fixture):
    with Repository(str(repo_fixture.path)) as repo:
        with pytest.raises(GitError, match="unknown revision 'HEAD'"):
            repo.rev_parse("HEAD")


def test_head_is_read_once_when_the_repository_opens(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "a\n"}, "c1", T1)
    with Repository(str(repo_fixture.path)) as repo:
        c2 = repo_fixture.commit({"a.pd": "b\n"}, "c2", T2)
        assert repo.rev_parse("HEAD") == c1
        assert repo.log_entry("HEAD").commit_id == c1
        assert [c for c, _, _ in repo.all_commits("HEAD")] == [c1]
        with Repository(str(repo_fixture.path)) as reopened:
            assert reopened.rev_parse("HEAD") == c2
            assert [c for c, _, _ in reopened.all_commits("HEAD")] == [c2, c1]


def test_a_work_tree_file_named_head_does_not_break_the_walk(repo_fixture):
    # ``git log HEAD`` alone fails here: HEAD names a revision and a file
    c1 = repo_fixture.commit({"a.pd": "a\n"}, "c1", T1)
    c2 = repo_fixture.commit({"HEAD": "not a ref\n"}, "c2", T2)
    with Repository(str(repo_fixture.path)) as repo:
        assert repo.rev_parse("HEAD") == c2
        assert [c for c, _, _ in repo.all_commits("HEAD")] == [c2, c1]
        assert [e.commit_id for e in repo.first_parent_log(c1)] == [c1]


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


def _blob(repo_fixture, rev: str, path: str) -> str:
    return repo_fixture._git("rev-parse", f"{rev}:{path}").strip()


def _step_hunks(repo, repo_fixture, old: str, new: str, path: str,
                new_path: str | None = None):
    """``line_hunks`` of ``path`` (renamed to ``new_path``) from ``old`` to
    ``new``, given as commit ids."""
    return repo.line_hunks(old, new, _blob(repo_fixture, old, path),
                           _blob(repo_fixture, new, new_path or path))


def _hunks(repo_fixture, old: str, new: str):
    c1 = repo_fixture.commit({"f.pd": old}, "c1", T1)
    c2 = repo_fixture.commit({"f.pd": new}, "c2", T2)
    return _step_hunks(Repository(str(repo_fixture.path)), repo_fixture,
                       c1, c2, "f.pd")


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
    assert _step_hunks(repo, repo_fixture, c1, c2, "a.pd", "b.pd") == ((0, 0, 1, 1),)
    with pytest.raises(GitError):  # no such blob
        repo.line_hunks(c1, c2, "f" * 40, _blob(repo_fixture, c2, "b.pd"))


def test_line_hunks_ignore_diff_config(repo_fixture, monkeypatch):
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
        return {path: _step_hunks(repo, repo_fixture, c1, c2, path)
                for path in expected}

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
    # GIT_DIFF_OPTS=-u3 would give every hunk three lines of context
    monkeypatch.setenv("GIT_DIFF_OPTS", "-u3")
    assert hunks() == expected


def test_line_hunks_are_memoized(repo_fixture, monkeypatch):
    c1 = repo_fixture.commit({"f.pd": "a\n"}, "c1", T1)
    c2 = repo_fixture.commit({"f.pd": "b\n"}, "c2", T2)
    repo = Repository(str(repo_fixture.path))
    first = _step_hunks(repo, repo_fixture, c1, c2, "f.pd")
    repo.close()
    # a second git call would fail
    monkeypatch.setattr(repo, "_run", None)
    monkeypatch.setattr(repo, "_diffs", None)
    assert _step_hunks(repo, repo_fixture, c1, c2, "f.pd") is first


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


def test_read_blobs_reads_every_id_in_requests_under_4_kib(repo_fixture):
    files = {f"p{k:03d}.pd": f"patch {k}\n" for k in range(210)}
    c1 = repo_fixture.commit(files, "c1", T1)
    blobs = {path: _blob(repo_fixture, c1, path) for path in files}
    with Repository(str(repo_fixture.path)) as repo:
        requests = []
        ask = repo._objects.ask

        def recording(request, read_reply):
            requests.append(request)
            return ask(request, read_reply)

        repo._objects.ask = recording
        contents = repo.read_blobs(list(blobs.values()))
        assert len(requests) == -(-len(files) // gitrepo._IDS_PER_REQUEST) > 1
        assert all(len(request) < 4096 for request in requests)
        assert b"".join(requests).decode().split() == list(blobs.values())
        assert list(contents) == list(blobs.values())  # in the order asked
        assert contents == {blobs[path]: content.encode()
                            for path, content in files.items()}


def test_an_id_that_names_no_blob_reads_as_none(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "a\n"}, "c1", T1)
    blob = _blob(repo_fixture, c1, "a.pd")
    tree = repo_fixture._git("rev-parse", f"{c1}^{{tree}}").strip()
    absent = "0123456789abcdef" * 2 + "01234567"
    with Repository(str(repo_fixture.path)) as repo:
        assert repo.read_blobs([absent]) == {absent: None}
        assert repo.read_blobs([absent, tree, c1, blob]) == {
            absent: None, tree: None,
            c1: None,  # as a gitlink's id
            blob: b"a\n"}
        for name in ("HEAD", f"{blob}\nHEAD", blob[:12]):  # not full ids
            with pytest.raises(GitError, match="not an object id"):
                repo.read_blobs([name])
            with pytest.raises(GitError, match="not an object id"):
                repo.read_blobs([blob, name])
        assert repo.read_blobs([blob]) == {blob: b"a\n"}  # in sync


def test_a_batch_read_in_part_resets_the_reader(repo_fixture, monkeypatch):
    files = {f"p{k}.pd": f"patch {k}\n" for k in range(5)}
    c1 = repo_fixture.commit(files, "c1", T1)
    blobs = [_blob(repo_fixture, c1, path) for path in files]
    expected = {blob: content.encode() for blob, content in zip(blobs, files.values())}

    def run():
        with Repository(str(repo_fixture.path)) as repo:
            repo.read_blobs(blobs[:1])
            read = gitrepo._read_object
            replies = []

            def interrupted(out):
                if len(replies) == 2:
                    raise _Interrupted
                replies.append(read(out))
                return replies[-1]

            with monkeypatch.context() as patch:
                patch.setattr(gitrepo, "_read_object", interrupted)
                with pytest.raises(_Interrupted):
                    repo.read_blobs(blobs)
            assert repo._objects.proc is None
            assert repo.read_blobs(blobs[4:]) == {blobs[4]: b"patch 4\n"}
            assert repo.read_blobs(blobs) == expected
            assert repo.read_file(c1, "p4.pd") == b"patch 4\n"

    within(60, run)


def test_a_name_holding_a_nul_names_no_object(repo_fixture):
    # git reads a batch name only up to its NUL: ``HEAD\0junk`` is not HEAD
    c1 = repo_fixture.commit({"a.pd": "a\n"}, "c1", T1)
    with Repository(str(repo_fixture.path)) as repo:
        assert repo.read_file(c1, "a.pd\x00junk") is None
        with pytest.raises(GitError, match=re.escape("unknown revision 'HEAD\\x00junk'")):
            repo.rev_parse("HEAD\x00junk")
        assert repo.read_file(c1, "a.pd") == b"a\n"


@pytest.fixture(scope="module")
def named_repo(tmp_path_factory):
    """A merge at HEAD, a branch ``side`` and an annotated tag ``v1``, with
    the ids of the first commit, of HEAD's tree and of a blob."""
    fixture = RepoFixture(tmp_path_factory.mktemp("named"))
    fixture.commit({"a.pd": "a\n"}, "c1", T1)
    fixture._git("tag", "-a", "v1", "-m", "release")
    fixture.checkout("side", create=True)
    fixture.commit({"s.pd": "s\n"}, "side work", T2)
    fixture.checkout("main")
    fixture.commit({"a.pd": "a\nb\n"}, "c3", T3)
    fixture.merge("side", "merge side", T4)
    ids = {key: fixture._git("rev-parse", spec).strip()
           for key, spec in (("c1", "v1^{commit}"), ("tree", "HEAD^{tree}"),
                             ("blob", "HEAD:a.pd"))}
    return fixture, ids


# a name, with ids filled in by str.format, and whether git resolves it
# to a commit
@pytest.mark.parametrize("template, resolves", [
    ("{c1}", True),
    ("{c1:.8}", True),
    ("side", True),
    ("v1", True),
    ("HEAD~1", True),
    ("@", True),
    ("HEAD^2", True),
    (":/c3", True),
    ("{tree}", False),
    ("{blob}", False),
    ("HEAD~1..HEAD", False),
    ("--all", False),
    ("", False),
    (" HEAD", False),
    ("HEAD ", False),
    ("nope", False),
    (":/no such message", False),
    ("HEAD\r", False),
    ("HEAD\nHEAD", False),
])
def test_rev_parse_resolves_names_as_git_does(named_repo, template, resolves):
    fixture, ids = named_repo
    name = template.format(**ids)
    expected = rev_parse_commit(fixture.path, name)
    assert (expected is not None) == resolves
    with Repository(str(fixture.path)) as repo:
        if resolves:
            assert repo.rev_parse(name) == expected
        else:
            with pytest.raises(GitError, match=re.escape(repr(name))):
                repo.rev_parse(name)
        assert repo.read_file("HEAD", "a.pd") == b"a\nb\n"  # the reader is in sync


def test_newline_path_is_resolved_by_a_one_shot_rev_parse(repo_fixture, git_processes):
    # the batch protocol cannot carry the name; it can carry the blob's id
    c1 = repo_fixture.commit({"line\nbreak.pd": "x\n", "a.pd": "a\n"}, "c1", T1)
    repo = Repository(str(repo_fixture.path))
    assert repo.read_file(c1, "line\nbreak.pd") == b"x\n"
    reader = repo._objects.proc
    assert git_processes == [["log", "-z"], ["rev-parse", "--verify"],
                             ["cat-file", "--batch"]]
    assert repo.read_file(c1, "a.pd") == b"a\n"  # the same reader, in sync
    assert repo._objects.proc is reader
    repo.close()


def test_context_manager_ends_the_reader(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "a\n"}, "c1", T1)
    with Repository(str(repo_fixture.path)) as repo:
        assert repo.read_file(c1, "a.pd") == b"a\n"
        process = repo._objects.proc
    assert process.returncode is not None and repo._objects.proc is None
    assert repo.read_file(c1, "a.pd") == b"a\n"  # a new reader starts
    assert repo._objects.proc not in (None, process)
    repo.close()


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


# --- the diff reader behind line_hunks -------------------------------------

_HUNK_HEADER = re.compile(rb"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@", re.MULTILINE)


def _one_shot_hunks(repo_fixture, old_blob: str, new_blob: str) -> tuple:
    """Oracle: the hunk headers of one ``git diff -U0`` between two blobs."""
    proc = subprocess.run(
        ["git", "-C", str(repo_fixture.path), "diff", "--no-color", "--no-ext-diff",
         "--text", "--diff-algorithm=myers", "--indent-heuristic",
         "--inter-hunk-context=0", "-U0", old_blob, new_blob],
        capture_output=True, check=True,
    )
    return tuple((int(a), int(b) if b else 1, int(c), int(d) if d else 1)
                 for a, b, c, d in _HUNK_HEADER.findall(proc.stdout))


def _steps(repo) -> list[tuple[str, str, str, str]]:
    """(old commit, new commit, old blob, new blob) of every first-parent
    change that has both sides."""
    return [(entry.parents[0], entry.commit_id, change.old_blob, change.new_blob)
            for entry in repo.first_parent_log("HEAD") if entry.parents
            for change in entry.changes if change.old_blob and change.new_blob]


def _no_one_shot(monkeypatch, repo) -> None:
    """Fail on any further one-shot git process: every pair must come from
    the diff reader's replies."""
    def one_shot(*args):
        raise AssertionError(f"one-shot git {args}")
    monkeypatch.setattr(repo, "_run", one_shot)


def _requests(monkeypatch, repo) -> list[bytes]:
    """Every request the diff reader is sent from now on."""
    sent = []
    ask = repo._diffs.ask
    monkeypatch.setattr(repo._diffs, "ask",
                        lambda request, read: sent.append(request) or ask(request, read))
    return sent


def test_one_diff_reader_serves_every_step(repo_fixture, monkeypatch):
    # a.pd flips between two versions, so its blob pair comes back
    flip = ("x\ny\n", "x\nY\n")
    versions = [{"a.pd": flip[k % 2], "b.pd": f"b\n{k}\n" * 3,
                 "c.pd": "c\n" * k + "end\n"} for k in range(6)]
    commits = [repo_fixture.commit(files, f"c{k}", T1)
               for k, files in enumerate(versions)]
    repo = Repository(str(repo_fixture.path))
    steps = _steps(repo)
    assert len(steps) == 15  # three files in each of five steps
    _no_one_shot(monkeypatch, repo)
    sent = _requests(monkeypatch, repo)

    def run():
        pair = (_blob(repo_fixture, commits[0], "a.pd"),
                _blob(repo_fixture, commits[1], "a.pd"))
        first = repo.line_hunks(commits[0], commits[1], *pair)
        process = repo._diffs.proc
        # served from the first reply: never asked for the step c2 -> c3
        assert repo.line_hunks(commits[2], commits[3], *pair) is first
        assert len(sent) == 1
        got = {step: repo.line_hunks(*step) for step in steps}
        assert len(sent) == 5  # one request per step, not per file
        assert repo._diffs.proc is process and process.poll() is None
        return got

    got = within(60, run)
    assert got == {step: _one_shot_hunks(repo_fixture, *step[2:]) for step in steps}

    def again():
        # the reader is asked again, with blob reads between its replies
        repo._hunks.clear()
        for n, step in enumerate(steps):
            assert repo.line_hunks(*step) == got[step]
            commit, files = commits[n % 6], versions[n % 6]
            for path, text in files.items():
                assert repo.read_file(commit, path) == text.encode()
        assert len(sent) == 10

    within(60, again)
    repo.close()
    # memoized by blob pair: no further git call of any kind
    monkeypatch.setattr(repo, "_diffs", None)
    monkeypatch.setattr(repo, "_run", None)
    assert {step: repo.line_hunks(*step) for step in steps} == got


def test_missing_pair_raises_and_the_reader_stays_in_sync(repo_fixture, monkeypatch):
    c1 = repo_fixture.commit({"f.pd": "a\nb\n"}, "c1", T1)
    c2 = repo_fixture.commit({"f.pd": "a\nc\n"}, "c2", T2)
    c3 = repo_fixture.commit({"f.pd": "z\na\nc\n"}, "c3", T3)
    blobs = [_blob(repo_fixture, c, "f.pd") for c in (c1, c2, c3)]
    repo = Repository(str(repo_fixture.path))
    sent = _requests(monkeypatch, repo)

    def run():
        with pytest.raises(GitError):  # the reply has no such pair
            repo.line_hunks(c1, c2, "f" * 40, "e" * 40)
        process = repo._diffs.proc
        assert repo.line_hunks(c2, c3, blobs[1], blobs[2]) == ((0, 0, 1, 1),)
        assert repo.line_hunks(c1, c2, blobs[0], blobs[1]) == ((2, 1, 2, 1),)
        assert repo._diffs.proc is process
        with pytest.raises(GitError, match="commit ids"):
            repo.line_hunks("HEAD~1", "HEAD", blobs[1], blobs[2] + "\n")

    within(60, run)
    assert len(sent) == 2  # the first reply also held the pair of c1 -> c2
    repo.close()


def test_reply_framing_survives_header_like_content(repo_fixture, monkeypatch):
    tricky = ("diff --git a/x b/x\nindex 0..1\n@@ -1 +1 @@\n\n\x0c\n"
              "a\x00b\n--- a/x\n+++ b/x\n\\ No newline at end of file\nlast")
    edited = ("diff --git a/y b/y\nindex 0..1\n@@ -2 +2 @@\n\x0c\nnew\x00\n"
              "a\x00b\n--- a/x\n+++ b/y\n\\ No newline at end of file\n\nlast\n")
    c1 = repo_fixture.commit({"a.pd": "1\n", "tricky.pd": tricky, "z.pd": "z\n"},
                             "c1", T1)
    c2 = repo_fixture.commit({"a.pd": "2\n", "tricky.pd": edited, "z.pd": "\n\nz"},
                             "c2", T2)
    # a second reply after the tricky one: a desync would show in it
    repo_fixture.commit({"tricky.pd": tricky, "z.pd": "z\n"}, "c3", T3)
    repo = Repository(str(repo_fixture.path))
    steps = _steps(repo)
    assert [step[:2] for step in steps] == [(c2, repo.rev_parse("HEAD"))] * 2 + [(c1, c2)] * 3
    _no_one_shot(monkeypatch, repo)
    got = within(60, lambda: [repo.line_hunks(*step) for step in steps])
    assert got == [_one_shot_hunks(repo_fixture, *step[2:]) for step in steps]
    assert all(got)
    repo.close()


def test_line_hunks_on_quoted_and_non_ascii_paths(repo_fixture, monkeypatch):
    names = ["with space.pd", 'quo"te.pd', "tab\there.pd", "back\\slash.pd",
             "ünïcödé.pd", "日本語.pd", "line\nbreak.pd", "ä.pd"]
    repo_fixture.commit({name: f"{name}\none\ntwo\nthree\n" for name in names},
                        "c1", T1)
    repo_fixture.move("ä.pd", "ö.pd")
    repo_fixture.commit({**{name: f"{name}\none\n2\nthree\n" for name in names[:-1]},
                         "ö.pd": "ä.pd\none\ntwo\nthree\nfour\n"}, "c2", T2)
    repo = Repository(str(repo_fixture.path))
    statuses = {c.path: c.status for c in repo.changed_files("HEAD")}
    assert statuses["ö.pd"] == "renamed-from"
    steps = _steps(repo)
    assert len(steps) == len(names)
    _no_one_shot(monkeypatch, repo)
    got = within(60, lambda: [repo.line_hunks(*step) for step in steps])
    assert got == [_one_shot_hunks(repo_fixture, *step[2:]) for step in steps]
    repo.close()


def test_file_to_symlink_change_is_diffed_by_blob(repo_fixture):
    # a patch splits a type change into a deletion and a creation, so the
    # reply has no pair for it; the line diff of the two blobs still holds
    c1 = repo_fixture.commit({"l.pd": "target\nmore\n"}, "c1", T1)
    (repo_fixture.path / "l.pd").unlink()
    os.symlink("target", repo_fixture.path / "l.pd")
    c2 = repo_fixture.commit({}, "c2", T2)
    repo = Repository(str(repo_fixture.path))
    (step,) = _steps(repo)
    assert step[:2] == (c1, c2)
    assert within(60, lambda: repo.line_hunks(*step)) == \
        _one_shot_hunks(repo_fixture, *step[2:]) == ((1, 2, 1, 1),)
    repo.close()


class _Interrupted(BaseException):
    pass


def test_diff_reader_lifetime(repo_fixture, monkeypatch):
    c1 = repo_fixture.commit({"f.pd": "a\n"}, "c1", T1)
    c2 = repo_fixture.commit({"f.pd": "b\n"}, "c2", T2)
    step = (c1, c2, _blob(repo_fixture, c1, "f.pd"), _blob(repo_fixture, c2, "f.pd"))

    def run():
        with Repository(str(repo_fixture.path)) as repo:
            assert repo.line_hunks(*step) == ((1, 1, 1, 1),)
            assert repo.read_file(c1, "f.pd") == b"a\n"
            processes = (repo._diffs.proc, repo._objects.proc)
        assert all(p.returncode is not None for p in processes)

        repo = Repository(str(repo_fixture.path))
        repo.line_hunks(*step)
        process = repo._diffs.proc
        repo.close()
        assert process.returncode is not None and repo._diffs.proc is None

        # a reply read in part ends the process; the next request restarts it
        def half_read(out):
            out.readline()
            raise _Interrupted

        repo._hunks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(gitrepo, "_read_patch", half_read)
            with pytest.raises(_Interrupted):
                repo.line_hunks(*step)
        assert repo._diffs.proc is None
        assert repo.line_hunks(*step) == ((1, 1, 1, 1),)
        process = repo._diffs.proc
        del repo  # the finalizer ends what close() was not called for
        gc.collect()
        assert process.returncode is not None

    within(60, run)

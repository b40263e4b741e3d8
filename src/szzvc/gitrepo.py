"""Read-only access to a local git clone: one indexed history walk, one blob
reader, one diff reader.

History comes from one ``git log -z --raw`` walk over every ancestor of the
queried head, with merges diffed against their first parent, renames
detected and full blob ids kept. It is parsed once into a commit index (id to
parents, committer time, message and changed files). ``log_entry``,
``all_commits``, ``first_parent_log``, ``changed_files``, ``commit_time`` and
``commit_message`` answer from the index. A name that is not an indexed
commit id costs a ``rev-parse``, and a commit outside the index one more walk,
over its own ancestors.

Two long-lived git processes answer the reads, each started by its first
request and spoken to one request/reply pair at a time under its own lock,
so threads may share one instance. ``close()``, or leaving a ``with`` block,
ends both; a ``weakref.finalize`` ends each when the instance is garbage
collected or the interpreter exits; a reply read only in part (an exception
or an interrupt mid-read) ends its process too, and the next request starts
a new one.

- File contents come from ``git cat-file --batch``. The batch protocol reads
  one name per line and drops a carriage return before the newline, so a
  spec containing ``\\n`` or ending in ``\\r`` is read with a one-shot
  ``cat-file blob``.
- ``line_hunks`` reads the hunk headers of ``git diff-tree --stdin -p -U0``
  between two commits, with every flag that affects the line alignment
  pinned so that user or repository config cannot change it; every git
  process starts without ``GIT_DIFF_OPTS``, whose ``-u<n>`` would override
  the pinned ``-U0``. It is run with no pathspec, since a pathspec changes
  how renames pair up against the index's unrestricted walk. A request is
  ``<new> <old>`` and an empty line; diff-tree copies that empty line to its
  output and flushes, and a ``-U0`` patch holds no empty line, so the echo
  ends the reply. The hunks of every file section in a reply are memoized by
  (old blob, new blob) from its ``index`` line. A patch splits a change
  between file and symlink into a deletion and a creation, so such a pair is
  not in the reply; it is diffed by a one-shot ``git diff`` of the two blobs.

Commits and blobs are immutable, so the index and the caches never go stale.
"""

from __future__ import annotations

import os
import re
import subprocess
import threading
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO, TypeVar

from .errors import GitError

_HDR = "\x01"
_SEP = "\x02"

# git diff flags that fix the line alignment whatever the config says
_DIFF_FLAGS = (
    "--no-color", "--no-ext-diff", "--no-textconv", "--text",
    "--diff-algorithm=myers", "--indent-heuristic", "--inter-hunk-context=0",
    "-U0",
)
_HUNK_HEADER = re.compile(rb"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@",
                          re.MULTILINE)
_INDEX_LINE = re.compile(rb"index ([0-9a-f]+)\.\.([0-9a-f]+)")
_OBJECT_ID = re.compile(r"[0-9a-f]{40}(?:[0-9a-f]{24})?")

# (old_start, old_count, new_start, new_count) of one ``git diff -U0`` hunk;
# a start with a zero count is the line just before the empty range
Hunk = tuple[int, int, int, int]


@dataclass(frozen=True)
class ChangedFile:
    status: str  # modified | added | deleted | renamed-from
    path: str
    old_path: str | None = None  # set for renamed-from
    # blob ids of the two sides, None for an absent side; left out of
    # equality, so a change compares equal with or without them
    old_blob: str | None = field(default=None, compare=False)
    new_blob: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class LogEntry:
    commit_id: str
    commit_time: datetime
    parents: tuple[str, ...]
    changes: tuple[ChangedFile, ...]


def _blob(oid: str) -> str | None:
    return None if oid.strip("0") == "" else oid


def _change(raw: str, paths: list[str]) -> ChangedFile | None:
    """One ``--raw`` entry (``:mode mode old new status``) and its paths."""
    _, _, old_oid, new_oid, status = raw[1:].split(" ")
    old_blob, new_blob = _blob(old_oid), _blob(new_oid)
    code = status[0]
    if code == "M" or code == "T":
        return ChangedFile("modified", paths[0], old_blob=old_blob, new_blob=new_blob)
    if code == "A" or code == "C":
        return ChangedFile("added", paths[-1], new_blob=new_blob)
    if code == "D":
        return ChangedFile("deleted", paths[0], old_blob=old_blob)
    if code == "R":
        return ChangedFile("renamed-from", paths[1], old_path=paths[0],
                           old_blob=old_blob, new_blob=new_blob)
    return None  # unmerged/unknown entries are not analyzable changes


def _hunk(header: re.Match) -> Hunk:
    old_start, old_count, new_start, new_count = header.groups()
    return (int(old_start), int(old_count) if old_count else 1,
            int(new_start), int(new_count) if new_count else 1)


def _git_env() -> dict[str, str]:
    return {name: value for name, value in os.environ.items()
            if name != "GIT_DIFF_OPTS"}


def _end_process(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.close()  # end of input: the reader exits
    finally:
        proc.wait()
        proc.stdout.close()


_Reply = TypeVar("_Reply")


class _Reader:
    """One long-lived git process answering requests on its pipes, one
    request/reply pair at a time."""

    def __init__(self, argv: list[str]):
        self._argv = argv
        self.proc: subprocess.Popen | None = None
        self._end: weakref.finalize | None = None
        self._lock = threading.Lock()

    def ask(self, request: bytes,
            read_reply: Callable[[BinaryIO], _Reply]) -> _Reply:
        with self._lock:
            try:
                if self.proc is None:
                    self.proc = subprocess.Popen(
                        self._argv, stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        env=_git_env(),
                    )
                    self._end = weakref.finalize(self, _end_process, self.proc)
                self.proc.stdin.write(request)
                self.proc.stdin.flush()
                return read_reply(self.proc.stdout)
            except BaseException:
                self._close()  # a half-read reply would desync the next
                raise

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._end is not None:
            self._end()
        self.proc = self._end = None


def _read_blob(out: BinaryIO) -> bytes | None:
    """One ``cat-file --batch`` reply: the blob, or None for anything else."""
    header = out.readline().split()
    if not header:
        raise GitError("git cat-file --batch ended unexpectedly")
    if header[-1] in (b"missing", b"ambiguous"):
        return None
    _, kind, size = header
    data = out.read(int(size) + 1)[:-1]  # content, then LF
    if len(data) != int(size):
        raise GitError("git cat-file --batch ended unexpectedly")
    return data if kind == b"blob" else None


def _read_patch(out: BinaryIO) -> dict[tuple[str, str], tuple[Hunk, ...]]:
    """The hunks of each file section of one ``diff-tree --stdin`` reply, by
    (old blob, new blob); the reply ends at the echoed empty line.

    Every content line starts with one of ``+- \\``, so only header lines
    start with ``index`` or ``@@``. Each section with hunks has its
    ``index`` line before them; a pure rename or a mode change has neither."""
    by_pair: dict[tuple[str, str], list[Hunk]] = {}
    hunks: list[Hunk] = []  # of the section being read
    for line in iter(out.readline, b"\n"):
        if not line:
            raise GitError("git diff-tree --stdin ended unexpectedly")
        if line[:1] in b"+- \\":
            continue
        if line.startswith(b"@@"):
            hunks.append(_hunk(_HUNK_HEADER.match(line)))
        elif line.startswith(b"index "):
            old_blob, new_blob = _INDEX_LINE.match(line).groups()
            hunks = by_pair[old_blob.decode(), new_blob.decode()] = []
    return {pair: tuple(hunks) for pair, hunks in by_pair.items()}


class Repository:
    def __init__(self, path: str):
        self.path = str(path)
        self._entries: dict[str, LogEntry] = {}
        self._messages: dict[str, str] = {}
        self._walks: dict[str, tuple[str, ...]] = {}  # walked head -> log order
        self._walk_lock = threading.Lock()
        self._blobs = _Reader(["git", "-C", self.path, "cat-file", "--batch"])
        self._diffs = _Reader([
            "git", "-C", self.path, "diff-tree", "--stdin", "--no-commit-id",
            "-r", "-M", "-p", "--full-index", *_DIFF_FLAGS,
        ])
        self._hunks: dict[tuple[str, str], tuple[Hunk, ...]] = {}
        try:
            self._run("rev-parse", "--git-dir")
        except GitError as exc:
            raise GitError(f"not a readable git repository: {self.path}") from exc

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the blob and diff readers; a later request starts a new one."""
        self._blobs.close()
        self._diffs.close()

    def _run(self, *args: str) -> bytes:
        proc = subprocess.run(
            ["git", "-C", self.path, *args],
            capture_output=True, env=_git_env(),
        )
        if proc.returncode != 0:
            raise GitError(
                f"git {' '.join(args[:2])} failed: "
                f"{proc.stderr.decode('utf-8', 'replace').strip()}"
            )
        return proc.stdout

    def rev_parse(self, rev: str) -> str:
        return self._run("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()

    def _indexed(self, rev: str) -> str:
        """Commit id of ``rev``; the commit and its ancestors are indexed."""
        if rev in self._entries:
            return rev
        commit_id = self.rev_parse(rev)
        if commit_id not in self._entries:
            self._walk(commit_id)
        return commit_id

    def _walk(self, head_id: str) -> None:
        """Index ``head_id`` and every ancestor from one ``git log --raw``."""
        with self._walk_lock:
            if head_id in self._walks:
                return
            out = self._run(
                "log", "-z", "--root", "--diff-merges=first-parent",
                "--find-renames", "--raw", "--no-abbrev",
                f"--format={_HDR}%H{_SEP}%ct{_SEP}%P{_SEP}%B", head_id,
            ).decode("utf-8", "replace")
            # a message or a path holds any byte but NUL: read NUL-separated
            # fields, where a header opens a commit and a raw entry (after a
            # newline when it is the commit's first) takes its path fields
            commits: list[tuple[str, list[ChangedFile]]] = []
            fields = iter(out.split("\x00"))
            for text in fields:
                if text.startswith(_HDR):
                    commits.append((text[1:], []))
                elif meta := text.lstrip("\n"):
                    n_paths = 2 if meta.rsplit(" ", 1)[1][0] in "RC" else 1
                    change = _change(meta, [next(fields) for _ in range(n_paths)])
                    if change is not None:
                        commits[-1][1].append(change)
            entries: dict[str, LogEntry] = {}
            messages: dict[str, str] = {}
            for header, changes in commits:
                commit_id, epoch, parents, message = header.split(_SEP, 3)
                messages[commit_id] = message
                entries[commit_id] = LogEntry(
                    commit_id=commit_id,
                    commit_time=datetime.fromtimestamp(int(epoch), tz=timezone.utc),
                    parents=tuple(parents.split()),
                    changes=tuple(changes),
                )
            # readers take no lock: an id becomes visible with its ancestors
            self._messages.update(messages)
            self._entries.update(entries)
            self._walks[head_id] = tuple(entries)

    def log_entry(self, rev: str) -> LogEntry:
        """The indexed entry of one commit: time, parents and changes."""
        return self._entries[self._indexed(rev)]

    def commit_time(self, rev: str) -> datetime:
        return self.log_entry(rev).commit_time

    def commit_message(self, rev: str) -> str:
        return self._messages[self._indexed(rev)]

    def read_file(self, rev: str, path: str) -> bytes | None:
        """File content at a revision, or None when absent there or not a
        file (a tree or a gitlink)."""
        spec = f"{rev}:{path}"
        if "\n" in spec or spec.endswith("\r"):
            proc = subprocess.run(
                ["git", "-C", self.path, "cat-file", "blob", spec],
                capture_output=True, env=_git_env(),
            )
            return proc.stdout if proc.returncode == 0 else None
        return self._blobs.ask(os.fsencode(spec) + b"\n", _read_blob)

    def line_hunks(self, old_commit: str, new_commit: str, old_blob: str,
                   new_blob: str) -> tuple[Hunk, ...]:
        """Changed line ranges from blob ``old_blob`` to blob ``new_blob``, in
        file order, as the step from commit ``old_commit`` to commit
        ``new_commit`` changes them; memoized by blob pair. Pass full commit
        ids; equal blobs (a pure rename, a mode change) need no request."""
        if old_blob == new_blob:
            return ()
        key = (old_blob, new_blob)
        if key not in self._hunks:
            if not (_OBJECT_ID.fullmatch(old_commit)
                    and _OBJECT_ID.fullmatch(new_commit)):
                raise GitError(f"not a pair of commit ids: {old_commit!r}, "
                               f"{new_commit!r}")
            self._hunks.update(self._diffs.ask(
                f"{new_commit} {old_commit}\n\n".encode(), _read_patch))
        if key not in self._hunks:  # a change between file and symlink
            self._hunks[key] = tuple(map(_hunk, _HUNK_HEADER.finditer(
                self._run("diff", *_DIFF_FLAGS, old_blob, new_blob))))
        return self._hunks[key]

    def first_parent_log(self, head: str) -> tuple[LogEntry, ...]:
        """First-parent history of ``head`` (inclusive), newest first, each
        entry carrying its rename-detected changes vs its first parent."""
        entry = self.log_entry(head)
        chain = [entry]
        while entry.parents:
            entry = self._entries[entry.parents[0]]
            chain.append(entry)
        return tuple(chain)

    def all_commits(self, head: str) -> tuple[tuple[str, datetime, str], ...]:
        """(id, committer time, full message) for every ancestor of ``head``,
        newest first. Used for fixing-commit identification."""
        head_id = self._indexed(head)
        self._walk(head_id)  # a no-op once ``head_id`` headed a walk
        return tuple(
            (commit_id, self._entries[commit_id].commit_time, self._messages[commit_id])
            for commit_id in self._walks[head_id]
        )

    def changed_files(self, rev: str) -> tuple[ChangedFile, ...]:
        """Changes of one commit vs its first parent (full tree for a root)."""
        return self.log_entry(rev).changes

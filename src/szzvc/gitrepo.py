"""Read-only access to a local git clone: one indexed history walk, one blob
reader.

History comes from one ``git log -z --raw`` walk over every ancestor of the
queried head, with merges diffed against their first parent, renames
detected and full blob ids kept. It is parsed once into a commit index (id to
parents, committer time, message and changed files). ``all_commits``,
``first_parent_log``, ``changed_files``, ``commit_time`` and
``commit_message`` answer from the index. A name that is not an indexed
commit id costs a ``rev-parse``, and a commit outside the index one more walk,
over its own ancestors.

File contents come from one long-lived ``git cat-file --batch`` process,
started by the first read. A lock serialises its request/response pairs, so
threads may share one instance. ``close()``, or leaving a ``with``
block, ends the process; a ``weakref.finalize`` ends it when the instance is
garbage collected or the interpreter exits. The batch protocol reads one
name per line and drops a carriage return before the newline, so a spec
containing ``\\n`` or ending in ``\\r`` is read with a one-shot
``cat-file blob``.

``line_hunks`` reads the hunk headers of one ``git diff -U0`` between two
blobs, with every flag that affects the line alignment pinned so that user
or repository config cannot change it; the hunks are memoized by their
arguments (callers pass commit ids).

Commits and blobs are immutable, so the index and the caches never go stale.
"""

from __future__ import annotations

import os
import re
import subprocess
import threading
import weakref
from dataclasses import dataclass, field
from datetime import datetime, timezone

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


def _end_batch(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.close()  # end of input: cat-file exits
    finally:
        proc.wait()
        proc.stdout.close()


class Repository:
    def __init__(self, path: str):
        self.path = str(path)
        self._entries: dict[str, LogEntry] = {}
        self._messages: dict[str, str] = {}
        self._walks: dict[str, tuple[str, ...]] = {}  # walked head -> log order
        self._walk_lock = threading.Lock()
        self._hunk_cache: dict[tuple[str, str, str, str], tuple[Hunk, ...]] = {}
        self._batch: subprocess.Popen | None = None
        self._batch_end: weakref.finalize | None = None
        self._batch_lock = threading.Lock()
        try:
            self._run("rev-parse", "--git-dir")
        except GitError as exc:
            raise GitError(f"not a readable git repository: {self.path}") from exc

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the blob reader; a later read starts a new one."""
        with self._batch_lock:
            self._close_batch()

    def _close_batch(self) -> None:
        if self._batch_end is not None:
            self._batch_end()
        self._batch = self._batch_end = None

    def _run(self, *args: str) -> bytes:
        proc = subprocess.run(
            ["git", "-C", self.path, *args],
            capture_output=True,
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
            entries: dict[str, LogEntry] = {}
            messages: dict[str, str] = {}
            for chunk in out.split(_HDR)[1:]:
                # header NUL, then a newline and the raw entries when any
                header, _, raw = chunk.partition("\x00")
                commit_id, epoch, parents, message = header.split(_SEP, 3)
                fields = iter(raw.lstrip("\n").split("\x00"))
                changes = []
                for meta in fields:
                    if not meta:
                        continue  # the terminator of the last path
                    n_paths = 2 if meta.rsplit(" ", 1)[1][0] in "RC" else 1
                    change = _change(meta, [next(fields) for _ in range(n_paths)])
                    if change is not None:
                        changes.append(change)
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

    def commit_time(self, rev: str) -> datetime:
        return self._entries[self._indexed(rev)].commit_time

    def commit_message(self, rev: str) -> str:
        return self._messages[self._indexed(rev)]

    def read_file(self, rev: str, path: str) -> bytes | None:
        """File content at a revision, or None when absent there or not a
        file (a tree or a gitlink)."""
        spec = f"{rev}:{path}"
        if "\n" in spec or spec.endswith("\r"):
            proc = subprocess.run(
                ["git", "-C", self.path, "cat-file", "blob", spec],
                capture_output=True,
            )
            return proc.stdout if proc.returncode == 0 else None
        with self._batch_lock:
            try:
                return self._batch_read(spec)
            except BaseException:
                self._close_batch()  # a half-read reply would desync the next
                raise

    def _batch_read(self, spec: str) -> bytes | None:
        if self._batch is None:
            self._batch = subprocess.Popen(
                ["git", "-C", self.path, "cat-file", "--batch"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
            self._batch_end = weakref.finalize(self, _end_batch, self._batch)
        self._batch.stdin.write(os.fsencode(spec) + b"\n")
        self._batch.stdin.flush()
        header = self._batch.stdout.readline().split()
        if not header:
            raise GitError("git cat-file --batch ended unexpectedly")
        if header[-1] in (b"missing", b"ambiguous"):
            return None
        _, kind, size = header
        data = self._batch.stdout.read(int(size) + 1)[:-1]  # content, then LF
        if len(data) != int(size):
            raise GitError("git cat-file --batch ended unexpectedly")
        return data if kind == b"blob" else None

    def line_hunks(self, old_rev: str, old_path: str, new_rev: str,
                   new_path: str) -> tuple[Hunk, ...]:
        """Changed line ranges from ``old_rev:old_path`` to
        ``new_rev:new_path``, in file order; memoized, so pass commit ids.
        Both blobs must exist."""
        key = (old_rev, old_path, new_rev, new_path)
        if key not in self._hunk_cache:
            out = self._run("diff", *_DIFF_FLAGS,
                            f"{old_rev}:{old_path}", f"{new_rev}:{new_path}")
            self._hunk_cache[key] = tuple(
                (int(old_start), int(old_count) if old_count else 1,
                 int(new_start), int(new_count) if new_count else 1)
                for old_start, old_count, new_start, new_count
                in _HUNK_HEADER.findall(out)
            )
        return self._hunk_cache[key]

    def first_parent_log(self, head: str) -> tuple[LogEntry, ...]:
        """First-parent history of ``head`` (inclusive), newest first, each
        entry carrying its rename-detected changes vs its first parent."""
        entry = self._entries[self._indexed(head)]
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
        return self._entries[self._indexed(rev)].changes

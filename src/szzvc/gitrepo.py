"""Read-only access to a local git clone: one indexed history walk, one
object reader, one diff reader.

History comes from one ``git log -z --raw`` walk over every ancestor of the
queried head, with merges diffed against their first parent, renames
detected and full blob ids kept (``--diff-merges`` needs git 2.31 or later).
It is parsed once into a commit index (id to parents, committer time,
message and changed files). ``log_entry``, ``all_commits``,
``first_parent_log``, ``changed_files``, ``commit_time`` and
``commit_message`` answer from the index.

Opening a ``Repository`` starts one git process, the walk of ``HEAD``: it
shows the repository readable, resolves ``HEAD`` and indexes its history, so
finding the fixing commits by their messages starts no other process. HEAD
is read once, at open: a commit made later is not ``HEAD`` to this instance.
Any other name that is not an indexed commit id is resolved by the object
reader, and a commit outside the index costs one more walk, over its own
ancestors.

Beside the walks, two long-lived git processes answer requests, one
request/reply pair at a time. Each starts with its first request: the object
reader with the first ``read_file`` or ``read_blobs``, or the first name to
resolve (``rev_parse`` of any name but ``HEAD``, or a name that is not an
indexed id given to the index's readers), and the diff reader with the first
``line_hunks`` that is not memoized. ``close()``, or leaving a ``with``
block, ends both; a ``weakref.finalize`` ends each when the instance is
garbage collected or the interpreter exits; a reply read only in part (an
exception or an interrupt mid-read) ends its process too, and the next
request starts a new one.

- ``git cat-file --batch`` answers ``read_file`` with file contents and
  ``rev_parse`` with the commit ``<rev>^{commit}`` (or ``<rev>``) names. The batch
  protocol reads one name per line, drops a carriage return before the
  newline and ends a name at a NUL. So a name holding a NUL names no object,
  and a name holding ``\\n`` or ending in ``\\r`` is first resolved to an
  object id by a one-shot ``rev-parse --verify``. ``read_blobs`` reads
  blobs by their ids, which skips the commit, tree and subtree lookups of
  ``<rev>:<path>``, and pipelines them: it writes the ids in requests of
  under 4 KiB, each read whole before the next is written, so git never
  blocks on a full reply pipe while a request is still being written.
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
# ids per pipelined ``cat-file --batch`` request: a sha256 id and its newline
# are 65 bytes, and a request stays under 4 KiB
_IDS_PER_REQUEST = 4095 // 65

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
    message: str


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

    def ask(self, request: bytes,
            read_reply: Callable[[BinaryIO], _Reply]) -> _Reply:
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
            self.close()  # a half-read reply would desync the next
            raise

    def close(self) -> None:
        if self._end is not None:
            self._end()
        self.proc = self._end = None


def _batch_carries(name: str) -> bool:
    """Whether ``cat-file --batch`` reads ``name`` as sent: it reads one name
    per line, drops a carriage return before the newline and ends a name at
    a NUL."""
    return not ("\n" in name or "\x00" in name or name.endswith("\r"))


# (type, object id, content) of one ``cat-file --batch`` reply; the type is
# b"missing" or b"ambiguous", with an empty id and content, when the name
# names no single object
_Object = tuple[bytes, bytes, bytes]
_NO_OBJECT: _Object = (b"missing", b"", b"")


def _read_object(out: BinaryIO) -> _Object:
    """One ``cat-file --batch`` reply, read whole (a commit's or a tree's
    content too) so that the next reply starts on its header."""
    header = out.readline()
    if not header:
        raise GitError("git cat-file --batch ended unexpectedly")
    status = header.rsplit(None, 1)[-1]  # ``<name> missing``: a name may hold spaces
    if status in (b"missing", b"ambiguous"):
        return status, b"", b""
    oid, kind, size = header.split()
    data = out.read(int(size) + 1)[:-1]  # content, then LF
    if len(data) != int(size):
        raise GitError("git cat-file --batch ended unexpectedly")
    return kind, oid, data


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
        self._walks: dict[str, tuple[str, ...]] = {}  # walked head -> log order
        self._objects = _Reader(["git", "-C", self.path, "cat-file", "--batch"])
        self._diffs = _Reader([
            "git", "-C", self.path, "diff-tree", "--stdin", "--no-commit-id",
            "-r", "-M", "-p", "--full-index", *_DIFF_FLAGS,
        ])
        self._hunks: dict[tuple[str, str], tuple[Hunk, ...]] = {}
        try:
            self._head = self._walk("HEAD")  # None for an unborn HEAD
        except GitError as exc:
            raise GitError(f"not a readable git repository: {self.path}: "
                           f"{exc}") from exc

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the object and diff readers; a later request starts a new one."""
        self._objects.close()
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

    def _object(self, name: str) -> _Object:
        """The object reader's reply for ``name``. A name the batch protocol
        cannot carry is first resolved to an id by a one-shot ``rev-parse``,
        unless it holds a NUL: no object name does, nor can an argument."""
        if not _batch_carries(name):
            if "\x00" in name:
                return _NO_OBJECT
            try:
                name = self._run("rev-parse", "--verify", "--quiet",
                                 "--end-of-options", name).decode().strip()
            except GitError:
                return _NO_OBJECT
        return self._objects.ask(os.fsencode(name) + b"\n", _read_object)

    def rev_parse(self, rev: str) -> str:
        """Full id of the commit that ``rev^{commit}`` names, as ``git
        rev-parse --verify rev^{commit}`` gives it: a tag is peeled to its
        commit, and a name of no object, of several, or of an object that
        does not peel to a commit raises a GitError that names ``rev``.
        ``:/<text>`` (the newest commit whose message matches ``text``)
        would read the suffix as part of its pattern: when ``rev^{commit}``
        names nothing, ``rev`` naming a commit is the answer. The object
        reader answers, and the first such request starts it; a name holding
        a newline, or ending in a carriage return, costs a one-shot
        ``rev-parse``, and a name holding a NUL names nothing. ``HEAD``
        needs no request: it is the commit that the walk opening the
        repository listed first, read once, unless HEAD was unborn then."""
        if rev == "HEAD" and self._head is not None:
            return self._head
        kind, oid, _ = self._object(f"{rev}^{{commit}}")
        if kind != b"commit":  # ``:/<text>``, or else only to say why
            kind, oid, _ = self._object(rev)
        if kind == b"commit":
            return oid.decode()
        if kind in (b"tree", b"blob", b"tag"):
            raise GitError(f"not a commit: {rev!r} names a {kind.decode()}")
        if kind == b"ambiguous":
            raise GitError(f"ambiguous revision {rev!r}")
        raise GitError(f"unknown revision {rev!r}")

    def _indexed(self, rev: str) -> str:
        """Commit id of ``rev``; the commit and its ancestors are indexed."""
        if rev in self._entries:
            return rev
        commit_id = self.rev_parse(rev)
        if commit_id not in self._entries:
            self._walk(commit_id)
        return commit_id

    def _walk(self, head: str) -> str | None:
        """Index ``head`` and every ancestor from one ``git log --raw``;
        return the id of the first commit it lists, ``head``'s own, or None
        when it lists none (``HEAD`` unborn). ``head`` is a commit id, or
        ``HEAD`` when the repository opens. Known cost: a head that is not
        an ancestor of HEAD (``analyze --head``, ``history --before``) costs
        a walk of its own beside HEAD's."""
        if head in self._walks:
            return head
        # ``--`` ends the revisions: a work-tree file named HEAD would make
        # the name ambiguous
        out = self._run(
            "log", "-z", "--root", "--diff-merges=first-parent",
            "--find-renames", "--raw", "--no-abbrev", "--ignore-missing",
            f"--format={_HDR}%H{_SEP}%ct{_SEP}%P{_SEP}%B", head, "--",
        )
        # a message or a path holds any byte but NUL: read NUL-separated
        # fields, where a header opens a commit and a raw entry (after a
        # newline when it is the commit's first) takes its path fields.
        # A path keeps its bytes (os.fsdecode, which read_file undoes);
        # a message that is not UTF-8 is read with replacement characters.
        commits: list[tuple[str, list[ChangedFile]]] = []
        opening = _HDR.encode()
        fields = iter(out.split(b"\x00"))
        for chunk in fields:
            if chunk.startswith(opening):
                commits.append((chunk[1:].decode("utf-8", "replace"), []))
            elif meta := chunk.lstrip(b"\n").decode("ascii"):
                n_paths = 2 if meta.rsplit(" ", 1)[1][0] in "RC" else 1
                change = _change(meta, [os.fsdecode(next(fields))
                                        for _ in range(n_paths)])
                if change is not None:
                    commits[-1][1].append(change)
        entries: dict[str, LogEntry] = {}
        for header, changes in commits:
            commit_id, epoch, parents, message = header.split(_SEP, 3)
            entries[commit_id] = LogEntry(
                commit_id=commit_id,
                commit_time=datetime.fromtimestamp(int(epoch), tz=timezone.utc),
                parents=tuple(parents.split()),
                changes=tuple(changes),
                message=message,
            )
        if not entries:
            return None
        self._entries.update(entries)
        head_id = next(iter(entries))
        self._walks[head_id] = tuple(entries)
        return head_id

    def log_entry(self, rev: str) -> LogEntry:
        """The indexed entry of one commit: time, parents, changes and
        message."""
        return self._entries[self._indexed(rev)]

    def commit_time(self, rev: str) -> datetime:
        return self.log_entry(rev).commit_time

    def commit_message(self, rev: str) -> str:
        return self.log_entry(rev).message

    def read_file(self, rev: str, path: str) -> bytes | None:
        """File content at a revision, or None when absent there or not a
        file (a tree or a gitlink)."""
        kind, _, content = self._object(f"{rev}:{path}")
        return content if kind == b"blob" else None

    def read_blobs(self, ids: list[str]) -> dict[str, bytes | None]:
        """Contents of the blobs of full ids ``ids``, read in pipelined
        requests; None for an id that names no blob (a gitlink's id is a
        commit's)."""
        for oid in ids:
            if not _OBJECT_ID.fullmatch(oid):  # a newline would desync the replies
                raise GitError(f"not an object id: {oid!r}")
        contents: dict[str, bytes | None] = {}
        for start in range(0, len(ids), _IDS_PER_REQUEST):
            chunk = ids[start:start + _IDS_PER_REQUEST]
            replies = self._objects.ask("".join(f"{oid}\n" for oid in chunk).encode(),
                                        lambda out: [_read_object(out) for _ in chunk])
            for oid, (kind, _, content) in zip(chunk, replies):
                contents[oid] = content if kind == b"blob" else None
        return contents

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
        entries = (self._entries[commit_id] for commit_id in self._walks[head_id])
        return tuple((e.commit_id, e.commit_time, e.message) for e in entries)

    def changed_files(self, rev: str) -> tuple[ChangedFile, ...]:
        """Changes of one commit vs its first parent (full tree for a root)."""
        return self.log_entry(rev).changes

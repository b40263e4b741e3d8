"""Thin subprocess wrapper over a local git clone.

One ``git log -z --name-status`` walk per queried head is parsed and cached;
everything else is plain plumbing (``cat-file``, ``rev-parse``, ``diff``).
Merge diffs are taken against the first parent, matching the miner's
first-parent traversal. ``line_hunks`` reads the hunk headers of one
``git diff -U0`` between two blobs, with every flag that affects the line
alignment pinned so that user or repository config cannot change it.

Each instance caches the parsed logs and messages by resolved head commit,
and the line hunks by their arguments (callers pass commit ids). Commits are
immutable, so the caches never go stale. The wrapper is read-only and safe
to use from parallel workers (each worker holds its own instance, and with
it its own caches).
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LogEntry:
    commit_id: str
    commit_time: datetime
    parents: tuple[str, ...]
    subject: str
    changes: tuple[ChangedFile, ...]


def _normalize_status(raw: str, paths: list[str]) -> ChangedFile | None:
    code = raw[0]
    if code == "M" or code == "T":
        return ChangedFile("modified", paths[0])
    if code == "A" or code == "C":
        return ChangedFile("added", paths[-1])
    if code == "D":
        return ChangedFile("deleted", paths[0])
    if code == "R":
        return ChangedFile("renamed-from", paths[1], old_path=paths[0])
    return None  # unmerged/unknown entries are not analyzable changes


class Repository:
    def __init__(self, path: str):
        self.path = str(path)
        self._log_cache: dict[str, tuple[LogEntry, ...]] = {}
        self._message_cache: dict[str, tuple[tuple[str, datetime, str], ...]] = {}
        self._hunk_cache: dict[tuple[str, str, str, str], tuple[Hunk, ...]] = {}
        try:
            self._run("rev-parse", "--git-dir")
        except GitError as exc:
            raise GitError(f"not a readable git repository: {self.path}") from exc

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

    def commit_time(self, rev: str) -> datetime:
        epoch = int(self._run("show", "-s", "--format=%ct", rev).decode().split()[0])
        return datetime.fromtimestamp(epoch, tz=timezone.utc)

    def commit_message(self, rev: str) -> str:
        return self._run("show", "-s", "--format=%B", rev).decode("utf-8", "replace")

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        proc = subprocess.run(
            ["git", "-C", self.path, "merge-base", "--is-ancestor", ancestor, descendant],
            capture_output=True,
        )
        return proc.returncode == 0

    def read_file(self, rev: str, path: str) -> bytes | None:
        """File content at a revision, or None when absent there."""
        proc = subprocess.run(
            ["git", "-C", self.path, "cat-file", "blob", f"{rev}:{path}"],
            capture_output=True,
        )
        if proc.returncode != 0:
            return None
        return proc.stdout

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
        head_id = self.rev_parse(head)
        if head_id not in self._log_cache:
            out = self._run(
                "log", "-z", "--first-parent", "--diff-merges=first-parent",
                "--find-renames", "--name-status",
                f"--format={_HDR}%H{_SEP}%ct{_SEP}%P{_SEP}%s",
                head_id,
            ).decode("utf-8", "replace")
            self._log_cache[head_id] = tuple(self._parse_log(out))
        return self._log_cache[head_id]

    @staticmethod
    def _parse_log(out: str):
        for chunk in out.split(_HDR):
            if not chunk:
                continue
            tokens = chunk.split("\x00")
            commit_id, epoch, parents, subject = tokens[0].split(_SEP, 3)
            changes = []
            fields = []
            for token in tokens[1:]:
                # the first status token after a header carries the format's
                # trailing newline
                if token.startswith("\n"):
                    token = token[1:]
                if token:
                    fields.append(token)
            i = 0
            while i < len(fields):
                status = fields[i]
                n_paths = 2 if status[0] in "RC" else 1
                change = _normalize_status(status, fields[i + 1 : i + 1 + n_paths])
                if change is not None:
                    changes.append(change)
                i += 1 + n_paths
            yield LogEntry(
                commit_id=commit_id,
                commit_time=datetime.fromtimestamp(int(epoch), tz=timezone.utc),
                parents=tuple(parents.split()) if parents else (),
                subject=subject,
                changes=tuple(changes),
            )

    def all_commits(self, head: str) -> tuple[tuple[str, datetime, str], ...]:
        """(id, committer time, full message) for every ancestor of ``head``,
        newest first. Used for fixing-commit identification."""
        head_id = self.rev_parse(head)
        if head_id not in self._message_cache:
            out = self._run(
                "log", "-z", f"--format={_SEP.join(('%H', '%ct', '%B'))}", head_id
            ).decode("utf-8", "replace")
            rows = []
            for chunk in out.split("\x00"):
                if not chunk:
                    continue
                commit_id, epoch, message = chunk.split(_SEP, 2)
                rows.append(
                    (commit_id,
                     datetime.fromtimestamp(int(epoch), tz=timezone.utc),
                     message)
                )
            self._message_cache[head_id] = tuple(rows)
        return self._message_cache[head_id]

    def changed_files(self, rev: str) -> tuple[ChangedFile, ...]:
        """Changes of one commit vs its first parent (full tree for a root)."""
        entries = self._run(
            "log", "-z", "-1", "--diff-merges=first-parent", "--find-renames",
            "--name-status", f"--format={_HDR}%H{_SEP}%ct{_SEP}%P{_SEP}%s", rev,
        ).decode("utf-8", "replace")
        parsed = list(self._parse_log(entries))
        return parsed[0].changes if parsed else ()

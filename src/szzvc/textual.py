"""Line-based SZZ baseline over the same visual-code file set.

Classic line-blame semantics: every line the fixing commit deleted or
modified is traced backwards through the file's (rename-followed) history to
the commit that last introduced it; those origin commits are the candidates.
Whitespace-only lines are skipped as cosmetic. Pure line additions have no
prior line to blame, so adds-only fixes yield nothing.

Line positions are mapped through the hunk headers of one ``git diff -U0``
per history step (:meth:`Repository.line_hunks`): git's own Myers diff with
its flags pinned, the engine ``git blame`` uses. Lines are numbered as git
numbers them, split at ``\\n`` only. ``git blame`` itself is not called:
it cannot disable whole-file rename following, and the trace must honor
``follow_renames`` from the miner config. Tests cross-check the trace
against ``git blame --porcelain``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime

from .gitrepo import Hunk, Repository
from .miner import FixingCommit, InducingCandidate, MinerConfig, history_steps
from .pdparser import decode_patch_bytes


@dataclass(frozen=True)
class LineOrigin:
    file_path: str
    line_number: int  # 1-based, in the pre-fix version
    origin_commit: str
    origin_time: datetime  # committer time of the origin commit
    line_text: str


def changed_pre_fix_lines(old_lines: list[str], hunks: Iterable[Hunk]) -> list[int]:
    """1-based old-side line numbers deleted or modified by the ``hunks``,
    whitespace-only lines skipped."""
    return [
        n
        for old_start, old_count, _, _ in hunks
        for n in range(old_start, old_start + old_count)
        if old_lines[n - 1].strip()
    ]


def _position_before(position: int, hunks: Iterable[Hunk]) -> int | None:
    """Where new-side line ``position`` was before the step with ``hunks``;
    None when the step introduced the line."""
    shift = 0
    for old_start, old_count, new_start, new_count in hunks:
        if new_count == 0:
            if new_start >= position:
                break  # a deletion after the line
        elif new_start > position:
            break
        elif position < new_start + new_count:
            return None
        shift += old_count - new_count
    return position + shift


def annotate(repo: Repository, path: str, before: str, line_numbers,
             follow_renames: bool = True,
             pre_fix_lines: list[str] | None = None
             ) -> dict[int, LineOrigin | None]:
    """Origin commit of each requested pre-fix line of ``path``.

    ``None`` when the origin is unreachable (history cut at a rename with
    following disabled). ``pre_fix_lines``, when the caller has already read
    them, are the lines of ``path`` just before ``before``.
    """
    steps = history_steps(repo, path, before, follow_renames=follow_renames)
    origins: dict[int, LineOrigin | None] = {n: None for n in line_numbers}
    if not steps:
        return origins
    if pre_fix_lines is None:
        pre_fix_lines = _lines_at(repo, steps[0].entry.commit_id, steps[0].path_new)
    # position of each traced line in the version at the current step
    tracked = {n: n for n in line_numbers if 1 <= n <= len(pre_fix_lines)}
    for step in steps:
        if not tracked:
            break
        entry = step.entry
        parent = entry.parents[0] if entry.parents else None
        # no old side (creation, or a rename cut): every tracked line starts here
        hunks = (
            None if step.path_old is None or parent is None
            else repo.line_hunks(parent, step.path_old, entry.commit_id, step.path_new)
        )
        remapped: dict[int, int] = {}
        for requested, position in tracked.items():
            earlier = None if hunks is None else _position_before(position, hunks)
            if earlier is not None:
                remapped[requested] = earlier
            else:
                origins[requested] = LineOrigin(
                    file_path=step.path_new,
                    line_number=requested,
                    origin_commit=entry.commit_id,
                    origin_time=entry.commit_time,
                    line_text=pre_fix_lines[requested - 1],
                )
        tracked = remapped
    return origins


def _lines_at(repo: Repository, rev: str, path: str) -> list[str]:
    """Lines as git numbers them: split at ``\\n`` only, where
    ``str.splitlines`` would also split at form feeds and the like."""
    data = repo.read_file(rev, path)
    if data is None:
        return []
    text, _ = decode_patch_bytes(data)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


@dataclass(frozen=True)
class TextualResult:
    candidates: tuple[InducingCandidate, ...]


def textual_find_inducing(repo: Repository, fixing: FixingCommit,
                          config: MinerConfig) -> TextualResult:
    """Line-blame candidates for a fixing commit's visual files."""
    parents = repo.first_parent_log(fixing.commit_id)[0].parents
    parent = parents[0] if parents else None

    by_key: dict[tuple[str, str], InducingCandidate] = {}
    for change in fixing.visual_files:
        if change.status == "added" or parent is None:
            continue  # nothing was deleted or modified
        old_path = change.old_path if change.status == "renamed-from" else change.path
        old_lines = _lines_at(repo, parent, old_path)
        hunks = (
            ((1, len(old_lines), 0, 0),)
            if change.status == "deleted"
            else repo.line_hunks(parent, old_path, fixing.commit_id, change.path)
        )
        lines = changed_pre_fix_lines(old_lines, hunks)
        if not lines:
            continue
        origins = annotate(repo, old_path, fixing.commit_id, lines,
                           follow_renames=config.follow_renames,
                           pre_fix_lines=old_lines)
        for origin in origins.values():
            if origin is None or origin.origin_commit == fixing.commit_id:
                continue
            key = (origin.origin_commit, change.path)
            if key not in by_key:
                by_key[key] = InducingCandidate(
                    fixing_commit=fixing.commit_id,
                    inducing_commit=origin.origin_commit,
                    file_path=change.path,
                    matched_paths=(),
                    via_addition_reduction=False,
                    inducing_commit_time=origin.origin_time,
                )
    return TextualResult(candidates=tuple(
        by_key[key] for key in sorted(by_key)
    ))

"""Repository mining: fixing-commit identification and history backtracking.

Pipeline per fixing commit and visual file:

1. Diff the file's IR across the fixing commit, a history step of its own
   (:func:`fix_step`), and project the change set to the change-depth.
2. Walk the file's first-parent history strictly before the fix, newest
   first, following renames when configured.
3. Modified/Deleted fix paths: the most recent prior commit whose own IR diff
   touched the same (truncated) path becomes a defect-inducing candidate; the
   path then retires (``all_matches`` collects every matching commit
   instead).
4. Added fix paths deeper than the node level cannot have prior changes, so
   matching retries at successively shallower depths until some commit
   touched the enclosing subtree; node-level additions yield nothing.

Unparseable file versions (hand-edited patches) are recorded as failures,
each version (commit and path) once per fix: a failing fix step skips the
file, a failing historical step is skipped and the walk continues. A version
read with a warning (the Latin-1 fallback) is named once per fix too, but
is no failure. The time filter afterwards drops candidates committed after
the linked bug report.

Fixing commits on one file share most of their history, so a run keeps one
:class:`MiningCache`: each file version is read and parsed once, keyed by its
blob id. A fix's own step is diffed whole, as the report shows that diff;
no other fix needs it whole. A history step only has to answer for the
nodes that the fix's paths name (each path's first component), so it is
diffed only there, by :func:`~szzvc.diff.diff_node`: a Pd insertion
renumbers every later node, yet its step costs only the nodes a fix asks
about. Blob ids come with the changed files of the commit index.
Before a fix is diffed, :meth:`MiningCache.load` reads the versions of its
own step and of every history step that the cache has not parsed, by blob
id in one request, and parses them in step order, each step's new side
before its old side: newest first, so that each Max version is spliced from
the version next to it (see :class:`~szzvc.maxparser.MaxNodeTable`). A fix
whose projected diff is empty has parsed its history too.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from .diff import (
    MAX_DEPTH,
    ChangeKind,
    ChangePath,
    ChangeRecord,
    DepthMode,
    IRDiff,
    diff_ir,
    diff_node,
    match_changes,
    path_sort_key,
    paths_at_depth,
)
from .errors import ConfigError, GitError, PatchSyntaxError, read_input
from .gitrepo import ChangedFile, LogEntry, Repository
from .ir import Language, VisualIR, empty_ir
from .maxparser import MaxNodeTable, PropertyFilter, default_property_filter, parse_maxpat
from .pdparser import PdNodeTable, decode_patch_bytes, parse_pd

DEFAULT_EXTENSIONS: dict[Language, tuple[str, ...]] = {
    Language.PURE_DATA: (".pd",),
    Language.MAX_MSP: (".maxpat", ".maxhelp"),
}

DEFAULT_MESSAGE_REGEX = r"(?i)\bfix(es|ed)?\b.*#\d+"

FIXING_DETECTION_MODES = ("explicit-list", "message-regex", "both")


@dataclass(frozen=True)
class MinerConfig:
    extensions: dict[Language, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXTENSIONS)
    )
    depth_mode: DepthMode = MAX_DEPTH
    fixing_detection: str = "message-regex"
    message_regex: str = DEFAULT_MESSAGE_REGEX
    follow_renames: bool = True
    all_matches: bool = False
    include_layout: bool = False
    property_filter: PropertyFilter = field(default_factory=default_property_filter)

    def __post_init__(self):
        if self.property_filter is None:
            object.__setattr__(self, "property_filter", default_property_filter())
        if not self.extensions or not all(
            isinstance(exts, tuple) and exts
            and all(isinstance(ext, str) and ext for ext in exts)
            for exts in self.extensions.values()
        ):
            raise ConfigError("extension lists must be non-empty lists of "
                              "non-empty strings")
        # a path takes the first language with an extension it ends in, so
        # one language's extension may not end in another's
        owned = [(language, ext) for language, exts in self.extensions.items()
                 for ext in exts]
        for language, ext in owned:
            if not ext.startswith("."):
                raise ConfigError(f"{language.value} extension {ext!r} must start "
                                  f"with '.'")
            for other, other_ext in owned:
                if other is not language and ext.lower().endswith(other_ext.lower()):
                    raise ConfigError(f"{language.value} extension {ext!r} equals or "
                                      f"ends with {other.value} extension {other_ext!r}")
        if self.fixing_detection not in FIXING_DETECTION_MODES:
            raise ConfigError(f"unknown fixing_detection {self.fixing_detection!r}")
        object.__setattr__(self, "depth_mode", parse_depth(self.depth_mode))
        for name in ("follow_renames", "all_matches", "include_layout"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(
                    f"{name} must be true or false, got {getattr(self, name)!r}"
                )
        if not isinstance(self.message_regex, str):
            raise ConfigError(f"message_regex must be a string, "
                              f"got {self.message_regex!r}")
        try:
            re.compile(self.message_regex)
        except re.error as exc:
            raise ConfigError(f"bad message regex: {exc}")

    @property
    def method_tag_vc(self) -> str:
        if self.depth_mode == MAX_DEPTH:
            return "szz-vc-max"
        return f"szz-vc-depth{self.depth_mode}"

    def to_dict(self) -> dict:
        return {
            "extensions": {
                lang.value: list(exts) for lang, exts in sorted(
                    self.extensions.items(), key=lambda kv: kv[0].value
                )
            },
            "depth": self.depth_mode,
            "fixing_detection": self.fixing_detection,
            "message_regex": self.message_regex,
            "follow_renames": self.follow_renames,
            "all_matches": self.all_matches,
            "include_layout": self.include_layout,
            "property_filter": self.property_filter.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MinerConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be an object")
        unknown = set(data) - set(cls().to_dict())  # the keys to_dict writes
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        kwargs = dict(data)
        if "depth" in kwargs:
            kwargs["depth_mode"] = kwargs.pop("depth")
        if "extensions" in kwargs:
            try:
                kwargs["extensions"] = {
                    Language(lang): tuple(exts) if isinstance(exts, list) else exts
                    for lang, exts in kwargs["extensions"].items()
                }
            except (ValueError, AttributeError) as exc:
                raise ConfigError(f"bad extensions table: {exc}")
        if kwargs.get("property_filter") is not None:
            kwargs["property_filter"] = PropertyFilter.from_dict(kwargs["property_filter"])
        return cls(**kwargs)


def parse_depth(value) -> DepthMode:
    if value == MAX_DEPTH:
        return MAX_DEPTH
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError  # JSON true is an int; a float would be truncated
        depth = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"depth must be a positive integer or 'max', got {value!r}")
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    return depth


def language_for_path(path: str, extensions: dict[Language, tuple[str, ...]]
                      ) -> Language | None:
    lowered = path.lower()
    for language, exts in extensions.items():
        if any(lowered.endswith(ext.lower()) for ext in exts):
            return language
    return None


def parse_patch_text(text: str, language: Language, config: MinerConfig,
                     source_path: str = "",
                     table: PdNodeTable | MaxNodeTable | None = None) -> VisualIR:
    """``table`` is the node table of ``language`` to share (see ``parse_pd``
    and ``parse_maxpat``)."""
    if language is Language.PURE_DATA:
        return parse_pd(text, include_layout=config.include_layout,
                        source_path=source_path, table=table)
    return parse_maxpat(text, prop_filter=config.property_filter,
                        source_path=source_path, table=table)


# ---------------------------------------------------------------------------
# Fixing commits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixingCommit:
    commit_id: str
    message: str
    linked_issue: str | None = None
    report_time: datetime | None = None
    visual_files: tuple[ChangedFile, ...] = ()


@dataclass(frozen=True)
class IssueRecord:
    issue_key: str
    fixing_commit_ids: tuple[str, ...]
    report_time: datetime | None = None
    description: str | None = None


def load_issue_links(path: str) -> list[IssueRecord]:
    """Newline-delimited JSON, one record per issue."""
    records = []
    # lines end at "\n" only; str.splitlines would split at U+2028 and the like
    for lineno, line in enumerate(read_input(path, "issue link table").split("\n"), 1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            key, commit_ids = raw["issue_key"], raw["fixing_commit_ids"]
            # a string would become its characters, a number would
            # reach the report as the issue key
            if not isinstance(key, str):
                raise TypeError(f"issue_key must be a string, got {key!r}")
            if not (isinstance(commit_ids, list)
                    and all(isinstance(rev, str) for rev in commit_ids)):
                raise TypeError("fixing_commit_ids must be a list of "
                                f"strings, got {commit_ids!r}")
            records.append(
                IssueRecord(
                    issue_key=key,
                    fixing_commit_ids=tuple(commit_ids),
                    report_time=parse_timestamp(raw.get("report_time")),
                    description=raw.get("description"),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed issue link table at line {lineno}: {exc}")
    return records


# what datetime.fromisoformat reads alike on every supported Python: from
# 3.11 on it also takes 20200101 and week dates such as 2020-W01-1
_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
                        r"([T ][0-9]{2}(:[0-9]{2}(:[0-9]{2}(\.[0-9]{3}([0-9]{3})?)?)?)?"
                        r"(Z|[+-][0-9]{2}:[0-9]{2})?)?")


def parse_timestamp(value) -> datetime | None:
    """An ISO 8601 date, with an optional time and a ``Z`` or ``+HH:MM``
    offset after it, as UTC; a time without an offset is UTC."""
    if value is None:
        return None
    if not _TIMESTAMP.fullmatch(str(value)):
        raise ValueError("timestamp must be YYYY-MM-DD[THH[:MM[:SS[.ffffff]]]"
                         f"[Z|+HH:MM]], got {value!r}")
    stamp = datetime.fromisoformat(str(value).replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def identify_fixing_commits(
    repo: Repository,
    config: MinerConfig,
    issue_links: list[IssueRecord] | None = None,
    head: str = "HEAD",
) -> list[FixingCommit]:
    """Union of explicitly linked commits and message-regex matches, keeping
    only commits that touch at least one visual-code file."""
    mode = config.fixing_detection
    if mode in ("explicit-list", "both") and issue_links is None:
        raise ConfigError("explicit-list fixing detection needs an issue-link table")

    selected: dict[str, FixingCommit] = {}
    if mode in ("message-regex", "both"):
        pattern = re.compile(config.message_regex)
        for commit_id, _, message in repo.all_commits(head):
            if pattern.search(message):
                selected[commit_id] = FixingCommit(commit_id=commit_id, message=message)
    if mode in ("explicit-list", "both"):
        for issue in issue_links or []:
            for rev in issue.fixing_commit_ids:
                try:
                    commit_id = repo.rev_parse(rev)
                except GitError as exc:
                    raise ConfigError(
                        f"issue {issue.issue_key} names unknown commit {rev!r}: {exc}"
                    )
                # explicit links win: they carry the report time
                selected[commit_id] = FixingCommit(
                    commit_id=commit_id,
                    message=repo.commit_message(commit_id),
                    linked_issue=issue.issue_key,
                    report_time=issue.report_time,
                )

    fixing = []
    for commit_id in sorted(selected):
        visual = tuple(
            change
            for change in repo.changed_files(commit_id)
            if language_for_path(change.path, config.extensions) is not None
        )
        if not visual:
            continue  # not suitable: no visual code touched
        fixing.append(replace(selected[commit_id], visual_files=visual))
    return fixing


# ---------------------------------------------------------------------------
# File history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryStep:
    """One first-parent commit's change to a file; the fix's own is one too."""

    entry: LogEntry
    path_new: str  # the file's path as of this commit
    path_old: str | None  # path on the parent side; None when the step
    # introduced the file (creation, or a rename boundary with following off)
    old_blob: str | None  # None when path_old is
    new_blob: str | None  # None only for a fix that deletes the file

    @property
    def parent(self) -> str | None:
        """The commit's first parent; None for a root commit."""
        return self.entry.parents[0] if self.entry.parents else None


def _step(entry: LogEntry, change: ChangedFile) -> HistoryStep:
    old_path = None if change.status == "added" else change.old_path or change.path
    return HistoryStep(entry, change.path, old_path, change.old_blob, change.new_blob)


def fix_step(fix_entry: LogEntry, change: ChangedFile) -> HistoryStep:
    """The fixing commit's change to one file, as a step of its history."""
    # the indexed listing of the same change carries its blob ids
    return _step(fix_entry, next((c for c in fix_entry.changes if c == change), change))


def history_steps(repo: Repository, path: str, before: str,
                  follow_renames: bool = True) -> list[HistoryStep]:
    """Commits touching the (rename-followed) path strictly before ``before``,
    newest first, along the first-parent chain."""
    entries = repo.first_parent_log(before)
    steps: list[HistoryStep] = []
    cur = path
    for entry in entries[1:]:
        touched = next((c for c in entry.changes if c.path == cur), None)
        if touched is None:
            continue
        if touched.status == "deleted":
            break  # a deletion older than the creation boundary: stop
        step = _step(entry, touched)
        if touched.status == "renamed-from" and not follow_renames:
            step = replace(step, path_old=None, old_blob=None)
        steps.append(step)
        if step.path_old is None:
            break  # the file starts here
        cur = step.path_old
    return steps


# ---------------------------------------------------------------------------
# Inducing candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducingCandidate:
    fixing_commit: str
    inducing_commit: str
    file_path: str
    matched_paths: tuple[tuple[ChangePath, int], ...]  # (path, effective depth)
    via_addition_reduction: bool
    inducing_commit_time: datetime


@dataclass(frozen=True)
class AnalysisFailure:
    commit_id: str
    file_path: str
    reason: str


@dataclass(frozen=True)
class VersionWarning:
    """A file version read with a warning, such as the Latin-1 fallback of
    :func:`~szzvc.pdparser.decode_patch_bytes`; unlike a failure it does
    not fail the run."""

    commit_id: str
    file_path: str
    message: str


@dataclass(frozen=True)
class InducingResult:
    candidates: tuple[InducingCandidate, ...]
    failures: tuple[AnalysisFailure, ...] = ()
    fix_diffs: dict[str, IRDiff] = field(default_factory=dict)
    warnings: tuple[VersionWarning, ...] = ()


# (inducing commit, fix file path) -> (inducing commit time, matched
# (path, effective depth) pairs, whether any came by addition reduction)
Matches = dict[tuple[str, str], tuple[datetime, set, bool]]


def build_candidates(fixing_commit: str, matches: Matches
                     ) -> tuple[InducingCandidate, ...]:
    """A fixing commit's candidates, sorted by inducing commit and file path,
    each with its matched paths sorted."""
    if any(inducing == fixing_commit for inducing, _ in matches):
        raise AssertionError("self-blame candidate")
    return tuple(
        InducingCandidate(
            fixing_commit, inducing, file_path,
            tuple(sorted(paths, key=lambda pe: (path_sort_key(pe[0]), pe[1]))),
            via_addition_reduction=via, inducing_commit_time=when,
        )
        for (inducing, file_path), (when, paths, via) in sorted(matches.items())
    )


class MiningCache:
    """One run's parsed file versions, keyed by blob id.

    Built for one repository and config and shared by every fixing commit
    of the run. An unparseable version is kept as its ``PatchSyntaxError``
    and raised again at each use, so every fix that meets it records the
    failure. What reading a version warned of is kept by its blob id, so
    every fix that meets it names it.

    It also owns the run's node tables, a
    :class:`~szzvc.pdparser.PdNodeTable` and a
    :class:`~szzvc.maxparser.MaxNodeTable`, which every parse of the run in
    that language shares: each distinct Pd record text, Max box text and Max
    patchline text of any file is tokenized or filtered once, and the nodes
    are shared between versions as :func:`~szzvc.ir.intern_ir` says.
    """

    def __init__(self, repo: Repository, config: MinerConfig):
        self.repo = repo
        self.config = config
        self._irs: dict[tuple[str, Language], VisualIR | PatchSyntaxError] = {}
        self._warnings: dict[str, list[str]] = {}
        self._tables = {Language.PURE_DATA: PdNodeTable(),
                        Language.MAX_MSP: MaxNodeTable()}

    def load(self, language: Language, steps: list[HistoryStep]) -> None:
        """Read the versions of ``steps`` not parsed yet in one request and
        parse them in step order, each step's new side before its old side,
        so that each version follows the one next to it in history. Each is
        parsed under the path of the first step side that holds it; the
        node tables splice a version from the one parsed before it whatever
        their paths, and the path names only the root IR."""
        paths: dict[str, str] = {}
        for step in steps:
            for blob, path in ((step.new_blob, step.path_new),
                               (step.old_blob, step.path_old)):
                if blob is not None and (blob, language) not in self._irs:
                    paths.setdefault(blob, path)
        for blob, data in self.repo.read_blobs(list(paths)).items():
            self._irs[blob, language] = self._parse(language, blob, data, paths[blob])

    def ir(self, language: Language, blob: str | None, path: str | None
           ) -> VisualIR:
        """IR of blob ``blob``, which :meth:`load` parsed; a side without a
        blob is empty."""
        if blob is None:
            return empty_ir(language, path or "")
        ir = self._irs[blob, language]
        if isinstance(ir, PatchSyntaxError):
            raise ir.with_traceback(None)
        return ir

    def warnings(self, blob: str | None) -> list[str]:
        """What reading blob ``blob`` warned of, when :meth:`load` read it."""
        return self._warnings.get(blob, [])

    def _parse(self, language: Language, blob: str, data: bytes | None, path: str
               ) -> VisualIR | PatchSyntaxError:
        if data is None:  # not a file, e.g. a gitlink
            return empty_ir(language, path)
        text, warnings = decode_patch_bytes(data)
        if warnings:
            self._warnings[blob] = warnings
        try:
            return parse_patch_text(text, language, self.config, source_path=path,
                                    table=self._tables[language])
        except PatchSyntaxError as exc:
            return exc


def find_inducing(repo: Repository, fixing: FixingCommit, config: MinerConfig,
                  cache: MiningCache | None = None) -> InducingResult:
    """Backtrack every visual file of a fixing commit to its defect-inducing
    candidates (unfiltered; apply :func:`filter_candidates` afterwards).
    ``cache`` shares parses across the fixes of a run; it must be
    built for the same ``repo`` and ``config``."""
    cache = MiningCache(repo, config) if cache is None else cache
    matches: Matches = {}
    failures: list[AnalysisFailure] = []
    warnings: list[VersionWarning] = []
    fix_diffs: dict[str, IRDiff] = {}
    fix_entry = repo.log_entry(fixing.commit_id)
    for change in fixing.visual_files:
        _mine_file(cache, fix_step(fix_entry, change), matches, failures, warnings,
                   fix_diffs)
    return InducingResult(candidates=build_candidates(fixing.commit_id, matches),
                          failures=tuple(failures), fix_diffs=fix_diffs,
                          warnings=tuple(warnings))


def _readable(cache: MiningCache, language: Language, step: HistoryStep,
              failures: list[AnalysisFailure],
              warnings: list[VersionWarning]) -> bool:
    """Whether both sides of the step parse. Each version that failed, and
    each read with a warning, is recorded once per fix."""
    readable = True
    for blob, rev, path in ((step.old_blob, step.parent, step.path_old),
                            (step.new_blob, step.entry.commit_id, step.path_new)):
        for message in cache.warnings(blob):
            warning = VersionWarning(rev, path, message)
            if warning not in warnings:
                warnings.append(warning)
        try:
            cache.ir(language, blob, path)
        except PatchSyntaxError as exc:
            readable = False
            failure = AnalysisFailure(rev, path, str(exc))
            if failure not in failures:
                failures.append(failure)
    return readable


def _mine_file(
    cache: MiningCache,
    fix: HistoryStep,
    matches: Matches,
    failures: list[AnalysisFailure],
    warnings: list[VersionWarning],
    fix_diffs: dict[str, IRDiff],
) -> None:
    config = cache.config
    language = language_for_path(fix.path_new, config.extensions)
    if language is None:
        return
    # a brand-new file has no history to blame
    steps = [] if fix.path_old is None else history_steps(
        cache.repo, fix.path_old, fix.entry.commit_id,
        follow_renames=config.follow_renames)
    cache.load(language, [fix, *steps])
    if not _readable(cache, language, fix, failures, warnings):
        return  # the fixing side skips the file
    fix_diff = fix_diffs[fix.path_new] = diff_ir(
        cache.ir(language, fix.old_blob, fix.path_old),
        cache.ir(language, fix.new_blob, fix.path_new),
        old_version=fix.parent or "", new_version=fix.entry.commit_id)
    fix_paths = paths_at_depth(fix_diff, config.depth_mode)
    # no order here: candidates gather in sets, which build_candidates sorts
    md_pairs = [(path, kind) for path, kind in fix_paths
                if kind in (ChangeKind.MODIFIED, ChangeKind.DELETED)]
    added_paths = [path for path, kind in fix_paths
                   if kind is ChangeKind.ADDED and len(path) > 1]
    if not md_pairs and not added_paths:
        return
    # an unparseable step is skipped; matching continues further back.
    # A step is diffed only at the nodes a fix path names, path[0].
    steps = [s for s in steps if _readable(cache, language, s, failures, warnings)]

    def node_diff(step: HistoryStep, node_id: str) -> tuple[ChangeRecord, ...]:
        return diff_node(cache.ir(language, step.old_blob, step.path_old),
                         cache.ir(language, step.new_blob, step.path_new), node_id)

    def emit(step: HistoryStep, path: ChangePath, depth: int, via: bool) -> None:
        key = (step.entry.commit_id, fix.path_new)
        when, paths, any_via = matches.get(key, (step.entry.commit_time, set(), False))
        paths.add((path, depth))
        matches[key] = (when, paths, any_via or via)

    # Modified/Deleted fix paths: most recent prior matching commit per path.
    active = md_pairs
    for step in steps:
        if not active:
            break
        records = [r for node_id in dict.fromkeys(p[0] for p, _ in active)
                   for r in node_diff(step, node_id)]
        matched = match_changes(active, IRDiff(tuple(records)), config.depth_mode)
        for path in matched:
            emit(step, path, len(path), via=False)
        if not config.all_matches:
            active = [(p, k) for p, k in active if p not in matched]

    # Added fix paths: go up change-depths until some prior commit touched
    # the enclosing subtree; a depth-1 addition is a new node, never blamed.
    for path in added_paths:
        for depth in range(len(path) - 1, 0, -1):
            target = path[:depth]  # the enclosing subtree
            hits = []
            for step in steps:
                if any(r.path[:depth] == target
                       for r in node_diff(step, path[0])):
                    hits.append(step)
                    if not config.all_matches:
                        break
            if hits:
                for step in hits:
                    emit(step, path, depth, via=True)
                break


def filter_candidates(candidates, fixing: FixingCommit) -> tuple[tuple, tuple]:
    """``(kept, dropped)``: candidates committed after the linked bug report
    was filed are dropped; without a report time none is."""
    kept, dropped = [], []
    for candidate in candidates:
        late = (fixing.report_time is not None
                and candidate.inducing_commit_time > fixing.report_time)
        (dropped if late else kept).append(candidate)
    return tuple(kept), tuple(dropped)

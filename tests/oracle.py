"""Independent brute-force oracle for the diff engine.

Flattens both IRs to (path -> leaf marker) maps, set-compares them, and
checks the engine's records against the resulting changed-path set without
reusing any engine traversal code. Also provides the change-depth projection
as an unordered set, the diff's node loop as a visit of every node id, a
test-only patch operation
for the composition-soundness property, a character-at-a-time reference
for the Pd record splitter, git's own resolution of a commit name, and a
reference miner that reads every version with git itself.
"""

import functools
import subprocess

from szzvc import diff as diff_module
from szzvc.diff import MAX_DEPTH, ChangeKind, ChangeRecord, IRDiff, diff_ir, is_prefix
from szzvc.errors import PatchSyntaxError
from szzvc.ir import ABSENT, Connection, NodeSubtree, Num, VisualIR, empty_ir
from szzvc.miner import language_for_path, parse_patch_text
from szzvc.pdparser import PdRecord, decode_patch_bytes


def flatten(ir: VisualIR) -> dict:
    """Every leaf, emptiness marker, node marker, and connection of an IR,
    keyed by path."""
    out = {}
    _flatten_patch(ir, (), out)
    return out


def _flatten_patch(ir: VisualIR, prefix, out) -> None:
    for node_id, sub in ir.subtrees.items():
        base = prefix + (node_id,)
        out[base] = ("node",)
        for conn in sub.connections:
            out[base + ("connections", conn)] = ("conn",)
        _flatten_value(sub.serialized_contents, base + ("serialized_contents",), out)


def _flatten_value(value, path, out) -> None:
    if isinstance(value, VisualIR):
        if not value.subtrees:
            out[path] = ("empty", "patch")
        else:
            _flatten_patch(value, path, out)
    elif isinstance(value, dict):
        if not value:
            out[path] = ("empty", "map")
        else:
            for key, v in value.items():
                _flatten_value(v, path + (key,), out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out[path] = ("empty", "list")
        else:
            for i, v in enumerate(value):
                _flatten_value(v, path + (i,), out)
    elif isinstance(value, Num):
        out[path] = ("num", float(value.value))
    else:
        out[path] = ("leaf", value)


def _at_or_under(prefix, path) -> bool:
    return path == prefix or is_prefix(prefix, path)


def _is_empty_marker(value) -> bool:
    return isinstance(value, tuple) and value and value[0] == "empty"


def assert_matches_bruteforce(old: VisualIR, new: VisualIR, diff: IRDiff) -> None:
    """diff_ir must report exactly the flatten-level symmetric difference,
    each changed path covered by exactly one record at its deepest point."""
    flat_old, flat_new = flatten(old), flatten(new)
    changed = {
        path
        for path in flat_old.keys() | flat_new.keys()
        if flat_old.get(path) != flat_new.get(path)
    }
    # an emptiness marker replaced by children (or vice versa) is already
    # accounted for by the child paths themselves
    changed -= {
        path
        for path in changed
        if (_is_empty_marker(flat_old.get(path))
            and any(is_prefix(path, q) for q in flat_new))
        or (_is_empty_marker(flat_new.get(path))
            and any(is_prefix(path, q) for q in flat_old))
    }
    unchanged = set(flat_old.keys() & flat_new.keys()) - changed

    record_paths = [r.path for r in diff.records]
    for path in changed:
        covering = [rp for rp in record_paths if _at_or_under(rp, path)]
        assert len(covering) == 1, f"changed path {path} covered by {covering}"
    for path in unchanged:
        covering = [rp for rp in record_paths if _at_or_under(rp, path)]
        assert not covering, f"unchanged path {path} covered by {covering}"
    for record in diff.records:
        in_old = any(_at_or_under(record.path, p) for p in flat_old)
        in_new = any(_at_or_under(record.path, p) for p in flat_new)
        touches = any(_at_or_under(record.path, p) for p in changed)
        assert touches, f"record at {record.path} covers no changed path"
        if record.kind is ChangeKind.ADDED:
            assert not in_old and in_new, f"bad Added record at {record.path}"
        elif record.kind is ChangeKind.DELETED:
            assert in_old and not in_new, f"bad Deleted record at {record.path}"
        else:
            assert in_old and in_new, f"bad Modified record at {record.path}"



def paths_at_depth_set(diff: IRDiff, mode) -> set:
    """(path, kind) pairs at a change-depth, one per record, as a set: a
    record cut short by the depth reads Modified at its truncated path."""
    if mode == MAX_DEPTH:
        return {(r.path, r.kind) for r in diff.records}
    return {(r.path[:mode], r.kind if len(r.path) <= mode else ChangeKind.MODIFIED)
            for r in diff.records}

def diff_subtrees_full_visit(old: VisualIR, new: VisualIR, prefix, records) -> None:
    """The node loop of ``szzvc.diff`` as a visit of every node id of either
    side in sorted order, comparing each pair that is not one object; the
    reference for the loop that sorts only the ids whose nodes differ."""
    for node_id in sorted(old.subtrees.keys() | new.subtrees.keys()):
        path = prefix + (node_id,)
        o, n = old.subtrees.get(node_id), new.subtrees.get(node_id)
        if n is None:
            records.append(ChangeRecord(ChangeKind.DELETED, path, o, ABSENT))
        elif o is None:
            records.append(ChangeRecord(ChangeKind.ADDED, path, ABSENT, n))
        elif o is not n and o != n:
            diff_module._diff_one_node(o, n, path, records)

# ---------------------------------------------------------------------------
# Test-only patch operation (composition soundness)
# ---------------------------------------------------------------------------


def _to_mutable(value):
    if isinstance(value, VisualIR):
        return {
            "__patch__": {
                node_id: {
                    "connections": set(sub.connections),
                    "contents": _to_mutable(sub.serialized_contents),
                }
                for node_id, sub in value.subtrees.items()
            }
        }
    if isinstance(value, dict):
        return {k: _to_mutable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_mutable(v) for v in value]
    return value


def _from_mutable(value, language, source_path):
    if isinstance(value, dict) and set(value) == {"__patch__"}:
        return VisualIR(
            subtrees={
                node_id: NodeSubtree(
                    connections=tuple(sorted(parts["connections"],
                                             key=Connection.sort_key)),
                    serialized_contents=_from_mutable(parts["contents"], language,
                                                      source_path),
                )
                for node_id, parts in value["__patch__"].items()
            },
            source_language=language,
            source_path=source_path,
        )
    if isinstance(value, dict):
        return {k: _from_mutable(v, language, source_path) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_mutable(v, language, source_path) for v in value]
    return value


def _resolve(node, path):
    for comp in path:
        if isinstance(node, dict) and "__patch__" in node and isinstance(comp, str):
            node = node["__patch__"][comp]
        else:
            node = node[comp]
    return node


def apply_diff(old: VisualIR, diff: IRDiff) -> VisualIR:
    """Apply records to ``old``; reproduces ``new`` up to numeric spelling."""
    root = _to_mutable(old)
    list_ops = {}
    for record in diff.records:
        path = tuple(
            "contents" if c == "serialized_contents" else c for c in record.path
        )
        container = _resolve(root, path[:-1])
        last = path[-1]
        if isinstance(last, Connection):
            conns = container
            if record.kind is ChangeKind.ADDED:
                conns.add(last)
            else:
                conns.discard(last)
        elif isinstance(last, int):
            list_ops.setdefault(id(container), (container, {}))[1][last] = record
        elif isinstance(container, dict) and "__patch__" in container:
            patch = container["__patch__"]
            if record.kind is ChangeKind.DELETED:
                del patch[last]
            else:
                sub = record.new_value
                patch[last] = {
                    "connections": set(sub.connections),
                    "contents": _to_mutable(sub.serialized_contents),
                }
        else:
            if record.kind is ChangeKind.DELETED:
                del container[last]
            else:
                container[last] = _to_mutable(record.new_value)
    for container, ops in list_ops.values():
        deletes = [i for i, r in ops.items() if r.kind is ChangeKind.DELETED]
        if deletes:
            del container[min(deletes):]
        for i in sorted(i for i, r in ops.items() if r.kind is not ChangeKind.DELETED):
            value = _to_mutable(ops[i].new_value)
            if i < len(container):
                container[i] = value
            else:
                container.append(value)
    return _from_mutable(root, old.source_language, old.source_path)


# ---------------------------------------------------------------------------
# Reference Pd record splitter (one character at a time)
# ---------------------------------------------------------------------------


def split_records_reference(text: str) -> list[PdRecord]:
    """Records of ``text`` by a plain scan: a backslash keeps the next
    character, ``;`` ends a record, ``str.isspace`` separates atoms."""
    records: list[PdRecord] = []
    token = ""
    tokens: list[str] = []
    line = 1
    start_line = 1
    in_record = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
        if not in_record:
            if ch.isspace():
                i += 1
                continue
            in_record = True
            start_line = line
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\n":
                line += 1
            token += ch + nxt
            i += 2
            continue
        if ch == ";":
            if token:
                tokens.append(token)
                token = ""
            records.append(_reference_record(tokens, (start_line, line)))
            tokens = []
            in_record = False
        elif ch.isspace():
            if token:
                tokens.append(token)
                token = ""
        else:
            token += ch
        i += 1
    if in_record:
        raise PatchSyntaxError("unterminated record", (start_line, line))
    return records


def _reference_record(tokens: list[str], span: tuple[int, int]) -> PdRecord:
    if not tokens:
        raise PatchSyntaxError("empty record", span)
    marker = tokens[0]
    if marker in ("#N", "#X"):
        if len(tokens) < 2:
            raise PatchSyntaxError(f"record {marker} has no element", span)
        return PdRecord(marker[1], tokens[1], tuple(tokens[2:]), span)
    if marker == "#A":
        return PdRecord("A", "", tuple(tokens[1:]), span)
    raise PatchSyntaxError(f"unknown chunk {marker!r}", span)


def rev_parse_commit(repo_path, name: str) -> str | None:
    """The commit id ``git rev-parse --verify name^{commit}`` prints; else,
    when ``name`` alone names a commit (``:/<text>`` reads the suffix as part
    of its pattern), that commit's id; None when neither does."""
    def git(*args) -> str | None:
        proc = subprocess.run(["git", "-C", str(repo_path), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    peeled = git("rev-parse", "--verify", f"{name}^{{commit}}")
    if peeled is not None:
        return peeled
    oid = git("rev-parse", "--verify", "--end-of-options", name)
    return oid if oid and git("cat-file", "-t", oid) == "commit" else None


# ---------------------------------------------------------------------------
# Reference miner: git's own history walk, fresh parses, flatten-based diffs
# ---------------------------------------------------------------------------


def flatten_typed(ir: VisualIR) -> dict:
    """Every node, container and leaf of an IR by path: a container maps to
    its kind (a list and a tuple are both ``"list"``), a leaf to its value
    and a ``Num`` to its numeric value, which is how the diff engine compares
    them. Unlike :func:`flatten`, a non-empty container is marked too, so a
    container that becomes one of another kind is one change at its path."""
    out = {}
    _typed_patch(ir, (), out)
    return out


def _typed_patch(ir: VisualIR, prefix, out) -> None:
    for node_id, sub in ir.subtrees.items():
        base = prefix + (node_id,)
        out[base] = ("node",)
        for conn in sub.connections:
            out[base + ("connections", conn)] = ("conn",)
        _typed_value(sub.serialized_contents, base + ("serialized_contents",), out)


def _typed_value(value, path, out) -> None:
    if isinstance(value, VisualIR):
        out[path] = ("patch",)
        _typed_patch(value, path, out)
    elif isinstance(value, dict):
        out[path] = ("map",)
        for key, v in value.items():
            _typed_value(v, path + (key,), out)
    elif isinstance(value, (list, tuple)):
        out[path] = ("list",)
        for i, v in enumerate(value):
            _typed_value(v, path + (i,), out)
    elif isinstance(value, Num):
        out[path] = ("num", value.value)
    else:
        out[path] = ("leaf", value)


def flat_diff(old: VisualIR, new: VisualIR) -> set:
    """(path, kind) of each change: a path whose entry differs between the
    two flattenings and that lies under no other such path. A path on one
    side only is Added or Deleted, one on both Modified."""
    flat_old, flat_new = flatten_typed(old), flatten_typed(new)
    differing = {path for path in flat_old.keys() | flat_new.keys()
                 if flat_old.get(path) != flat_new.get(path)}
    changes = set()
    for path in differing:
        if any(path[:n] in differing for n in range(1, len(path))):
            continue
        if path not in flat_old:
            changes.add((path, ChangeKind.ADDED))
        elif path not in flat_new:
            changes.add((path, ChangeKind.DELETED))
        else:
            changes.add((path, ChangeKind.MODIFIED))
    return changes


@functools.lru_cache(maxsize=4096)
def _git(repo_path, *args) -> str | bytes | None:
    """Output of one git command, text unless it is ``show``; None when git
    fails. Memoized: every command the reference runs names a commit id, so
    its output is the same in any repository that holds that commit."""
    proc = subprocess.run(["git", "-C", str(repo_path), *args],
                          capture_output=True, text=args[0] != "show")
    return proc.stdout if proc.returncode == 0 else None


def _version(repo_path, rev, path, language, config) -> VisualIR | None:
    """The file at ``rev:path`` parsed on its own; empty when there is no
    side, None when it does not parse."""
    if path is None:
        return empty_ir(language, "")
    text, _ = decode_patch_bytes(_git(repo_path, "show", f"{rev}:{path}"))
    try:
        return parse_patch_text(text, language, config, source_path=path)
    except PatchSyntaxError:
        return None


def _name_status(line: str) -> tuple[str, str | None, str]:
    """(status letter, old path or None, path) of a ``--name-status`` line;
    paths are taken as git prints them, so they must need no quoting."""
    status, *paths = line.split("\t")
    old_path = None if status[0] == "A" else paths[0]
    return status[0], old_path, paths[-1]


def _reference_history(repo_path, path: str, before: str, follow: bool) -> list:
    """(commit, old path or None, path) of each first-parent commit before
    ``before`` that touched the file, newest first, as ``git log --follow``
    lists them; a creation, or a rename when renames are not followed,
    ends the history. A deletion is not a step and ends it too."""
    out = _git(repo_path, "log", "--first-parent", "--format=%H", "--name-status",
               *(["--follow"] if follow else []), f"{before}^", "--", path)
    steps = []
    commit = None
    for line in (out or "").splitlines():
        if not line:
            continue
        if "\t" not in line:
            commit = line
            continue
        status, old_path, new_path = _name_status(line)
        if status == "D":
            break
        if status == "R" and not follow:
            old_path = None
        steps.append((commit, old_path, new_path))
        if old_path is None:
            break
    return steps


def _project(changes: set, mode) -> set:
    if mode == MAX_DEPTH:
        return set(changes)
    return {(path[:mode], kind if len(path) <= mode else ChangeKind.MODIFIED)
            for path, kind in changes}


def reference_inducing(repo_path, fix: str, config) -> dict:
    """The unfiltered candidates of fixing commit ``fix`` by the rule in the
    ``szzvc.miner`` docstring, as ``{(inducing commit, fix file path):
    (set of (matched path, effective depth), whether any came by addition
    reduction)}``. It shares no code with the miner's walk or cache: the
    fix's files come from ``git diff-tree`` against its first parent, each
    file's history from ``git log --first-parent``, each version from ``git
    show``, parsed on its own (only git's output is memoized) and diffed by
    :func:`flat_diff`. Copies are not handled."""
    mode = config.depth_mode
    matches: dict = {}

    def emit(commit, fix_path, path, depth, via):
        paths, any_via = matches.get((commit, fix_path), (set(), False))
        matches[commit, fix_path] = (paths | {(path, depth)}, any_via or via)

    # a merge's files as its first parent sees them; a root commit's as added
    parents = _git(repo_path, "rev-list", "--parents", "-n", "1", fix).split()[1:]
    listing = _git(repo_path, "diff-tree", "-r", "-M", "--name-status", "--no-commit-id",
                   *([parents[0], fix] if parents else ["--root", fix]))
    for line in listing.splitlines():
        status, fix_old_path, fix_path = _name_status(line)
        language = language_for_path(fix_path, config.extensions)
        if language is None or fix_old_path is None:
            continue  # a new file has no history to blame
        old = _version(repo_path, f"{fix}^", fix_old_path, language, config)
        new = _version(repo_path, fix, None if status == "D" else fix_path,
                       language, config)
        if old is None or new is None:
            continue  # an unparseable fix side skips the file
        projected = _project(flat_diff(old, new), mode)
        steps = []  # (commit, changes), None for an unparseable step
        for commit, old_path, path in _reference_history(
                repo_path, fix_old_path, fix, config.follow_renames):
            before = _version(repo_path, f"{commit}^", old_path, language, config)
            after = _version(repo_path, commit, path, language, config)
            steps.append((commit, None if before is None or after is None
                          else {p for p, _ in flat_diff(before, after)}))

        active = {path for path, kind in projected if kind is not ChangeKind.ADDED}
        for commit, changed in steps:
            if changed is None:
                continue
            touched = changed if mode == MAX_DEPTH else {p[:mode] for p in changed}
            for path in active & touched:
                emit(commit, fix_path, path, len(path), False)
            if not config.all_matches:
                active -= touched
        for path, kind in projected:
            if kind is not ChangeKind.ADDED:
                continue
            for depth in range(len(path) - 1, 0, -1):
                hits = [commit for commit, changed in steps if changed is not None
                        and any(p[:depth] == path[:depth] for p in changed)]
                if hits:
                    for commit in hits if config.all_matches else hits[:1]:
                        emit(commit, fix_path, path, depth, True)
                    break
    return matches

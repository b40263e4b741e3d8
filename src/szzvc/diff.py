"""Structural diff over visual-code IRs with change-depth truncation.

``diff_ir`` compares two IR versions by recursive depth-first descent and
reports each change at the deepest differing point: a node present on only
one side is a single depth-1 record; a changed leaf inside a node is a record
at the leaf's path. Record paths are therefore prefix-free (asserted on every
diff). Connections are compared as set elements — an edge has no identity
beyond its value, so rewiring an endpoint is a Delete+Add pair.

A node whose subtree equals its counterpart is skipped without descent. That
is sound because dataclass equality compares a ``Num`` by its spelling: equal
subtrees hold equal leaves, which ``leaf_equal`` also finds equal, so they
cannot yield a record, while ``1.0`` against ``1.00`` is unequal and still
reaches ``leaf_equal``, which reports no change.

Change-depth: a path's depth is its component count. ``paths_at_depth``
renders a diff either at full depth or truncated to a fixed depth; a real
truncation means "this subtree changed", i.e. Modified, and a record that
truncation leaves whole (a wholly added or deleted node, say) keeps its kind.

Paths render in bracket notation for humans:
``root[obj-0]['serialized_contents']['text']``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, Union

from .ir import ABSENT, Connection, Language, NodeSubtree, VisualIR, leaf_equal

PathComponent = Union[str, int, Connection]
ChangePath = tuple[PathComponent, ...]

MAX_DEPTH: "Literal['max']" = "max"
DepthMode = Union[int, Literal["max"]]


class ChangeKind(Enum):
    ADDED = "added"
    MODIFIED = "modified"
    DELETED = "deleted"

    @property
    def label(self) -> str:
        return self.value.capitalize()


@dataclass(frozen=True)
class ChangeRecord:
    kind: ChangeKind
    path: ChangePath
    old_value: object
    new_value: object

    def __post_init__(self):
        if self.kind is ChangeKind.ADDED:
            ok = self.old_value is ABSENT and self.new_value is not ABSENT
        elif self.kind is ChangeKind.DELETED:
            ok = self.old_value is not ABSENT and self.new_value is ABSENT
        else:
            ok = self.old_value is not ABSENT and self.new_value is not ABSENT
        if not ok:
            raise ValueError(f"inconsistent {self.kind.value} record at {self.path}")


@dataclass(frozen=True)
class IRDiff:
    records: tuple[ChangeRecord, ...]
    old_version: str = "old"
    new_version: str = "new"

    def paths(self) -> set[ChangePath]:
        return {r.path for r in self.records}


def _component_key(comp: PathComponent):
    if isinstance(comp, str):
        return (0, comp)
    if isinstance(comp, int):
        return (1, comp)
    return (2, comp.sort_key())


def path_sort_key(path: ChangePath):
    return tuple(_component_key(c) for c in path)


def is_prefix(short: ChangePath, long: ChangePath) -> bool:
    return len(short) < len(long) and long[: len(short)] == short


def diff_ir(old: VisualIR, new: VisualIR, old_version: str = "old",
            new_version: str = "new") -> IRDiff:
    """Deepest-point change set between two canonical IRs of one language."""
    if old.source_language is not new.source_language:
        raise ValueError(
            f"language mismatch: {old.source_language.value} vs {new.source_language.value}"
        )
    records: list[ChangeRecord] = []
    _diff_subtrees(old, new, (), records)
    records.sort(key=lambda r: path_sort_key(r.path))
    _assert_prefix_free(records)
    return IRDiff(records=tuple(records), old_version=old_version, new_version=new_version)


def _diff_subtrees(old: VisualIR, new: VisualIR, prefix: ChangePath,
                   records: list[ChangeRecord]) -> None:
    for node_id in old.subtrees.keys() | new.subtrees.keys():
        path = prefix + (node_id,)
        o, n = old.subtrees.get(node_id), new.subtrees.get(node_id)
        if n is None:
            records.append(ChangeRecord(ChangeKind.DELETED, path, o, ABSENT))
        elif o is None:
            records.append(ChangeRecord(ChangeKind.ADDED, path, ABSENT, n))
        elif o is not n and o != n:  # the Pd parser shares unchanged nodes
            _diff_one_node(o, n, path, records)


def _diff_one_node(old: NodeSubtree, new: NodeSubtree, prefix: ChangePath,
                   records: list[ChangeRecord]) -> None:
    old_conns, new_conns = set(old.connections), set(new.connections)
    for conn in old_conns - new_conns:
        records.append(
            ChangeRecord(ChangeKind.DELETED, prefix + ("connections", conn), conn, ABSENT)
        )
    for conn in new_conns - old_conns:
        records.append(
            ChangeRecord(ChangeKind.ADDED, prefix + ("connections", conn), ABSENT, conn)
        )
    _diff_value(
        old.serialized_contents,
        new.serialized_contents,
        prefix + ("serialized_contents",),
        records,
    )


def _category(value) -> str:
    if isinstance(value, VisualIR):
        return "patch"
    if isinstance(value, dict):
        return "map"
    if isinstance(value, (list, tuple)):
        return "list"
    return "scalar"


def _diff_value(old, new, path: ChangePath, records: list[ChangeRecord]) -> None:
    cat = _category(old)
    if cat != _category(new):
        records.append(ChangeRecord(ChangeKind.MODIFIED, path, old, new))
    elif cat == "map":
        for key in old.keys() | new.keys():
            if key not in new:
                records.append(
                    ChangeRecord(ChangeKind.DELETED, path + (key,), old[key], ABSENT)
                )
            elif key not in old:
                records.append(
                    ChangeRecord(ChangeKind.ADDED, path + (key,), ABSENT, new[key])
                )
            else:
                _diff_value(old[key], new[key], path + (key,), records)
    elif cat == "list":
        for i in range(max(len(old), len(new))):
            if i >= len(new):
                records.append(
                    ChangeRecord(ChangeKind.DELETED, path + (i,), old[i], ABSENT)
                )
            elif i >= len(old):
                records.append(
                    ChangeRecord(ChangeKind.ADDED, path + (i,), ABSENT, new[i])
                )
            else:
                _diff_value(old[i], new[i], path + (i,), records)
    elif cat == "patch":
        _diff_subtrees(old, new, path, records)
    elif not leaf_equal(old, new):
        records.append(ChangeRecord(ChangeKind.MODIFIED, path, old, new))


def _assert_prefix_free(records: list[ChangeRecord]) -> None:
    # records are sorted, so a prefix violation is always adjacent
    for a, b in zip(records, records[1:]):
        if is_prefix(a.path, b.path):
            raise AssertionError(
                f"diff paths not prefix-free: {render_path(a.path)} / {render_path(b.path)}"
            )


def truncate_path(path: ChangePath, depth: int) -> ChangePath:
    """First min(depth, len(path)) components; depth must be >= 1."""
    if depth < 1:
        raise ValueError("change-depth must be >= 1")
    return path[:depth]


def paths_at_depth(diff: IRDiff, mode: DepthMode) -> set[tuple[ChangePath, ChangeKind]]:
    """Project a diff to (path, kind) pairs at the requested change-depth.

    Max mode returns every record as-is. At Depth(k), paths are truncated and
    deduplicated; a truncated path reports Modified. A record no longer than
    k keeps its kind: record paths are distinct and prefix-free, so no other
    record truncates onto its path (a wholly added or deleted node's own
    record is alone in its group).
    """
    if mode == MAX_DEPTH:
        return {(r.path, r.kind) for r in diff.records}
    depth = int(mode)
    if depth < 1:
        raise ValueError("change-depth must be >= 1")
    out: set[tuple[ChangePath, ChangeKind]] = set()
    for record in diff.records:
        tpath = truncate_path(record.path, depth)
        out.add((tpath, record.kind if tpath == record.path else ChangeKind.MODIFIED))
    return out


def match_changes(
    fix_paths: Iterable[tuple[ChangePath, ChangeKind]],
    historical_diff: IRDiff,
    mode: DepthMode,
) -> set[ChangePath]:
    """Fix-side paths that some change in ``historical_diff`` also touched.

    Only Modified/Deleted fix paths participate; Added fix paths go through
    the miner's depth-reduction rule instead.
    """
    historical = historical_diff.paths()
    if mode != MAX_DEPTH:
        historical = {truncate_path(p, int(mode)) for p in historical}
    return {
        path
        for path, kind in fix_paths
        if kind in (ChangeKind.MODIFIED, ChangeKind.DELETED) and path in historical
    }


def nodes_touched(diff: IRDiff) -> int:
    """Distinct depth-1 node ids implicated by a diff."""
    return len({r.path[0] for r in diff.records})


def render_path(path: ChangePath) -> str:
    """Bracket notation: ``root[obj-0]['serialized_contents']['text']``."""
    if not path:
        return "root"
    parts = [f"root[{path[0]}]"]
    for comp in path[1:]:
        if isinstance(comp, str):
            escaped = comp.replace("\\", "\\\\").replace("'", "\\'")
            parts.append(f"['{escaped}']")
        elif isinstance(comp, int):
            parts.append(f"[{comp}]")
        else:
            parts.append(f"[({comp.source_outlet}->{comp.dest_node}:{comp.dest_inlet})]")
    return "".join(parts)

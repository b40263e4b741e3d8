"""Structural diff over visual-code IRs with change-depth truncation.

``diff_ir`` compares two IR versions by recursive depth-first descent and
reports each change at the deepest differing point: a node present on only
one side is a single depth-1 record; a changed leaf inside a node is a record
at the leaf's path. Record paths are therefore prefix-free (asserted on every
diff). Connections are compared as set elements — an edge has no identity
beyond its value, so rewiring an endpoint is a Delete+Add pair.

The descent visits siblings in sorted order, so records are built in
``path_sort_key`` order: siblings never mix component types (node ids and map
keys are strings, list positions ints; only connections follow
``"connections"``).

Each node id is diffed by one function, so ``diff_ir`` is by construction
the concatenation, in sorted id order, of each top-level node id's records.
``diff_node`` gives one node id's share of them, for a caller that needs
only some nodes: the miner asks each history step only for the nodes its
fix's paths name.

A node whose subtree equals its counterpart is skipped without descent. That
is sound because dataclass equality compares a ``Num`` by its spelling: equal
subtrees hold equal leaves, which ``leaf_equal`` also finds equal, so they
cannot yield a record, while ``1.0`` against ``1.00`` is unequal and still
reaches ``leaf_equal``, which reports no change.

Change-depth: a path's depth is its component count. ``paths_at_depth``
projects a diff, in record order, either at full depth or truncated to a
fixed depth; a real truncation means "this subtree changed", i.e. Modified,
and a record that truncation leaves whole (a wholly added or deleted node,
say) keeps its kind.

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
    """Deepest-point change set between two canonical IRs of one language,
    its records built in ``path_sort_key`` order and asserted prefix-free."""
    _check_language(old, new)
    records: list[ChangeRecord] = []
    _diff_subtrees(old, new, (), records)
    _assert_prefix_free(records)
    return IRDiff(records=tuple(records), old_version=old_version, new_version=new_version)


def diff_node(old: VisualIR, new: VisualIR, node_id: str) -> tuple[ChangeRecord, ...]:
    """The records of ``diff_ir(old, new)`` under top-level node ``node_id``,
    in the same order and asserted prefix-free; none when it is unchanged
    or on neither side."""
    _check_language(old, new)
    records: list[ChangeRecord] = []
    _diff_node(old.subtrees.get(node_id), new.subtrees.get(node_id), (node_id,), records)
    _assert_prefix_free(records)
    return tuple(records)


def _check_language(old: VisualIR, new: VisualIR) -> None:
    if old.source_language is not new.source_language:
        raise ValueError(
            f"language mismatch: {old.source_language.value} vs {new.source_language.value}"
        )


def _diff_subtrees(old: VisualIR, new: VisualIR, prefix: ChangePath,
                   records: list[ChangeRecord]) -> None:
    olds, news = old.subtrees, new.subtrees
    # both parsers share unchanged nodes: only the rest are sorted and visited
    changed = [node_id for node_id, o in olds.items() if news.get(node_id) is not o]
    changed += [node_id for node_id in news if node_id not in olds]
    for node_id in sorted(changed):
        _diff_node(olds.get(node_id), news.get(node_id), prefix + (node_id,), records)


def _diff_node(old: NodeSubtree | None, new: NodeSubtree | None, path: ChangePath,
               records: list[ChangeRecord]) -> None:
    # None stands for a node on one side only (or on neither)
    if old is new:
        return
    if new is None:
        records.append(ChangeRecord(ChangeKind.DELETED, path, old, ABSENT))
    elif old is None:
        records.append(ChangeRecord(ChangeKind.ADDED, path, ABSENT, new))
    elif old != new:
        _diff_one_node(old, new, path, records)


def _diff_one_node(old: NodeSubtree, new: NodeSubtree, prefix: ChangePath,
                   records: list[ChangeRecord]) -> None:
    old_conns = set(old.connections)
    for conn in sorted(old_conns ^ set(new.connections), key=Connection.sort_key):
        if conn in old_conns:
            records.append(ChangeRecord(ChangeKind.DELETED, prefix + ("connections", conn),
                                        conn, ABSENT))
        else:
            records.append(ChangeRecord(ChangeKind.ADDED, prefix + ("connections", conn),
                                        ABSENT, conn))
    _diff_value(
        old.serialized_contents,
        new.serialized_contents,
        prefix + ("serialized_contents",),
        records,
    )


def _diff_value(old, new, path: ChangePath, records: list[ChangeRecord]) -> None:
    # ABSENT stands for a map key or list position on one side only
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            _diff_value(old.get(key, ABSENT), new.get(key, ABSENT), path + (key,), records)
    elif isinstance(old, (list, tuple)) and isinstance(new, (list, tuple)):
        for i in range(max(len(old), len(new))):
            _diff_value(old[i] if i < len(old) else ABSENT,
                        new[i] if i < len(new) else ABSENT, path + (i,), records)
    elif isinstance(old, VisualIR) and isinstance(new, VisualIR):
        _diff_subtrees(old, new, path, records)
    elif new is ABSENT:
        records.append(ChangeRecord(ChangeKind.DELETED, path, old, ABSENT))
    elif old is ABSENT:
        records.append(ChangeRecord(ChangeKind.ADDED, path, ABSENT, new))
    elif not leaf_equal(old, new):  # values of two kinds are never leaf-equal
        records.append(ChangeRecord(ChangeKind.MODIFIED, path, old, new))


def _assert_prefix_free(records: list[ChangeRecord]) -> None:
    # records are in path order, so a prefix violation is always adjacent
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


def paths_at_depth(diff: IRDiff, mode: DepthMode
                   ) -> tuple[tuple[ChangePath, ChangeKind], ...]:
    """Project a diff to (path, kind) pairs at the requested change-depth,
    as an ordered tuple in record order.

    Max mode returns every record as-is. At Depth(k), paths are truncated and
    deduplicated; a truncated path reports Modified. Records are in path
    order, so equal truncations are adjacent and only the first is kept. A
    record no longer than k keeps its kind: record paths are distinct and
    prefix-free, so no other record truncates onto its path (a wholly added
    or deleted node's own record is alone in its group).
    """
    if mode == MAX_DEPTH:
        return tuple((r.path, r.kind) for r in diff.records)
    depth = int(mode)
    if depth < 1:
        raise ValueError("change-depth must be >= 1")
    out: list[tuple[ChangePath, ChangeKind]] = []
    for record in diff.records:
        tpath = truncate_path(record.path, depth)
        if not out or out[-1][0] != tpath:
            out.append((tpath, record.kind if tpath == record.path else ChangeKind.MODIFIED))
    return tuple(out)


def match_changes(
    fix_paths: Iterable[tuple[ChangePath, ChangeKind]],
    historical_diff: IRDiff,
    mode: DepthMode,
) -> set[ChangePath]:
    """Fix-side paths that some change in ``historical_diff`` also touched.

    Only Modified/Deleted fix paths participate; Added fix paths go through
    the miner's depth-reduction rule instead.
    """
    historical = {r.path if mode == MAX_DEPTH else truncate_path(r.path, int(mode))
                  for r in historical_diff.records}
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

"""Max/MSP ``.maxpat`` / ``.maxhelp`` parser.

Both extensions hold the same structured-text document: a top-level
``patcher`` with a ``boxes`` array and a ``lines`` array. Every box carries a
persistent ``id`` (e.g. ``obj-12``), which becomes the subtree key — so
reordering the boxes array never changes the IR. Patchlines become
connections on their source box; a box's nested ``patcher`` becomes a nested
IR under the ``patcher`` contents key.

Box attributes pass through a configurable ``PropertyFilter`` applied
recursively at every nesting level. The default excludes editor-derived
churn (geometry, fonts, inlet/outlet counts, app metadata); ``text``,
``maxclass`` and ``patcher`` identify a node and can never be excluded.

Numbers become ``Num`` only where the filter keeps them. The JSON decoder
hands each number's source text to a ``_Number`` marker; the filter turns a
kept marker into ``Num(raw)`` and the patchline reader reads a port with
``int(raw)``, so the numbers under excluded keys (geometry, mostly) are never
converted. The decoder has already checked their grammar. A marker is no
``str``, so a numeric box id or patchline endpoint is still rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, PatchSyntaxError
from .ir import (
    MAX_NESTING,
    Connection,
    Language,
    NodeSubtree,
    Num,
    VisualIR,
    canonicalize,
)

GUARDED_KEYS = frozenset({"text", "maxclass", "patcher"})

DEFAULT_EXCLUDED_KEYS = frozenset({
    "patching_rect",
    "presentation_rect",
    "presentation",
    "fontname",
    "fontsize",
    "fontface",
    "numinlets",
    "numoutlets",
    "saved_attribute_attributes",
    "appversion",
    "rect",
    "bounds",
})


class FilterMode(Enum):
    EXCLUDE_LIST = "exclude-list"
    INCLUDE_LIST = "include-list"


@dataclass(frozen=True)
class PropertyFilter:
    mode: FilterMode
    keys: frozenset[str]

    def __post_init__(self):
        if self.mode is FilterMode.EXCLUDE_LIST:
            guarded = self.keys & GUARDED_KEYS
            if guarded:
                raise ConfigError(
                    f"cannot exclude identifying properties: {', '.join(sorted(guarded))}"
                )

    def keep(self, key: str) -> bool:
        if self.mode is FilterMode.EXCLUDE_LIST:
            return key not in self.keys
        return key in self.keys

    @classmethod
    def from_dict(cls, data: dict) -> "PropertyFilter":
        try:
            mode = FilterMode(data["mode"])
            keys = data["keys"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed property filter: {exc}")
        if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
            raise ConfigError(f"property filter keys must be a list of strings, "
                              f"got {keys!r}")
        return cls(mode=mode, keys=frozenset(keys))

    def to_dict(self) -> dict:
        return {"mode": self.mode.value, "keys": sorted(self.keys)}


def default_property_filter() -> PropertyFilter:
    return PropertyFilter(mode=FilterMode.EXCLUDE_LIST, keys=DEFAULT_EXCLUDED_KEYS)


class _Number:
    """A JSON number's source text, not yet known to be kept."""

    __slots__ = ("raw",)

    def __init__(self, raw: str):
        self.raw = raw


def parse_maxpat(text: str, prop_filter: PropertyFilter | None = None,
                 source_path: str = "") -> VisualIR:
    """Parse a patcher document into a canonical IR."""
    if prop_filter is None:
        prop_filter = default_property_filter()
    try:
        doc = json.loads(text, parse_int=_Number, parse_float=_Number,
                         parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise PatchSyntaxError(
            f"not a patcher document: {exc.msg}", (exc.lineno, exc.lineno)
        )
    except RecursionError:
        raise PatchSyntaxError("not a patcher document: nested too deeply")
    if not isinstance(doc, dict) or not isinstance(doc.get("patcher"), dict):
        raise PatchSyntaxError("document has no top-level patcher")
    return canonicalize(_parse_patcher(doc["patcher"], prop_filter, source_path, 0))


def _reject_constant(name: str):
    raise PatchSyntaxError(f"non-standard number constant {name!r}")


def _too_deep() -> PatchSyntaxError:
    return PatchSyntaxError(f"patch nests deeper than {MAX_NESTING} levels")


def _parse_patcher(patcher: dict, prop_filter: PropertyFilter,
                   source_path: str, depth: int) -> VisualIR:
    """The IR of a patcher ``depth`` levels below the document's own; each
    nested patcher and each object or array value is one level more."""
    if depth > MAX_NESTING:
        raise _too_deep()
    boxes = patcher.get("boxes", [])
    if not isinstance(boxes, list):
        raise PatchSyntaxError("patcher boxes must be an array")
    contents_by_id: dict[str, dict] = {}
    for entry in boxes:
        box = entry.get("box") if isinstance(entry, dict) else None
        if not isinstance(box, dict):
            raise PatchSyntaxError("box entry is not an object")
        box_id = box.get("id")
        if not isinstance(box_id, str) or not box_id:
            raise PatchSyntaxError("box has no id")
        if box_id in contents_by_id:
            raise PatchSyntaxError(f"duplicate box id {box_id!r}")
        contents_by_id[box_id] = _box_contents(box, prop_filter, source_path, depth)

    connections: dict[str, list[Connection]] = {b: [] for b in contents_by_id}
    lines = patcher.get("lines", [])
    if not isinstance(lines, list):
        raise PatchSyntaxError("patcher lines must be an array")
    for entry in lines:
        line = entry.get("patchline") if isinstance(entry, dict) else None
        if not isinstance(line, dict):
            raise PatchSyntaxError("patchline entry is not an object")
        src_id, outlet = _endpoint(line, "source")
        dst_id, inlet = _endpoint(line, "destination")
        if src_id not in contents_by_id:
            raise PatchSyntaxError(f"patchline source references unknown box {src_id!r}")
        if dst_id not in contents_by_id:
            raise PatchSyntaxError(
                f"patchline destination references unknown box {dst_id!r}"
            )
        connections[src_id].append(Connection(outlet, dst_id, inlet))

    subtrees = {
        box_id: NodeSubtree(
            connections=tuple(connections[box_id]),
            serialized_contents=contents,
        )
        for box_id, contents in contents_by_id.items()
    }
    return VisualIR(subtrees=subtrees, source_language=Language.MAX_MSP,
                    source_path=source_path)


def _endpoint(line: dict, key: str) -> tuple[str, int]:
    value = line.get(key)
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
        or not isinstance(value[1], _Number)
    ):
        raise PatchSyntaxError(f"patchline {key} must be [box-id, port]")
    try:  # int() rejects a fraction, an exponent and too many digits
        port = int(value[1].raw)
    except ValueError:
        port = -1
    if port < 0:
        raise PatchSyntaxError(f"patchline {key} port must be a non-negative integer")
    return value[0], port


def _box_contents(box: dict, prop_filter: PropertyFilter, source_path: str,
                  depth: int) -> dict:
    contents = {}
    for key, value in box.items():
        if key == "id":
            continue  # the id is the subtree key, not a content property
        if not prop_filter.keep(key):
            continue
        if key == "patcher" and isinstance(value, dict):
            contents[key] = _parse_patcher(value, prop_filter, source_path, depth + 1)
        else:
            contents[key] = _filter_value(value, prop_filter, depth + 1)
    return contents


def _filter_value(value, prop_filter: PropertyFilter, depth: int):
    # the depth is checked on containers only: a leaf cannot nest
    if isinstance(value, dict):
        if depth > MAX_NESTING:
            raise _too_deep()
        return {
            k: _filter_value(v, prop_filter, depth + 1)
            for k, v in value.items()
            if prop_filter.keep(k)
        }
    if isinstance(value, list):
        if depth > MAX_NESTING:
            raise _too_deep()
        return [_filter_value(v, prop_filter, depth + 1) for v in value]
    if isinstance(value, _Number):
        return Num(value.raw)
    return value

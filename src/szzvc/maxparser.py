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
``maxclass`` and ``patcher`` identify a node: an exclude-list cannot name
them, and an include-list keeps them whether it names them or not.

Numbers become ``Num`` only where the filter keeps them. The JSON decoder
hands each number's source text over as ``bytes`` (``str.encode``), a type
no other JSON value decodes to; the filter turns kept bytes into
``Num(raw)`` and the patchline reader reads a port with ``int(raw)``, so the
numbers under excluded keys (geometry, mostly) are never converted. The
decoder has already checked their grammar. Bytes are no ``str``, so a
numeric box id or patchline endpoint is still rejected.

The one pass puts every property map in sorted key order, and
:func:`szzvc.ir.intern_ir` builds each patcher's canonical IR from the boxes
and wires; lists keep the document's order.

Versions of one file share almost all of their boxes and patchlines, so the
parser keeps what it builds in a :class:`MaxNodeTable`, keyed by each
element's exact source text: an element seen before is not filtered again,
and a box's text is its key for ``intern_ir``, which shares a node unchanged
since an earlier parse. The connections are checked against the box ids of
the version at hand. Persistent box ids make most edits a change to one or
two elements, so a text that differs from the document the table read last
only inside one run of ``boxes`` elements and one run of ``lines`` elements
is spliced from it: only those runs, which :mod:`szzvc.splice` finds, are
read, and the same module builds the IR from the last one, the boxes they
touch built again. A whole read is the same splice from the empty
document, with every element of the two arrays new: a small reader walks
the document object and its ``patcher`` object with the decoder's public
``raw_decode`` and gives the two arrays to the element loop the splice
uses. Whatever that reader or the splice refuses is read by ``json.loads``,
and then by the value path that nested patchers take, so every syntax
error reads as ``json.loads`` words it, line included.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, PatchSyntaxError
from .ir import (
    MAX_NESTING,
    Language,
    Num,
    VisualIR,
    canonicalize,  # noqa: F401  unused; perfbench traces maxparser.canonicalize by name
    empty_ir,
    intern_ir,
)
from .splice import changed_run, splice_ir

# JSON's whitespace, which the element loop skips between elements
_skip_whitespace = re.compile(r"[ \t\n\r]*").match

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
    """Box attributes to keep at every level; an include-list keeps the
    guarded keys too, and an exclude-list may not name them."""

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
        return key in self.keys or key in GUARDED_KEYS

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


class MaxNodeTable:
    """What :func:`parse_maxpat` built, for the parses that come after.

    - Each box element's entry, one map per property filter: its id, its
      key for :func:`~szzvc.ir.intern_ir` and its filtered contents. The key
      is the box's text, and the text with its file's path for a box whose
      contents nest a patcher, since the nested IR carries the path.
    - The ``shared`` node map of ``intern_ir``, one per property filter.
    - Each patchline element's endpoints.
    - The last document it read whole or spliced, one per property filter:
      its text and path, where its ``boxes`` and ``lines`` arrays and each
      of their elements start and end, its box nodes and wires as
      ``intern_ir`` takes them, and its IR.

    A text parsed under the last document's filter and path is spliced
    from it where it can be. Its head up to the first array's ``[`` and
    its tail from the second array's ``]`` must be the last document's, and
    so must the text between the two arrays, which is looked for where the
    first array ends if the change is in the second, where it ends shifted
    by the change in length if the change is in the first, and else by
    ``str.find``. In each array, :func:`szzvc.splice.changed_run`, which the
    Pd splice shares, finds the leading elements the text holds where the
    last document did and the trailing ones it holds shifted by the change
    in length; only the run between them is read. A change inside a box, a
    nested patcher's included, is a change of that box's element.

    Any other text is read whole, as a splice from the empty document whose
    new runs are all the elements of its top-level patcher's ``boxes`` and
    ``lines`` arrays. The reader walks the document object and the
    ``patcher`` object in it, decoding every other value with
    ``raw_decode`` and dropping it, and gives each of the two arrays to the
    element loop. That loop reads the object elements of an array in a
    whole read and those of a changed run in a splice. It decodes each
    element to find its end and keeps its start, end, text and value.

    One apply step then finishes both reads. Each element is found by its
    text, so only a new one is filtered and built: a known box text costs
    one lookup in the box map, and a text keyed with its path is looked up
    after that misses. :func:`szzvc.splice.splice_ir`, which the Pd splice
    shares, takes the boxes and patchlines of the old runs out of the last
    IR and puts those of the new runs in, and the text becomes the last
    document.

    A splice that finds no such run, or a run that fails, leaves the text to
    the whole read. Anything the whole read refuses is read by
    ``json.loads`` and the value path, which says what is wrong and keeps no
    splice state: invalid JSON, a repeated key in the document or patcher
    object, a ``boxes`` or ``lines`` array that is missing or holds a value
    that is no object, and a result ``splice_ir`` refuses (a duplicate box
    id, a wire to a box that is not there).

    Nothing in it is changed once built but the last documents; it only
    grows. A :class:`~szzvc.miner.MiningCache` owns one for its run and
    parses each fix's versions newest first, so each splices from the
    version next to it in history; ``parse_maxpat`` makes a fresh one for
    a caller that passes none.
    """

    def __init__(self):
        self._boxes: dict[PropertyFilter, tuple[dict, dict]] = {}
        self._lines: dict[str, tuple[str, tuple[str, int, int]]] = {}
        self._last: dict[PropertyFilter, _Document] = {}
        # both reads take each number as the bytes of its text
        self._options = {"parse_int": str.encode, "parse_float": str.encode,
                         "parse_constant": _reject_constant}
        # reads the one JSON value that starts at a given position
        self._decode = json.JSONDecoder(**self._options).raw_decode


@dataclass
class _Array:
    """A ``boxes`` or ``lines`` array of a read document."""

    open: int  # the position of its "["
    close: int  # of its "]"
    starts: list[int]  # each element's start and end, counted from the "["
    ends: list[int]


@dataclass
class _Document:
    """The last document a :class:`MaxNodeTable` read under one filter."""

    text: str
    source_path: str
    boxes: _Array
    lines: _Array
    nodes: dict  # box id -> (key, contents), as intern_ir takes them
    wires: dict  # source box id -> its wires, as intern_ir takes them
    ir: VisualIR


def parse_maxpat(text: str, prop_filter: PropertyFilter | None = None,
                 source_path: str = "", table: MaxNodeTable | None = None) -> VisualIR:
    """Parse a patcher document into a canonical IR.

    ``table`` holds what earlier parses built (see :class:`MaxNodeTable`): a
    box or patchline text it holds is not filtered again, a box node equal
    to one in it is returned as that same object, and a text that its last
    document splices into is read only where the two differ. A
    ``MiningCache`` passes the table of its run; without one the parse makes
    a fresh table, which is the same code path with nothing to reuse.
    """
    if prop_filter is None:
        prop_filter = default_property_filter()
    table = MaxNodeTable() if table is None else table
    try:
        last = table._last.get(prop_filter)
        if last is not None and last.source_path == source_path:
            ir = _splice(text, last, prop_filter, table)
            if ir is not None:
                return ir
        # a whole read: every element of the patcher's two arrays spliced
        # into the empty document
        runs: dict[str, tuple[_Array, list, list]] = {}
        try:
            end = _skip_whitespace(text, _object(text, 0, False, runs, table)).end()
        except (PatchSyntaxError, ValueError, RecursionError):
            end = None
        if end == len(text) and len(runs) == 2:
            empty = _Document("", source_path, None, None, {}, {},
                              empty_ir(Language.MAX_MSP, source_path))
            ir = _apply(text, empty, runs["boxes"], runs["lines"], prop_filter, table)
            if ir is not None:
                return ir
        # what the whole read refuses: json.loads says what is wrong, or
        # reads the valid document that the reader does not take
        doc = json.loads(text, **table._options)
        if not isinstance(doc, dict) or not isinstance(doc.get("patcher"), dict):
            raise PatchSyntaxError("document has no top-level patcher")
        return _parse_patcher(doc["patcher"], prop_filter, source_path, 0, table)
    except json.JSONDecodeError as exc:
        raise PatchSyntaxError(
            f"not a patcher document: {exc.msg}", (exc.lineno, exc.lineno)
        )
    except RecursionError:
        raise PatchSyntaxError("not a patcher document: nested too deeply")


def _reject_constant(name: str):
    raise PatchSyntaxError(f"non-standard number constant {name!r}")


def _too_deep() -> PatchSyntaxError:
    return PatchSyntaxError(f"patch nests deeper than {MAX_NESTING} levels")


def _parse_patcher(patcher: dict, prop_filter: PropertyFilter, source_path: str,
                   depth: int, table: MaxNodeTable) -> VisualIR:
    """The IR of a patcher ``depth`` levels below the document's own; each
    nested patcher and each object or array value is one level more."""
    if depth > MAX_NESTING:
        raise _too_deep()
    boxes = patcher.get("boxes", [])
    if not isinstance(boxes, list):
        raise PatchSyntaxError("patcher boxes must be an array")
    known, shared = table._boxes.setdefault(prop_filter, ({}, {}))
    nodes: dict[str, tuple] = {}  # box id -> (key, contents); a key of None is not shared
    for item in boxes:
        box_id, node = _box_entry(item, nodes, known, prop_filter, source_path, depth,
                                  table)
        nodes[box_id] = node

    lines = patcher.get("lines", [])
    if not isinstance(lines, list):
        raise PatchSyntaxError("patcher lines must be an array")
    wires: dict[str, list[tuple[str, int, int]]] = {}
    for item in lines:
        src_id, conn = _wire(item, table)
        if src_id not in nodes:
            raise PatchSyntaxError(f"patchline source references unknown box {src_id!r}")
        if conn[0] not in nodes:
            raise PatchSyntaxError(
                f"patchline destination references unknown box {conn[0]!r}"
            )
        wires.setdefault(src_id, []).append(conn)
    return intern_ir(Language.MAX_MSP, source_path, nodes, wires, shared)


def _object(s: str, pos: int, in_patcher: bool, runs: dict, table: MaxNodeTable) -> int:
    """Where the object that starts at ``pos``, after whitespace, ends: the
    document, or where ``in_patcher`` is true its top-level patcher, which
    this loop reads too. The patcher's ``boxes`` and ``lines`` arrays of
    objects go into ``runs`` as the runs :func:`_apply` takes, every element
    new; any other value is decoded and dropped. Raises ValueError for what
    the read leaves to ``json.loads``, a repeated key included:
    ``json.loads`` keeps its last value."""
    decode, skip, startswith = table._decode, _skip_whitespace, s.startswith
    pos = skip(s, pos).end()
    if not startswith("{", pos):
        raise ValueError("expecting an object")
    keys = set()
    pos = skip(s, pos + 1).end()
    while not startswith("}", pos):
        if keys:
            if not startswith(",", pos):
                raise ValueError("expecting ','")
            pos = skip(s, pos + 1).end()
        if not startswith('"', pos):
            raise ValueError("expecting a key")
        key, pos = decode(s, pos)
        if key in keys:
            raise ValueError(f"repeated key {key!r}")
        keys.add(key)
        pos = skip(s, pos).end()
        if not startswith(":", pos):
            raise ValueError("expecting ':'")
        pos = skip(s, pos + 1).end()
        if not in_patcher and key == "patcher" and startswith("{", pos):
            pos = _object(s, pos, True, runs, table)
        elif in_patcher and key in ("boxes", "lines") and startswith("[", pos):
            run = _elements(s, pos, pos + 1, len(s), False, table)
            if run is None:
                raise ValueError(f"{key} holds more than objects")
            items, starts, ends, close = run
            runs[key] = _Array(pos, close, starts, ends), [], items
            pos = close + 1
        else:
            pos = decode(s, pos)[1]
        pos = skip(s, pos).end()
    return pos + 1


def _splice(s: str, last: _Document, prop_filter: PropertyFilter,
            table: MaxNodeTable) -> VisualIR | None:
    """The IR of document text ``s`` spliced from ``last``, the document the
    table read last under the same filter and path; None where ``s``
    differs from it outside one run of whole elements of each of its
    ``boxes`` and ``lines`` arrays, or where anything in those runs fails."""
    t = last.text
    if s == t:
        return last.ir
    # the text around the two arrays is the last document's: its head and
    # tail where they were, the text between the arrays where the first ends
    boxes_first = last.boxes.open < last.lines.open
    first, second = (last.boxes, last.lines) if boxes_first else (last.lines, last.boxes)
    shift = len(s) - len(t)
    if not (s.startswith(t[:first.open + 1]) and s.endswith(t[second.close:])):
        return None
    between = t[first.close:second.open + 1]
    for close in (first.close + shift, first.close):
        if s.startswith(between, close):
            break
    else:
        close = s.find(between, first.open + 1)
        if close < 0:
            return None
    spans = [(first.open, close),
             (close + second.open - first.close, second.close + shift)]
    if not boxes_first:
        spans.reverse()
    try:
        boxes = _splice_array(s, t, last.boxes, *spans[0], table)
        lines = boxes and _splice_array(s, t, last.lines, *spans[1], table)
    except (PatchSyntaxError, ValueError, RecursionError):
        return None
    if lines is None:
        return None
    return _apply(s, last, boxes, lines, prop_filter, table)


def _apply(s: str, last: _Document, boxes: tuple[_Array, list, list],
           lines: tuple[_Array, list, list], prop_filter: PropertyFilter,
           table: MaxNodeTable) -> VisualIR | None:
    """The IR of document text ``s`` from ``last``, which becomes ``s``
    once the runs of its ``boxes`` and ``lines`` arrays are replaced. Each
    run is the array as it reads in ``s``, the texts of the elements it took
    out and the (text, value) pairs of those it put in. ``s`` becomes the
    table's last document. None where a new element is no box or patchline
    or where :func:`szzvc.splice.splice_ir` refuses the result."""
    (box_array, old_boxes, new_boxes), (line_array, old_lines, new_lines) = boxes, lines
    source_path = last.source_path
    known, shared = table._boxes.setdefault(prop_filter, ({}, {}))
    known_get, lines_get = known.get, table._lines.get
    try:
        # what the old runs made is in the table under their texts
        old_boxes = [known_get(text) or known_get((source_path, text))
                     for text in old_boxes]
        old_lines = [lines_get(text) for text in old_lines]
        new_boxes = [known_get(item[0])
                     or _box_entry(item, {}, known, prop_filter, source_path, 0, table)
                     for item in new_boxes]
        new_lines = [lines_get(item[0]) or _wire(item, table) for item in new_lines]
    except (PatchSyntaxError, RecursionError):
        return None  # a later read says what is wrong, as a fresh table does
    spliced = splice_ir(last.ir, last.nodes, last.wires, old_boxes, new_boxes, old_lines,
                        new_lines, shared)
    if spliced is None:
        return None
    ir, nodes, wires = spliced
    table._last[prop_filter] = _Document(s, source_path, box_array, line_array, nodes,
                                         wires, ir)
    return ir


def _splice_array(s: str, t: str, old: _Array, start: int, end: int,
                  table: MaxNodeTable) -> tuple[_Array, list, list] | None:
    """Array ``old`` of text ``t`` as it reads in ``s`` with its ``[`` at
    ``start`` and its ``]`` at ``end``: its elements that ``s`` keeps whole
    before and after the text that differs, and between them the run of
    elements read anew. Returns the array, the texts of its old run and the
    (text, value) pairs of its new run; None where ``s`` holds no such run
    of object elements."""
    size, old_size = end - start, old.close - old.open
    starts, ends, shift = old.starts, old.ends, size - old_size
    found = changed_run(s, start, size, t, old.open, old_size, starts, ends)
    if found is None:
        return _Array(start, end, starts, ends), [], []
    first, stop = found
    until = start + (starts[stop] if stop < len(starts) else old_size) + shift
    run = _elements(s, start, start + (ends[first - 1] if first else 1), until,
                    first > 0, table)
    if run is None or run[3] != until:
        return None
    items, new_starts, new_ends, _ = run
    kept_starts, kept_ends = starts[stop:], ends[stop:]
    if shift:
        kept_starts = [k + shift for k in kept_starts]
        kept_ends = [k + shift for k in kept_ends]
    return (_Array(start, end, starts[:first] + new_starts + kept_starts,
                   ends[:first] + new_ends + kept_ends),
            [t[old.open + starts[k]:old.open + ends[k]] for k in range(first, stop)],
            items)


def _elements(s: str, at: int, pos: int, stop: int, lead: bool,
              table: MaxNodeTable) -> tuple[list, list[int], list[int], int] | None:
    """The object elements of the array whose ``[`` is at ``at``, read from
    ``pos``, where an element ends if ``lead`` is true, to its ``]`` or to an
    element that starts at ``stop`` after a comma: their (text, value) pairs,
    their starts and ends counted from the ``[``, and where the loop stopped.
    None where something else comes first: a value that is no object, a
    missing or trailing comma, or an element that runs past ``stop``."""
    skip, decode, startswith = _skip_whitespace, table._decode, s.startswith
    items, starts, ends = [], [], []
    pos = skip(s, pos).end()
    after = lead  # whether an element ends before pos
    while not startswith("]", pos):
        if after:
            if not startswith(",", pos):
                return None
            pos = skip(s, pos + 1).end()
        if not startswith("{", pos):
            return None
        if pos == stop:
            break
        value, end = decode(s, pos)
        if end > stop:
            return None
        items.append((s[pos:end], value))
        starts.append(pos - at)
        ends.append(end - at)
        pos = skip(s, end).end()
        after = True
    return items, starts, ends, pos


def _box_entry(item, nodes: dict, known: dict, prop_filter: PropertyFilter,
               source_path: str, depth: int, table: MaxNodeTable) -> tuple:
    """``(box id, (key, contents))`` of a box element that its text alone
    does not find in ``known``; a keyed entry is stored there."""
    text = None
    if type(item) is tuple:
        text, item = item
        entry = known.get((source_path, text))
        if entry is not None:
            return entry
    box = item.get("box") if isinstance(item, dict) else None
    if not isinstance(box, dict):
        raise PatchSyntaxError("box entry is not an object")
    box_id = box.get("id")
    if not isinstance(box_id, str) or not box_id:
        raise PatchSyntaxError("box has no id")
    if box_id in nodes:
        raise PatchSyntaxError(f"duplicate box id {box_id!r}")
    contents = _box_contents(box, prop_filter, source_path, depth, table)
    key = text
    if text is not None and isinstance(contents.get("patcher"), VisualIR):
        key = (source_path, text)
    entry = (box_id, (key, contents))
    if key is not None:
        known[key] = entry
    return entry


def _wire(item, table: MaxNodeTable) -> tuple[str, tuple[str, int, int]]:
    """``(source id, (destination id, outlet, inlet))`` of a patchline
    element; one of a top-level patcher is stored under its text."""
    text = None
    if type(item) is tuple:
        text, item = item
    line = item.get("patchline") if isinstance(item, dict) else None
    if not isinstance(line, dict):
        raise PatchSyntaxError("patchline entry is not an object")
    src_id, outlet = _endpoint(line, "source")
    dst_id, inlet = _endpoint(line, "destination")
    wire = (src_id, (dst_id, outlet, inlet))
    if text is not None:
        table._lines[text] = wire
    return wire


def _endpoint(line: dict, key: str) -> tuple[str, int]:
    value = line.get(key)
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
        or not isinstance(value[1], bytes)
    ):
        raise PatchSyntaxError(f"patchline {key} must be [box-id, port]")
    try:  # int() rejects a fraction, an exponent and too many digits
        port = int(value[1])
    except ValueError:
        port = -1
    if port < 0:
        raise PatchSyntaxError(f"patchline {key} port must be a non-negative integer")
    return value[0], port


def _box_contents(box: dict, prop_filter: PropertyFilter, source_path: str,
                  depth: int, table: MaxNodeTable) -> dict:
    if prop_filter.mode is FilterMode.EXCLUDE_LIST:
        keys = box.keys() - prop_filter.keys
    else:
        keys = {key for key in box if prop_filter.keep(key)}
    keys.discard("id")  # the id is the subtree key, not a content property
    contents = {}
    for key in sorted(keys):
        value = box[key]
        if type(value) is str:
            contents[key] = value
        elif key == "patcher" and isinstance(value, dict):
            contents[key] = _parse_patcher(value, prop_filter, source_path, depth + 1,
                                           table)
        else:
            contents[key] = _filter_value(value, prop_filter, depth + 1)
    return contents


def _filter_value(value, prop_filter: PropertyFilter, depth: int):
    # the decoder makes dicts, lists, strs, bytes (numbers), bools and None;
    # the depth is checked on containers only: a leaf cannot nest
    kind = type(value)
    if kind is str:
        return value
    if kind is bytes:
        return Num(value.decode())
    if kind is dict:
        if depth > MAX_NESTING:
            raise _too_deep()
        return {
            k: _filter_value(v, prop_filter, depth + 1)
            for k, v in sorted(value.items())
            if prop_filter.keep(k)
        }
    if kind is list:
        if depth > MAX_NESTING:
            raise _too_deep()
        return [_filter_value(v, prop_filter, depth + 1) for v in value]
    return value

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
nor decoded again where it follows the element it last followed, and a
box's text is its key for ``intern_ir``, which shares a node unchanged since
an earlier parse. The connections are checked against the box ids of
the version at hand, in document order. Persistent box ids make most edits
a change to one or two elements, so a text that differs from the document
the table read last only inside one run of ``boxes`` elements and one run
of ``lines`` elements is spliced from it: only those runs, which
:mod:`szzvc.splice` finds, are read, and the IR is the last one with the
boxes they touch built again. Any other text is read whole, as it is
by a fresh table. The document and patcher objects are then read by the
standard library's own JSON object reader, and an array the parser's own
loop does not accept is read again by the standard library's array reader,
so every syntax error reads as ``json.loads`` words it, line included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, PatchSyntaxError
from .ir import (
    MAX_NESTING,
    Language,
    Num,
    VisualIR,
    canonicalize,  # noqa: F401  unused; perfbench traces maxparser.canonicalize by name
    intern_ir,
)
from .splice import changed_run

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

    - For each object element text of an array in a top-level patcher
      (``boxes``, ``lines`` or any other), the element text that last
      followed it in a whole read.
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
    in length; only the run between them is decoded, by the C scanner, and
    each of its elements is found by its text or built. The IR is the last
    IR with the boxes of the old runs taken out, those of the new runs put
    in, and only those boxes and the sources of the wires that changed
    interned again; a new box id puts the nodes back into id order. A run
    that is not a comma-separated list of objects, a duplicate box id, a
    wire to a box that is not there and any error the run raises all leave
    the text to the whole read, which says what is wrong as a fresh table
    does. A change inside a box, a nested patcher's
    included, is a change of that box's element.

    A whole read takes a known element without decoding where it follows,
    in an array, the element text it last followed: one ``str.startswith``
    of that text takes it, in any layout. Patchline texts repeat across the
    files of a project, so this holds for many elements of a file read for
    the first time. Any other element is decoded by the C scanner to find
    its end, and then found by its text, so only a new one is filtered and
    built. A known box text costs one lookup in the box map; a text keyed
    with its path is looked up after that misses.

    Each array learns the gap between its first two elements, from the end
    of the one through the ``{`` of the next (``,\\n\\t\\t\\t{`` in a
    tab-indented document, ``\\n, \\t\\t\\t{`` in Max's own layout). Where
    an object element is followed by that same text, the next element starts
    right after it; anything else is read by the whitespace, ``]`` and ``,``
    checks, so a gap that changes mid-array costs only the shortcut.

    The reader is built from parts of ``json.decoder`` that are not public:
    ``JSONObject`` called with its positional arguments, ``JSONArray``,
    ``WHITESPACE``, and ``raw_decode`` calling the decoder's ``scan_once``
    attribute, which the reader replaces. ``tests/test_maxparser.py`` parses
    a valid and an invalid document through them, so a Python that changes
    them fails there.

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
        # each array the read at hand met: its items, the positions of its
        # "[" and "]", and each object element's start and end, counted from
        # the "["
        arrays: list[tuple[list, int, int, list[int], list[int]]] = []
        self._arrays = arrays
        follows: dict[str, str] = {}  # an element text -> the text that followed it
        decoder = json.JSONDecoder(parse_int=str.encode, parse_float=str.encode,
                                   parse_constant=_reject_constant)
        scan = self._scan = decoder.scan_once  # the C scanner where there is one
        skip = self._skip = json.decoder.WHITESPACE.match
        # Every value is scanned whole except the document and its patcher
        # objects, which the standard library's object reader reads around
        # these scanners, and a patcher's arrays, whose object elements
        # ``array`` looks up first. At the first thing ``array`` does not
        # expect, which only invalid JSON holds, the standard library's array
        # reader reads the array again and raises the error json.loads gives.

        def array(s: str, idx: int):
            # every object element as (its text, its value or None if known)
            items, starts, ends = [], [], []
            append, startswith = items.append, s.startswith
            at, until = starts.append, ends.append
            pos = skip(s, idx + 1).end()
            if startswith("]", pos):
                arrays.append((items, idx, pos, starts, ends))
                return items, pos + 1
            # the text from the end of an element through the "{" of the
            # next, as the array's first such gap reads; where it follows an
            # object element again, it is the same whitespace, comma and "{"
            sep = None
            last = None  # the text of the last object element
            while True:
                if startswith("{", pos):
                    # a text seen before is a complete object: it ends where it did
                    text = follows.get(last)
                    if text is not None and startswith(text, pos):
                        end = pos + len(text)
                        append((text, None))
                    else:
                        value, end = scan(s, pos)
                        text = s[pos:end]
                        append((text, value))
                        if last is not None:
                            follows[last] = text
                    last = text
                    at(pos - idx)
                    until(end - idx)
                    if sep is not None and startswith(sep, end):
                        pos = end + to_next
                        continue
                else:
                    try:
                        value, end = scan(s, pos)
                    except StopIteration:
                        return json.decoder.JSONArray((s, idx + 1), scan)
                    append(value)
                pos = skip(s, end).end()
                if startswith("]", pos):
                    arrays.append((items, idx, pos, starts, ends))
                    return items, pos + 1
                if not startswith(",", pos):
                    return json.decoder.JSONArray((s, idx + 1), scan)
                pos = skip(s, pos + 1).end()
                if sep is None and startswith("{", pos):
                    sep = s[end:pos + 1]
                    to_next = len(sep) - 1

        def patcher_value(s: str, idx: int):
            if s.startswith("[", idx):
                return array(s, idx)
            return scan(s, idx)

        def document_value(s: str, idx: int):
            if s.startswith("{", idx):
                return json.decoder.JSONObject((s, idx + 1), True, patcher_value,
                                               None, None)
            return scan(s, idx)

        def document(s: str, idx: int):
            if s.startswith("{", idx):
                return json.decoder.JSONObject((s, idx + 1), True, document_value,
                                               None, None)
            return scan(s, idx)

        def read(s: str):
            arrays.clear()
            return decoder.decode(s)

        decoder.scan_once = document
        self._read = read

    def _remember(self, text: str, source_path: str, prop_filter: PropertyFilter,
                  patcher: dict, nodes: dict, wires: dict, ir: VisualIR) -> None:
        """Keep the document just read as the last one of ``prop_filter``;
        one whose ``boxes`` or ``lines`` array was not read as such drops it."""
        spans = {}
        for items, start, end, starts, ends in self._arrays:
            for name in ("boxes", "lines"):
                if patcher.get(name) is items and len(starts) == len(items):
                    spans[name] = _Array(start, end, starts, ends)
        self._arrays.clear()
        if len(spans) == 2:
            self._last[prop_filter] = _Document(text, source_path, spans["boxes"],
                                                spans["lines"], nodes, wires, ir)
        else:
            self._last.pop(prop_filter, None)


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
        if text.startswith("\ufeff"):  # json.loads refuses it in these words
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       text, 0)
        last = table._last.get(prop_filter)
        if last is not None and last.source_path == source_path:
            ir = _splice(text, last, prop_filter, table)
            if ir is not None:
                return ir
        doc = table._read(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("patcher"), dict):
            raise PatchSyntaxError("document has no top-level patcher")
        patcher = doc["patcher"]
        nodes, wires = _patcher_parts(patcher, prop_filter, source_path, 0, table)
        ir = intern_ir(Language.MAX_MSP, source_path, nodes, wires,
                       table._boxes[prop_filter][1])
        table._remember(text, source_path, prop_filter, patcher, nodes, wires, ir)
        return ir
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
    nodes, wires = _patcher_parts(patcher, prop_filter, source_path, depth, table)
    return intern_ir(Language.MAX_MSP, source_path, nodes, wires,
                     table._boxes[prop_filter][1])


def _patcher_parts(patcher: dict, prop_filter: PropertyFilter, source_path: str,
                   depth: int, table: MaxNodeTable) -> tuple[dict, dict]:
    """What ``intern_ir`` takes of a patcher: its box nodes and wires. The
    object elements of a top-level patcher's arrays come as (text, value) pairs
    (see :class:`MaxNodeTable`), those of a nested one as values."""
    if depth > MAX_NESTING:
        raise _too_deep()
    boxes = patcher.get("boxes", [])
    if not isinstance(boxes, list):
        raise PatchSyntaxError("patcher boxes must be an array")
    known, _ = table._boxes.setdefault(prop_filter, ({}, {}))
    known_get = known.get
    nodes: dict[str, tuple] = {}  # box id -> (key, contents); a key of None is not shared
    for item in boxes:
        # an element of a top-level patcher is (text, value): one lookup
        # finds a box met before under its text alone
        entry = known_get(item[0]) if type(item) is tuple else None
        if entry is None:
            entry = _box_entry(item, nodes, known, prop_filter, source_path, depth, table)
        box_id, node = entry
        if box_id in nodes:
            raise PatchSyntaxError(f"duplicate box id {box_id!r}")
        nodes[box_id] = node

    lines = patcher.get("lines", [])
    if not isinstance(lines, list):
        raise PatchSyntaxError("patcher lines must be an array")
    lines_get = table._lines.get
    wires: dict[str, list[tuple[str, int, int]]] = {}
    for item in lines:
        wire = lines_get(item[0]) if type(item) is tuple else None
        if wire is None:
            wire = _wire(item, table)
        src_id, conn = wire
        if src_id not in nodes:
            raise PatchSyntaxError(f"patchline source references unknown box {src_id!r}")
        if conn[0] not in nodes:
            raise PatchSyntaxError(
                f"patchline destination references unknown box {conn[0]!r}"
            )
        wires.setdefault(src_id, []).append(conn)
    return nodes, wires


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

    source_path = last.source_path
    known, shared = table._boxes[prop_filter]
    known_get, lines_get = known.get, table._lines.get

    def make_box(item):
        entry = known_get(item[0])
        if entry is None:
            entry = _box_entry(item, {}, known, prop_filter, source_path, 0, table)
        return entry

    def make_wire(item):
        wire = lines_get(item[0])
        return _wire(item, table) if wire is None else wire

    try:
        boxes = _splice_array(s, t, last.boxes, *spans[0], table)
        lines = boxes and _splice_array(s, t, last.lines, *spans[1], table)
        if lines is None:
            return None
        (boxes, old_boxes, new_boxes), (lines, old_lines, new_lines) = boxes, lines
        # what the old runs made is in the table under their texts
        old_boxes = [known_get(text) or known_get((source_path, text))
                     for text in old_boxes]
        old_lines = [lines_get(text) for text in old_lines]
        new_boxes = [make_box(item) for item in new_boxes]
        new_lines = [make_wire(item) for item in new_lines]
    except (PatchSyntaxError, ValueError, StopIteration, RecursionError):
        return None  # the full read says what is wrong, as a fresh table does

    # the last document's nodes and wires, less the old runs, plus the new
    nodes = dict(last.nodes)
    for box_id, _ in old_boxes:
        del nodes[box_id]
    for box_id, node in new_boxes:
        if box_id in nodes:
            return None  # a duplicate id
        nodes[box_id] = node
    wires = dict(last.wires)
    touched: dict[str, list] = {}  # source id -> its wires, as they now are
    for src_id, conn in old_lines:
        if src_id not in touched:
            touched[src_id] = list(wires[src_id])
        touched[src_id].remove(conn)
    for src_id, conn in new_lines:
        if src_id not in nodes or conn[0] not in nodes:
            return None  # a wire to a box that is not there
        if src_id not in touched:
            touched[src_id] = list(wires.get(src_id, ()))
        touched[src_id].append(conn)
    for src_id, conns in touched.items():
        if conns:
            wires[src_id] = conns
        else:
            del wires[src_id]
    gone = {box_id for box_id, _ in old_boxes if box_id not in nodes}
    if gone and (not gone.isdisjoint(wires) or any(
            conn[0] in gone for conns in wires.values() for conn in conns)):
        return None  # a wire left to a box that went

    # the last IR, with the boxes whose entry or wires changed built again
    changed = {box_id for box_id, _ in new_boxes}.union(touched).difference(gone)
    rebuilt = intern_ir(Language.MAX_MSP, source_path,
                        {box_id: nodes[box_id] for box_id in changed}, wires,
                        shared).subtrees
    subtrees = dict(last.ir.subtrees)
    for box_id in gone:
        del subtrees[box_id]
    subtrees.update(rebuilt)
    if not rebuilt.keys() <= last.nodes.keys():  # a new id: back into id order
        subtrees = {box_id: subtrees[box_id] for box_id in sorted(subtrees)}
    ir = VisualIR(subtrees, Language.MAX_MSP, source_path)
    table._last[prop_filter] = _Document(s, source_path, boxes, lines, nodes, wires, ir)
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
    after = ends[first - 1] if first else 1
    until = starts[stop] if stop < len(starts) else old_size
    run = _read_run(s, start + after, start + until + shift, first > 0,
                    stop < len(starts), table)
    if run is None:
        return None
    at, items = run
    kept_starts, kept_ends = starts[stop:], ends[stop:]
    if shift:
        kept_starts = [k + shift for k in kept_starts]
        kept_ends = [k + shift for k in kept_ends]
    return (_Array(start, end,
                   starts[:first] + [k - start for k in at] + kept_starts,
                   ends[:first] + [k - start + len(item[0])
                                       for k, item in zip(at, items)] + kept_ends),
            [t[old.open + starts[k]:old.open + ends[k]] for k in range(first, stop)],
            items)


def _read_run(s: str, pos: int, stop: int, lead: bool, trail: bool,
              table: MaxNodeTable) -> tuple[list[int], list[tuple]] | None:
    """The object elements of ``s[pos:stop]``, a run of array elements that
    follows an element where ``lead`` is true and comes before one where
    ``trail`` is, as their starts and their (text, value) pairs; None where
    the text is not such a run."""
    skip, scan, startswith = table._skip, table._scan, s.startswith
    starts, items = [], []
    pos = skip(s, pos).end()
    after = lead  # whether an element ends before pos
    while True:
        if after:
            if pos == stop and not trail:
                break
            if not startswith(",", pos):
                return None
            pos = skip(s, pos + 1).end()
            if pos == stop and trail:
                break
        elif pos == stop:
            break
        if not startswith("{", pos):
            return None
        value, end = scan(s, pos)
        if end > stop:
            return None
        starts.append(pos)
        items.append((s[pos:end], value))
        pos = skip(s, end).end()
        after = True
    return starts, items


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
        if item is None:  # seen, but not as such a box
            item = table._scan(text, 0)[0]
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
        if item is None:  # seen, but not as a patchline
            item = table._scan(text, 0)[0]
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

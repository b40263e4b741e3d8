"""Pure Data ``.pd`` patch parser.

The text format is a stream of records terminated by an unescaped ``;``.
Records start with a chunk marker (``#N`` canvas declarations, ``#X``
elements, ``#A`` array data); a backslash escapes the following character,
whitespace and newlines included, so ``\\;`` does not terminate and a lone
backslash at the end of the text leaves its record unterminated. Each record
is one match of a compiled pattern (plain characters and escapes up to an
unescaped ``;``); a body without a backslash splits into atoms with
``str.split()``, one with a backslash through an atom pattern in which a
backslash keeps the next character, and record line spans are counted from
the newlines before each record's first atom and its ``;``. The format has
no node ids, so pseudo-ids ``obj-<k>`` are assigned by the 0-based ordinal
position of node-defining records on their canvas — meaning an insertion
shifts every later id, which is exactly the instability the Max format
avoids with persistent ids.

Grammar subset: node-defining elements are obj, msg, text (comments appear as
nodes in the editor), floatatom, symbolatom, number, and array (so ``#A``
data has a home); ``connect`` wires ordinals, ``coords`` is layout, a nested
``#N canvas``/``#X restore`` pair becomes one node whose contents nest the
subcanvas IR. Anything else is skipped. An ``#A`` record writes its values
from the index given by its first atom. Layout is excluded unless
``include_layout`` is set: the x/y coordinates and the box width, which Pd
appends to a box's atoms as an unescaped ``, f <int>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PatchSyntaxError
from .ir import (
    MAX_NESTING,
    NUMBER_RE,
    Connection,
    Language,
    NodeSubtree,
    Num,
    VisualIR,
    canonicalize,
)

NODE_ELEMENTS = {"obj", "msg", "text", "floatatom", "symbolatom", "number", "array"}
COORDLESS_ELEMENTS = {"array"}
_DIGITS = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class PdRecord:
    chunk: str  # "N", "X", or "A"
    element: str  # empty for #A data records
    atoms: tuple[str, ...]
    source_span: tuple[int, int]

    @property
    def is_node(self) -> bool:
        return self.chunk == "X" and self.element in NODE_ELEMENTS


# One record from the end of the last: plain characters and backslash escapes
# up to an unescaped ``;``. Each piece starts with a character no other piece
# starts with, so a failed match (an unterminated last record) backtracks
# linearly; a leading ``\s*`` would overlap ``[^;\\]`` and break that. Only
# syntax that Python 3.10 compiles (no possessive quantifiers).
_RECORD = re.compile(r"[^;\\]*(?:\\[\s\S][^;\\]*)*;")
_NON_SPACE = re.compile(r"\S")
# An atom in a record body with escapes: a backslash takes the next character,
# whitespace included. A body without escapes splits with ``str.split()``,
# which is faster.
_ESCAPED_ATOM = re.compile(r"(?=\S)[^\s\\]*(?:\\[\s\S][^\s\\]*)*")


def split_records(text: str) -> list[PdRecord]:
    """Tokenize patch text into records, honoring ``\\;`` escapes.

    Whitespace is what ``str.isspace`` accepts; ``re``'s ``\\s``,
    ``str.split()`` and ``str.lstrip()`` use the same set. A span is the lines
    of the record's first atom and of its ``;``.
    """
    records: list[PdRecord] = []
    match = _RECORD.match
    count = text.count
    pos = 0
    line = 1  # the line of text[pos]
    while (m := match(text, pos)) is not None:
        end = m.end() - 1
        body = text[pos:end]
        start = end - len(body.lstrip())
        start_line = line + count("\n", pos, start)
        line = start_line + count("\n", start, end)
        tokens = _ESCAPED_ATOM.findall(body) if "\\" in body else body.split()
        records.append(_make_record(tokens, (start_line, line)))
        pos = end + 1
    rest = _NON_SPACE.search(text, pos)
    if rest is not None:
        start_line = line + count("\n", pos, rest.start())
        raise PatchSyntaxError("unterminated record",
                               (start_line, line + count("\n", pos)))
    return records


def _make_record(tokens: list[str], span: tuple[int, int]) -> PdRecord:
    if not tokens:
        raise PatchSyntaxError("empty record", span)
    marker = tokens[0]
    if marker == "#N" or marker == "#X":
        if len(tokens) < 2:
            raise PatchSyntaxError(f"record {marker} has no element", span)
        return PdRecord(marker[1], tokens[1], tuple(tokens[2:]), span)
    if marker == "#A":
        return PdRecord("A", "", tuple(tokens[1:]), span)
    raise PatchSyntaxError(f"unknown chunk {marker!r}", span)


def pd_node_properties(record: PdRecord, include_layout: bool = False) -> dict:
    """Contents for a node-defining record: at minimum element and the text
    after the x/y coordinates; coordinates and box width only with
    ``include_layout``."""
    atoms = record.atoms
    if record.element in COORDLESS_ELEMENTS:
        return {"element": record.element, "text": " ".join(atoms)}
    atoms, width = _split_width(atoms)
    if len(atoms) < 2:
        raise PatchSyntaxError(
            f"{record.element} record missing coordinates", record.source_span
        )
    contents = {"element": record.element, "text": " ".join(atoms[2:])}
    if include_layout:
        contents["x"] = _layout_value(atoms[0])
        contents["y"] = _layout_value(atoms[1])
        if width is not None:
            contents["width"] = _layout_value(width)
    return contents


def _split_width(atoms: tuple[str, ...]) -> tuple[tuple[str, ...], str | None]:
    """The atoms without a trailing ``, f <int>`` box-width suffix, and the
    width (None without a suffix). Pd writes the suffix's comma unescaped and
    attached to the atom before it; an escaped ``\\,`` is message content."""
    if len(atoms) < 3 or atoms[-2] != "f" or not _DIGITS.fullmatch(atoms[-1]):
        return atoms, None
    last = atoms[-3]
    stem = last[:-1]
    if not last.endswith(",") or (len(stem) - len(stem.rstrip("\\"))) % 2:
        return atoms, None  # no comma, or one escaped by an odd backslash run
    return atoms[:-3] + ((stem,) if stem else ()), atoms[-1]


def _layout_value(token: str):
    return Num(token) if NUMBER_RE.match(token) else token


class _Canvas:
    def __init__(self, span: tuple[int, int]):
        self.span = span
        self.contents: list[dict] = []
        self.connects: list[tuple[tuple[str, ...], tuple[int, int]]] = []

    def close(self, source_path: str) -> VisualIR:
        connections: dict[int, list[Connection]] = {}
        for atoms, span in self.connects:
            if len(atoms) != 4:
                raise PatchSyntaxError("connect record needs 4 indices", span)
            try:
                src, outlet, dst, inlet = (int(a) for a in atoms)
            except ValueError:
                raise PatchSyntaxError("connect indices must be integers", span)
            if not (0 <= src < len(self.contents) and 0 <= dst < len(self.contents)):
                raise PatchSyntaxError("connect index out of range", span)
            if outlet < 0 or inlet < 0:
                raise PatchSyntaxError("connect ports must be >= 0", span)
            connections.setdefault(src, []).append(Connection(outlet, f"obj-{dst}", inlet))
        subtrees = {
            f"obj-{k}": NodeSubtree(
                connections=tuple(connections.get(k, ())),
                serialized_contents=contents,
            )
            for k, contents in enumerate(self.contents)
        }
        return VisualIR(
            subtrees=subtrees, source_language=Language.PURE_DATA,
            source_path=source_path,
        )


def parse_pd(text: str, include_layout: bool = False, source_path: str = "") -> VisualIR:
    """Parse ``.pd`` text into a canonical IR; PatchSyntaxError aborts the
    whole file version (callers record it as unparseable)."""
    records = split_records(text)
    if not records:
        raise PatchSyntaxError("empty patch file", (1, 1))
    first = records[0]
    if first.chunk != "N" or first.element != "canvas":
        raise PatchSyntaxError("patch must start with a canvas declaration",
                               first.source_span)
    stack = [_Canvas(first.source_span)]
    for record in records[1:]:
        if record.chunk == "N":
            if record.element == "canvas":
                if len(stack) > MAX_NESTING:
                    raise PatchSyntaxError(
                        f"subcanvases nest deeper than {MAX_NESTING} levels",
                        record.source_span,
                    )
                stack.append(_Canvas(record.source_span))
            continue  # struct declarations etc. — outside the grammar subset
        if record.chunk == "A":
            _attach_array_data(stack[-1], record)
            continue
        if record.element == "restore":
            if len(stack) == 1:
                raise PatchSyntaxError("restore without open subcanvas",
                                       record.source_span)
            closed = stack.pop().close(source_path)
            contents = pd_node_properties(record, include_layout=include_layout)
            contents["subpatch"] = closed
            stack[-1].contents.append(contents)
        elif record.element == "connect":
            stack[-1].connects.append((record.atoms, record.source_span))
        elif record.is_node:
            stack[-1].contents.append(
                pd_node_properties(record, include_layout=include_layout)
            )
        # any other #X element (coords, declare, scalar, ...) is skipped
    if len(stack) != 1:
        raise PatchSyntaxError("unbalanced subcanvas", stack[-1].span)
    return canonicalize(stack[0].close(source_path))


def _attach_array_data(canvas: _Canvas, record: PdRecord) -> None:
    """An ``#A`` record's first atom is the index its values are written
    from; it may not leave a gap after the values already read."""
    if not canvas.contents or canvas.contents[-1].get("element") != "array":
        raise PatchSyntaxError("array data without an array object",
                               record.source_span)
    data = canvas.contents[-1].setdefault("data", [])
    index, *values = record.atoms or ("",)
    # a longer index is out of range anyway, and int() refuses huge digit runs
    start = int(index) if len(index) < 19 and _DIGITS.fullmatch(index) else -1
    if not 0 <= start <= len(data):
        raise PatchSyntaxError(
            f"array data start index {index!r} is not an integer from 0 to {len(data)}",
            record.source_span,
        )
    data[start:start + len(values)] = [_layout_value(tok) for tok in values]


def decode_patch_bytes(data: bytes) -> tuple[str, list[str]]:
    """UTF-8 without a leading byte-order mark, with Latin-1 fallback; the
    fallback is reported as a warning."""
    try:
        return data.decode("utf-8-sig"), []
    except UnicodeDecodeError:
        return data.decode("latin-1"), ["decoded as latin-1 (invalid utf-8)"]

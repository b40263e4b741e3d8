"""Pure Data ``.pd`` patch parser.

The text format is a stream of records terminated by an unescaped ``;``.
Records start with a chunk marker (``#N`` canvas declarations, ``#X``
elements, ``#A`` array data); a backslash escapes the following character, so
``\\;`` does not terminate. The format has no node ids, so pseudo-ids
``obj-<k>`` are assigned by the 0-based ordinal position of node-defining
records on their canvas — meaning an insertion shifts every later id, which
is exactly the instability the Max format avoids with persistent ids.

Grammar subset: node-defining elements are obj, msg, text (comments appear as
nodes in the editor), floatatom, symbolatom, number, and array (so ``#A``
data has a home); ``connect`` wires ordinals, ``coords`` is layout, a nested
``#N canvas``/``#X restore`` pair becomes one node whose contents nest the
subcanvas IR. Anything else is skipped. Layout x/y coordinates are excluded
unless ``include_layout`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PatchSyntaxError
from .ir import (
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


@dataclass(frozen=True)
class PdRecord:
    chunk: str  # "N", "X", or "A"
    element: str  # empty for #A data records
    atoms: tuple[str, ...]
    source_span: tuple[int, int]

    @property
    def is_node(self) -> bool:
        return self.chunk == "X" and self.element in NODE_ELEMENTS


def split_records(text: str) -> list[PdRecord]:
    """Tokenize patch text into records, honoring ``\\;`` escapes."""
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
            records.append(_make_record(tokens, (start_line, line)))
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
    after the x/y coordinates; coordinates only with ``include_layout``."""
    atoms = record.atoms
    if record.element in COORDLESS_ELEMENTS:
        return {"element": record.element, "text": " ".join(atoms)}
    if len(atoms) < 2:
        raise PatchSyntaxError(
            f"{record.element} record missing coordinates", record.source_span
        )
    contents = {"element": record.element, "text": " ".join(atoms[2:])}
    if include_layout:
        contents["x"] = _layout_value(atoms[0])
        contents["y"] = _layout_value(atoms[1])
    return contents


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
            contents = pd_node_properties(
                _restore_as_node(record), include_layout=include_layout
            )
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


def _restore_as_node(record: PdRecord) -> PdRecord:
    return PdRecord("X", "restore", record.atoms, record.source_span)


def _attach_array_data(canvas: _Canvas, record: PdRecord) -> None:
    if not canvas.contents or canvas.contents[-1].get("element") != "array":
        raise PatchSyntaxError("array data without an array object",
                               record.source_span)
    data = canvas.contents[-1].setdefault("data", [])
    data.extend(_layout_value(tok) for tok in record.atoms)


def decode_patch_bytes(data: bytes) -> tuple[str, list[str]]:
    """UTF-8 without a leading byte-order mark, with Latin-1 fallback; the
    fallback is reported as a warning."""
    try:
        return data.decode("utf-8-sig"), []
    except UnicodeDecodeError:
        return data.decode("latin-1"), ["decoded as latin-1 (invalid utf-8)"]

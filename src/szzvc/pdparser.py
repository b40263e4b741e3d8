"""Pure Data ``.pd`` patch parser.

The text format is a stream of records terminated by an unescaped ``;``.
Records start with a chunk marker (``#N`` canvas declarations, ``#X``
elements, ``#A`` array data); a backslash escapes the following character,
whitespace and newlines included, so ``\\;`` does not terminate and a lone
backslash at the end of the text leaves its record unterminated. A text
without a backslash splits into records with ``str.split(";")``; one with a
backslash is cut one match of a compiled pattern at a time (plain characters
and escapes up to an unescaped ``;``). A record body splits into atoms
through one atom pattern, in which a backslash keeps the next character. The
format has no node ids, so pseudo-ids ``obj-<k>`` are assigned by the 0-based
ordinal position of node-defining records on their canvas — meaning an
insertion shifts every later id, which is exactly the instability the Max
format avoids with persistent ids.

Grammar subset: node-defining elements are obj, msg, text (comments appear as
nodes in the editor), floatatom, symbolatom, number, and array (so ``#A``
data has a home); ``connect`` wires ordinals, ``coords`` is layout, a nested
``#N canvas``/``#X restore`` pair becomes one node whose contents nest the
subcanvas IR. Anything else is skipped. An ``#A`` record writes its values
from the index given by its first atom. Layout is excluded unless
``include_layout`` is set: the x/y coordinates and the box width, which Pd
appends to a box's atoms as an unescaped ``, f <int>``.

Versions of one file share almost all of their records, so the parser keeps
what it builds in a :class:`PdNodeTable`: a record text seen before is not
tokenized again, and a node equal to one built before (contents and sorted
connections) is that same ``NodeSubtree`` object, which is hash-consing
(Filliâtre and Conchon, ML 2006). The IR comes out in canonical form
directly. A record's line span is counted only when an error names it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .errors import PatchSyntaxError
from .ir import (
    MAX_NESTING,
    NUMBER_RE,
    Connection,
    Language,
    NodeSubtree,
    Num,
    VisualIR,
    canonicalize,  # noqa: F401  unused; perfbench traces pdparser.canonicalize by name
)

NODE_ELEMENTS = {"obj", "msg", "text", "floatatom", "symbolatom", "number", "array"}
COORDLESS_ELEMENTS = {"array"}
_DIGITS = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class PdRecord:
    chunk: str  # "N", "X", or "A"
    element: str  # empty for #A data records
    atoms: tuple[str, ...]
    source_span: tuple[int, int] | None

    @property
    def is_node(self) -> bool:
        return self.chunk == "X" and self.element in NODE_ELEMENTS


# One record from the end of the last, its body captured: plain characters and
# backslash escapes up to an unescaped ``;``. Each piece starts with a
# character no other piece starts with, so a failed match (an unterminated
# last record) backtracks linearly; a leading ``\s*`` would overlap ``[^;\\]``
# and break that. Only syntax that Python 3.10 compiles (no possessive
# quantifiers).
_RECORD = re.compile(r"([^;\\]*(?:\\[\s\S][^;\\]*)*);")
_NON_SPACE = re.compile(r"\S")
# An atom in a record body: a backslash takes the next character, whitespace
# included.
_ESCAPED_ATOM = re.compile(r"(?=\S)[^\s\\]*(?:\\[\s\S][^\s\\]*)*")


def _scan(text: str) -> tuple[list[str], PatchSyntaxError | None]:
    """Each record's body (its text without the ``;``, leading whitespace
    kept), and the error for an unterminated last record if there is one;
    callers raise it after the errors of the records before it."""
    if "\\" not in text:  # nothing escaped: every ";" ends a record
        bodies = text.split(";")
        pos = len(text) - len(bodies.pop())
    else:
        bodies = []
        match = _RECORD.match
        pos = 0
        while (m := match(text, pos)) is not None:
            bodies.append(m.group(1))
            pos = m.end()
    rest = _NON_SPACE.search(text, pos)
    if rest is None:
        return bodies, None
    span = (text.count("\n", 0, rest.start()) + 1, text.count("\n") + 1)
    return bodies, PatchSyntaxError("unterminated record", span)


def _spans(text: str, bodies: list[str]):
    """The line span of each record: the lines of its first atom and of its
    ``;``. Whitespace is what ``str.isspace`` accepts; ``re``'s ``\\s``,
    ``str.split()`` and ``str.lstrip()`` use the same set."""
    count = text.count
    pos, line = 0, 1  # line is the line of text[pos]
    for body in bodies:
        end = pos + len(body)
        start = end - len(body.lstrip())
        start_line = line + count("\n", pos, start)
        line = start_line + count("\n", start, end)
        yield start_line, line
        pos = end + 1


def split_records(text: str) -> list[PdRecord]:
    """Tokenize patch text into records, honoring ``\\;`` escapes.

    ``parse_pd`` shares its scanner and tokenizer but does not call it; it
    stays for callers that want the records, and perfbench traces
    ``pdparser.split_records`` by name."""
    bodies, unterminated = _scan(text)
    records = [_make_record(body, span) for body, span in zip(bodies, _spans(text, bodies))]
    if unterminated is not None:
        raise unterminated
    return records


def _make_record(body: str, span: tuple[int, int] | None) -> PdRecord:
    tokens = _ESCAPED_ATOM.findall(body)
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
    ``include_layout``. Keys are in sorted order, as in every canonical IR."""
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
        if width is not None:
            contents["width"] = _layout_value(width)
        contents["x"] = _layout_value(atoms[0])
        contents["y"] = _layout_value(atoms[1])
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


# What a record means to the parser, built once per record text. Forms are
# (kind, ...): (_NODE, (tag, contents), error), (_RESTORE, contents, error),
# (_CONNECT, (src, outlet, dst, inlet), error), (_ARRAY_DATA, index, start,
# values), (_CANVAS,) and (_SKIP,). ``error`` is a message that depends on
# the record alone; it is raised only when the parse reaches the record, so
# that errors come in the order the records' meaning asks for.
_NODE, _CONNECT, _CANVAS, _RESTORE, _ARRAY_DATA, _SKIP = range(6)


class PdNodeTable:
    """What :func:`parse_pd` built, for the parses that come after.

    - Each record text seen, tokenized and turned into its form (node
      contents, connect indices, array values), one map per
      ``include_layout``.
    - Each distinct node contents map, once, with an integer tag.
    - Each distinct node, keyed by its contents tag and its sorted
      connections, as one ``NodeSubtree`` (hash-consing): an unchanged node
      is the same object in every version that holds it.
    - The ``obj-<k>`` ids and their lexicographic order for each node count,
      built as parses first need them.

    Nothing in it is changed once built; it only grows. A
    :class:`~szzvc.miner.MiningCache` owns one for its run, and ``parse_pd``
    makes a fresh one for a caller that passes none.
    """

    def __init__(self):
        self._forms: tuple[dict[str, tuple], dict[str, tuple]] = ({}, {})
        self._contents: dict[tuple, tuple[int, dict]] = {}
        self._subtrees: dict[object, NodeSubtree] = {}
        self._ids: list[str] = []
        self._orders: dict[int, list[int]] = {}

    def _form(self, record: PdRecord, include_layout: bool) -> tuple:
        if record.chunk == "A":
            index, *values = record.atoms or ("",)
            # a longer index is out of range anyway, and int() refuses huge digit runs
            start = int(index) if len(index) < 19 and _DIGITS.fullmatch(index) else -1
            return _ARRAY_DATA, index, start, tuple(map(_layout_value, values))
        if record.chunk == "N":
            return (_CANVAS,) if record.element == "canvas" else (_SKIP,)
        if record.element == "connect":
            if len(record.atoms) != 4:
                return _CONNECT, None, "connect record needs 4 indices"
            try:
                return _CONNECT, tuple(int(a) for a in record.atoms), None
            except ValueError:
                return _CONNECT, None, "connect indices must be integers"
        if record.element != "restore" and not record.is_node:
            return (_SKIP,)  # any other #X element (coords, declare, scalar, ...)
        kind = _RESTORE if record.element == "restore" else _NODE
        try:
            contents = pd_node_properties(record, include_layout=include_layout)
        except PatchSyntaxError as exc:  # the record has no span: a bare message
            return kind, None, str(exc)
        if kind == _RESTORE:
            return kind, contents, None
        key = tuple(contents.items())
        node = self._contents.get(key)
        if node is None:
            node = self._contents[key] = (len(self._contents), contents)
        return kind, node, None

    def _close(self, nodes: list[tuple[int | None, dict]], connects: list[int],
               forms: list[tuple], source_path: str, error) -> VisualIR:
        """The IR of one canvas: its nodes as (contents tag, contents), a
        tag of None marking contents of the node's own that are not shared,
        and the indices of its connect records."""
        count = len(nodes)
        ids = self._ids
        if len(ids) < count:
            ids.extend(f"obj-{k}" for k in range(len(ids), count))
        order = self._orders.get(count)
        if order is None:  # ordinals in lexicographic id order: obj-10 before obj-2
            order = self._orders[count] = sorted(range(count), key=ids.__getitem__)
        wires: dict[int, list[tuple[str, int, int]]] = {}
        for i in connects:
            _, indices, message = forms[i]
            if message is not None:
                raise error(i, message)
            src, outlet, dst, inlet = indices
            if not (0 <= src < count and 0 <= dst < count):
                raise error(i, "connect index out of range")
            if outlet < 0 or inlet < 0:
                raise error(i, "connect ports must be >= 0")
            wires.setdefault(src, []).append((ids[dst], outlet, inlet))
        shared = self._subtrees
        subtrees = {}
        for k in order:
            tag, contents = nodes[k]
            # (dest id, outlet, inlet) tuples sort in Connection.sort_key order
            conns = tuple(sorted(wires[k])) if k in wires else ()
            key = (tag, conns) if conns else tag
            subtree = shared.get(key) if tag is not None else None
            if subtree is None:
                subtree = NodeSubtree(
                    tuple(Connection(outlet, dest, inlet) for dest, outlet, inlet in conns),
                    contents,
                )
                if tag is not None:
                    shared[key] = subtree
            subtrees[ids[k]] = subtree
        return VisualIR(subtrees=subtrees, source_language=Language.PURE_DATA,
                        source_path=source_path)


def parse_pd(text: str, include_layout: bool = False, source_path: str = "",
             table: PdNodeTable | None = None) -> VisualIR:
    """Parse ``.pd`` text into a canonical IR; PatchSyntaxError aborts the
    whole file version (callers record it as unparseable).

    ``table`` holds what earlier parses built (see :class:`PdNodeTable`): a
    record text it holds is not tokenized again, and a node equal to one in
    it is returned as that same object. A ``MiningCache`` passes the table
    of its run; without one the parse makes a fresh table, which is the same
    code path with nothing to reuse.
    """
    table = PdNodeTable() if table is None else table
    bodies, unterminated = _scan(text)

    def error(i: int, message: str) -> PatchSyntaxError:
        return PatchSyntaxError(message, next(islice(_spans(text, bodies), i, None)))

    known = table._forms[include_layout]
    forms: list[tuple] = []
    for body in bodies:
        form = known.get(body)
        if form is None:
            try:
                record = _make_record(body, None)
            except PatchSyntaxError as exc:
                raise error(len(forms), str(exc)) from None
            form = known[body] = table._form(record, include_layout)
        forms.append(form)
    if unterminated is not None:
        raise unterminated
    if not forms:
        raise PatchSyntaxError("empty patch file", (1, 1))
    if forms[0][0] != _CANVAS:
        raise error(0, "patch must start with a canvas declaration")
    # the open canvas: its record index, nodes and connect record indices;
    # the canvases around it wait on the stack
    opened, nodes, connects = 0, [], []
    stack: list[tuple[int, list, list]] = []
    for i in range(1, len(forms)):
        form = forms[i]
        kind = form[0]
        if kind == _NODE:
            if form[2] is not None:
                raise error(i, form[2])
            nodes.append(form[1])
        elif kind == _CONNECT:
            connects.append(i)
        elif kind == _CANVAS:
            if len(stack) >= MAX_NESTING:
                raise error(i, f"subcanvases nest deeper than {MAX_NESTING} levels")
            stack.append((opened, nodes, connects))
            opened, nodes, connects = i, [], []
        elif kind == _RESTORE:
            if not stack:
                raise error(i, "restore without open subcanvas")
            closed = table._close(nodes, connects, forms, source_path, error)
            if form[2] is not None:
                raise error(i, form[2])
            opened, nodes, connects = stack.pop()
            # contents written after their record are the node's own
            nodes.append((None, dict(sorted({**form[1], "subpatch": closed}.items()))))
        elif kind == _ARRAY_DATA:
            _attach_array_data(nodes, form, i, error)
    if stack:
        raise error(opened, "unbalanced subcanvas")
    return table._close(nodes, connects, forms, source_path, error)


def _attach_array_data(nodes: list, form: tuple, i: int, error) -> None:
    """An ``#A`` record's first atom is the index its values are written
    from; it may not leave a gap after the values already read. The array
    node gets contents of its own, since they are written after its record."""
    _, index, start, values = form
    if not nodes or nodes[-1][1].get("element") != "array":
        raise error(i, "array data without an array object")
    tag, contents = nodes[-1]
    if tag is not None:  # still the shared contents of the array's record
        contents = {"data": [], **contents}  # "data" sorts before element, text
        nodes[-1] = (None, contents)
    data = contents["data"]
    if not 0 <= start <= len(data):
        raise error(
            i, f"array data start index {index!r} is not an integer from 0 to {len(data)}"
        )
    data[start:start + len(values)] = values


def decode_patch_bytes(data: bytes) -> tuple[str, list[str]]:
    """UTF-8 without a leading byte-order mark, with Latin-1 fallback; the
    fallback is reported as a warning."""
    try:
        return data.decode("utf-8-sig"), []
    except UnicodeDecodeError:
        return data.decode("latin-1"), ["decoded as latin-1 (invalid utf-8)"]

"""Pure Data ``.pd`` patch parser.

The text format is a stream of records terminated by an unescaped ``;``.
Records start with a chunk marker (``#N`` canvas declarations, ``#X``
elements, ``#A`` array data); a backslash escapes the following character,
whitespace and newlines included, so ``\\;`` does not terminate and a lone
backslash at the end of the text leaves its record unterminated. A text
without a backslash splits into records with ``str.split(";")``; one with a
backslash is cut one match of a compiled pattern at a time (plain characters
and escapes up to an unescaped ``;``). A record body without a backslash
splits into atoms with ``str.split()``, which cuts at the same whitespace as
``re``'s ``\\s`` and ``str.isspace``; one with a backslash splits through an
atom pattern in which a backslash keeps the next character. The format has
no node ids, so pseudo-ids ``obj-<k>`` are assigned by the 0-based
ordinal position of node-defining records on their canvas — meaning an
insertion shifts every later id, which is exactly the instability the Max
format avoids with persistent ids.

Grammar subset: node-defining elements are obj, msg, text (comments appear as
nodes in the editor), floatatom, symbolatom, listbox, number, and array (so
``#A`` data has a home); ``connect`` wires ordinals, ``coords`` is layout, a
nested ``#N canvas``/``#X restore`` pair becomes one node whose contents nest
the subcanvas IR. The ``#N struct`` templates that Pd saves before the first
canvas are skipped, as is anything else. An ``#A`` record writes its values
from the index given by its first atom. Layout is excluded unless
``include_layout`` is set: the x/y coordinates and the box width, which Pd
appends to a box's atoms as an unescaped ``, f <int>``.

Versions of one file share almost all of their records, so the parser keeps
what it builds in a :class:`PdNodeTable`: a record text seen before is not
tokenized again, and each canvas is built by :func:`szzvc.ir.intern_ir`,
which shares a node unchanged since an earlier parse. A subcanvas IR has no
path (only the root IR names its file). A text that differs from the
document the table read last, whatever file that was, only inside one run of
whole records, as many as before and each of the kind it replaces, is
spliced from it: only that run, which :mod:`szzvc.splice` finds, is read,
and the same module builds the IR from the last one, the nodes the run
touches built again. An insertion or deletion renumbers the nodes after it,
so such a text, like anything else the splice does not take, is read whole,
as by a fresh table. A record's line span is counted only when an error
names it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice

from .errors import PatchSyntaxError
from .ir import (
    MAX_NESTING,
    NUMBER_RE,
    Language,
    Num,
    VisualIR,
    canonicalize,  # noqa: F401  unused; perfbench traces pdparser.canonicalize by name
    intern_ir,
)
from .splice import changed_run, splice_ir

NODE_ELEMENTS = {"obj", "msg", "text", "floatatom", "symbolatom", "listbox", "number",
                 "array"}
COORDLESS_ELEMENTS = {"array"}
_DIGITS = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class PdRecord:
    chunk: str  # "N", "X", or "A"
    element: str  # empty for #A data records
    atoms: tuple[str, ...]
    source_span: tuple[int, int] | None


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


def _make_record(body: str, span: tuple[int, int]) -> PdRecord:
    tokens = _atoms(body)
    chunk = _chunk(tokens, span)
    if chunk == "A":
        return PdRecord("A", "", tuple(tokens[1:]), span)
    return PdRecord(chunk, tokens[1], tuple(tokens[2:]), span)


def _atoms(body: str) -> list[str]:
    """A record body's atoms. Without a backslash ``str.split()`` cuts it at
    the same whitespace as the atom pattern's ``\\s``."""
    return _ESCAPED_ATOM.findall(body) if "\\" in body else body.split()


def _chunk(tokens: list[str], span: tuple[int, int] | None) -> str:
    """The chunk of a record's atoms: ``N``, ``X`` (both followed by an
    element) or ``A``."""
    if not tokens:
        raise PatchSyntaxError("empty record", span)
    marker = tokens[0]
    if marker == "#N" or marker == "#X":
        if len(tokens) < 2:
            raise PatchSyntaxError(f"record {marker} has no element", span)
        return marker[1]
    if marker == "#A":
        return "A"
    raise PatchSyntaxError(f"unknown chunk {marker!r}", span)


def _node_contents(element: str, atoms: list[str], include_layout: bool) -> dict:
    """Contents for a node-defining record: at minimum element and the text
    after the x/y coordinates; coordinates and box width only with
    ``include_layout``. Keys are in sorted order, as in every canonical IR."""
    if element in COORDLESS_ELEMENTS:
        return {"element": element, "text": " ".join(atoms)}
    atoms, width = _split_width(atoms)
    if len(atoms) < 2:
        raise PatchSyntaxError(f"{element} record missing coordinates")
    contents = {"element": element, "text": " ".join(atoms[2:])}
    if include_layout:
        if width is not None:
            contents["width"] = _layout_value(width)
        contents["x"] = _layout_value(atoms[0])
        contents["y"] = _layout_value(atoms[1])
    return contents


def _split_width(atoms: list[str]) -> tuple[list[str], str | None]:
    """The atoms without a trailing ``, f <int>`` box-width suffix, and the
    width (None without a suffix). Pd writes the suffix's comma unescaped and
    attached to the atom before it; an escaped ``\\,`` is message content."""
    if len(atoms) < 3 or atoms[-2] != "f" or not _DIGITS.fullmatch(atoms[-1]):
        return atoms, None
    last = atoms[-3]
    stem = last[:-1]
    if not last.endswith(",") or (len(stem) - len(stem.rstrip("\\"))) % 2:
        return atoms, None  # no comma, or one escaped by an odd backslash run
    return (*atoms[:-3], stem) if stem else atoms[:-3], atoms[-1]


def _layout_value(token: str):
    return Num(token) if NUMBER_RE.fullmatch(token) else token


# What a record means to the parser, built once per record text. Forms are
# (kind, ...): (_NODE, (tag, contents), error), (_RESTORE, contents, error),
# (_CONNECT, (src, outlet, dst, inlet), error), (_ARRAY_DATA, index, start,
# values), (_CANVAS,), (_STRUCT,) and (_SKIP,). ``error`` is a message that
# depends on the record alone; it is raised only when the parse reaches the
# record, so that errors come in the order the records' meaning asks for.
_NODE, _CONNECT, _CANVAS, _RESTORE, _ARRAY_DATA, _SKIP, _STRUCT = range(7)


class PdNodeTable:
    """What :func:`parse_pd` built, for the parses that come after.

    - Each record text seen, tokenized and turned into its form (node
      contents, connect indices, array values), one map per
      ``include_layout``.
    - Each distinct node contents map, once, with an integer tag.
    - The ``shared`` node map of :func:`~szzvc.ir.intern_ir`, in which a
      node's key is its contents tag.
    - The ``obj-<k>`` ids, built as parses first need them.
    - The last top-level document it read whole or spliced, one per
      ``include_layout``: its text, where each record ends, the
      records' forms, the record of each top-level node (so each record's
      node ordinal), the top-level connect records, the nodes by id and the
      wires as ``intern_ir`` takes them, and the IR.

    A text parsed under the last document's ``include_layout`` is spliced
    from it where it can be, whatever file either was read from: the path
    names only the root IR, which the splice gives the path of the text at
    hand. :func:`szzvc.splice.changed_run`, which the Max splice shares,
    finds the leading records the text holds where the last document did and
    the trailing ones it holds shifted by the change in length. The text
    between them, to the end where no record trails, must be as many whole
    records as it replaces and blanks, each of the same kind: a top-level
    node whose contents are its record's alone (no ``#A`` data) stays such a
    node, a top-level connect a connect in range, a skipped record
    (``coords``, ``declare``, ...) a skipped record, and none of them may
    hold an error. Only that run is looked up or tokenized, and
    :func:`szzvc.splice.splice_ir`, which the Max splice shares too, applies
    the nodes and connects it changed to the last IR. Anything else (an
    insertion or deletion, which renumbers the nodes after it, a record
    inside a subcanvas, a canvas, restore, ``#A`` or struct record in the
    run, a first parse, any error) is read whole, as it is by a fresh table.

    Nothing in it is changed once built but the last documents; it only
    grows. A :class:`~szzvc.miner.MiningCache` owns one for its run and
    parses each fix's versions newest first, so each splices from the
    version next to it in history, and the first version of a file from the
    last version of the file read before it; ``parse_pd`` makes a fresh one
    for a caller that passes none.
    """

    def __init__(self):
        self._forms: tuple[dict[str, tuple], dict[str, tuple]] = ({}, {})
        self._contents: dict[tuple, tuple[int, dict]] = {}
        self._subtrees: dict = {}
        self._ids: list[str] = []
        # include_layout -> (text, record bounds, forms, node records,
        # connect records, nodes, wires, IR); record k runs from bounds[k]
        # through its ";" at bounds[k + 1] - 1
        self._last: dict[bool, tuple] = {}

    def _form(self, body: str, include_layout: bool) -> tuple:
        tokens = _atoms(body)
        chunk = _chunk(tokens, None)
        if chunk == "A":
            index, *values = tokens[1:] or ("",)
            # a longer index is out of range anyway, and int() refuses huge digit runs
            start = int(index) if len(index) < 19 and _DIGITS.fullmatch(index) else -1
            return _ARRAY_DATA, index, start, tuple(map(_layout_value, values))
        element = tokens[1]
        if chunk == "N":
            if element == "canvas":
                return (_CANVAS,)
            return (_STRUCT,) if element == "struct" else (_SKIP,)
        if element == "connect":
            if len(tokens) != 6:
                return _CONNECT, None, "connect record needs 4 indices"
            try:
                return _CONNECT, tuple(map(int, tokens[2:])), None
            except ValueError:
                return _CONNECT, None, "connect indices must be integers"
        if element == "restore":
            kind = _RESTORE
        elif element in NODE_ELEMENTS:
            kind = _NODE
        else:
            return (_SKIP,)  # any other #X element (coords, declare, scalar, ...)
        try:
            contents = _node_contents(element, tokens[2:], include_layout)
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
               forms: list[tuple], source_path: str, error) -> tuple[VisualIR, dict, dict]:
        """The IR of one canvas and its nodes and wires as ``intern_ir``
        takes them: its nodes as (contents tag, contents), a tag of None
        marking contents of the node's own that are not shared, and the
        indices of its connect records."""
        count = len(nodes)
        ids = self._ids
        if len(ids) < count:
            ids.extend(f"obj-{k}" for k in range(len(ids), count))
        wires: dict[str, list[tuple[str, int, int]]] = {}
        for i in connects:
            _, indices, message = forms[i]
            if message is not None:
                raise error(i, message)
            src, outlet, dst, inlet = indices
            if not (0 <= src < count and 0 <= dst < count):
                raise error(i, "connect index out of range")
            if outlet < 0 or inlet < 0:
                raise error(i, "connect ports must be >= 0")
            wires.setdefault(ids[src], []).append((ids[dst], outlet, inlet))
        by_id = dict(zip(ids, nodes))
        return (intern_ir(Language.PURE_DATA, source_path, by_id, wires, self._subtrees),
                by_id, wires)

    def _splice(self, s: str, last: tuple, include_layout: bool, source_path: str
                ) -> VisualIR | None:
        """The IR of text ``s`` of file ``source_path`` spliced from ``last``,
        the document the table read last under the same ``include_layout``,
        whatever its file; None where the splice does not take ``s`` (see
        the class docstring)."""
        t, bounds, forms, at, connects, nodes, wires, ir = last
        if s == t:
            return VisualIR(ir.subtrees, ir.source_language, source_path)
        shift = len(s) - len(t)
        first, stop = changed_run(s, 0, len(s), t, 0, len(t), bounds[:-1], bounds[1:])
        start = bounds[first]
        # blanks after the run's last ";" start the record after it, or end
        # the text
        run = s[start:bounds[stop] + shift] if stop < len(forms) else s[start:]
        bodies, unterminated = _scan(run)
        if unterminated is not None or len(bodies) != stop - first:
            return None  # not as many whole records as it replaces
        known = self._forms[include_layout]
        ids, count = self._ids, len(nodes)
        new, old_nodes, new_nodes, old_wires, new_wires = [], [], [], [], []
        for i, body in enumerate(bodies, first):
            form = known.get(body)
            if form is None:
                try:
                    form = known[body] = self._form(body, include_layout)
                except PatchSyntaxError:
                    return None
            kind, old = form[0], forms[i]
            if kind != old[0]:
                return None
            if kind == _NODE:
                # the first top-level node from record i on: its own, or for a
                # record in a subcanvas the node that closes it, whose
                # contents are its own as an array's with data are
                node_id = ids[bisect_left(at, i)]
                if form[2] is not None or nodes[node_id][0] is None:
                    return None
                if form[1] is not nodes[node_id]:
                    old_nodes.append((node_id, nodes[node_id]))
                    new_nodes.append((node_id, form[1]))
            elif kind == _CONNECT:
                k = bisect_left(connects, i)
                if k == len(connects) or connects[k] != i or form[1] is None:
                    return None
                src, outlet, dst, inlet = form[1]
                if not (0 <= src < count and 0 <= dst < count and outlet >= 0 and inlet >= 0):
                    return None
                if form[1] != old[1]:
                    old_src, old_outlet, old_dst, old_inlet = old[1]
                    old_wires.append((ids[old_src], (ids[old_dst], old_outlet, old_inlet)))
                    new_wires.append((ids[src], (ids[dst], outlet, inlet)))
            elif kind != _SKIP:
                return None
            new.append(form)
        # each node keeps its id and each connect is in range: splice_ir
        # has nothing to refuse
        ir, nodes, wires = splice_ir(ir, source_path, nodes, wires, old_nodes, new_nodes,
                                     old_wires, new_wires, self._subtrees)

        ends = []
        for body in bodies:
            start += len(body) + 1
            ends.append(start)
        kept = bounds[stop + 1:]
        bounds = bounds[:first + 1] + ends + ([b + shift for b in kept] if shift else kept)
        self._last[include_layout] = (s, bounds, forms[:first] + new + forms[stop:], at,
                                      connects, nodes, wires, ir)
        return ir


def parse_pd(text: str, include_layout: bool = False, source_path: str = "",
             table: PdNodeTable | None = None) -> VisualIR:
    """Parse ``.pd`` text into a canonical IR; PatchSyntaxError aborts the
    whole file version (callers record it as unparseable).

    ``table`` holds what earlier parses built (see :class:`PdNodeTable`): a
    record text it holds is not tokenized again, a node equal to one in it
    is returned as that same object, and a text that its last document
    splices into is read only where the two differ. A ``MiningCache``
    passes the table of its run; without one the parse makes a fresh table,
    which is the same code path with nothing to reuse.
    """
    table = PdNodeTable() if table is None else table
    last = table._last.get(include_layout)
    if last is not None:
        ir = table._splice(text, last, include_layout, source_path)
        if ir is not None:
            return ir
    bodies, unterminated = _scan(text)

    def error(i: int, message: str) -> PatchSyntaxError:
        return PatchSyntaxError(message, next(islice(_spans(text, bodies), i, None)))

    known = table._forms[include_layout]
    forms: list[tuple] = []
    for body in bodies:
        form = known.get(body)
        if form is None:
            try:
                form = known[body] = table._form(body, include_layout)
            except PatchSyntaxError as exc:
                raise error(len(forms), str(exc)) from None
        forms.append(form)
    if unterminated is not None:
        raise unterminated
    if not forms:
        raise PatchSyntaxError("empty patch file", (1, 1))
    # the open canvas: its record index, nodes, the record of each node and
    # its connect record indices; the canvases around it wait on the stack
    opened = next((i for i, form in enumerate(forms) if form[0] != _STRUCT), 0)
    if forms[opened][0] != _CANVAS:
        raise error(opened, "patch must start with a canvas declaration")
    nodes, at, connects = [], [], []
    stack: list[tuple[int, list, list, list]] = []
    for i in range(opened + 1, len(forms)):
        form = forms[i]
        kind = form[0]
        if kind == _NODE:
            if form[2] is not None:
                raise error(i, form[2])
            nodes.append(form[1])
            at.append(i)
        elif kind == _CONNECT:
            connects.append(i)
        elif kind == _CANVAS:
            if len(stack) >= MAX_NESTING:
                raise error(i, f"subcanvases nest deeper than {MAX_NESTING} levels")
            stack.append((opened, nodes, at, connects))
            opened, nodes, at, connects = i, [], [], []
        elif kind == _RESTORE:
            if not stack:
                raise error(i, "restore without open subcanvas")
            # a subcanvas IR names no file: only the root does
            closed = table._close(nodes, connects, forms, "", error)[0]
            if form[2] is not None:
                raise error(i, form[2])
            opened, nodes, at, connects = stack.pop()
            # contents written after their record are the node's own
            nodes.append((None, dict(sorted({**form[1], "subpatch": closed}.items()))))
            at.append(i)
        elif kind == _ARRAY_DATA:
            _attach_array_data(nodes, form, i, error)
    if stack:
        raise error(opened, "unbalanced subcanvas")
    ir, by_id, wires = table._close(nodes, connects, forms, source_path, error)
    bounds = list(accumulate((len(body) + 1 for body in bodies), initial=0))
    table._last[include_layout] = (text, bounds, forms, at, connects, by_id, wires, ir)
    return ir


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
    """UTF-8, or Latin-1 where the data is not valid UTF-8, either way
    without a leading UTF-8 byte-order mark; the fallback is reported as a
    warning."""
    try:
        return data.decode("utf-8-sig"), []
    except UnicodeDecodeError:
        return (data.removeprefix(b"\xef\xbb\xbf").decode("latin-1"),
                ["decoded as latin-1 (invalid utf-8)"])

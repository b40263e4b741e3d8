"""Tree intermediate representation (IR) shared by the parsers and the diff engine.

A patch file becomes a ``VisualIR``: one subtree per visible node, keyed by the
node's id. Each subtree holds the node's outgoing connections and its
serialized contents (a recursive property tree that may nest another
``VisualIR`` where the source format defines a subpatch).

Canonical form: subtree keys and property-map keys iterate in lexicographic
order and connection lists are sorted, so two canonical IRs are equal
exactly when their serialized text is byte-equal. :func:`intern_ir` is the
one place nodes are built: both parsers say what each node is and pass it
there, :func:`szzvc.splice.splice_ir` passes it the nodes a splice changed
and takes every other node from the last IR, and :func:`canonicalize`, for
IRs built by hand, does the same. All values are immutable after
construction (frozen dataclasses; dicts are never mutated once built), so
IRs and their nodes can be shared freely.

Numbers keep their source spelling: ``Num`` stores the original token next to
the parsed value. Serialization emits the token verbatim while the diff
engine compares parsed values (so ``1.0`` vs ``1.00`` is not a change).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum


class Language(Enum):
    PURE_DATA = "pure-data"
    MAX_MSP = "max-msp"


class _Absent:
    """Sentinel distinguishing "no value at this path" from any real value."""

    def __repr__(self) -> str:
        return "ABSENT"


ABSENT = _Absent()

# How deep the parsers let subpatches and property values nest. ``diff_ir``,
# ``==`` and ``dumps_ir`` recurse once or more per level, so an IR within the
# limit stays far below Python's default recursion limit of 1000; a deeper
# patch is a ``PatchSyntaxError``, like any other file the parsers refuse.
MAX_NESTING = 64

# JSON number grammar; tokens that do not match stay plain strings.
NUMBER_RE = re.compile(r"^-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?$")


@dataclass(frozen=True)
class Num:
    """Numeric scalar with its source spelling preserved.

    Equality and hashing use ``raw`` (canonical serialization emits it
    verbatim); value-level comparison is the diff engine's job via
    :func:`leaf_equal`.
    """

    raw: str
    value: int | float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not NUMBER_RE.match(self.raw):
            raise ValueError(f"not a number token: {self.raw!r}")
        try:
            parsed: int | float = int(self.raw)
        except ValueError:
            parsed = float(self.raw)
        object.__setattr__(self, "value", parsed)


def leaf_equal(a: object, b: object) -> bool:
    """Scalar equality as the diff engine sees it: Nums compare by value."""
    if isinstance(a, Num) and isinstance(b, Num):
        return a.value == b.value
    if isinstance(a, Num) or isinstance(b, Num):
        return False
    return a == b


@dataclass(frozen=True)
class Connection:
    """One edge, owned by its source node's subtree. Edges have no identity
    beyond their value."""

    source_outlet: int
    dest_node: str
    dest_inlet: int

    def __post_init__(self):
        if self.source_outlet < 0 or self.dest_inlet < 0:
            raise ValueError("port indices must be >= 0")

    def sort_key(self) -> tuple[str, int, int]:
        return (self.dest_node, self.source_outlet, self.dest_inlet)


@dataclass(frozen=True)
class NodeSubtree:
    connections: tuple[Connection, ...]
    serialized_contents: dict[str, object]


@dataclass(frozen=True)
class VisualIR:
    subtrees: dict[str, NodeSubtree]
    source_language: Language
    source_path: str = ""


def empty_ir(language: Language, source_path: str = "") -> VisualIR:
    return VisualIR(subtrees={}, source_language=language, source_path=source_path)


def intern_ir(language: Language, source_path: str,
              nodes: dict[str, tuple[object, dict]],
              wires: dict[str, list[tuple[str, int, int]]],
              shared: dict) -> VisualIR:
    """The canonical IR of one patch level, and the one place nodes are built.

    ``nodes`` maps each node id to ``(key, contents)``, its contents already
    canonical; ``wires`` maps a source node id to its ``(dest id, outlet,
    inlet)`` tuples, which sort in ``Connection.sort_key`` order. A keyed node
    is hash-consed (Filliâtre and Conchon, "Type-safe modular hash-consing",
    ML 2006): built only if ``shared`` has no node under its key and sorted
    wires, so parses passing one ``shared`` map return one ``NodeSubtree``
    for a node unchanged between versions, which the diff skips by identity.
    A key must thus fix its contents within one map. A node keyed ``None``
    has contents of its own and is built anew.
    """
    subtrees = {}
    get = shared.get
    for node_id in sorted(nodes):
        key, contents = nodes[node_id]
        conns = tuple(sorted(wires[node_id])) if node_id in wires else ()
        subtree = None if key is None else get((key, conns))
        if subtree is None:
            subtree = NodeSubtree(
                tuple([Connection(outlet, dest, inlet) for dest, outlet, inlet in conns]),
                contents,
            )
            if key is not None:
                shared[key, conns] = subtree
        subtrees[node_id] = subtree
    return VisualIR(subtrees=subtrees, source_language=language, source_path=source_path)


def canonicalize(ir: VisualIR) -> VisualIR:
    """Return an equal-content IR with all maps lexicographically ordered and
    connection lists sorted. Idempotent; total on well-formed IRs."""
    subs = ir.subtrees.items()
    return intern_ir(ir.source_language, ir.source_path,
                     {i: (None, _canonical_value(sub.serialized_contents)) for i, sub in subs},
                     {i: [c.sort_key() for c in sub.connections] for i, sub in subs}, {})


def _canonical_value(value):
    if isinstance(value, VisualIR):
        return canonicalize(value)
    if isinstance(value, dict):
        return {k: _canonical_value(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_canonical_value(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Canonical serialization
#
# Plain JSON with a fixed layout: sorted keys, two-space indent, numbers
# emitted as their source tokens. Nested subpatch IRs are tagged "$patch";
# literal property keys starting with "$" are escaped by doubling.
# ---------------------------------------------------------------------------

FORMAT_TAG = "visual-ir/1"


def dumps_ir(ir: VisualIR) -> str:
    """Canonical text form. Source metadata is stored once, at the root;
    parsers stamp nested subpatch IRs with the document's own language and
    path."""
    out: list[str] = []
    _emit(_Members([("format", FORMAT_TAG), ("language", ir.source_language.value),
                    ("source_path", ir.source_path), ("subtrees", _subtrees(ir))]), out, 0)
    out.append("\n")
    return "".join(out)


class _Members(tuple):
    """The members of an object whose keys belong to the format, so they are
    not escaped."""


def _subtrees(ir: VisualIR) -> _Members:
    return _Members(
        (node_id, _Members([
            ("connections", [[c.source_outlet, c.dest_node, c.dest_inlet]
                             for c in sorted(sub.connections, key=Connection.sort_key)]),
            ("contents", sub.serialized_contents),
        ]))
        for node_id, sub in sorted(ir.subtrees.items())
    )


def _emit(value, out: list[str], indent: int) -> None:
    if isinstance(value, _Members):
        _emit_object(value, out, indent, escape_keys=False)
    elif isinstance(value, VisualIR):
        _emit_object([("$patch", _subtrees(value))], out, indent, escape_keys=False)
    elif isinstance(value, Num):
        out.append(value.raw)
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, dict):
        _emit_object(sorted(value.items()), out, indent, escape_keys=True)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if all(_is_scalar(v) for v in value):
            scalars: list[str] = []
            for v in value:
                _emit(v, scalars, 0)
            out.append("[" + ", ".join(scalars) + "]")
            return
        pad = "  " * (indent + 1)
        out.append("[\n")
        for i, v in enumerate(value):
            out.append(pad)
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append("  " * indent + "]")
    else:
        raise TypeError(f"not serializable as IR content: {type(value).__name__}")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (str, bool, int, Num))


def _emit_object(items, out: list[str], indent: int, escape_keys: bool) -> None:
    if not items:
        out.append("{}")
        return
    pad = "  " * (indent + 1)
    out.append("{\n")
    for i, (key, value) in enumerate(items):
        if escape_keys and key.startswith("$"):
            key = "$" + key
        out.append(pad + json.dumps(key, ensure_ascii=False) + ": ")
        _emit(value, out, indent + 1)
        out.append(",\n" if i < len(items) - 1 else "\n")
    out.append("  " * indent + "}")

"""Hypothesis strategies for random IRs, patch texts, and diff pairs."""

import json
import string

import hypothesis.strategies as st

from conftest import native_maxpat
from szzvc.ir import MAX_NESTING, Connection, Language, NodeSubtree, Num, VisualIR, canonicalize

NODE_POOL = [f"obj-{i}" for i in range(6)]
KEY_POOL = ["text", "element", "alpha", "beta", "gamma"]

texts = st.text(alphabet=string.ascii_lowercase + " ", max_size=8)

nums = st.builds(
    lambda v, fmt: Num(fmt.format(v)),
    st.integers(-99, 99),
    st.sampled_from(["{}", "{}.0", "{}.00", "{}.5"]),
)

scalars = texts | st.booleans() | nums

property_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KEY_POOL), children, max_size=3),
    max_leaves=6,
)

contents_maps = st.dictionaries(st.sampled_from(KEY_POOL), property_values, max_size=3)


@st.composite
def visual_irs(draw, language=Language.PURE_DATA, max_nodes=6, allow_nested=True):
    ids = draw(
        st.lists(st.sampled_from(NODE_POOL), unique=True, max_size=max_nodes)
    )
    subtrees = {}
    for node_id in ids:
        contents = dict(draw(contents_maps))
        if allow_nested and draw(st.booleans()) and draw(st.booleans()):
            contents["patcher"] = draw(
                visual_irs(language=language, max_nodes=3, allow_nested=False)
            )
        conns = draw(
            st.lists(
                st.tuples(
                    st.integers(0, 2), st.sampled_from(ids), st.integers(0, 2)
                ),
                unique=True,
                max_size=2,
            )
        ) if ids else []
        subtrees[node_id] = NodeSubtree(
            connections=tuple(Connection(o, d, i) for o, d, i in conns),
            serialized_contents=contents,
        )
    return canonicalize(
        VisualIR(subtrees=subtrees, source_language=language, source_path="gen")
    )


ir_pairs = st.tuples(visual_irs(), visual_irs())


# --- Max patcher documents -------------------------------------------------

_word = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


_max_scalars = st.integers(-9, 9) | st.sampled_from([0.5, 1.0]) | _word
_MAX_KEYS = ["alpha", "beta", "gamma", "delta"]
# a kept property whose value is an object: its keys are ordered by the parser
_max_property_maps = st.dictionaries(
    st.sampled_from(_MAX_KEYS),
    _max_scalars | st.lists(_max_scalars, max_size=3)
    | st.dictionaries(st.sampled_from(_MAX_KEYS), _max_scalars, max_size=3),
    min_size=2, max_size=4,
)


@st.composite
def _max_patchers(draw, nest=True):
    n = draw(st.integers(1, 5))
    ids = [f"obj-{i + 1}" for i in range(n)]
    boxes = []
    for box_id in ids:
        box = {
            "id": box_id,
            "maxclass": draw(st.sampled_from(["newobj", "message", "comment"])),
            "text": draw(_word),
            "patching_rect": [
                float(draw(st.integers(0, 500))), float(draw(st.integers(0, 500))),
                66.0, 22.0,
            ],
        }
        if draw(st.booleans()):
            box["varname"] = draw(_word)
        if draw(st.booleans()):
            box["saved_object_attributes"] = draw(_max_property_maps)
        boxes.append({"box": box})
    if nest and draw(st.booleans()):
        boxes[draw(st.integers(0, n - 1))]["box"]["patcher"] = draw(_max_patchers(nest=False))
    lines = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids), st.integers(0, 2),
                st.sampled_from(ids), st.integers(0, 2),
            ),
            unique=True,
            max_size=6,
        )
    )
    return {
        "boxes": boxes,
        "lines": [{"patchline": {"source": [s, o], "destination": [d, i]}}
                  for s, o, d, i in lines],
    }


def _render(draw, value):
    """``value`` with the keys of every object in a drawn order, and the boxes
    and patchlines of every patcher too; other arrays keep their order."""
    if isinstance(value, dict):
        if "boxes" in value:
            value = {**value, "boxes": draw(st.permutations(value["boxes"])),
                     "lines": draw(st.permutations(value["lines"]))}
        return {k: _render(draw, value[k]) for k in draw(st.permutations(list(value)))}
    if isinstance(value, list):
        return [_render(draw, v) for v in value]
    return value


@st.composite
def maxpat_documents(draw):
    """Two renderings of one patcher document (a patcher nested in a box
    at times), each with its own order of boxes, patchlines and object keys."""
    document = {"patcher": draw(_max_patchers())}
    return tuple(json.dumps(_render(draw, document), indent=2) for _ in range(2))


# Versions of one Max document: a valid first version, then edits of it
# (retext, add or remove a box, rewire, nest a patcher), each rendered in
# three layouts: indented by json.dumps, minified, and Max's own. Broken
# versions follow, each made from an earlier one, so that a shared table has
# seen most of their elements before it meets the error.


def _max_edit(draw, patcher: dict) -> dict:
    patcher = json.loads(json.dumps(patcher))
    boxes, lines = patcher["boxes"], patcher["lines"]
    ids = [entry["box"]["id"] for entry in boxes]
    edit = draw(st.sampled_from(["retext", "add", "remove", "rewire", "nest"]))
    if edit == "retext":
        draw(st.sampled_from(boxes))["box"]["text"] = draw(_word)
    elif edit == "add":
        box = {"id": f"obj-{len(ids) + 10}", "maxclass": "newobj", "text": draw(_word)}
        boxes.insert(draw(st.integers(0, len(boxes))), {"box": box})
    elif edit == "remove" and len(boxes) > 1:
        gone = boxes.pop(draw(st.integers(0, len(boxes) - 1)))["box"]["id"]
        patcher["lines"] = [entry for entry in lines
                            if gone not in (entry["patchline"]["source"][0],
                                            entry["patchline"]["destination"][0])]
    elif edit == "rewire":
        if lines and draw(st.booleans()):
            lines.pop(draw(st.integers(0, len(lines) - 1)))
        else:
            lines.append({"patchline": {"source": [draw(st.sampled_from(ids)), 0],
                                        "destination": [draw(st.sampled_from(ids)), 1]}})
    elif edit == "nest":
        draw(st.sampled_from(boxes))["box"]["patcher"] = draw(_max_patchers(nest=False))
    return patcher


def _max_break(draw, patcher: dict) -> dict:
    patcher = json.loads(json.dumps(patcher))
    boxes = patcher["boxes"]
    kind = draw(st.sampled_from(["dangling", "duplicate", "no-id", "deep", "not-object"]))
    if kind == "dangling":
        patcher["lines"].append({"patchline": {"source": [boxes[0]["box"]["id"], 0],
                                               "destination": ["obj-99", 0]}})
    elif kind == "duplicate":  # the copy is an element text the table knows
        boxes.append(json.loads(json.dumps(draw(st.sampled_from(boxes)))))
    elif kind == "no-id":
        boxes.append({"box": {"maxclass": "newobj", "text": "x"}})
    elif kind == "deep":
        value = "x"
        for _ in range(MAX_NESTING + 1):
            value = [value]
        boxes.append({"box": {"id": "obj-98", "text": "x", "value": value}})
    else:
        boxes.append(7)
    return patcher


_TEXT_BREAKERS = ["", ",", "NaN", "]", "}", ":", '"', "{", "\ufeff"]

# Keys besides the patcher's arrays, each value drawn once per history. The
# document's own ``boxes`` and ``lines`` are no patcher's: a reader that took
# them would put other boxes and wires in the IR.
_DOCUMENT_KEYS = {
    "boxes": st.sampled_from([[], [{"box": {"id": "obj-90", "text": "outside"}}]]),
    "lines": st.sampled_from([[], [{"patchline": {"source": ["obj-1", 0],
                                                  "destination": ["obj-1", 1]}}]]),
    "appversion": st.just({"major": 8, "minor": 5}),
}
_PATCHER_KEYS = {
    "fileversion": st.just(1),
    "rect": st.just([100.0, 100.0, 900.0, 700.0]),
    "classnamespace": st.just("box"),
}
# stands for a key repeated in the rendered text, which json.dumps cannot
# write: json.loads keeps the value that comes last
_REPEATED = "repeated-key"
_REPEATS = {"patcher": st.sampled_from([{}, {"fileversion": 1}, 0]),
            "boxes": st.sampled_from([[], 7, {}]),
            "lines": st.sampled_from([[], 7, {}])}


@st.composite
def maxpat_histories(draw):
    """Versions of one patch, each an edit of the one before or a broken
    copy of an earlier one, as three histories of texts: indented, minified
    and in Max's own layout. A fourth list holds texts cut or broken from
    them. The document and its patcher hold drawn keys besides ``patcher``,
    ``boxes`` and ``lines``, and one of those three keys repeated in some
    histories; each object's keys come in one drawn order in every
    version."""
    document_keys = {key: draw(values) for key, values in _DOCUMENT_KEYS.items()
                     if draw(st.booleans())}
    patcher_keys = {key: draw(values) for key, values in _PATCHER_KEYS.items()
                    if draw(st.booleans())}
    repeat = draw(st.booleans()) and draw(st.sampled_from(sorted(_REPEATS)))
    if repeat:
        keys = document_keys if repeat == "patcher" else patcher_keys
        keys[_REPEATED] = draw(_REPEATS[repeat])
    document_order = draw(st.permutations(["patcher", *document_keys]))
    order = draw(st.permutations(["boxes", "lines", *patcher_keys]))
    versions = [draw(_max_patchers())]
    for _ in range(draw(st.integers(1, 3))):
        versions.append(_max_edit(draw, versions[-1]))
    for _ in range(draw(st.integers(0, 2))):
        versions.append(_max_break(draw, draw(st.sampled_from(versions))))
    histories = [[], [], []]
    for patcher in versions:
        patcher = patcher | patcher_keys
        document = document_keys | {"patcher": {key: patcher[key] for key in order}}
        document = {key: document[key] for key in document_order}
        for history, text in zip(histories, [
                json.dumps(document, indent=draw(st.sampled_from([2, "\t"]))),
                json.dumps(document, separators=(",", ":")),
                native_maxpat(document)]):
            history.append(text.replace(json.dumps(_REPEATED), json.dumps(repeat)))
    texts = [text for history in histories for text in history]
    broken = []
    for _ in range(draw(st.integers(0, 3))):  # a text cut, or a character replaced
        text = draw(st.sampled_from(texts))
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            broken.append(text[:at])
        else:
            broken.append(text[:at] + draw(st.sampled_from(_TEXT_BREAKERS)) + text[at + 1:])
    return [*histories, broken]


def maxpat_version_sequences():
    """The texts of :func:`maxpat_histories` in one list."""
    return maxpat_histories().map(lambda lists: [text for texts in lists for text in texts])


# --- Pure Data patch texts ---------------------------------------------------

_pd_token = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1,
                    max_size=5)


@st.composite
def pd_node_records(draw):
    element = draw(st.sampled_from(["obj", "msg", "text", "floatatom", "listbox"]))
    args = " ".join(draw(st.lists(_pd_token, min_size=1, max_size=3)))
    x, y = draw(st.integers(0, 500)), draw(st.integers(0, 500))
    return f"#X {element} {x} {y} {args};"


@st.composite
def pd_patches(draw, max_nodes=6):
    records = draw(st.lists(pd_node_records(), max_size=max_nodes))
    return "#N canvas 0 0 450 300 12;\n" + "\n".join(records) + ("\n" if records else "")


# Pieces that exercise the record splitter's escape, terminator, line and
# whitespace rules (str.isspace counts \x0c, \x1c and U+00A0); a text that
# ends in the lone "\\" piece leaves its record unterminated.
_PD_SPLIT_PIECES = ["#N", "#X", "#A", ";", "\\;", "\\\n", "\\", "\r\n", "\n", " ",
                    "\t", "\x0c", "\x1c", "\u00a0", "obj", "msg", "12", "a,"]

pd_split_texts = st.lists(st.sampled_from(_PD_SPLIT_PIECES), max_size=20).map("".join)


# Versions of one Pd patch: a valid first version, then each an edit of the
# version before it (a breaking edit is not built on), so that most differ
# from the version before them in one record and a shared table splices them;
# some edits break the patch in a way that is found only after records of an
# earlier version have been seen again. Every record is one list item, so an
# edit can change a subpatch's nodes or drop an array's data.
_PD_SUBPATCH = ["#N canvas 0 0 200 140 sub 0;", "#X obj 5 5 inlet;", "#X obj 5 40 outlet;",
                "#X connect 0 0 1 0;", "#X restore 10 60 pd sub;"]
_PD_ARRAY = ["#X array tab 3 float 0;", "#A 0 1 2.5 -3;"]
_PD_BREAKERS = [
    "#X connect 99 0 0 0;",  # connect index out of range
    "#X restore 10 10 pd x;",  # restore without an open subcanvas
    "#N canvas 0 0 200 140 open 0;",  # unbalanced subcanvas
    "#X obj 10 10 print",  # unterminated record
]
_PD_NO_COORDINATES = "#X msg 7;"  # a node record in error
_PD_NODES = {"obj", "msg", "text", "floatatom", "listbox", "array"}
# the edits a shared table splices come first, where Hypothesis starts
_PD_EDITS = ["replace", "rewire", "coords", "same", "insert", "drop", "node to connect",
             "subpatch", "array", "data", "nest", "break"]


def _pd_depths(version: list[str]) -> tuple[list[int], int]:
    """Each record's canvas depth below the top one, and the number of nodes
    on the top canvas (as long as the records balance)."""
    depths, depth, count = [], 0, 0
    for record in version:
        atoms = record.split()
        element = atoms[1] if len(atoms) > 1 else ""
        if record.startswith("#X restore"):
            depth -= 1
            count += depth == 0
        depths.append(depth)
        if record.startswith("#N canvas"):
            depth += 1
        elif depth == 0 and record.startswith("#X ") and element in _PD_NODES:
            count += 1
    return depths, count


def _pd_connect(draw, count: int) -> str:
    index = st.integers(0, max(count - 1, 0))
    return (f"#X connect {draw(index)} {draw(st.integers(0, 2))} {draw(index)} "
            f"{draw(st.integers(0, 2))};")


def _pd_edit(draw, version: list[str]) -> tuple[bool, list[str]]:
    """An edit of ``version``, and whether later versions build on it: only
    on an edit meant to keep the patch valid."""
    version = list(version)
    edit = draw(st.sampled_from(_PD_EDITS))
    depths, count = _pd_depths(version)
    nodes = [k for k, record in enumerate(version)
             if record.startswith("#X ") and record.split()[1] in _PD_NODES]

    def pick(where):
        return draw(st.sampled_from(where)) if where else None

    at = pick(range(len(version)))
    valid = edit in ("same", "insert", "data", "subpatch", "array")
    if edit == "drop" and at is not None:
        del version[at]
    elif edit == "data":  # other array values, or none
        values = draw(st.lists(st.integers(-9, 9), max_size=3))
        version = [f"#A 0 {' '.join(map(str, values))};" if r.startswith("#A") else r
                   for r in version if values or not r.startswith("#A")]
    elif edit == "insert":
        version.insert(at or 0, draw(pd_node_records()))
    elif edit == "break":
        version.append(draw(st.sampled_from(_PD_BREAKERS)))
    elif edit == "nest":  # within the limit, or one canvas past it
        levels = draw(st.sampled_from([1, MAX_NESTING + 1]))
        version = (["#N canvas 0 0 200 140 sub 0;"] * levels + version
                   + ["#X restore 10 10 pd sub;"] * levels)
        valid = levels == 1
    elif edit == "replace":  # a top-level node or connect by another of its kind
        k = pick([k for k in nodes if depths[k] == 0]
                 + [k for k, r in enumerate(version)
                    if depths[k] == 0 and r.startswith("#X connect")])
        if k is not None and version[k].startswith("#X connect"):
            version[k] = _pd_connect(draw, count)
        elif k is not None:
            version[k] = draw(pd_node_records() | st.just(_PD_NO_COORDINATES))
        valid = k is None or version[k] != _PD_NO_COORDINATES
    elif edit == "rewire":  # one index or port of a connect, out of range at times
        k = pick([k for k, r in enumerate(version) if r.startswith("#X connect")])
        valid = True
        if k is not None:
            atoms = version[k].rstrip(";").split()
            slot, value = draw(st.integers(2, 5)), draw(st.integers(-1, count))
            atoms[slot] = str(value)
            version[k] = " ".join(atoms) + ";"
            valid = value >= 0 and (slot % 2 or value < count)
    elif edit == "node to connect":
        k = pick(nodes)
        if k is not None:
            version[k] = _pd_connect(draw, count)
    elif edit == "coords":  # layout that no IR holds: another view, or a record replaced
        k = pick([k for k, r in enumerate(version) if r.startswith("#X coords")])
        valid = k is not None
        if k is None:
            k = at
        if k is not None:
            version[k] = (f"#X coords 0 -1 1 1 {draw(st.integers(10, 300))} "
                          f"{draw(st.integers(10, 300))} 1 0 0;")
    elif edit == "subpatch":  # a node inside a subpatch
        k = pick([k for k in nodes if depths[k] > 0])
        if k is not None:
            version[k] = draw(pd_node_records())
    elif edit == "array":  # the values of one #A record
        k = pick([k for k, r in enumerate(version) if r.startswith("#A")])
        if k is not None:
            values = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
            version[k] = f"#A 0 {' '.join(map(str, values))};"
    return valid, version


@st.composite
def pd_version_sequences(draw):
    nodes = [[record] for record in draw(st.lists(pd_node_records(), min_size=1, max_size=6))]
    for block in draw(st.lists(st.sampled_from([_PD_SUBPATCH, _PD_ARRAY]), max_size=2)):
        nodes.insert(draw(st.integers(0, len(nodes))), block)
    count = len(nodes)  # each block is one node on the canvas
    records = [record for node in nodes for record in node]
    if draw(st.booleans()):
        records.append("#X coords 0 -1 1 1 200 140 1 0 0;")
    wires = draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, 2),
                                    st.integers(0, count - 1), st.integers(0, 2)),
                          max_size=4))
    records += [f"#X connect {s} {o} {d} {i};" for s, o, d, i in wires]
    versions, current = [records], records
    for _ in range(draw(st.integers(1, 6))):
        build_on, version = _pd_edit(draw, current)
        versions.append(version)
        if build_on:
            current = version
    # a text ends in a newline, in nothing, or in an empty record
    ends = [draw(st.sampled_from(["\n", "", ";"])) for _ in versions]
    return ["#N canvas 0 0 450 300 12;\n" + "\n".join(v) + end
            for v, end in zip(versions, ends)]

"""Hypothesis strategies for random IRs, patch texts, and diff pairs."""

import json
import string

import hypothesis.strategies as st

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


# --- Pure Data patch texts ---------------------------------------------------

_pd_token = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1,
                    max_size=5)


@st.composite
def pd_node_records(draw):
    element = draw(st.sampled_from(["obj", "msg", "text", "floatatom"]))
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


# Versions of one Pd patch: a valid first version, then edits of it, some of
# which break it in a way that is found only after records of the first
# version have been seen again. Every record is one list item, so an edit can
# change a subpatch's nodes or drop an array's data.
_PD_SUBPATCH = ["#N canvas 0 0 200 140 sub 0;", "#X obj 5 5 inlet;", "#X obj 5 40 outlet;",
                "#X connect 0 0 1 0;", "#X restore 10 60 pd sub;"]
_PD_ARRAY = ["#X array tab 3 float 0;", "#A 0 1 2.5 -3;"]
_PD_BREAKERS = [
    "#X connect 99 0 0 0;",  # connect index out of range
    "#X restore 10 10 pd x;",  # restore without an open subcanvas
    "#N canvas 0 0 200 140 open 0;",  # unbalanced subcanvas
    "#X obj 10 10 print",  # unterminated record
]


@st.composite
def pd_version_sequences(draw):
    records = draw(st.lists(pd_node_records(), min_size=1, max_size=6))
    blocks = draw(st.lists(st.sampled_from([_PD_SUBPATCH, _PD_ARRAY]), max_size=2))
    count = len(records) + len(blocks)  # each block is one node on the canvas
    for block in blocks:
        records += block
    wires = draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, 2),
                                    st.integers(0, count - 1), st.integers(0, 2)),
                          max_size=4))
    records += [f"#X connect {s} {o} {d} {i};" for s, o, d, i in wires]
    versions = [records]
    for _ in range(draw(st.integers(1, 4))):
        version = list(records)
        edit = draw(st.sampled_from(["same", "drop", "insert", "break", "nest", "data"]))
        at = draw(st.integers(0, len(version) - 1))
        if edit == "drop":
            del version[at]
        elif edit == "data":  # other array values, or none
            values = draw(st.lists(st.integers(-9, 9), max_size=3))
            version = [f"#A 0 {' '.join(map(str, values))};" if r.startswith("#A") else r
                       for r in version if values or not r.startswith("#A")]
        elif edit == "insert":
            version.insert(at, draw(pd_node_records()))
        elif edit == "break":
            version.append(draw(st.sampled_from(_PD_BREAKERS)))
        elif edit == "nest":  # within the limit, or one canvas past it
            levels = draw(st.sampled_from([1, MAX_NESTING + 1]))
            version = (["#N canvas 0 0 200 140 sub 0;"] * levels + version
                       + ["#X restore 10 10 pd sub;"] * levels)
        versions.append(version)
    return ["#N canvas 0 0 450 300 12;\n" + "\n".join(v) + "\n" for v in versions]

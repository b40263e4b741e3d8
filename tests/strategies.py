"""Hypothesis strategies for random IRs, patch texts, and diff pairs."""

import json
import string

import hypothesis.strategies as st

from szzvc.ir import Connection, Language, NodeSubtree, Num, VisualIR, canonicalize

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


@st.composite
def maxpat_documents(draw):
    """(document json, box permutation of the same document) pairs."""
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
        boxes.append(box)
    lines = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids), st.integers(0, 2),
                st.sampled_from(ids), st.integers(0, 2),
            ),
            unique=True,
            max_size=4,
        )
    )
    shuffled_boxes = draw(st.permutations(boxes))
    shuffled_lines = draw(st.permutations(lines))

    def doc(box_list, line_list):
        return json.dumps(
            {
                "patcher": {
                    "boxes": [{"box": b} for b in box_list],
                    "lines": [
                        {"patchline": {"source": [s, o], "destination": [d, i]}}
                        for s, o, d, i in line_list
                    ],
                }
            },
            indent=2,
        )

    return doc(boxes, lines), doc(shuffled_boxes, shuffled_lines)


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

import pytest

from szzvc.ir import (
    Connection,
    Language,
    NodeSubtree,
    Num,
    VisualIR,
    canonicalize,
    dumps_ir,
    intern_ir,
    leaf_equal,
)
from szzvc.pdparser import _layout_value


def _ir(order):
    subtrees = {}
    for node_id in order:
        subtrees[node_id] = NodeSubtree(
            connections=(), serialized_contents={"element": "obj", "text": node_id}
        )
    return VisualIR(subtrees=subtrees, source_language=Language.PURE_DATA,
                    source_path="x.pd")


def test_canonicalize_orders_subtrees():
    ir = canonicalize(_ir(["obj-1", "obj-0"]))
    assert list(ir.subtrees) == ["obj-0", "obj-1"]


def test_intern_ir_shares_a_keyed_node_with_the_same_wires():
    shared = {}

    def build(wires, key="k"):
        nodes = {"obj-1": (None, {"text": "b"}), "obj-0": (key, {"text": "a"})}
        return intern_ir(Language.PURE_DATA, "x.pd", nodes, wires, shared)

    first = build({"obj-0": [("obj-1", 1, 0), ("obj-1", 0, 0)]})
    assert list(first.subtrees) == ["obj-0", "obj-1"]
    assert first.subtrees["obj-0"].connections == (Connection(0, "obj-1", 0),
                                                   Connection(1, "obj-1", 0))
    again = build({"obj-0": [("obj-1", 0, 0), ("obj-1", 1, 0)]})
    assert again.subtrees["obj-0"] is first.subtrees["obj-0"]
    assert again.subtrees["obj-1"] is not first.subtrees["obj-1"]  # keyed None
    rewired = build({"obj-0": [("obj-1", 0, 0)]})
    assert rewired.subtrees["obj-0"] is not first.subtrees["obj-0"]
    unkeyed = build({"obj-0": [("obj-1", 0, 0), ("obj-1", 1, 0)]}, key=None)
    assert unkeyed.subtrees["obj-0"] is not first.subtrees["obj-0"]
    assert unkeyed == first


def test_canonicalize_idempotent():
    ir = _ir(["obj-1", "obj-0"])
    once = canonicalize(ir)
    assert canonicalize(once) == once
    assert dumps_ir(canonicalize(once)) == dumps_ir(once)


def test_shuffled_insertion_orders_serialize_byte_equal():
    # oracle: serialize both and compare the bytes
    a = canonicalize(_ir(["obj-0", "obj-1", "obj-2"]))
    b = canonicalize(_ir(["obj-2", "obj-0", "obj-1"]))
    assert dumps_ir(a) == dumps_ir(b)


def test_canonicalize_sorts_connections():
    conns = (
        Connection(1, "obj-2", 0),
        Connection(0, "obj-1", 0),
        Connection(0, "obj-1", 2),
    )
    ir = VisualIR(
        subtrees={
            "obj-0": NodeSubtree(connections=conns, serialized_contents={}),
            "obj-1": NodeSubtree(connections=(), serialized_contents={}),
            "obj-2": NodeSubtree(connections=(), serialized_contents={}),
        },
        source_language=Language.PURE_DATA,
    )
    ordered = canonicalize(ir).subtrees["obj-0"].connections
    assert ordered == (
        Connection(0, "obj-1", 0),
        Connection(0, "obj-1", 2),
        Connection(1, "obj-2", 0),
    )


def test_equality_iff_byte_equality_for_canonical_irs():
    a = canonicalize(_ir(["obj-0", "obj-1"]))
    b = canonicalize(_ir(["obj-1", "obj-0"]))
    c = canonicalize(_ir(["obj-0"]))
    assert a == b and dumps_ir(a) == dumps_ir(b)
    assert a != c and dumps_ir(a) != dumps_ir(c)


def test_num_preserves_spelling_and_compares_by_value():
    one = Num("1.0")
    also_one = Num("1.00")
    assert one != also_one  # structural equality keeps the spelling
    assert leaf_equal(one, also_one)  # the diff engine sees the value
    assert not leaf_equal(one, "1.0")
    assert Num("5").value == 5 and isinstance(Num("5").value, int)
    with pytest.raises(ValueError):
        Num("nan")
    with pytest.raises(ValueError):
        Num("+5")


@pytest.mark.parametrize("token", ["1\n", "5\n", "-2.5e3\n"])
def test_a_token_with_a_final_newline_is_no_number(token):
    # dumps_ir writes a Num's token verbatim: a newline would land inside it
    with pytest.raises(ValueError):
        Num(token)
    assert _layout_value(token) == token


def test_dumps_ir_golden_text_with_nested_patch_and_nums():
    # oracle: the layout rules of ir.py, checked line by line. Keys and
    # connections are given unsorted; a literal "$" key is escaped by
    # doubling, at any depth, so only a nested IR carries the "$patch" tag.
    nested = VisualIR(
        subtrees={"obj-0": NodeSubtree((), {"element": "obj", "text": "in"})},
        source_language=Language.PURE_DATA,
        source_path="deep.pd",
    )
    ir = VisualIR(
        subtrees={
            "obj-0": NodeSubtree(
                connections=(Connection(1, "obj-0", 0), Connection(0, "obj-0", 1)),
                serialized_contents={
                    "element": "restore",
                    "text": "pd sub",
                    "subpatch": nested,
                    "gain": Num("0.50"),
                    "flags": [Num("1"), "x", True],
                    "$weird": {"$patch": "literal"},
                    "empty": {},
                    "none": [],
                },
            )
        },
        source_language=Language.PURE_DATA,
        source_path="deep.pd",
    )
    assert dumps_ir(ir) == """\
{
  "format": "visual-ir/1",
  "language": "pure-data",
  "source_path": "deep.pd",
  "subtrees": {
    "obj-0": {
      "connections": [
        [0, "obj-0", 1],
        [1, "obj-0", 0]
      ],
      "contents": {
        "$$weird": {
          "$$patch": "literal"
        },
        "element": "restore",
        "empty": {},
        "flags": [1, "x", true],
        "gain": 0.50,
        "none": [],
        "subpatch": {
          "$patch": {
            "obj-0": {
              "connections": [],
              "contents": {
                "element": "obj",
                "text": "in"
              }
            }
          }
        },
        "text": "pd sub"
      }
    }
  }
}
"""

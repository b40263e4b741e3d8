import json

import pytest

from szzvc.errors import ConfigError, PatchSyntaxError
from szzvc.ir import Connection, Num, VisualIR, dumps_ir
from szzvc.maxparser import (
    DEFAULT_EXCLUDED_KEYS,
    FilterMode,
    PropertyFilter,
    default_property_filter,
    parse_maxpat,
)
from szzvc.pdparser import decode_patch_bytes
from conftest import maxpat_doc

MINIMAL = maxpat_doc(
    boxes=[
        {"id": "obj-1", "maxclass": "message", "text": "hello world",
         "patching_rect": [30.0, 30.0, 70.0, 22.0]},
        {"id": "obj-2", "maxclass": "newobj", "text": "print",
         "patching_rect": [30.0, 90.0, 40.0, 22.0]},
    ],
    lines=[("obj-1", 0, "obj-2", 0)],
)


def test_parse_minimal_document():
    # oracle: manual mapping per the stated rules
    ir = parse_maxpat(MINIMAL)
    assert set(ir.subtrees) == {"obj-1", "obj-2"}
    assert ir.subtrees["obj-1"].connections == (Connection(0, "obj-2", 0),)
    assert ir.subtrees["obj-2"].connections == ()
    assert ir.subtrees["obj-1"].serialized_contents == {
        "maxclass": "message",
        "text": "hello world",
    }
    assert "patching_rect" not in ir.subtrees["obj-1"].serialized_contents


def test_empty_exclude_list_keeps_everything():
    ir = parse_maxpat(MINIMAL, PropertyFilter(FilterMode.EXCLUDE_LIST, frozenset()))
    rect = ir.subtrees["obj-1"].serialized_contents["patching_rect"]
    assert rect == [Num("30.0"), Num("30.0"), Num("70.0"), Num("22.0")]


def test_include_list_keeps_only_listed_keys():
    ir = parse_maxpat(MINIMAL, PropertyFilter(FilterMode.INCLUDE_LIST,
                                              frozenset({"text"})))
    assert ir.subtrees["obj-1"].serialized_contents == {"text": "hello world"}


def test_default_filter_contents():
    prop_filter = default_property_filter()
    assert prop_filter.mode is FilterMode.EXCLUDE_LIST
    assert {"patching_rect", "presentation_rect", "presentation", "fontname",
            "fontsize", "fontface", "numinlets", "numoutlets",
            "saved_attribute_attributes", "appversion", "rect",
            "bounds"} <= prop_filter.keys
    box = {"id": "obj-1", "maxclass": "message", "text": "x",
           "patching_rect": [0.0, 0.0, 1.0, 1.0]}
    ir = parse_maxpat(maxpat_doc([box]))
    assert ir.subtrees["obj-1"].serialized_contents == {
        "maxclass": "message", "text": "x"
    }


def test_guarded_keys_cannot_be_excluded():
    for key in ("text", "maxclass", "patcher"):
        with pytest.raises(ConfigError, match="cannot exclude"):
            PropertyFilter(FilterMode.EXCLUDE_LIST, frozenset({key}))


def test_dangling_patchline_is_an_error():
    doc = maxpat_doc(
        boxes=[{"id": "obj-1", "maxclass": "newobj", "text": "print"}],
        lines=[("obj-9", 0, "obj-1", 0)],
    )
    with pytest.raises(PatchSyntaxError, match="unknown box 'obj-9'"):
        parse_maxpat(doc)


def test_missing_id_is_an_error():
    doc = maxpat_doc(boxes=[{"maxclass": "newobj", "text": "print"}])
    with pytest.raises(PatchSyntaxError, match="no id"):
        parse_maxpat(doc)


def test_duplicate_id_is_an_error():
    doc = maxpat_doc(boxes=[{"id": "obj-1", "text": "a"}, {"id": "obj-1", "text": "b"}])
    with pytest.raises(PatchSyntaxError, match="duplicate"):
        parse_maxpat(doc)


def test_not_json_is_a_syntax_error():
    with pytest.raises(PatchSyntaxError, match="not a patcher document"):
        parse_maxpat("#N canvas 0 0 1 1 10;")
    with pytest.raises(PatchSyntaxError, match="no top-level patcher"):
        parse_maxpat('{"boxes": []}')


def test_box_order_shuffle_is_invariant():
    doc = json.loads(MINIMAL)
    doc["patcher"]["boxes"].reverse()
    assert dumps_ir(parse_maxpat(json.dumps(doc))) == dumps_ir(parse_maxpat(MINIMAL))


def test_nested_patcher_parses_and_filters_recursively():
    inner_box = {
        "id": "obj-7", "maxclass": "newobj", "text": "metro 500",
        "patching_rect": [1.0, 2.0, 3.0, 4.0],
        "style": {"fontname": "Arial", "accent": "blue"},
    }
    outer = maxpat_doc(
        boxes=[
            {"id": "obj-1", "maxclass": "newobj", "text": "p counter",
             "patcher": json.loads(maxpat_doc([inner_box]))["patcher"]},
        ],
    )
    ir = parse_maxpat(outer)
    nested = ir.subtrees["obj-1"].serialized_contents["patcher"]
    assert isinstance(nested, VisualIR)
    contents = nested.subtrees["obj-7"].serialized_contents
    assert contents["text"] == "metro 500"
    assert "patching_rect" not in contents
    # excluded keys disappear at every nesting level, even inside plain maps
    assert contents["style"] == {"accent": "blue"}


def test_connection_count_equals_patchline_count():
    doc = maxpat_doc(
        boxes=[{"id": "obj-1", "text": "a"}, {"id": "obj-2", "text": "b"}],
        lines=[("obj-1", 0, "obj-2", 0), ("obj-1", 1, "obj-2", 0),
               ("obj-2", 0, "obj-1", 1)],
    )
    ir = parse_maxpat(doc)
    assert sum(len(s.connections) for s in ir.subtrees.values()) == 3


def test_negative_port_rejected():
    doc = maxpat_doc(
        boxes=[{"id": "obj-1", "text": "a"}, {"id": "obj-2", "text": "b"}],
        lines=[("obj-1", -1, "obj-2", 0)],
    )
    with pytest.raises(PatchSyntaxError, match="port"):
        parse_maxpat(doc)


def test_maxhelp_is_the_same_format():
    ir = parse_maxpat(MINIMAL, source_path="thing.maxhelp")
    assert ir.source_path == "thing.maxhelp"
    assert set(ir.subtrees) == {"obj-1", "obj-2"}


def test_utf8_bom_is_not_part_of_the_patch():
    text, warnings = decode_patch_bytes(b"\xef\xbb\xbf" + MINIMAL.encode())
    assert warnings == []
    assert parse_maxpat(text) == parse_maxpat(MINIMAL)

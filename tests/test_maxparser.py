import gc
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

from szzvc import maxparser
from szzvc.errors import ConfigError, PatchSyntaxError
from szzvc.diff import diff_ir
from szzvc.ir import MAX_NESTING, Connection, Num, VisualIR, dumps_ir
from szzvc.maxparser import (
    DEFAULT_EXCLUDED_KEYS,
    FilterMode,
    MaxNodeTable,
    PropertyFilter,
    default_property_filter,
    parse_maxpat,
)
from szzvc.pdparser import decode_patch_bytes
from conftest import maxpat_doc, native_maxpat

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
    # the guarded keys stay whether the list names them or not
    assert ir.subtrees["obj-1"].serialized_contents == {"maxclass": "message",
                                                        "text": "hello world"}


def test_include_list_keeps_the_identifying_keys():
    only_varname = PropertyFilter(FilterMode.INCLUDE_LIST, frozenset({"varname"}))
    inner = json.loads(maxpat_doc([{"id": "obj-1", "maxclass": "newobj",
                                    "text": "sig~", "varname": "in"}]))["patcher"]

    def version(freq):
        return maxpat_doc([
            {"id": "obj-1", "maxclass": "newobj", "text": f"cycle~ {freq}",
             "patching_rect": [0.0, 0.0, 1.0, 1.0]},
            {"id": "obj-2", "maxclass": "newobj", "text": "p sub", "patcher": inner},
        ])

    old, new = (parse_maxpat(version(f), only_varname) for f in (440, 220))
    assert [(r.path, r.old_value, r.new_value) for r in diff_ir(old, new).records] == [
        (("obj-1", "serialized_contents", "text"), "cycle~ 440", "cycle~ 220")
    ]
    nested = old.subtrees["obj-2"].serialized_contents["patcher"]
    assert nested.subtrees["obj-1"].serialized_contents == {
        "maxclass": "newobj", "text": "sig~", "varname": "in"
    }

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


@pytest.mark.parametrize("second", ["same text", "other text"])
def test_duplicate_id_met_through_a_known_text_is_an_error(second):
    a = {"id": "obj-1", "text": "a"}
    b = a if second == "same text" else {"id": "obj-1", "text": "b"}
    table = MaxNodeTable()
    parse_maxpat(maxpat_doc(boxes=[a, b | {"id": "obj-2"}], indent="\t"), table=table)
    doc = maxpat_doc(boxes=[a, {"id": "obj-3", "text": "c"}, b], indent="\t")
    for shared in (table, None):
        with pytest.raises(PatchSyntaxError, match="duplicate box id 'obj-1'"):
            parse_maxpat(doc, table=shared)


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


def _doc_with_inlet(spelling: str) -> str:
    """A two-box document whose one patchline's inlet is ``spelling``."""
    return maxpat_doc(
        boxes=[{"id": "obj-1", "text": "a"}, {"id": "obj-2", "text": "b"}],
        lines=[("obj-1", 0, "obj-2", 424242)],
    ).replace("424242", spelling)


@pytest.mark.parametrize("port", [
    pytest.param("1.0", id="1.0"),
    pytest.param("true", id="True"),
    pytest.param('"1"', id="1"),
    "1e3",
    pytest.param("7" * 5000, id="5000-digits"),  # past int()'s digit limit
])
def test_non_integer_port_rejected(port):
    with pytest.raises(PatchSyntaxError, match="destination"):
        parse_maxpat(_doc_with_inlet(port))


@pytest.mark.parametrize("port", ["0", "-0"])
def test_zero_port_spellings_accepted(port):
    ir = parse_maxpat(_doc_with_inlet(port))
    assert ir.subtrees["obj-1"].connections == (Connection(0, "obj-2", 0),)


@pytest.mark.parametrize("box_id", [5, 5.0, True])
def test_non_string_box_id_is_an_error(box_id):
    with pytest.raises(PatchSyntaxError, match="no id"):
        parse_maxpat(maxpat_doc(boxes=[{"id": box_id, "text": "print"}]))


def test_numeric_patchline_endpoint_is_an_error():
    doc = maxpat_doc(
        boxes=[{"id": "obj-1", "text": "a"}, {"id": "2", "text": "b"}],
        lines=[("obj-1", 0, 2, 0)],
    )
    with pytest.raises(PatchSyntaxError, match="destination must be"):
        parse_maxpat(doc)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_standard_number_constants_are_rejected(constant):
    doc = maxpat_doc(boxes=[{"id": "obj-1", "text": "a", "gain": 0}])
    for key in ("gain", "patching_rect"):  # kept and excluded keys alike
        with pytest.raises(PatchSyntaxError, match="non-standard number"):
            parse_maxpat(doc.replace('"gain": 0', f'"{key}": {constant}'))


def test_kept_numbers_keep_their_spelling():
    doc = (
        '{"patcher": {"boxes": [{"box": {"id": "obj-1", "text": "a", '
        '"gain": [1.50, -0, 1e3], "style": {"size": 12}}}], "lines": []}}'
    )
    contents = parse_maxpat(doc).subtrees["obj-1"].serialized_contents
    assert contents["gain"] == [Num("1.50"), Num("-0"), Num("1e3")]
    assert contents["style"] == {"size": Num("12")}
    assert '"gain": [1.50, -0, 1e3]' in dumps_ir(parse_maxpat(doc))


def test_excluded_key_may_hold_a_huge_integer():
    doc = maxpat_doc(boxes=[{"id": "obj-1", "text": "a", "rect": 0}])
    ir = parse_maxpat(doc.replace('"rect": 0', '"rect": ' + "7" * 5000))
    assert ir.subtrees["obj-1"].serialized_contents == {"text": "a"}


def test_maxhelp_is_the_same_format():
    ir = parse_maxpat(MINIMAL, source_path="thing.maxhelp")
    assert ir.source_path == "thing.maxhelp"
    assert set(ir.subtrees) == {"obj-1", "obj-2"}


def test_utf8_bom_is_not_part_of_the_patch():
    text, warnings = decode_patch_bytes(b"\xef\xbb\xbf" + MINIMAL.encode())
    assert warnings == []
    assert parse_maxpat(text) == parse_maxpat(MINIMAL)


def test_utf8_bom_before_invalid_utf8_is_not_part_of_the_patch():
    # the Latin-1 fallback drops the mark too, so the version still parses
    latin = MINIMAL.replace("hello world", "caf\xe9")
    text, warnings = decode_patch_bytes(b"\xef\xbb\xbf" + latin.encode("latin-1"))
    assert warnings and "latin-1" in warnings[0]
    assert parse_maxpat(text) == parse_maxpat(latin)


def _nested_patchers(levels: int, text: str = "x") -> str:
    patcher = {"boxes": [{"box": {"id": "obj-1", "maxclass": "newobj", "text": text}}]}
    for _ in range(levels):
        box = {"id": "obj-1", "maxclass": "newobj", "text": "p", "patcher": patcher}
        patcher = {"boxes": [{"box": box}]}
    return json.dumps({"patcher": patcher})


def _nested_value(levels: int, text: str = "x") -> str:
    value = text
    for level in range(levels):
        value = [value] if level % 2 else {"k": value}
    return maxpat_doc(boxes=[{"id": "obj-1", "maxclass": "newobj", "text": "t",
                              "value": value}])


@pytest.mark.parametrize("nested", [_nested_patchers, _nested_value])
def test_nesting_up_to_the_limit(nested):
    # parse, diff, == and dumps_ir all recurse per level; at the limit they
    # stay within Python's default recursion limit
    old = parse_maxpat(nested(MAX_NESTING))
    new = parse_maxpat(nested(MAX_NESTING, "y"))
    (record,) = diff_ir(old, new).records
    assert (record.old_value, record.new_value) == ("x", "y")
    assert old == parse_maxpat(nested(MAX_NESTING))
    assert dumps_ir(old).count('"x"') == 1


@pytest.mark.parametrize("nested", [_nested_patchers, _nested_value])
def test_nesting_past_the_limit_is_a_syntax_error(nested):
    with pytest.raises(PatchSyntaxError, match=f"deeper than {MAX_NESTING}"):
        parse_maxpat(nested(MAX_NESTING + 1))


def test_json_too_deep_to_decode_is_a_syntax_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(PatchSyntaxError, match="nested too deeply"):
        parse_maxpat('{"patcher": {"boxes": [{"box": {"id": "obj-1", "value": '
                     + deep + "}}]}}")


def test_native_layout_helper_writes_max_s_own_layout():
    golden = (Path(__file__).parent / "golden" / "diff_old.maxpat").read_text()
    assert native_maxpat(json.loads(golden)) == golden


# A warm table has read every element of BASE before the broken text, so
# the parse meets elements it knows before it meets the error. The error
# texts are those of the json.loads-based parser that came before the table.
BASE = maxpat_doc(boxes=[{"id": "obj-1", "text": "a"}, {"id": "obj-2", "text": "b"}],
                  lines=[("obj-1", 0, "obj-2", 0)])


def _nested_list(levels: int):
    value = "x"
    for _ in range(levels):
        value = [value]
    return value


if sys.version_info >= (3, 13):
    _TRAILING_COMMA = ("Illegal trailing comma before end of array", 16)
else:
    _TRAILING_COMMA = ("Expecting value", 17)


@pytest.mark.parametrize("text, message, line", [
    pytest.param(BASE[:BASE.index('"lines"')],
                 "Expecting property name enclosed in double quotes", 18,
                 id="truncated"),
    pytest.param(BASE.replace('"b"\n        }\n      }\n    ]',
                              '"b"\n        }\n      },\n    ]'),
                 *_TRAILING_COMMA, id="trailing-comma-in-boxes"),
    pytest.param(BASE.replace('"text": "b"', '"text" "b"'),
                 "Expecting ':' delimiter", 14, id="missing-colon"),
    pytest.param(BASE + "\n{}\n", "Extra data", 34, id="extra-data"),
    pytest.param(BASE.replace('"lines": [', '"lines": [7 7,'),
                 "Expecting ',' delimiter", 18, id="not-an-object-in-lines"),
    pytest.param("\ufeff" + BASE, "Unexpected UTF-8 BOM (decode using utf-8-sig)", 1,
                 id="byte-order-mark"),
])
def test_json_errors_read_as_json_loads_words_them(text, message, line):
    table = MaxNodeTable()
    parse_maxpat(BASE, table=table)
    with pytest.raises(PatchSyntaxError) as info:
        parse_maxpat(text, table=table)
    assert str(info.value) == f"not a patcher document: {message} (lines {line}-{line})"
    assert info.value.source_span == (line, line)


@pytest.mark.parametrize("text, message", [
    pytest.param(BASE.replace('"text": "b"', '"text": "b", "gain": NaN'),
                 "non-standard number constant 'NaN'", id="nan"),
    pytest.param(maxpat_doc(boxes=[{"id": "obj-1", "text": "a"},
                                   {"id": "obj-2", "text": "b",
                                    "value": _nested_list(MAX_NESTING + 1)}]),
                 f"patch nests deeper than {MAX_NESTING} levels", id="nested-too-deep"),
])
def test_errors_without_a_span_on_a_warm_table(text, message):
    table = MaxNodeTable()
    parse_maxpat(BASE, table=table)
    with pytest.raises(PatchSyntaxError) as info:
        parse_maxpat(text, table=table)
    assert str(info.value) == message
    assert info.value.source_span is None


def test_duplicate_keys_take_the_last_value():
    # valid JSON: the first patcher and the first boxes are read and dropped
    base = json.loads(BASE)["patcher"]
    inner = json.dumps({"boxes": [{"box": {"text": "no id"}}], **base}, indent=2)
    inner = inner.replace('"boxes": [', '"boxes": [7],\n  "boxes": [', 1)
    text = '{"patcher": {"boxes": 1}, "patcher": ' + inner + "}"
    assert text.count('"boxes"') == 3 and text.count('"patcher"') == 2
    table = MaxNodeTable()
    parse_maxpat(BASE, table=table)
    ir = parse_maxpat(text, table=table)
    assert repr(ir) == repr(parse_maxpat(BASE)) == repr(parse_maxpat(text))


def _hundred_boxes(changed: str = "f 50", layout: str = "indented",
                   reverse: bool = False) -> str:
    boxes = [{"id": f"obj-{k}", "maxclass": "newobj", "text": f"f {k}",
              "patching_rect": [k * 1.0, 10.0, 40.0, 22.0]} for k in range(100)]
    boxes[50]["text"] = changed
    wires = [(f"obj-{k}", 0, f"obj-{k + 1}", 0) for k in range(99)]
    if reverse:
        boxes.reverse()
        wires.reverse()
    text = maxpat_doc(boxes, wires, indent="\t")
    if layout == "native":
        return native_maxpat(json.loads(text))
    if layout == "minified":
        return json.dumps(json.loads(text), separators=(",", ":"))
    return text


@pytest.mark.parametrize("layout", ["indented", "native", "minified"])
def test_shared_table_builds_only_the_changed_box(monkeypatch, layout):
    # a minified element is decoded to find its end, but is not built again
    table = MaxNodeTable()
    first = parse_maxpat(_hundred_boxes(layout=layout), table=table)
    built = []
    real = maxparser._box_contents

    def counting(box, *args):
        built.append(box["id"])
        return real(box, *args)

    monkeypatch.setattr(maxparser, "_box_contents", counting)
    second = parse_maxpat(_hundred_boxes("f fifty", layout), table=table)
    assert built == ["obj-50"]
    shared = [box_id for box_id, node in second.subtrees.items()
              if node is first.subtrees[box_id]]
    assert len(shared) == 99 and "obj-50" not in shared
    assert repr(second) == repr(parse_maxpat(_hundred_boxes("f fifty", layout)))


@pytest.mark.parametrize("layout", ["indented", "native", "minified"])
def test_a_later_version_is_spliced_from_the_last_one(monkeypatch, layout):
    # the second text differs from the first in one box: only that element
    # is decoded and built, and the document is not read whole
    table = MaxNodeTable()
    first = parse_maxpat(_hundred_boxes(layout=layout), table=table)
    decoded, built = [], []
    decode, real = table._decode, maxparser._box_contents

    def counting_decode(s, idx):
        value, end = decode(s, idx)
        decoded.append(s[idx:end])
        return value, end

    def counting(box, *args):
        built.append(box["id"])
        return real(box, *args)

    def whole(*args):
        raise AssertionError("the document was read whole")

    monkeypatch.setattr(table, "_decode", counting_decode)
    monkeypatch.setattr(maxparser, "_object", whole)
    monkeypatch.setattr(maxparser, "_box_contents", counting)
    text = _hundred_boxes("f fifty", layout)
    second = parse_maxpat(text, table=table)
    assert [json.loads(element)["box"]["id"] for element in decoded] == ["obj-50"]
    assert built == ["obj-50"]
    shared = [box_id for box_id, node in second.subtrees.items()
              if node is first.subtrees[box_id]]
    assert len(shared) == 99 and "obj-50" not in shared

    # the next version read as another file is spliced from it all the same
    decoded.clear()
    built.clear()
    moved = _hundred_boxes("f 5 0", layout)
    third = parse_maxpat(moved, source_path="moved.maxpat", table=table)
    assert [json.loads(element)["box"]["id"] for element in decoded] == ["obj-50"]
    assert built == ["obj-50"]
    assert third.source_path == "moved.maxpat"
    shared = [box_id for box_id, node in third.subtrees.items()
              if node is second.subtrees[box_id]]
    assert len(shared) == 99 and "obj-50" not in shared
    monkeypatch.undo()
    for ir, text, path in ((second, text, ""), (third, moved, "moved.maxpat")):
        fresh = parse_maxpat(text, source_path=path)
        assert (repr(ir), dumps_ir(ir)) == (repr(fresh), dumps_ir(fresh))


@pytest.mark.parametrize("layout", ["indented", "native", "minified"])
def test_known_elements_out_of_their_old_order_are_not_built_again(monkeypatch, layout):
    # each element is decoded to find its end, and then found by its text
    table = MaxNodeTable()
    parse_maxpat(_hundred_boxes(layout=layout), table=table)
    built = []
    real = maxparser._box_contents

    def counting(box, *args):
        built.append(box["id"])
        return real(box, *args)

    monkeypatch.setattr(maxparser, "_box_contents", counting)
    text = _hundred_boxes(layout=layout, reverse=True)
    ir = parse_maxpat(text, table=table)
    assert built == []
    assert repr(ir) == repr(parse_maxpat(text))


def _boxes_with_gaps(gaps: list[str], minified_from: int = 100,
                     changed: str = "f 50") -> str:
    """A hundred boxes in tab-indented elements, box ``k`` followed by
    ``gaps[k]`` and a comma; the elements from ``minified_from`` on are
    minified."""
    elements = []
    for k in range(100):
        box = {"box": {"id": f"obj-{k}", "maxclass": "newobj",
                       "text": changed if k == 50 else f"f {k}",
                       "patching_rect": [k * 1.0, 10.0, 40.0, 22.0]}}
        if k < minified_from:
            elements.append(json.dumps(box, indent="\t").replace("\n", "\n\t\t\t"))
        else:
            elements.append(json.dumps(box, separators=(",", ":")))
    boxes = "".join(element + gap for element, gap in zip(elements, gaps + [""]))
    wires = ",".join(json.dumps({"patchline": {"source": [f"obj-{k}", 0],
                                               "destination": [f"obj-{k + 1}", 0]}})
                     for k in range(99))
    return ('{\n\t"patcher": {\n\t\t"fileversion": 1,\n\t\t"boxes": [\n\t\t\t'
            + boxes + '\n\t\t],\n\t\t"lines": [' + wires + ']\n\t}\n}\n')


@pytest.mark.parametrize("gaps, minified_from", [
    pytest.param([",\n\t\t\t"] * 60 + [",\n\t\t\t\t"] + [",\n\t\t\t"] * 38, 100,
                 id="one extra tab"),
    pytest.param([",\n\t\t\t"] * 40 + ["\n, \t\t\t"] * 59, 100, id="max's own"),
    pytest.param([",\n\t\t\t"] * 70 + [","] * 29, 71, id="minified tail"),
])
def test_a_gap_that_changes_mid_array_parses_as_a_fresh_table_does(gaps, minified_from):
    # the element loop reads whatever gap comes between two elements, so
    # the whole read takes the first text and leaves splice state
    table = MaxNodeTable()
    first = _boxes_with_gaps(gaps, minified_from)
    parse_maxpat(first, table=table)
    assert table._last[default_property_filter()].text == first
    text = _boxes_with_gaps(gaps, minified_from, changed="f fifty")
    json.loads(text)
    ir = parse_maxpat(text, table=table)
    assert repr(ir) == repr(parse_maxpat(text))
    assert repr(ir) == repr(parse_maxpat(_boxes_with_gaps([","] * 99, 0, "f fifty")))
    assert ir.subtrees["obj-50"].serialized_contents["text"] == "f fifty"
    assert len(ir.subtrees) == 100


def test_a_box_with_a_nested_patcher_is_one_node_in_every_file():
    # only the root IR names its file, so the same box text in another file
    # is the same node, nested patcher included, spliced or read whole
    inner = json.loads(maxpat_doc([{"id": "obj-7", "text": "metro 5"}]))["patcher"]
    text = maxpat_doc([{"id": "obj-1", "text": "p sub", "patcher": inner},
                       {"id": "obj-2", "text": "print"}])
    table = MaxNodeTable()
    a = parse_maxpat(text, source_path="a.maxpat", table=table)
    b = parse_maxpat(text, source_path="b.maxpat", table=table)
    assert (a.source_path, b.source_path) == ("a.maxpat", "b.maxpat")
    assert b.subtrees["obj-1"].serialized_contents["patcher"].source_path == ""
    assert b.subtrees["obj-1"] is a.subtrees["obj-1"]
    assert b.subtrees["obj-2"] is a.subtrees["obj-2"]
    assert repr(b) == repr(parse_maxpat(text, source_path="b.maxpat"))
    # another head: read whole, and the box found by its text alone
    other = text.replace('"fileversion": 1', '"fileversion": 2', 1)  # the document's
    c = parse_maxpat(other, source_path="c.maxpat", table=table)
    assert c.subtrees["obj-1"] is a.subtrees["obj-1"]
    assert repr(c) == repr(parse_maxpat(other, source_path="c.maxpat"))


def _max_many_files_versions(count: int) -> list[str]:
    """A file of the benchmark's ``max-many-files`` workload at seed 1 and
    ``count`` versions after it, each one of the workload's edits of the
    one before."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(gen)
    rng = gen.random.Random(1)
    state = gen.plan_history(gen.WORKLOADS["max-many-files"], 1).snapshots[-1][0]
    texts = map("f {}".format, itertools.count()).__next__
    versions = [state.render()]
    for edit in itertools.islice(itertools.cycle(gen.MAX_CYCLE), count):
        state = edit(state, rng, texts, None)
        versions.append(state.render())
    return versions


def test_a_max_parse_leaves_no_cyclic_garbage():
    # a table and what a parse builds are freed by their reference counts:
    # a cycle would keep each read's decoded elements until a collection
    first, *later = _max_many_files_versions(20)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        parse_maxpat(first)
        assert gc.collect() == 0
        table = MaxNodeTable()
        for text in later:
            parse_maxpat(text, table=table)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

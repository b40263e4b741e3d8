import pytest

from szzvc.diff import ChangeKind, diff_ir
from szzvc.errors import PatchSyntaxError
from szzvc.ir import MAX_NESTING, Connection, Num, VisualIR, dumps_ir
from szzvc import pdparser
from szzvc.pdparser import (
    PdNodeTable,
    PdRecord,
    decode_patch_bytes,
    parse_pd,
    pd_node_properties,
    split_records,
)
from conftest import HELLO_WORLD_PD, nested_pd


def test_parse_hello_world_fixture():
    # oracle: manual application of the grammar rules to the fixture text
    ir = parse_pd(HELLO_WORLD_PD)
    assert set(ir.subtrees) == {"obj-0", "obj-1"}
    msg = ir.subtrees["obj-0"]
    assert msg.serialized_contents == {"element": "msg", "text": "hello world"}
    assert msg.connections == (Connection(0, "obj-1", 0),)
    assert ir.subtrees["obj-1"].serialized_contents == {
        "element": "obj",
        "text": "print",
    }
    assert ir.subtrees["obj-1"].connections == ()


def test_empty_canvas():
    ir = parse_pd("#N canvas 0 0 100 100 10;")
    assert ir.subtrees == {}


def test_connect_index_out_of_range():
    text = HELLO_WORLD_PD + "#X connect 5 0 0 0;\n"
    with pytest.raises(PatchSyntaxError, match="out of range"):
        parse_pd(text)


def test_unterminated_record():
    with pytest.raises(PatchSyntaxError, match="unterminated record"):
        parse_pd("#N canvas 0 0 100 100 10;\n#X obj 5 5 print")


def test_unknown_chunk():
    with pytest.raises(PatchSyntaxError, match="unknown chunk"):
        parse_pd("#N canvas 0 0 100 100 10;\n#Z what 1 2;")


def test_unbalanced_subcanvas():
    text = "#N canvas 0 0 100 100 10;\n#N canvas 10 10 50 50 inner 0;\n#X obj 1 1 f;"
    with pytest.raises(PatchSyntaxError, match="unbalanced"):
        parse_pd(text)
    with pytest.raises(PatchSyntaxError, match="restore without"):
        parse_pd("#N canvas 0 0 100 100 10;\n#X restore 1 1 pd x;")


def test_error_carries_source_span():
    text = "#N canvas 0 0 100 100 10;\n#X msg 5 5 hi;\n#X connect 9 0 0 0;"
    with pytest.raises(PatchSyntaxError) as excinfo:
        parse_pd(text)
    assert excinfo.value.source_span == (3, 3)


def test_escaped_semicolon_does_not_terminate():
    text = "#N canvas 0 0 100 100 10;\n#X msg 10 10 set 1 \\; bang;\n"
    ir = parse_pd(text)
    assert ir.subtrees["obj-0"].serialized_contents["text"] == "set 1 \\; bang"


def test_record_spanning_lines():
    text = "#N canvas 0 0 100 100 10;\n#X msg 10 10 first\nsecond;\n"
    ir = parse_pd(text)
    assert ir.subtrees["obj-0"].serialized_contents["text"] == "first second"


def test_floatatom_properties():
    # oracle: manual tokenization per the grammar rule
    record = PdRecord("X", "floatatom",
                      ("10", "10", "5", "0", "0", "0", "-", "-", "-"), (2, 2))
    assert pd_node_properties(record) == {
        "element": "floatatom",
        "text": "5 0 0 0 - - -",
    }


def test_layout_excluded_by_default_and_included_on_flag():
    record = PdRecord("X", "obj", ("50", "120", "print"), (3, 3))
    assert pd_node_properties(record) == {"element": "obj", "text": "print"}
    with_layout = pd_node_properties(record, include_layout=True)
    assert with_layout == {
        "element": "obj",
        "text": "print",
        "x": Num("50"),
        "y": Num("120"),
    }


def test_box_width_suffix_is_layout():
    record = PdRecord("X", "obj", ("50", "50", "osc~", "440,", "f", "12"), (2, 2))
    assert pd_node_properties(record) == {"element": "obj", "text": "osc~ 440"}
    assert pd_node_properties(record, include_layout=True) == {
        "element": "obj", "text": "osc~ 440",
        "x": Num("50"), "y": Num("50"), "width": Num("12"),
    }
    # an empty box carries the comma on its y coordinate
    empty = PdRecord("X", "msg", ("10", "20,", "f", "8"), (2, 2))
    assert pd_node_properties(empty, include_layout=True) == {
        "element": "msg", "text": "", "x": Num("10"), "y": Num("20"), "width": Num("8"),
    }


@pytest.mark.parametrize("atoms", [
    ("0", "0", "set", "a\\,", "f", "3"),  # escaped comma: message content
    ("0", "0", "a,", "f", "x"),
    ("0", "0", "a,", "g", "3"),
    ("0", "0", "f", "3"),
])
def test_text_that_is_not_a_width_suffix_stays(atoms):
    record = PdRecord("X", "msg", atoms, (2, 2))
    assert pd_node_properties(record, include_layout=True)["text"] == " ".join(atoms[2:])
    assert "width" not in pd_node_properties(record, include_layout=True)


def test_resizing_a_box_is_a_layout_change_only():
    old = HELLO_WORLD_PD
    new = HELLO_WORLD_PD.replace("#X obj 50 120 print;", "#X obj 50 120 print, f 12;")
    assert diff_ir(parse_pd(old), parse_pd(new)).records == ()
    diff = diff_ir(parse_pd(old, include_layout=True), parse_pd(new, include_layout=True))
    assert [(r.kind, r.path, r.new_value) for r in diff.records] == [
        (ChangeKind.ADDED, ("obj-1", "serialized_contents", "width"), Num("12")),
    ]
    resized = new.replace("f 12", "f 20")
    diff = diff_ir(parse_pd(new, include_layout=True),
                   parse_pd(resized, include_layout=True))
    assert [(r.kind, r.path) for r in diff.records] == [
        (ChangeKind.MODIFIED, ("obj-1", "serialized_contents", "width")),
    ]


def test_subcanvas_becomes_nested_node():
    text = (
        "#N canvas 0 0 300 300 12;\n"
        "#X obj 10 10 loadbang;\n"
        "#N canvas 20 20 200 200 inner 0;\n"
        "#X msg 5 5 inside;\n"
        "#X obj 5 40 print;\n"
        "#X connect 0 0 1 0;\n"
        "#X restore 10 60 pd inner;\n"
        "#X connect 0 0 1 0;\n"
    )
    ir = parse_pd(text)
    assert set(ir.subtrees) == {"obj-0", "obj-1"}
    sub = ir.subtrees["obj-1"].serialized_contents
    assert sub["element"] == "restore"
    assert sub["text"] == "pd inner"
    nested = sub["subpatch"]
    assert isinstance(nested, VisualIR)
    assert set(nested.subtrees) == {"obj-0", "obj-1"}
    assert nested.subtrees["obj-0"].serialized_contents["text"] == "inside"
    assert nested.subtrees["obj-0"].connections == (Connection(0, "obj-1", 0),)
    # the outer connect wires the loadbang to the subpatch node
    assert ir.subtrees["obj-0"].connections == (Connection(0, "obj-1", 0),)


def test_array_data_attaches_to_array_node():
    text = (
        "#N canvas 0 0 300 300 12;\n"
        "#N canvas 0 0 200 140 (subpatch) 0;\n"
        "#X array wave 4 float 3;\n"
        "#A 0 0.1 0.2 -0.5;\n"
        "#A 3 1;\n"
        "#X coords 0 1 3 -1 200 140 1;\n"
        "#X restore 30 30 graph;\n"
    )
    ir = parse_pd(text)
    graph = ir.subtrees["obj-0"].serialized_contents["subpatch"]
    array = graph.subtrees["obj-0"].serialized_contents
    assert array["element"] == "array"
    assert array["text"] == "wave 4 float 3"
    assert array["data"] == [Num("0.1"), Num("0.2"), Num("-0.5"), Num("1")]


def _array_data(*chunks: str):
    text = "#N canvas 0 0 100 100 10;\n#X array a 4 float 0;\n" + "".join(
        f"#A {chunk};\n" for chunk in chunks
    )
    return parse_pd(text).subtrees["obj-0"].serialized_contents["data"]


def test_array_start_index_places_values():
    assert _array_data("0 1 2", "2 3 4") == [Num("1"), Num("2"), Num("3"), Num("4")]
    assert _array_data("0 1 2 3", "1 9") == [Num("1"), Num("9"), Num("3")]


@pytest.mark.parametrize("chunks", [("",), ("1 5",), ("0 1", "3 2"), ("-1 5",),
                                    ("0.0 5",), ("x 5",), ("9" * 40 + " 5",)])
def test_array_start_index_must_be_in_range(chunks):
    with pytest.raises(PatchSyntaxError, match="array data") as excinfo:
        _array_data(*chunks)
    assert excinfo.value.source_span[0] >= 3


def test_array_data_without_array_is_an_error():
    with pytest.raises(PatchSyntaxError, match="array data"):
        parse_pd("#N canvas 0 0 100 100 10;\n#A 0 1 2;")


def test_unknown_elements_are_skipped():
    text = (
        "#N canvas 0 0 100 100 10;\n"
        "#X declare -lib zexy;\n"
        "#X msg 5 5 hi;\n"
        "#X coords 0 1 1 -1 0 0 0;\n"
    )
    ir = parse_pd(text)
    assert set(ir.subtrees) == {"obj-0"}
    assert ir.subtrees["obj-0"].serialized_contents["element"] == "msg"


def test_parse_is_deterministic():
    assert parse_pd(HELLO_WORLD_PD) == parse_pd(HELLO_WORLD_PD)
    from szzvc.ir import dumps_ir

    assert dumps_ir(parse_pd(HELLO_WORLD_PD)) == dumps_ir(parse_pd(HELLO_WORLD_PD))


def test_ordinal_shift_on_insertion():
    base = (
        "#N canvas 0 0 100 100 10;\n"
        "#X msg 5 5 one;\n"
        "#X obj 5 30 two;\n"
        "#X connect 0 0 1 0;\n"
    )
    inserted = (
        "#N canvas 0 0 100 100 10;\n"
        "#X obj 1 1 zero;\n"
        "#X msg 5 5 one;\n"
        "#X obj 5 30 two;\n"
        "#X connect 0 0 1 0;\n"
    )
    before = parse_pd(base)
    after = parse_pd(inserted)
    # every pre-existing node shifted one ordinal up
    assert after.subtrees["obj-1"].serialized_contents == \
        before.subtrees["obj-0"].serialized_contents
    assert after.subtrees["obj-2"].serialized_contents == \
        before.subtrees["obj-1"].serialized_contents
    assert after.subtrees["obj-0"].serialized_contents["text"] == "zero"
    # the unchanged connect record now names the shifted pair
    assert before.subtrees["obj-0"].connections == (Connection(0, "obj-1", 0),)
    assert after.subtrees["obj-0"].connections == (Connection(0, "obj-1", 0),)


def test_record_count_conservation():
    text = (
        "#N canvas 0 0 100 100 10;\n"
        "#X msg 5 5 a;\n"
        "#X obj 5 30 b;\n"
        "#X floatatom 5 60 5 0 0 0 - - -;\n"
        "#X connect 0 0 1 0;\n"
        "#X connect 0 0 2 0;\n"
    )
    records = split_records(text)
    node_records = [r for r in records if r.is_node]
    connect_records = [r for r in records if r.element == "connect"]
    ir = parse_pd(text)
    assert len(ir.subtrees) == len(node_records)
    assert sum(len(s.connections) for s in ir.subtrees.values()) == len(connect_records)


def test_decode_fallback():
    assert decode_patch_bytes(b"#N canvas;") == ("#N canvas;", [])
    text, warnings = decode_patch_bytes("caf\xe9".encode("latin-1"))
    assert text == "caf\xe9"
    assert warnings and "latin-1" in warnings[0]


def test_utf8_bom_is_not_part_of_the_patch():
    text, warnings = decode_patch_bytes(b"\xef\xbb\xbf" + HELLO_WORLD_PD.encode())
    assert warnings == []
    assert parse_pd(text) == parse_pd(HELLO_WORLD_PD)


def test_subcanvases_nest_up_to_the_limit():
    # parse, diff, == and dumps_ir all recurse per level; at the limit they
    # stay within Python's default recursion limit
    old = parse_pd(nested_pd(MAX_NESTING))
    new = parse_pd(nested_pd(MAX_NESTING, "y"))
    assert [r.path for r in diff_ir(old, new).records] == [
        ("obj-0", "serialized_contents", "subpatch") * MAX_NESTING
        + ("obj-0", "serialized_contents", "text")
    ]
    assert old == parse_pd(nested_pd(MAX_NESTING))
    assert dumps_ir(old).count('"$patch"') == MAX_NESTING


def test_subcanvases_past_the_limit_are_a_syntax_error():
    with pytest.raises(PatchSyntaxError, match=f"deeper than {MAX_NESTING}") as info:
        parse_pd(nested_pd(MAX_NESTING + 1))
    # the span of the first canvas past the limit
    assert info.value.source_span == (MAX_NESTING + 2, MAX_NESTING + 2)


def _hundred_nodes(changed: str = "f 50") -> str:
    nodes = [f"#X obj {k} 10 f {k};" for k in range(100)]
    nodes[50] = f"#X obj 50 10 {changed};"
    wires = [f"#X connect {k} 0 {k + 1} 0;" for k in range(99)]
    return "#N canvas 0 0 450 300 12;\n" + "\n".join(nodes + wires) + "\n"


def test_shared_table_builds_only_the_changed_node(monkeypatch):
    table = PdNodeTable()
    first = parse_pd(_hundred_nodes(), table=table)
    built = []
    real = pdparser.pd_node_properties

    def counting(record, *args, **kwargs):
        built.append(record.atoms)
        return real(record, *args, **kwargs)

    monkeypatch.setattr(pdparser, "pd_node_properties", counting)
    second = parse_pd(_hundred_nodes("f fifty"), table=table)
    assert built == [("50", "10", "f", "fifty")]
    shared = [node_id for node_id, node in second.subtrees.items()
              if node is first.subtrees[node_id]]
    assert len(shared) == 99 and "obj-50" not in shared
    assert second == parse_pd(_hundred_nodes("f fifty"))


def test_contents_written_after_their_record_are_not_shared():
    # an array's #A data and a subcanvas's restore are written into the node
    # after its record was read, so a shared table must not hand them on
    table = PdNodeTable()
    head = "#N canvas 0 0 100 100 10;\n"
    array, sub = "#X array a 2 float 0;\n", "#N canvas 0 0 50 50 s 0;\n"
    with_data = parse_pd(head + array + "#A 0 1 2;\n", table=table)
    bare = parse_pd(head + array, table=table)
    other = parse_pd(head + array + "#A 0 7;\n", table=table)
    assert with_data.subtrees["obj-0"].serialized_contents["data"] == [Num("1"), Num("2")]
    assert "data" not in bare.subtrees["obj-0"].serialized_contents
    assert other.subtrees["obj-0"].serialized_contents["data"] == [Num("7")]
    restore = "#X restore 1 1 pd s;\n"
    one = parse_pd(head + sub + "#X obj 1 1 one;\n" + restore, table=table)
    two = parse_pd(head + sub + "#X obj 1 1 two;\n" + restore, table=table)
    inner = [ir.subtrees["obj-0"].serialized_contents["subpatch"] for ir in (one, two)]
    assert [sub.subtrees["obj-0"].serialized_contents["text"] for sub in inner] == \
        ["one", "two"]
    assert list(two.subtrees["obj-0"].serialized_contents) == ["element", "subpatch", "text"]

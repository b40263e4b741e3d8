import pytest

from szzvc.diff import (
    MAX_DEPTH,
    ChangeKind,
    diff_ir,
    match_changes,
    nodes_touched,
    paths_at_depth,
    render_path,
    truncate_path,
)
from szzvc.ir import ABSENT, Connection, Language, NodeSubtree, Num, VisualIR, canonicalize
from szzvc.pdparser import parse_pd
from conftest import HELLO_WORLD_PD, HELLO_WORLD_PD_MUTATED
from oracle import apply_diff, assert_matches_bruteforce, flatten


def _node(text, conns=()):
    return NodeSubtree(
        connections=tuple(conns),
        serialized_contents={"element": "obj", "text": text},
    )


def _ir(subtrees):
    return canonicalize(
        VisualIR(subtrees=subtrees, source_language=Language.PURE_DATA,
                 source_path="t.pd")
    )


def test_hello_world_text_modification():
    old = parse_pd(HELLO_WORLD_PD)
    new = parse_pd(HELLO_WORLD_PD_MUTATED)
    diff = diff_ir(old, new)
    assert len(diff.records) == 1
    record = diff.records[0]
    assert record.kind is ChangeKind.MODIFIED
    assert record.path == ("obj-0", "serialized_contents", "text")
    assert record.old_value == "hello world"
    assert record.new_value == "world hello"
    assert render_path(record.path) == "root[obj-0]['serialized_contents']['text']"


def test_diff_with_itself_is_empty():
    ir = parse_pd(HELLO_WORLD_PD)
    assert diff_ir(ir, ir).records == ()


def test_added_node_and_added_edge():
    # oracle: brute-force path-set comparison of the two canonical IRs
    old = _ir({"obj-0": _node("a", [Connection(0, "obj-1", 0)]), "obj-1": _node("b")})
    new = _ir({
        "obj-0": _node("a", [Connection(0, "obj-1", 0), Connection(1, "obj-2", 0)]),
        "obj-1": _node("b"),
        "obj-2": _node("c"),
    })
    diff = diff_ir(old, new)
    assert {(r.path, r.kind) for r in diff.records} == {
        (("obj-2",), ChangeKind.ADDED),
        (("obj-0", "connections", Connection(1, "obj-2", 0)), ChangeKind.ADDED),
    }
    assert_matches_bruteforce(old, new, diff)


def test_rewired_edge_is_delete_plus_add():
    old = _ir({"obj-0": _node("a", [Connection(0, "obj-1", 0)]), "obj-1": _node("b"),
               "obj-2": _node("c")})
    new = _ir({"obj-0": _node("a", [Connection(0, "obj-2", 0)]), "obj-1": _node("b"),
               "obj-2": _node("c")})
    diff = diff_ir(old, new)
    kinds = {(r.kind, r.path[-1]) for r in diff.records}
    assert kinds == {
        (ChangeKind.DELETED, Connection(0, "obj-1", 0)),
        (ChangeKind.ADDED, Connection(0, "obj-2", 0)),
    }


def test_language_mismatch_rejected():
    pd = VisualIR(subtrees={}, source_language=Language.PURE_DATA)
    mx = VisualIR(subtrees={}, source_language=Language.MAX_MSP)
    with pytest.raises(ValueError, match="language mismatch"):
        diff_ir(pd, mx)


def test_numeric_spelling_is_not_a_change():
    old = _ir({"obj-0": NodeSubtree((), {"gain": Num("1.0")})})
    new = _ir({"obj-0": NodeSubtree((), {"gain": Num("1.00")})})
    assert old != new
    assert diff_ir(old, new).records == ()
    # beside a changed node, and inside a subpatch
    old = _ir({"obj-0": NodeSubtree((), {"p": old}), "obj-1": NodeSubtree((), {"t": "a"})})
    new = _ir({"obj-0": NodeSubtree((), {"p": new}), "obj-1": NodeSubtree((), {"t": "b"})})
    assert [r.path for r in diff_ir(old, new).records] == [
        ("obj-1", "serialized_contents", "t")
    ]


_INNER = _ir({"obj-0": _node("in")})


@pytest.mark.parametrize("old_value,new_value", [
    ("scalar", {"k": "map"}),
    (["a", "b"], {"k": "map"}),
    ({"k": "map"}, _INNER),
    (Num("1"), [Num("1")]),
    (_INNER, "scalar"),
], ids=["scalar-map", "list-map", "map-patch", "num-list", "patch-scalar"])
def test_kind_change_is_reported_at_that_path(old_value, new_value):
    old = _ir({"obj-0": NodeSubtree((), {"v": old_value})})
    new = _ir({"obj-0": NodeSubtree((), {"v": new_value})})
    diff = diff_ir(old, new)
    assert [(r.kind, r.path) for r in diff.records] == [
        (ChangeKind.MODIFIED, ("obj-0", "serialized_contents", "v"))
    ]
    assert_matches_bruteforce(old, new, diff)


def test_truncate_path():
    path = ("obj-0", "serialized_contents", "text")
    assert truncate_path(path, 1) == ("obj-0",)
    assert truncate_path(("obj-0",), 5) == ("obj-0",)
    assert truncate_path(("obj-3", "connections", 2), 2) == ("obj-3", "connections")
    with pytest.raises(ValueError):
        truncate_path(path, 0)


def test_paths_at_depth_single_modified_record():
    old = parse_pd(HELLO_WORLD_PD)
    new = parse_pd(HELLO_WORLD_PD_MUTATED)
    diff = diff_ir(old, new)
    assert paths_at_depth(diff, 1) == ((("obj-0",), ChangeKind.MODIFIED),)
    assert paths_at_depth(diff, MAX_DEPTH) == (
        (("obj-0", "serialized_contents", "text"), ChangeKind.MODIFIED),
    )


def test_paths_at_depth_empty():
    ir = parse_pd(HELLO_WORLD_PD)
    assert paths_at_depth(diff_ir(ir, ir), MAX_DEPTH) == ()
    assert paths_at_depth(diff_ir(ir, ir), 1) == ()


def test_paths_at_depth_merge_rule():
    # oracle: enumerate records, truncate, apply the merge rule by hand
    old = _ir({"obj-1": _node("keep"), "obj-9": _node("gone")})
    new = _ir({
        "obj-1": NodeSubtree(
            connections=(Connection(0, "obj-1", 0),),
            serialized_contents={"element": "obj", "text": "changed"},
        ),
        "obj-2": _node("fresh"),
    })
    diff = diff_ir(old, new)
    assert paths_at_depth(diff, 1) == (
        (("obj-1",), ChangeKind.MODIFIED),  # edge added + text modified merge
        (("obj-2",), ChangeKind.ADDED),  # whole-node addition stays Added
        (("obj-9",), ChangeKind.DELETED),
    )


def test_paths_at_depth_all_added_under_existing_node_is_modified():
    old = _ir({"obj-1": NodeSubtree((), {"a": "x"})})
    new = _ir({"obj-1": NodeSubtree((), {"a": "x", "b": "y"})})
    diff = diff_ir(old, new)
    assert paths_at_depth(diff, 1) == ((("obj-1",), ChangeKind.MODIFIED),)
    # untruncated at its own depth, the record keeps its kind
    assert paths_at_depth(diff, 3) == (
        (("obj-1", "serialized_contents", "b"), ChangeKind.ADDED),
    )


def test_match_changes_exact_and_empty():
    old = parse_pd(HELLO_WORLD_PD)
    new = parse_pd(HELLO_WORLD_PD_MUTATED)
    fix_diff = diff_ir(old, new)
    fix_paths = paths_at_depth(fix_diff, MAX_DEPTH)
    # history diff touching the same leaf matches at max depth
    assert match_changes(fix_paths, fix_diff, MAX_DEPTH) == {
        ("obj-0", "serialized_contents", "text")
    }
    empty = diff_ir(old, old)
    assert match_changes(fix_paths, empty, MAX_DEPTH) == set()


def test_match_changes_ignores_added_fix_paths_and_unrelated_history():
    # oracle: set intersection by hand
    fix_paths = {(("obj-0",), ChangeKind.MODIFIED)}
    old = _ir({"obj-0": _node("x")})
    new = _ir({"obj-0": _node("x"), "obj-1": _node("y")})
    history_only_added_other = diff_ir(old, new)
    assert match_changes(fix_paths, history_only_added_other, 1) == set()
    added_fix = {(("obj-0", "serialized_contents", "b"), ChangeKind.ADDED)}
    any_history = diff_ir(_ir({"obj-0": _node("x")}), _ir({"obj-0": _node("z")}))
    assert match_changes(added_fix, any_history, MAX_DEPTH) == set()


def test_symmetry_added_deleted_swap():
    old = _ir({"obj-0": _node("a"), "obj-1": _node("b")})
    new = _ir({"obj-0": _node("c"), "obj-2": _node("d")})
    forward = diff_ir(old, new)
    backward = diff_ir(new, old)
    swapped = {
        (
            r.path,
            {ChangeKind.ADDED: ChangeKind.DELETED,
             ChangeKind.DELETED: ChangeKind.ADDED}.get(r.kind, r.kind),
        )
        for r in forward.records
    }
    assert swapped == {(r.path, r.kind) for r in backward.records}


def test_composition_soundness_on_fixture():
    old = parse_pd(HELLO_WORLD_PD)
    new = parse_pd(
        HELLO_WORLD_PD_MUTATED + "#X obj 60 160 metro 500;\n#X connect 1 0 2 0;\n"
    )
    diff = diff_ir(old, new)
    patched = apply_diff(old, diff)
    assert diff_ir(patched, new).records == ()
    assert flatten(patched) == flatten(new)


def test_nodes_touched_counts_distinct_nodes():
    old = _ir({"obj-0": _node("a"), "obj-1": _node("b")})
    new = _ir({
        "obj-0": NodeSubtree(
            (Connection(0, "obj-1", 0),),
            {"element": "obj", "text": "a2"},
        ),
        "obj-1": _node("b"),
        "obj-2": _node("c"),
    })
    diff = diff_ir(old, new)
    assert nodes_touched(diff) == 2  # obj-0 (text + edge) and obj-2


def test_nested_patch_changes_have_deep_paths():
    inner_old = _ir({"obj-0": _node("in")})
    inner_new = _ir({"obj-0": _node("in!")})
    old = _ir({"obj-5": NodeSubtree((), {"patcher": inner_old})})
    new = _ir({"obj-5": NodeSubtree((), {"patcher": inner_new})})
    diff = diff_ir(old, new)
    assert [r.path for r in diff.records] == [
        ("obj-5", "serialized_contents", "patcher", "obj-0",
         "serialized_contents", "text")
    ]
    assert nodes_touched(diff) == 1
    assert_matches_bruteforce(old, new, diff)


def test_render_path_forms():
    assert render_path(("obj-0",)) == "root[obj-0]"
    assert render_path(("obj-3", "connections", Connection(1, "obj-4", 2))) == \
        "root[obj-3]['connections'][(1->obj-4:2)]"
    assert render_path(("obj-0", "serialized_contents", "data", 3)) == \
        "root[obj-0]['serialized_contents']['data'][3]"


def test_record_invariant_enforced():
    from szzvc.diff import ChangeRecord

    with pytest.raises(ValueError):
        ChangeRecord(ChangeKind.ADDED, ("obj-0",), "present", "present")
    with pytest.raises(ValueError):
        ChangeRecord(ChangeKind.MODIFIED, ("obj-0",), ABSENT, "x")

"""Randomized property suites for the IR, parsers, and diff engine."""

import hypothesis.strategies as st
from hypothesis import given, settings

from szzvc.diff import (
    MAX_DEPTH,
    ChangeKind,
    diff_ir,
    is_prefix,
    match_changes,
    paths_at_depth,
    truncate_path,
)
from szzvc.errors import PatchSyntaxError
from szzvc.ir import canonicalize, dumps_ir
from szzvc.maxparser import parse_maxpat
from szzvc.pdparser import PdNodeTable, parse_pd, split_records
from oracle import apply_diff, assert_matches_bruteforce, flatten, split_records_reference
from strategies import (
    ir_pairs,
    maxpat_documents,
    pd_node_records,
    pd_patches,
    pd_split_texts,
    pd_version_sequences,
    visual_irs,
)

CASES = settings(max_examples=150, deadline=None)


@CASES
@given(visual_irs())
def test_diff_identity(ir):
    assert diff_ir(ir, ir).records == ()


@CASES
@given(ir_pairs)
def test_diff_symmetry_under_added_deleted_swap(pair):
    old, new = pair
    forward = diff_ir(old, new)
    backward = diff_ir(new, old)
    swap = {ChangeKind.ADDED: ChangeKind.DELETED,
            ChangeKind.DELETED: ChangeKind.ADDED}
    assert {(r.path, swap.get(r.kind, r.kind), _norm(r.new_value), _norm(r.old_value))
            for r in forward.records} == \
        {(r.path, r.kind, _norm(r.old_value), _norm(r.new_value))
         for r in backward.records}


def _norm(value):
    return repr(value)


@CASES
@given(ir_pairs)
def test_diff_paths_are_prefix_free(pair):
    old, new = pair
    records = diff_ir(old, new).records
    for a in records:
        for b in records:
            if a is not b:
                assert not is_prefix(a.path, b.path)
                assert a.path != b.path


@CASES
@given(ir_pairs)
def test_diff_equals_bruteforce_enumeration(pair):
    old, new = pair
    assert_matches_bruteforce(old, new, diff_ir(old, new))


@CASES
@given(visual_irs())
def test_canonicalize_idempotent_and_content_preserving(ir):
    once = canonicalize(ir)
    assert canonicalize(once) == once
    assert dumps_ir(canonicalize(once)) == dumps_ir(once)
    assert flatten(once) == flatten(ir)


@CASES
@given(maxpat_documents())
def test_max_box_order_shuffle_invariance(docs):
    original, shuffled = docs
    assert dumps_ir(parse_maxpat(original)) == dumps_ir(parse_maxpat(shuffled))


# Both parsers build the canonical form in their one pass. ``repr`` shows the
# order of dicts and tuples, which ``==`` does not.


@CASES
@given(maxpat_documents())
def test_max_parse_is_canonical(docs):
    for doc in docs:
        ir = parse_maxpat(doc)
        assert repr(ir) == repr(canonicalize(ir))


@CASES
@given(pd_version_sequences(), st.booleans())
def test_pd_parse_is_canonical(texts, include_layout):
    for text in texts:
        try:
            ir = parse_pd(text, include_layout=include_layout)
        except PatchSyntaxError:
            continue
        assert repr(ir) == repr(canonicalize(ir))


@CASES
@given(pd_patches(), st.data())
def test_pd_ordinal_shift_on_insertion(patch, data):
    base = parse_pd(patch)
    node_count = len(base.subtrees)
    position = data.draw(st.integers(0, node_count))
    new_record = data.draw(pd_node_records())
    lines = patch.splitlines()
    lines.insert(1 + position, new_record)
    shifted = parse_pd("\n".join(lines) + "\n")
    assert len(shifted.subtrees) == node_count + 1
    inserted = parse_pd("#N canvas 0 0 450 300 12;\n" + new_record + "\n")
    assert shifted.subtrees[f"obj-{position}"].serialized_contents == \
        inserted.subtrees["obj-0"].serialized_contents
    for ordinal in range(node_count):
        expected = f"obj-{ordinal + 1}" if ordinal >= position else f"obj-{ordinal}"
        assert shifted.subtrees[expected].serialized_contents == \
            base.subtrees[f"obj-{ordinal}"].serialized_contents


def _records_or_error(split, text):
    try:
        return split(text)
    except PatchSyntaxError as exc:
        return str(exc), exc.source_span


@settings(max_examples=400, deadline=None)
@given(pd_split_texts)
def test_split_records_matches_character_scan(text):
    assert _records_or_error(split_records, text) == \
        _records_or_error(split_records_reference, text)


def _parse_or_error(text, include_layout, table):
    try:
        return parse_pd(text, include_layout=include_layout, table=table)
    except PatchSyntaxError as exc:
        return str(exc), exc.source_span


def _pd_outcome(result):
    return result if isinstance(result, tuple) else (result, dumps_ir(result), repr(result))


@CASES
@given(pd_version_sequences(), st.booleans())
def test_shared_pd_table_parses_like_a_fresh_one(texts, include_layout):
    table = PdNodeTable()
    shared = [_parse_or_error(text, include_layout, table) for text in texts]
    # compared once all are parsed: a later parse must not change an earlier IR
    for text, result in zip(texts, shared):
        assert _pd_outcome(result) == \
            _pd_outcome(_parse_or_error(text, include_layout, None))


# Supporting invariants of the diff engine, same randomized regime.


@CASES
@given(ir_pairs)
def test_applying_a_diff_reproduces_the_target(pair):
    old, new = pair
    diff = diff_ir(old, new)
    patched = canonicalize(apply_diff(old, diff))
    assert diff_ir(patched, new).records == ()
    assert flatten(patched) == flatten(new)


@CASES
@given(ir_pairs)
def test_depth1_nodes_same_before_or_after_dedup(pair):
    old, new = pair
    diff = diff_ir(old, new)
    direct = {r.path[0] for r in diff.records}
    truncated = {p[0] for p, _ in paths_at_depth(diff, 1)}
    assert direct == truncated
    for path, _ in paths_at_depth(diff, 2):
        assert len(path) <= 2
        assert truncate_path(path, 1) in {(n,) for n in direct}


@CASES
@given(ir_pairs, st.sampled_from([MAX_DEPTH, 1, 2, 3]))
def test_match_changes_projects_like_paths_at_depth(pair, mode):
    step_diff = diff_ir(*pair)
    # every prefix of every record path, so any projected path can match
    prefixes = {r.path[:n] for r in step_diff.records
                for n in range(1, len(r.path) + 1)}
    projected = {path for path, _ in paths_at_depth(step_diff, mode)}
    assert match_changes([(p, kind) for p in prefixes for kind in ChangeKind],
                         step_diff, mode) == projected
    assert match_changes([(p, ChangeKind.ADDED) for p in prefixes],
                         step_diff, mode) == set()

"""Randomized property suites for the IR, parsers, and diff engine."""

import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from szzvc import diff as diff_module
from szzvc import maxparser
from szzvc.diff import (
    MAX_DEPTH,
    ChangeKind,
    diff_ir,
    diff_node,
    is_prefix,
    match_changes,
    path_sort_key,
    paths_at_depth,
    truncate_path,
)
from szzvc.errors import PatchSyntaxError
from szzvc.gitrepo import Repository
from szzvc.ir import NodeSubtree, VisualIR, canonicalize, dumps_ir
from szzvc.maxparser import (
    FilterMode,
    MaxNodeTable,
    PropertyFilter,
    default_property_filter,
    parse_maxpat,
)
from szzvc.miner import FixingCommit, MinerConfig, MiningCache, find_inducing
from szzvc.pdparser import PdNodeTable, decode_patch_bytes, parse_pd, split_records
from conftest import RepoFixture
from oracle import (
    apply_diff,
    assert_matches_bruteforce,
    diff_subtrees_full_visit,
    flatten,
    paths_at_depth_set,
    reference_inducing,
    split_records_reference,
)
from strategies import (
    ir_pairs,
    maxpat_documents,
    maxpat_histories,
    maxpat_version_sequences,
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


def _parse_or_error(text, include_layout, table, source_path=""):
    try:
        return parse_pd(text, include_layout=include_layout, source_path=source_path,
                        table=table)
    except PatchSyntaxError as exc:
        return str(exc), exc.source_span


def _outcome(result):
    return result if isinstance(result, tuple) else (result, dumps_ir(result), repr(result))


@CASES
@given(pd_version_sequences(), st.booleans(), st.data())
def test_shared_pd_table_parses_like_a_fresh_one(texts, include_layout, data):
    # each version is read as one of two files, so some splice from a
    # version of the other
    paths = [data.draw(st.sampled_from(["a.pd", "b.pd"])) for _ in texts]
    table = PdNodeTable()
    shared = [_parse_or_error(text, include_layout, table, path)
              for text, path in zip(texts, paths)]
    # compared once all are parsed: a later parse must not change an earlier IR
    for text, path, result in zip(texts, paths, shared):
        assert _outcome(result) == \
            _outcome(_parse_or_error(text, include_layout, None, path))
    # a top-level node equal to the same id's node in the IR before it is
    # that node, unless its contents are its own (a subcanvas, array data)
    for before, after in zip(shared, shared[1:]):
        if isinstance(before, tuple) or isinstance(after, tuple):
            continue
        for node_id, node in after.subtrees.items():
            contents = node.serialized_contents
            if ("subpatch" not in contents and "data" not in contents
                    and node == before.subtrees.get(node_id)):
                assert node is before.subtrees[node_id]


def _max_parse_or_error(text, prop_filter, source_path, table):
    try:
        return parse_maxpat(text, prop_filter, source_path, table=table)
    except PatchSyntaxError as exc:
        return str(exc), exc.source_span


_FILTERS = [
    default_property_filter(),
    PropertyFilter(FilterMode.EXCLUDE_LIST, frozenset()),
    PropertyFilter(FilterMode.INCLUDE_LIST, frozenset({"text", "patcher"})),
]


@CASES
@given(maxpat_histories(), st.data())
def test_shared_max_table_parses_like_a_fresh_one(histories, data):
    # each layout's versions in history order and then reversed, each run
    # under one filter and path, so that most texts differ from the one read
    # before them in a few elements only and are spliced from it; the texts
    # cut or broken from them come last
    *layouts, broken = histories
    runs = [run for texts in layouts for run in (texts, texts[::-1])] + [broken]
    table = MaxNodeTable()
    shared = []
    for run in runs:
        option = (data.draw(st.sampled_from(_FILTERS)),
                  data.draw(st.sampled_from(["a.maxpat", "b.maxhelp"])))
        shared += [(text, option, _max_parse_or_error(text, *option, table))
                   for text in run]
    # compared once all are parsed: a later parse must not change an earlier IR
    for text, option, result in shared:
        assert _outcome(result) == _outcome(_max_parse_or_error(text, *option, None))


def _max_loads_or_error(text, prop_filter, source_path):
    """What parse_maxpat gives for ``text`` read by ``json.loads`` and the
    value path alone."""
    try:
        try:
            doc = json.loads(text, parse_int=str.encode, parse_float=str.encode,
                             parse_constant=maxparser._reject_constant)
        except json.JSONDecodeError as exc:
            raise PatchSyntaxError(f"not a patcher document: {exc.msg}",
                                   (exc.lineno, exc.lineno))
        patcher = doc.get("patcher") if isinstance(doc, dict) else None
        if not isinstance(patcher, dict):
            raise PatchSyntaxError("document has no top-level patcher")
        return maxparser._parse_patcher(patcher, prop_filter, source_path, 0,
                                        MaxNodeTable())
    except PatchSyntaxError as exc:
        return str(exc), exc.source_span


@settings(max_examples=100, deadline=None)
@given(maxpat_version_sequences())
def test_a_whole_max_read_equals_the_standard_library_read(texts):
    # the reader walks the document and patcher objects itself; any text it
    # takes must read as json.loads reads it, repeated keys and the
    # document's own boxes and lines included
    for text in texts:
        for prop_filter in _FILTERS:
            assert _outcome(_max_parse_or_error(text, prop_filter, "a.maxpat", None)) == \
                _outcome(_max_loads_or_error(text, prop_filter, "a.maxpat"))


# Character edits that the structured version strategies cannot make: a cut
# record, a stray delimiter, a duplicated stretch, a dropped-in token.
_DROP_INS = ["\ufeff", "\x00", "\\;", "1e999", "NaN"]


@st.composite
def _character_edited(draw, text: str, syntax: str) -> str:
    """``text`` after 1-4 edits: a stretch deleted or duplicated, syntax
    characters inserted, or one of ``_DROP_INS`` dropped in."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        end = draw(st.integers(at, min(len(text), at + 40)))
        edit = draw(st.sampled_from(["delete", "duplicate", "insert", "drop in"]))
        if edit == "delete":
            text = text[:at] + text[end:]
        elif edit == "duplicate":
            text = text[:end] + text[at:end] + text[end:]
        elif edit == "insert":
            text = text[:at] + draw(st.text(syntax, min_size=1, max_size=3)) + text[at:]
        else:
            text = text[:at] + draw(st.sampled_from(_DROP_INS)) + text[at:]
    return text


@settings(max_examples=100, deadline=None)
@given(pd_version_sequences(), st.booleans(), st.data())
def test_a_character_edited_pd_version_parses_as_a_fresh_table_does(
        texts, include_layout, data):
    # a shared table reads the edit right after its base version, so that it
    # splices where it can
    base = data.draw(st.sampled_from(texts))
    edited = data.draw(_character_edited(base, ";\\,$# \n07-"))
    table = PdNodeTable()
    _parse_or_error(base, include_layout, table)
    assert _outcome(_parse_or_error(edited, include_layout, table)) == \
        _outcome(_parse_or_error(edited, include_layout, None))


@settings(max_examples=100, deadline=None)
@given(maxpat_version_sequences(), st.sampled_from(_FILTERS), st.data())
def test_a_character_edited_max_version_parses_as_a_fresh_table_does(
        texts, prop_filter, data):
    base = data.draw(st.sampled_from(texts))
    edited = data.draw(_character_edited(base, '{}[]:,"\\ \n\t-.0e'))
    table = MaxNodeTable()
    _max_parse_or_error(base, prop_filter, "a.maxpat", table)
    assert _outcome(_max_parse_or_error(edited, prop_filter, "a.maxpat", table)) == \
        _outcome(_max_parse_or_error(edited, prop_filter, "a.maxpat", None))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([b"", b"\xef\xbb\xbf"]),
       st.binary(max_size=40) | st.text(max_size=20).map(str.encode))
def test_decode_patch_bytes_reads_any_bytes(mark, data):
    # UTF-8, or else Latin-1, each without its first byte-order mark
    text, warnings = decode_patch_bytes(mark + data)
    raw = (mark + data).removeprefix(b"\xef\xbb\xbf")
    if warnings:
        assert warnings == ["decoded as latin-1 (invalid utf-8)"]
        assert text.encode("latin-1") == raw
    else:
        assert text.encode() == raw


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
def test_records_and_projection_come_in_path_order(pair, mode):
    diff = diff_ir(*pair)
    paths = [r.path for r in diff.records]
    assert paths == sorted(paths, key=path_sort_key)
    expected = sorted(paths_at_depth_set(diff, mode), key=lambda pk: path_sort_key(pk[0]))
    assert paths_at_depth(diff, mode) == tuple(expected)


def _parsed_versions(sequence) -> list[VisualIR]:
    """The versions of a Pd or Max version sequence that parse, each parsed
    through one shared table, so that unchanged nodes are shared."""
    extension, texts = sequence
    table = PdNodeTable() if extension == "pd" else MaxNodeTable()
    irs = []
    for text in texts:
        try:
            irs.append(parse_pd(text, table=table) if extension == "pd"
                       else parse_maxpat(text, table=table))
        except PatchSyntaxError:
            pass
    return irs


def _parsed_pairs(sequences):
    return (sequences.map(_parsed_versions).filter(bool)
            .flatmap(lambda irs: st.tuples(st.sampled_from(irs), st.sampled_from(irs))))


@CASES
@given(ir_pairs
       | _parsed_pairs(pd_version_sequences().map(lambda texts: ("pd", texts)))
       | _parsed_pairs(maxpat_version_sequences().map(lambda texts: ("maxpat", texts))))
def test_diff_ir_is_the_concatenation_of_its_node_diffs(pair):
    old, new = pair
    node_ids = sorted(old.subtrees.keys() | new.subtrees.keys())
    assert diff_ir(old, new).records == tuple(
        record for node_id in node_ids for record in diff_node(old, new, node_id))
    assert diff_node(old, new, "no such node") == ()


@CASES
@given(ir_pairs, st.data())
def test_diff_of_shared_nodes_equals_a_full_visit(pair, data):
    old, other = pair
    # each node of the new side is the old node itself, an equal copy, the
    # other IR's node, or absent: shared, equal, changed, added and deleted
    subtrees = {}
    for node_id in sorted(old.subtrees.keys() | other.subtrees.keys()):
        source = data.draw(st.sampled_from(["same", "copy", "other", "absent"]))
        node = old.subtrees.get(node_id)
        if source == "copy" and node is not None:
            node = NodeSubtree(node.connections, dict(node.serialized_contents))
        elif source == "other":
            node = other.subtrees.get(node_id)
        if node is not None and source != "absent":
            subtrees[node_id] = node
    new = VisualIR(subtrees, old.source_language, old.source_path)
    with mock.patch.object(diff_module, "_diff_subtrees", diff_subtrees_full_visit):
        expected = diff_ir(old, new).records
    assert diff_ir(old, new).records == expected


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


# The miner against a reference that reads, parses and diffs every version
# afresh: candidates must not depend on when a version was read or parsed.


@settings(max_examples=20, deadline=None)
@given(pd_version_sequences().map(lambda texts: ("pd", texts))
       | maxpat_version_sequences().map(lambda texts: ("maxpat", texts)),
       st.data())
def test_candidates_equal_a_reference_miner(sequence, data):
    extension, texts = sequence
    versions = data.draw(st.lists(st.sampled_from(texts), min_size=2, max_size=6))
    rename_at = data.draw(st.none() | st.integers(1, len(versions) - 1))
    merge_at = data.draw(st.none() | st.integers(1, len(versions) - 1))
    follow_renames = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        fixture = RepoFixture(Path(tmp) / "repo")
        path, commits = f"p.{extension}", []

        def when():
            return f"2021-05-01T10:{len(commits):02d}:00+00:00"

        def commit(files, message):
            commits.append(fixture.commit(files, message, when()))

        for k, text in enumerate(versions):
            if k == rename_at:  # a pure rename, a step of its own
                fixture.move(path, f"q.{extension}")
                path = f"q.{extension}"
                commit({}, "rename")
            if k == merge_at:  # the version comes in by a --no-ff merge
                fixture.checkout("side", create=True)
                commit({path: text}, f"v{k} on a side branch")
                fixture.checkout("main")
                commit({"notes.txt": f"{k}"}, "main moves on")
                commits.append(fixture.merge("side", f"merge v{k}", when()))
                continue
            commit({path: text}, f"v{k}")
        # the fixes in any order, so each meets a cache that others filled
        fixes = data.draw(st.permutations(commits[1:]))
        with Repository(str(fixture.path)) as repo:
            for mode, all_matches in itertools.product([MAX_DEPTH, 1, 2],
                                                       [False, True]):
                config = MinerConfig(depth_mode=mode, all_matches=all_matches,
                                     follow_renames=follow_renames)
                cache = MiningCache(repo, config)
                for fix in fixes:
                    fixing = FixingCommit(fix, "", visual_files=repo.changed_files(fix))
                    result = find_inducing(repo, fixing, config, cache)
                    assert {(c.inducing_commit, c.file_path):
                            (set(c.matched_paths), c.via_addition_reduction)
                            for c in result.candidates} == \
                        reference_inducing(fixture.path, fix, config), (fix, config)

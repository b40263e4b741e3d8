import json
import random

import pytest

from szzvc.gitrepo import Repository
from szzvc.miner import MinerConfig, find_inducing, language_for_path
from szzvc.report import dumps_report, run_analysis
from szzvc.textual import annotate, changed_pre_fix_lines, textual_find_inducing
from test_miner import PATCH_V1, PATCH_V2, PATCH_V3, T, _fixing


def _repo(repo_fixture):
    return Repository(str(repo_fixture.path))


def _changed(repo_fixture, old: str, new: str) -> list[int]:
    """changed_pre_fix_lines of one fixture commit from ``old`` to ``new``."""
    c1 = repo_fixture.commit({"f.pd": old}, f"before {old!r}", T[0])
    c2 = repo_fixture.commit({"f.pd": new}, f"after {new!r}", T[1])
    hunks = _repo(repo_fixture).line_hunks(c1, "f.pd", c2, "f.pd")
    return changed_pre_fix_lines(old.splitlines(), hunks)


def test_changed_pre_fix_lines_skips_blanks(repo_fixture):
    # beta deleted (line 3); the blank line 2 also vanished but is skipped
    assert _changed(repo_fixture, "alpha\n\nbeta\ngamma\n", "alpha\ngamma\n") == [3]
    assert _changed(repo_fixture, "a\nb\n", "a\nb2\n") == [2]
    assert _changed(repo_fixture, "same\n", "same\n") == []


def test_deleted_file_is_one_hunk_over_every_line(repo_fixture):
    c1 = repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": None}, "c3 fix", T[2])
    repo = _repo(repo_fixture)
    result = textual_find_inducing(repo, _fixing(repo, c3), MinerConfig())
    assert [c.inducing_commit for c in result.candidates] == sorted([c1, c2])
    assert changed_pre_fix_lines(PATCH_V2.splitlines(), [(1, 4, 0, 0)]) == [1, 2, 3, 4]


def test_three_commit_fixture_blames_line_introducer(repo_fixture, monkeypatch):
    # oracle below: git blame's own origin for the same line
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": PATCH_V3}, "c3 fix", T[2])
    repo = _repo(repo_fixture)
    fixing = _fixing(repo, c3)
    reads = []
    real_read = repo.read_file
    monkeypatch.setattr(repo, "read_file",
                        lambda *spec: reads.append(spec) or real_read(*spec))
    result = textual_find_inducing(repo, fixing, MinerConfig())
    assert [c.inducing_commit for c in result.candidates] == [c2]
    assert reads == [(c2, "p.pd")]  # the pre-fix version, read once
    assert result.candidates[0].matched_paths == ()

    # the modified line is line 2 (the msg record); cross-check with blame
    hunks = repo.line_hunks(c2, "p.pd", c3, "p.pd")
    assert changed_pre_fix_lines(PATCH_V2.splitlines(), hunks) == [2]
    assert repo_fixture.blame_origin(f"{c3}^", "p.pd", 2) == c2


def test_adds_only_fix_yields_nothing(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit(
        {"p.pd": PATCH_V1 + "#X obj 60 160 metro 500;\n"}, "c2 fix", T[1]
    )
    repo = _repo(repo_fixture)
    result = textual_find_inducing(repo, _fixing(repo, c2), MinerConfig())
    assert result.candidates == ()


def test_whitespace_only_deletion_yields_nothing(repo_fixture):
    with_blank = PATCH_V1 + "\n"
    repo_fixture.commit({"raw.pd": with_blank}, "c1", T[0])
    c2 = repo_fixture.commit({"raw.pd": PATCH_V1}, "c2 fix", T[1])
    repo = _repo(repo_fixture)
    result = textual_find_inducing(repo, _fixing(repo, c2), MinerConfig())
    assert result.candidates == ()


def test_annotate_matches_git_blame_across_history(repo_fixture):
    lines_v1 = "one\ntwo\nthree\n"
    lines_v2 = "one\ntwo changed\nthree\n"
    lines_v3 = "zero\none\ntwo changed\nthree\n"
    c1 = repo_fixture.commit({"f.pd": lines_v1}, "c1", T[0])
    c2 = repo_fixture.commit({"f.pd": lines_v2}, "c2", T[1])
    c3 = repo_fixture.commit({"f.pd": lines_v3}, "c3", T[2])
    fix = repo_fixture.commit({"f.pd": lines_v3 + "tail\n"}, "fix", T[3])
    repo = _repo(repo_fixture)
    origins = annotate(repo, "f.pd", fix, [1, 2, 3, 4])
    got = {n: o.origin_commit for n, o in origins.items()}
    oracle = {
        n: repo_fixture.blame_origin(f"{fix}^", "f.pd", n) for n in (1, 2, 3, 4)
    }
    assert got == oracle == {1: c3, 2: c1, 3: c2, 4: c1}
    assert origins[2].line_text == "one"
    assert origins[2].line_number == 2


def test_annotate_follows_renames(repo_fixture):
    c1 = repo_fixture.commit({"a.pd": "alpha\nbeta\n"}, "c1", T[0])
    repo_fixture.move("a.pd", "b.pd")
    c2 = repo_fixture.commit({}, "c2 rename", T[1])
    fix = repo_fixture.commit({"b.pd": "alpha\nbeta2\n"}, "fix", T[2])
    repo = _repo(repo_fixture)

    followed = annotate(repo, "b.pd", fix, [2], follow_renames=True)
    assert followed[2].origin_commit == c1
    assert repo_fixture.blame_origin(f"{fix}^", "b.pd", 2) == c1

    # with following off the rename commit becomes the apparent creator
    cut = annotate(repo, "b.pd", fix, [2], follow_renames=False)
    assert cut[2].origin_commit == c2


def test_textual_equals_visual_depth1_on_stable_order_fixture(repo_fixture):
    # one node per line and no reordering: the two methods must agree
    v1 = "#N canvas 0 0 450 300 12;\n#X msg 5 5 a;\n#X msg 5 30 b;\n#X msg 5 60 c;\n"
    v2 = v1.replace("5 30 b", "5 30 b2")
    v3 = v2.replace("5 5 a", "5 5 a2")
    v4 = v3.replace("5 30 b2", "5 30 b3").replace("5 5 a2", "5 5 a3")
    repo_fixture.commit({"p.pd": v1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": v2}, "c2", T[1])
    c3 = repo_fixture.commit({"p.pd": v3}, "c3", T[2])
    c4 = repo_fixture.commit({"p.pd": v4}, "c4 fix", T[3])
    repo = _repo(repo_fixture)
    fixing = _fixing(repo, c4)
    textual = textual_find_inducing(repo, fixing, MinerConfig())
    visual = find_inducing(repo, fixing, MinerConfig(depth_mode=1))
    assert {c.inducing_commit for c in textual.candidates} == \
        {c.inducing_commit for c in visual.candidates} == {c2, c3}


def test_no_self_blame_and_ancestry(repo_fixture):
    repo_fixture.commit({"p.pd": PATCH_V1}, "c1", T[0])
    c2 = repo_fixture.commit({"p.pd": PATCH_V2}, "c2 fix", T[1])
    repo = _repo(repo_fixture)
    result = textual_find_inducing(repo, _fixing(repo, c2), MinerConfig())
    for candidate in result.candidates:
        assert candidate.inducing_commit != c2
        assert repo.is_ancestor(candidate.inducing_commit, c2)


def test_lines_are_numbered_at_newlines_only(repo_fixture):
    # str.splitlines would also break at the form feed, making git's line 2
    # ("target") look like a blank line 3 and losing its candidate
    repo_fixture.commit({"f.pd": "x\x0c\nold\n"}, "c1", T[0])
    c2 = repo_fixture.commit({"f.pd": "x\x0c\ntarget\n"}, "c2", T[1])
    fix = repo_fixture.commit({"f.pd": "x\x0c\ntarget fixed\n"}, "fix", T[2])
    repo = _repo(repo_fixture)
    result = textual_find_inducing(repo, _fixing(repo, fix), MinerConfig())
    assert [c.inducing_commit for c in result.candidates] == [c2]
    assert repo_fixture.blame_origin(f"{fix}^", "f.pd", 2) == c2
    assert annotate(repo, "f.pd", fix, [2])[2].line_text == "target"


# So few distinct lines that many alignments tie; blame takes git's choice.
REPETITIVE = ("{", "}", "},", "\t}", "],", "")


def _random_edit(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(lines))
        removed = rng.randint(0, min(3, len(lines) - at))
        added = [rng.choice(REPETITIVE) for _ in range(rng.randint(0, 3))]
        lines[at:at + removed] = added
    return lines


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("seed", range(20))
def test_annotate_equals_git_blame_on_repetitive_lines(repo_fixture, seed):
    rng = random.Random(seed)
    lines = [rng.choice(REPETITIVE) for _ in range(rng.randint(6, 12))]
    repo_fixture.commit({"f.pd": _text(lines)}, "c0", T[0])
    for day in range(1, 7):
        lines = _random_edit(rng, lines)
        repo_fixture.commit({"f.pd": _text(lines)}, f"c{day}", T[day])
    fix = repo_fixture.commit({"f.pd": _text(lines + ["]"])}, "fix", T[7])
    oracle = repo_fixture.blame_origins(f"{fix}^", "f.pd")
    numbers = range(1, len(lines) + 1)
    origins = annotate(_repo(repo_fixture), "f.pd", fix, numbers)
    assert [origins[n].origin_commit for n in numbers] == oracle


def _patch(msg: str, obj: str) -> str:
    return (f"#N canvas 0 0 450 300 12;\n#X msg 50 50 {msg};\n"
            f"#X obj 50 120 {obj};\n#X connect 0 0 1 0;\n")


def test_parallel_report_equals_serial(repo_fixture):
    # four fixes over two files with shared history: each worker's hunk and
    # log caches see a different subset of the steps
    for day, (msg, obj, message) in enumerate((
        ("hello", "print", "c0"),
        ("hello world", "print a", "c1"),
        ("hello there", "print b", "fix #1"),
        ("hello again", "print bb", "c2"),
        ("hello twice", "print b", "fixes #2"),
        ("hello world", "print b2", "fixed #3"),
        ("hello there", "print b3", "fix #4"),
    )):
        repo_fixture.commit({"a.pd": _patch(msg, "print"), "b.pd": _patch("hi", obj)},
                            message, T[day])

    def report(parallelism: int) -> str:
        result, _ = run_analysis(
            str(repo_fixture.path), MinerConfig(parallelism=parallelism),
            methods=("szz-vc", "textual"), with_timing=False,
        )
        result["config"].pop("parallelism")
        return dumps_report(result)

    serial = report(1)
    entries = json.loads(serial)["fixing_commits"]
    assert len(entries) == 4
    assert all(entry["methods"][method]["candidates"]
               for entry in entries for method in ("szz-vc-max", "textual"))
    assert report(2) == serial

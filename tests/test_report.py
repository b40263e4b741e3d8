"""The run report as a whole: its bytes on a history that exercises every
kind of match, and how it writes a path that is not UTF-8."""

import os
from datetime import datetime, timezone
from pathlib import Path

import pytest

from szzvc.miner import IssueRecord, MinerConfig
from szzvc.report import dumps_report, loads_report, run_analysis
from conftest import maxpat_doc
from test_miner import PATCH_V1, PATCH_V2, PATCH_V3, T

GOLDEN = Path(__file__).resolve().parent / "golden"

SYNTH_V1 = """#N canvas 0 0 450 300 12;
#X msg 50 50 440;
#X obj 50 100 osc~ 440;
#X obj 50 150 dac~;
#X connect 0 0 1 0;
#X connect 1 0 2 0;
"""
SYNTH_V2 = SYNTH_V1.replace("osc~ 440", "osc~ 220")
SYNTH_V3 = SYNTH_V1.replace("osc~ 440", "osc~ 330")
SYNTH_BROKEN = "#N canvas 0 0 450 300 12;\n#X obj 50 100 osc~ 220\n"

COUNTER = {"id": "obj-1", "maxclass": "newobj", "text": "counter",
           "patching_rect": [10.0, 10.0, 60.0, 22.0]}
PRINTER = {"id": "obj-2", "maxclass": "newobj", "text": "print a"}
WIRE = ("obj-1", 0, "obj-2", 0)


def _history(repo_fixture) -> tuple[list[str], list[IssueRecord]]:
    """Seven commits, c1 to c7, and the issue linked to the last.

    - c6 fixes ``voice.pd``: its changed box was last changed by c2, before
      the file was renamed (c3) and one version of it was unparseable (c4).
    - c7, linked to issue GH-2 only, fixes ``ctl.maxpat``: it adds a
      property to a box that c1 created (an addition-reduction match) and
      changes a box that c4 changed, after the issue was reported.
    """
    commit = repo_fixture.commit
    ids = [commit({"synth.pd": SYNTH_V1,
                   "ctl.maxpat": maxpat_doc([COUNTER, PRINTER], [WIRE])}, "start", T[0])]
    ids.append(commit({"synth.pd": SYNTH_V2}, "lower the pitch", T[1]))
    repo_fixture.move("synth.pd", "voice.pd")
    ids.append(commit({}, "rename synth to voice", T[2]))
    ids.append(commit({"voice.pd": SYNTH_BROKEN,
                       "ctl.maxpat": maxpat_doc([COUNTER, dict(PRINTER, text="print b")],
                                                [WIRE])},
                      "hand edit", T[3]))
    ids.append(commit({"voice.pd": SYNTH_V2}, "repair voice", T[4]))
    ids.append(commit({"voice.pd": SYNTH_V3}, "fix the pitch #1", T[5]))
    ids.append(commit({"ctl.maxpat": maxpat_doc([dict(COUNTER, varname="count"),
                                                 dict(PRINTER, text="print c")],
                                                [WIRE])},
                      "name the counter", T[6]))
    issue = IssueRecord("GH-2", (ids[-1],),
                        report_time=datetime(2021, 5, 3, 12, tzinfo=timezone.utc))
    return ids, [issue]


def _labelled(report: dict, ids: list[str]) -> str:
    """The report text with each commit id replaced by its label (``c1`` for
    the first commit), and the lists the report sorts by commit id sorted by
    label, so that the bytes do not depend on how git hashes the commits."""
    text = dumps_report(report)
    for k, commit_id in enumerate(ids, start=1):
        text = text.replace(commit_id, f"c{k}")
    labelled = loads_report(text)
    labelled["fixing_commits"].sort(key=lambda entry: entry["commit"])
    for entry in labelled["fixing_commits"]:
        for section in entry["methods"].values():
            for key in ("candidates", "dropped_by_time_filter"):
                section[key].sort(key=lambda c: (c["inducing_commit"], c["file_path"]))
    return dumps_report(labelled)


@pytest.mark.parametrize("depth, golden", [
    ("max", "run_report.json"),
    (1, "run_report_depth1.json"),
])
def test_run_report_golden(repo_fixture, depth, golden):
    ids, issues = _history(repo_fixture)
    config = MinerConfig(depth_mode=depth, fixing_detection="both")
    report, had_failures = run_analysis(str(repo_fixture.path), config,
                                        issue_links=issues,
                                        methods=("szz-vc", "textual"),
                                        with_timing=False)
    assert had_failures  # c4's voice.pd
    assert _labelled(report, ids) == (GOLDEN / golden).read_text()


def test_report_writes_a_path_that_is_not_utf8_as_surrogate_escapes(repo_fixture):
    path = os.fsdecode(b"p\xe9.pd")
    repo_fixture.commit({path: PATCH_V1}, "c1", T[0])
    repo_fixture.commit({path: PATCH_V2}, "c2", T[1])
    repo_fixture.commit({path: PATCH_V3}, "fix bug #1", T[2])
    report, _ = run_analysis(str(repo_fixture.path), MinerConfig(),
                             methods=("szz-vc", "textual"), with_timing=False)
    text = dumps_report(report)
    assert '"p\\udce9.pd"' in text
    (entry,) = loads_report(text)["fixing_commits"]
    paths = [entry["files"][0]["path"], *entry["diffs"]]
    paths += [c["file_path"] for section in entry["methods"].values()
              for c in section["candidates"]]
    assert [os.fsencode(p) for p in paths] == [b"p\xe9.pd"] * 4


@pytest.mark.parametrize("separator", ["\f", "\u2028", "\x1c", "\x85"])
def test_summary_is_the_subject_line_as_git_gives_it(repo_fixture, separator):
    # str.splitlines splits at more than "\n"; git's subject does not
    repo_fixture.commit({"a.pd": PATCH_V1}, "c1", T[0])
    subject = f"fix #1{separator}of the osc box"
    commit_id = repo_fixture.commit({"a.pd": PATCH_V2}, subject + "\n\nbody", T[1])
    report, _ = run_analysis(str(repo_fixture.path), MinerConfig(),
                             methods=("szz-vc",), with_timing=False)
    (entry,) = report["fixing_commits"]
    git_subject = repo_fixture._git("log", "-1", "--format=%s", commit_id)
    assert entry["summary"] == subject == git_subject.rstrip("\n")


@pytest.mark.parametrize("methods", [("szz-vc",), ("textual",), ("szz-vc", "textual")])
def test_a_version_read_as_latin1_is_named_once_per_fix(repo_fixture, methods):
    # c2 holds a Latin-1 byte; the fix reads it as its old side, and szz-vc
    # as the new side of c2's own step too, and the run does not fail for it
    repo_fixture.commit({"a.pd": SYNTH_V1}, "c1", T[0])
    latin = SYNTH_V2.replace("msg 50 50 440", "msg 50 50 caf\xe9")
    (repo_fixture.path / "a.pd").write_bytes(latin.encode("latin-1"))
    c2 = repo_fixture.commit({}, "lower the pitch", T[1])
    repo_fixture.commit({"a.pd": latin.replace("osc~ 220", "osc~ 330")}, "fix #1", T[2])
    report, had_failures = run_analysis(str(repo_fixture.path), MinerConfig(),
                                        methods=methods, with_timing=False)
    assert not had_failures
    (entry,) = report["fixing_commits"]
    assert entry["warnings"] == [
        f"version {c2}:a.pd: decoded as latin-1 (invalid utf-8)",
        "time filter skipped: fixing commit has no linked report time",
    ]
    for section in entry["methods"].values():
        assert [c["inducing_commit"] for c in section["candidates"]] == [c2]

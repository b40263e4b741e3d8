"""Checks of the benchmark itself, outside the project's test suite.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of a plain ``pytest`` run from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "pd": gen.Shape("pd", "szz-vc", files=2, nodes=12, commits=16, fix_every=4,
                    merge_every=6, rename_at=5),
    "max": gen.Shape("max", "szz-vc", files=3, nodes=8, commits=16, fix_every=3,
                     files_per_edit=2),
    "textual": gen.Shape("max", "textual", files=2, nodes=8, commits=12, fix_every=4),
}


def _git(repo: Path, *args: str) -> str:
    return gen.git(repo, *args).decode()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_generator_is_deterministic(tmp_path, kind):
    first = gen.build(TINY[kind], 7, tmp_path / "a")
    again = gen.build(TINY[kind], 7, tmp_path / "b")
    other = gen.build(TINY[kind], 8, tmp_path / "c")
    assert first.head == again.head
    assert first.expected == again.expected
    assert other.head != first.head


def test_ordinal_oracle_by_hand():
    a, b, c, x = (1, "obj", "osc~ 1"), (2, "obj", "dac~ 2"), (3, "obj", "f 3"), (4, "obj", "x 4")
    v0 = gen.PdFile((a, b, c), frozenset())
    v1 = gen.PdFile((a, (2, "obj", "dac~ 9"), c), frozenset())
    v2 = gen.PdFile((a, x, (2, "obj", "dac~ 9"), c), frozenset())  # mid-patch insertion
    snapshots = [{0: v0}, {0: v1}, {0: v2}, {0: v2}]

    def expected(key):
        return gen._ordinal_oracle(snapshots, gen.FixRecord(3, 0, (key,)))

    # node b moved from ordinal 1 to 2: under ordinal ids the insertion, not
    # the edit of b, last changed obj-2's text
    assert expected("obj-2") == {2}
    assert expected("obj-1") == {2}
    assert expected("obj-0") == set()  # never changed since creation
    assert expected("obj-3") == set()  # did not exist before the insertion


def _pd_texts(text: str) -> dict[str, str]:
    nodes = [line for line in text.splitlines() if line.startswith("#X ")
             and line.split()[1] != "connect"]
    return {f"obj-{k}": " ".join(line.rstrip(";").split()[4:]) for k, line in enumerate(nodes)}


def _max_texts(text: str) -> dict[str, str]:
    return {entry["box"]["id"]: entry["box"]["text"]
            for entry in json.loads(text)["patcher"]["boxes"]}


def _recomputed_oracle(repo: Path, fix: str, language: str) -> set[str]:
    """The expected commits recomputed from the git objects alone."""
    texts = _pd_texts if language == "pd" else _max_texts
    changed = [line for line in _git(repo, "diff-tree", "-r", "--name-only",
                                     "--no-commit-id", fix).split() if line]
    assert len(changed) == 1
    path = changed[0]
    before = texts(_git(repo, "show", f"{fix}^:{path}"))
    after = texts(_git(repo, "show", f"{fix}:{path}"))
    keys = {k for k in before if before[k] != after.get(k)}
    chain = _git(repo, "rev-list", "--first-parent", f"{fix}^").split()
    found = set()
    for key in keys:
        current = path
        for rev in chain[:-1]:  # the root creates every file
            old_path = current
            for line in _git(repo, "diff-tree", "-r", "-M", "--name-status",
                             f"{rev}^", rev).splitlines():
                status, *paths = line.split("\t")
                if status.startswith("R") and paths[1] == current:
                    old_path = paths[0]
            old = texts(_git(repo, "show", f"{rev}^:{old_path}"))
            new = texts(_git(repo, "show", f"{rev}:{current}"))
            if key in old and key in new and old[key] != new[key]:
                found.add(rev)
                break
            current = old_path
    return found


@pytest.mark.parametrize("kind", ["pd", "max"])
def test_edit_log_oracle_matches_the_repository(tmp_path, kind):
    shape = TINY[kind]
    for seed in (1, 2, 3):
        built = gen.build(shape, seed, tmp_path / str(seed))
        assert built.expected
        assert any(built.expected.values())
        for fix, expected in built.expected.items():
            assert set(expected) == _recomputed_oracle(built.path, fix, shape.language)


def test_blame_oracle_names_line_origins(tmp_path):
    built = gen.build(TINY["textual"], 3, tmp_path / "r")
    commits = set(_git(built.path, "rev-list", "HEAD").split())
    assert built.expected and all(built.expected.values())
    for fix, expected in built.expected.items():
        assert expected <= commits and fix not in expected


def _sample(part: str, repo: Path, method: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sample.py"), part, str(ROOT / "src"),
         str(repo), method, *extra],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("kind", ["pd", "textual"])
def test_traced_runs_repeat_layer_counts(tmp_path, kind):
    built = gen.build(TINY[kind], 5, tmp_path / "r")
    runs = [_sample("trace", built.path, built.method, str(tmp_path / f"s{n}.json"))
            for n in range(2)]
    plain = _sample("analyze", built.path, built.method)
    counts = [{k: v for k, v in run["layers"].items() if not k.endswith(".s")} for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["gitrepo.procs"] > 0 and counts[0]["miner.history_steps.calls"] > 0
    assert runs[0]["digest"] == runs[1]["digest"] == plain["digest"]
    assert json.loads((tmp_path / "s0.json").read_text())["spans"]


def test_steal_clock_reads_a_cpu_line():
    import sample

    if not Path("/proc/stat").exists():
        pytest.skip("no /proc/stat")
    label = f"cpu{max(os.sched_getaffinity(0))}"
    assert any(line.split()[0] == label for line in Path("/proc/stat").read_text().splitlines())
    with sample._Clock(label) as clock:
        sum(range(10**5))
    assert clock.steal_s >= 0 and clock.s == clock.wall_s - clock.steal_s


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pd-hot-file", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

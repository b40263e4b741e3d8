"""Seeded synthetic Pure Data / Max git repositories with an inducing-commit oracle.

Every workload is a first-parent chain of commits written with
``git fast-import`` at fixed author and committer dates, so one seed always
gives the same HEAD id. The commit *structure* (which commit is a fix, a
merge or a rename, and which file each commit touches) is fixed per
workload; the seed chooses the edits themselves (positions, texts, wiring).
Keeping the structure fixed keeps the amount of mining work nearly equal
across seeds, which is what lets ten seeds measure one workload.

The oracle never calls ``szzvc``:

* ``szz-vc`` workloads take the expected inducing commits from the
  generator's own edit log. For each node whose text a fix changes, the
  expected commit is the latest earlier first-parent commit in which that
  node id's text changed while the file existed on both sides. Pd node ids
  are ordinal positions (the paper's rule), so a mid-patch insertion
  "changes" every later node; Max ids are the persistent box ids.
* The ``textual`` workload takes them from ``git blame --first-parent
  --porcelain`` on the lines each fix changes. Its fixes also change one
  line untouched since the root commit, so every line trace walks the whole
  history and the work does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path

BASE_EPOCH = 1_600_000_000
STEP_SECONDS = 3600
IDENT = "Bench <bench@example.com>"

PD_VOCAB = ("osc~", "*~", "+~", "line~", "lop~", "hip~", "metro", "f", "+",
            "*", "mtof", "random", "sel", "route", "pack f f", "t b f",
            "delay", "moses", "clip~", "vcf~")
MAX_VOCAB = ("cycle~", "*~", "+~", "line~", "lores~", "metro", "f", "+", "*",
             "mtof", "random", "sel", "route", "pack 0 0", "t b f", "delay",
             "split", "clip~", "svf~", "scale 0 127 0. 1.")


@dataclass(frozen=True)
class Shape:
    """Size and structure of one workload's repository."""

    language: str  # "pd" or "max"
    method: str  # the analyze method the workload runs: "szz-vc" or "textual"
    files: int
    nodes: int  # nodes per file at creation
    commits: int  # first-parent commits, the root included
    fix_every: int  # commit i is a fix when i % fix_every == fix_every - 1
    merge_every: int = 0  # commit i is a --no-ff merge when i % merge_every == merge_every // 2
    rename_at: int = 0  # first-parent index of the one pure rename (0: none)
    files_per_edit: int = 1


WORKLOADS: dict[str, Shape] = {
    "pd-hot-file": Shape("pd", "szz-vc", files=2, nodes=100, commits=60,
                         fix_every=4, merge_every=20, rename_at=25),
    "max-many-files": Shape("max", "szz-vc", files=150, nodes=40, commits=180,
                            fix_every=3, files_per_edit=2),
    "textual-max": Shape("max", "textual", files=2, nodes=50, commits=32,
                         fix_every=3),
}


# ---------------------------------------------------------------------------
# File models. States are immutable so a branch is a dict copy.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PdFile:
    nodes: tuple[tuple[int, str, str], ...]  # (uid, element, text) in file order
    conns: frozenset[tuple[int, int, int, int]]  # (src uid, outlet, dst uid, inlet)

    def keyed_texts(self) -> dict[str, str]:
        """Node id -> text under the ordinal-id rule."""
        return {f"obj-{k}": text for k, (_, _, text) in enumerate(self.nodes)}

    def render(self) -> str:
        ordinal = {uid: k for k, (uid, _, _) in enumerate(self.nodes)}
        out = ["#N canvas 0 50 900 700 12;"]
        for k, (_, element, text) in enumerate(self.nodes):
            out.append(f"#X {element} {20 + 40 * (k % 10)} {20 + 30 * (k // 10)} {text};")
        wires = sorted((ordinal[s], o, ordinal[d], i) for s, o, d, i in self.conns)
        out.extend(f"#X connect {s} {o} {d} {i};" for s, o, d, i in wires)
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class MaxBox:
    box_id: str
    maxclass: str
    text: str
    rect: tuple[float, float, float, float]


@dataclass(frozen=True)
class MaxFile:
    boxes: tuple[MaxBox, ...]
    lines: tuple[tuple[str, int, str, int], ...]
    next_id: int

    def keyed_texts(self) -> dict[str, str]:
        return {box.box_id: box.text for box in self.boxes}

    def render(self) -> str:
        boxes = [
            {"box": {
                "id": box.box_id,
                "maxclass": box.maxclass,
                "numinlets": 2,
                "numoutlets": 1,
                "outlettype": [""],
                "patching_rect": list(box.rect),
                "text": box.text,
            }}
            for box in self.boxes
        ]
        lines = [
            {"patchline": {"destination": [dst, inlet], "source": [src, outlet]}}
            for src, outlet, dst, inlet in self.lines
        ]
        doc = {"patcher": {
            "fileversion": 1,
            "appversion": {"major": 8, "minor": 5, "revision": 5,
                           "architecture": "x64", "modernui": 1},
            "classnamespace": "box",
            "rect": [100.0, 100.0, 900.0, 700.0],
            "boxes": boxes,
            "lines": lines,
        }}
        return json.dumps(doc, indent="\t") + "\n"


class _Texts:
    """Unique node texts, so no two nodes ever read alike by accident."""

    def __init__(self, rng: random.Random, vocab: tuple[str, ...]):
        self.rng = rng
        self.vocab = vocab
        self.serial = 0

    def __call__(self) -> str:
        self.serial += 1
        return f"{self.rng.choice(self.vocab)} {self.serial}"


def _new_pd_file(rng: random.Random, texts: _Texts, nodes: int, uids) -> PdFile:
    made = tuple((next(uids), "msg" if k % 7 == 3 else "obj", texts())
                 for k in range(nodes))
    conns = {(made[k][0], 0, made[k + 1][0], 0) for k in range(nodes - 1)}
    for _ in range(nodes // 5):
        a, b = rng.sample(range(nodes), 2)
        conns.add((made[a][0], 0, made[b][0], 1))
    return PdFile(made, frozenset(conns))


def _new_max_file(rng: random.Random, texts: _Texts, nodes: int) -> MaxFile:
    boxes = tuple(
        MaxBox(f"obj-{k + 1}", "message" if k % 7 == 3 else "newobj", texts(),
               (float(30 + 120 * (k % 6)), float(30 + 40 * (k // 6)), 60.0, 22.0))
        for k in range(nodes)
    )
    lines = [(boxes[k].box_id, 0, boxes[k + 1].box_id, 0) for k in range(nodes - 1)]
    for _ in range(nodes // 5):
        a, b = rng.sample(range(nodes), 2)
        lines.append((boxes[a].box_id, 0, boxes[b].box_id, 1))
    return MaxFile(boxes, tuple(lines), nodes + 1)


# History edits: (state, rng, texts, uids) -> new state.


def _pd_modify_at(f: PdFile, k: int, text: str) -> PdFile:
    uid, element, _ = f.nodes[k]
    return replace(f, nodes=f.nodes[:k] + ((uid, element, text),) + f.nodes[k + 1:])


def _pd_modify(f: PdFile, rng, texts, uids):
    return _pd_modify_at(f, rng.randrange(len(f.nodes)), texts())


def _pd_insert(f: PdFile, rng, texts, uids):
    n = len(f.nodes)
    k = rng.randrange(n // 4, 3 * n // 4)
    uid = next(uids)
    nodes = list(f.nodes)
    nodes.insert(k, (uid, "obj", texts()))
    conns = set(f.conns) | {(uid, 0, nodes[k + 1][0], 1)}
    return PdFile(tuple(nodes), frozenset(conns))


def _pd_delete(f: PdFile, rng, texts, uids):
    n = len(f.nodes)
    k = rng.randrange(n // 4, 3 * n // 4)
    uid = f.nodes[k][0]
    nodes = f.nodes[:k] + f.nodes[k + 1:]
    conns = frozenset(c for c in f.conns if uid not in (c[0], c[2]))
    return PdFile(nodes, conns)


def _pd_rewire(f: PdFile, rng, texts, uids):
    old = rng.choice(sorted(f.conns))
    uid_list = [uid for uid, _, _ in f.nodes]
    while True:
        dst = rng.choice(uid_list)
        new = (old[0], old[1], dst, old[3])
        if dst != old[0] and new not in f.conns:
            break
    return replace(f, conns=(f.conns - {old}) | {new})


def _max_modify(f: MaxFile, rng, texts, uids):
    k = rng.randrange(len(f.boxes))
    boxes = list(f.boxes)
    boxes[k] = replace(boxes[k], text=texts())
    return replace(f, boxes=tuple(boxes))


def _max_add(f: MaxFile, rng, texts, uids):
    box = MaxBox(f"obj-{f.next_id}", "newobj", texts(),
                 (float(rng.randrange(30, 800)), float(rng.randrange(30, 600)), 60.0, 22.0))
    src = rng.choice(f.boxes).box_id
    return MaxFile(f.boxes + (box,), f.lines + ((src, 0, box.box_id, 0),),
                   f.next_id + 1)


def _max_move(f: MaxFile, rng, texts, uids):
    k = rng.randrange(len(f.boxes))
    boxes = list(f.boxes)
    x, y, w, h = boxes[k].rect
    boxes[k] = replace(boxes[k], rect=(x + rng.randrange(5, 60), y + rng.randrange(5, 60), w, h))
    return replace(f, boxes=tuple(boxes))


def _max_rewire(f: MaxFile, rng, texts, uids):
    k = rng.randrange(len(f.lines))
    src, outlet, dst, inlet = f.lines[k]
    ids = [box.box_id for box in f.boxes]
    while True:
        new_dst = rng.choice(ids)
        new = (src, outlet, new_dst, inlet)
        if new_dst not in (src, dst) and new not in f.lines:
            break
    lines = list(f.lines)
    lines[k] = new
    return replace(f, lines=tuple(lines))


# Fixed op cycles keep the work per seed steady; size stays near the start.
PD_CYCLE = (_pd_modify, _pd_insert, _pd_modify, _pd_rewire, _pd_modify, _pd_delete)
MAX_CYCLE = (_max_modify, _max_add, _max_modify, _max_rewire, _max_move, _max_modify)


# ---------------------------------------------------------------------------
# History plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixRecord:
    index: int  # first-parent index of the fixing commit
    file_uid: int
    keys: tuple[str, ...]  # ids of the nodes whose text the fix changed


@dataclass
class Plan:
    stream: bytes
    main_marks: list[int]  # fast-import mark of each first-parent commit
    fixes: list[FixRecord]
    paths: list[dict[int, str]]  # file uid -> path, per first-parent commit
    snapshots: list[dict]  # file uid -> state, per first-parent commit


class _Stream:
    def __init__(self):
        self.parts: list[bytes] = []
        self.mark = 0

    def _data(self, payload: bytes) -> None:
        self.parts.append(b"data %d\n" % len(payload) + payload + b"\n")

    def commit(self, ref: str, message: str, epoch: int,
               changes: dict[str, str | None], parent: int | None = None,
               merge: int | None = None) -> int:
        self.mark += 1
        self.parts.append(f"commit {ref}\nmark :{self.mark}\n".encode())
        self.parts.append(f"author {IDENT} {epoch} +0000\n".encode())
        self.parts.append(f"committer {IDENT} {epoch} +0000\n".encode())
        self._data(message.encode())
        if parent is not None:
            self.parts.append(f"from :{parent}\n".encode())
        if merge is not None:
            self.parts.append(f"merge :{merge}\n".encode())
        for path in sorted(changes):
            content = changes[path]
            if content is None:
                self.parts.append(f"D {path}\n".encode())
            else:
                self.parts.append(f"M 100644 inline {path}\n".encode())
                self._data(content.encode())
        self.parts.append(b"\n")
        return self.mark


def _file_path(shape: Shape, uid: int, renamed: bool = False) -> str:
    ext = ".pd" if shape.language == "pd" else ".maxpat"
    stem = f"patches/p{uid:03d}"
    return f"{stem}_v2{ext}" if renamed else f"{stem}{ext}"


def plan_history(shape: Shape, seed: int) -> Plan:
    """The fast-import stream, first-parent snapshots and fix log for a seed."""
    rng = random.Random(f"szzvc-bench:{shape.language}:{shape.method}:{seed}")
    texts = _Texts(rng, PD_VOCAB if shape.language == "pd" else MAX_VOCAB)
    uid_counter = iter(range(1, 10**9))
    cycle = PD_CYCLE if shape.language == "pd" else MAX_CYCLE
    order = list(range(shape.files))
    rng.shuffle(order)  # which file each round-robin slot touches

    stream = _Stream()
    state: dict[int, object] = {}
    for uid in range(shape.files):
        state[uid] = (
            _new_pd_file(rng, texts, shape.nodes, uid_counter)
            if shape.language == "pd"
            else _new_max_file(rng, texts, shape.nodes)
        )
    paths = {uid: _file_path(shape, uid) for uid in state}
    epoch = BASE_EPOCH
    root = stream.commit("refs/heads/main", "Initial patches\n", epoch,
                         {paths[u]: state[u].render() for u in state})
    main_marks = [root]
    snapshots = [dict(state)]
    path_log = [dict(paths)]
    fixes: list[FixRecord] = []
    edits = 0
    n_fixes = 0
    for i in range(1, shape.commits):
        epoch += STEP_SECONDS
        if i % shape.fix_every == shape.fix_every - 1:
            n_fixes += 1
            uid = order[(n_fixes - 1) % shape.files]
            state[uid], keys = _fix_edit(state[uid], snapshots[0][uid], rng, texts,
                                         reach_root=shape.method == "textual")
            fixes.append(FixRecord(i, uid, keys))
            message = f"Fix #{100 + n_fixes}: correct {' and '.join(keys)} in {paths[uid]}\n"
            changes = {paths[uid]: state[uid].render()}
        elif shape.rename_at and i == shape.rename_at:
            uid = order[-1]
            old, paths[uid] = paths[uid], _file_path(shape, uid, renamed=True)
            message = f"Rename {old} to {paths[uid]}\n"
            changes = {old: None, paths[uid]: state[uid].render()}
        elif shape.merge_every and i % shape.merge_every == shape.merge_every // 2:
            branch = dict(state)
            tip = main_marks[-1]
            touched = set()
            for step in range(2):
                edits += 1
                uid = order[edits % shape.files]
                branch[uid] = cycle[edits % len(cycle)](branch[uid], rng, texts, uid_counter)
                touched.add(uid)
                tip = stream.commit(f"refs/heads/topic-{i}", f"Topic {i} step {step + 1}\n",
                                    epoch - STEP_SECONDS // 2 + step,
                                    {paths[uid]: branch[uid].render()}, parent=tip)
            state = branch
            main_marks.append(stream.commit(
                "refs/heads/main", f"Merge branch 'topic-{i}'\n", epoch,
                {paths[u]: state[u].render() for u in sorted(touched)},
                parent=main_marks[-1], merge=tip))
            snapshots.append(dict(state))
            path_log.append(dict(paths))
            continue
        else:
            changes = {}
            for slot in range(shape.files_per_edit):
                edits += 1
                uid = order[(shape.files_per_edit * i + slot) % shape.files]
                state[uid] = cycle[edits % len(cycle)](state[uid], rng, texts, uid_counter)
                changes[paths[uid]] = state[uid].render()
            message = f"Edit {', '.join(sorted(changes))}\n"
        main_marks.append(stream.commit("refs/heads/main", message, epoch, changes,
                                        parent=main_marks[-1]))
        snapshots.append(dict(state))
        path_log.append(dict(paths))

    return Plan(b"".join(stream.parts), main_marks, fixes, path_log, snapshots)


def _fix_edit(current, created, rng: random.Random, texts, reach_root: bool):
    """Change node texts; returns the new state and the changed node ids.

    A Pd fix changes one random node. A Max fix changes a box whose text some
    earlier commit changed, so that the oracle has an inducing commit to
    expect (box ids never shift). With ``reach_root`` it also changes a box
    untouched since the root commit: a line-level trace of that line walks
    the file's whole history, so the work per fix does not depend on how
    recently the other box was edited."""
    if isinstance(current, PdFile):
        k = rng.randrange(len(current.nodes))
        return _pd_modify_at(current, k, texts()), (f"obj-{k}",)
    first = created.keyed_texts()
    edited = sorted(b.box_id for b in current.boxes if first.get(b.box_id) != b.text)
    picks = [rng.choice(edited) if edited else rng.choice(current.boxes).box_id]
    if reach_root:
        untouched = sorted(b.box_id for b in current.boxes
                           if first.get(b.box_id) == b.text and b.box_id not in picks)
        picks.append(rng.choice(untouched))
    new_texts = {pick: texts() for pick in picks}
    boxes = tuple(replace(b, text=new_texts[b.box_id]) if b.box_id in new_texts else b
                  for b in current.boxes)
    return replace(current, boxes=boxes), tuple(picks)


def _ordinal_oracle(snapshots: list[dict], fix: FixRecord) -> set[int]:
    """First-parent indices of the latest earlier commit that changed each
    fixed node id's text with the file present on both sides; each walk stops
    at the file's creation."""
    expected = set()
    for key in fix.keys:
        for i in range(fix.index - 1, 0, -1):
            old = snapshots[i - 1].get(fix.file_uid)
            new = snapshots[i].get(fix.file_uid)
            if old is None or new is None:
                break
            old_texts, new_texts = old.keyed_texts(), new.keyed_texts()
            if key in old_texts and key in new_texts and old_texts[key] != new_texts[key]:
                expected.add(i)
                break
    return expected


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltRepo:
    path: Path
    head: str
    method: str
    expected: dict[str, frozenset[str]]  # fixing commit id -> oracle inducing ids


def git(repo: Path, *args: str, stdin: bytes | None = None) -> bytes:
    proc = subprocess.run(["git", "-C", str(repo), *args], input=stdin,
                          capture_output=True, env=_git_env())
    if proc.returncode != 0:
        raise RuntimeError(f"git {args[0]} failed: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


def _git_env() -> dict:
    env = dict(os.environ)
    env["GIT_CONFIG_NOSYSTEM"] = "1"
    env["GIT_CONFIG_GLOBAL"] = os.devnull
    return env


def build(shape: Shape, seed: int, dest: Path) -> BuiltRepo:
    """Write the workload's repository for ``seed`` into ``dest`` (a new
    directory) and return it with its oracle."""
    plan = plan_history(shape, seed)
    dest.mkdir(parents=True)
    git(dest, "init", "-q", "--bare", "--initial-branch=main")
    marks = dest / "bench-marks"
    git(dest, "fast-import", "--quiet", "--done", f"--export-marks={marks}",
        stdin=plan.stream + b"done\n")
    by_mark = {}
    for line in marks.read_text().splitlines():
        mark, sha = line.split()
        by_mark[int(mark[1:])] = sha
    marks.unlink()
    ids = [by_mark[m] for m in plan.main_marks]
    expected = {}
    for fix in plan.fixes:
        if shape.method == "szz-vc":
            found = {ids[i] for i in _ordinal_oracle(plan.snapshots, fix)}
        else:
            found = _blame_oracle(dest, plan, fix, ids)
        expected[ids[fix.index]] = frozenset(found)
    return BuiltRepo(dest, ids[-1], shape.method, expected)


def _blame_oracle(repo: Path, plan: Plan, fix: FixRecord, ids: list[str]) -> set[str]:
    """``git blame --first-parent`` origins of the pre-fix lines the fix changes."""
    old = plan.snapshots[fix.index - 1][fix.file_uid].render().splitlines()
    new = plan.snapshots[fix.index][fix.file_uid].render().splitlines()
    if len(old) != len(new):
        raise AssertionError("a textual fix edits lines in place")
    changed = [n + 1 for n, (a, b) in enumerate(zip(old, new)) if a != b and a.strip()]
    ranges = [arg for n in changed for arg in ("-L", f"{n},{n}")]
    out = git(repo, "blame", "--first-parent", "--porcelain", *ranges,
              ids[fix.index - 1], "--", plan.paths[fix.index - 1][fix.file_uid])
    origins = set()
    for line in out.decode("utf-8", "replace").splitlines():
        head = line.split(" ", 1)[0]
        if len(head) == 40 and all(c in "0123456789abcdef" for c in head):
            origins.add(head)
    return origins

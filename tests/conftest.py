import json
import subprocess
import threading
from pathlib import Path

import pytest

HELLO_WORLD_PD = """#N canvas 0 0 450 300 12;
#X msg 50 50 hello world;
#X obj 50 120 print;
#X connect 0 0 1 0;
"""

HELLO_WORLD_PD_MUTATED = HELLO_WORLD_PD.replace("hello world", "world hello")


def nested_pd(levels: int, text: str = "x") -> str:
    """A patch whose one object sits ``levels`` subcanvases deep; every
    canvas holds one node, so each level is ``obj-0``."""
    return (
        "#N canvas 0 0 450 300 12;\n"
        + "#N canvas 0 0 200 140 sub 0;\n" * levels
        + f"#X obj 10 10 {text};\n"
        + "#X restore 10 10 pd sub;\n" * levels
    )


def maxpat_doc(boxes, lines=(), indent=2) -> str:
    """Serialize a minimal patcher document from raw box dicts and
    (src, outlet, dst, inlet) tuples."""
    return json.dumps(
        {
            "patcher": {
                "fileversion": 1,
                "boxes": [{"box": dict(box)} for box in boxes],
                "lines": [
                    {"patchline": {"source": [src, outlet],
                                   "destination": [dst, inlet]}}
                    for src, outlet, dst, inlet in lines
                ],
            }
        },
        indent=indent,
    )


def native_maxpat(document: dict) -> str:
    """``document`` in the layout Max itself writes, as in
    ``tests/golden/diff_old.maxpat``: ``"key" : value``, an object value
    opened after tabs on its key's line and its comma on a line of its own,
    and the objects of an array each on lines of their own, joined by
    ``, \\t\\t\\t{``."""

    def value(v, indent: int) -> str:
        tabs = "\t" * (indent + 1)
        if isinstance(v, dict) and v:
            members = [f"{tabs}{json.dumps(k)} : {member(w, indent + 1)}"
                       for k, w in v.items()]
            body = "".join(m + ("\n," if m.endswith("}") else ",") + "\n"
                           for m in members[:-1]) + members[-1]
            return "{\n" + body + "\n" + "\t" * indent + "}"
        if isinstance(v, list) and v and all(isinstance(w, dict) and w for w in v):
            return "[ " + "\n, ".join(tabs + value(w, indent + 1) for w in v) + "\n ]"
        if isinstance(v, list):
            return "[ " + ", ".join(value(w, indent + 1) for w in v) + " ]"
        return json.dumps(v)

    def member(v, indent: int) -> str:
        opened = isinstance(v, dict) and v
        return ("\t" * indent if opened else "") + value(v, indent)

    text = value(document, 0)
    return text[:-1] + "\n}\n"  # Max leaves an empty line before the last brace


class RepoFixture:
    """Builds small deterministic git repositories for mining tests."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._git("init", "-q", "-b", "main", ".")
        self._git("config", "user.email", "dev@example.com")
        self._git("config", "user.name", "dev")
        self._serial = 0

    def _git(self, *args, env=None) -> str:
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, f"git {args} failed: {proc.stderr}"
        return proc.stdout

    def commit(self, files: dict, message: str, when: str) -> str:
        """Write/delete files and commit at a fixed timestamp (ISO, UTC).
        A value of None deletes the path."""
        import os

        for rel, content in files.items():
            target = self.path / rel
            if content is None:
                self._git("rm", "-q", rel)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
        self._git("add", "-A")
        env = dict(os.environ)
        env["GIT_AUTHOR_DATE"] = when
        env["GIT_COMMITTER_DATE"] = when
        self._git("commit", "-q", "--allow-empty", "-m", message, env=env)
        return self._git("rev-parse", "HEAD").strip()

    def move(self, old: str, new: str):
        self._git("mv", old, new)

    def checkout(self, branch: str, create: bool = False, at: str | None = None):
        args = ["checkout", "-q"]
        if create:
            args.append("-b")
        args.append(branch)
        if at:
            args.append(at)
        self._git(*args)

    def merge(self, branch: str, message: str, when: str) -> str:
        import os

        env = dict(os.environ)
        env["GIT_AUTHOR_DATE"] = when
        env["GIT_COMMITTER_DATE"] = when
        self._git("merge", "-q", "--no-ff", "-m", message, branch, env=env)
        return self._git("rev-parse", "HEAD").strip()

    def blame_origin(self, rev: str, path: str, line: int) -> str:
        """Independent oracle: git blame's origin commit for one line."""
        out = self._git("blame", "--porcelain", "-L", f"{line},{line}", rev, "--", path)
        return out.splitlines()[0].split()[0]

    def blame_origins(self, rev: str, path: str,
                      first_parent: bool = False) -> list[str]:
        """Independent oracle: git blame's origin commit for every line, in
        line order (one ``--porcelain`` run for the whole file); with
        ``first_parent``, a merge takes the blame for what it brought in."""
        args = ["blame", "--porcelain", *(["--first-parent"] if first_parent else [])]
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args, rev, "--", path],
            capture_output=True,
        )
        assert proc.returncode == 0, f"git blame failed: {proc.stderr}"
        by_line = {}
        at_header = True
        for line in proc.stdout.split(b"\n"):
            if at_header and line:
                commit, _, final_line = line.split()[:3]
                by_line[int(final_line)] = commit.decode()
                at_header = False
            elif line.startswith(b"\t"):
                at_header = True  # the line's content ends its entry
        return [by_line[n] for n in sorted(by_line)]

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        """Independent oracle: ``git merge-base --is-ancestor``."""
        proc = subprocess.run(
            ["git", "-C", str(self.path), "merge-base", "--is-ancestor",
             ancestor, descendant],
            capture_output=True,
        )
        return proc.returncode == 0

    def log_follow(self, path: str, first_parent: bool = True) -> list[str]:
        """Independent oracle: rename-following history of a path."""
        args = ["log", "--follow", "--format=%H"]
        if first_parent:
            args.insert(1, "--first-parent")
        return self._git(*args, "--", path).split()


def within(seconds: float, work):
    """``work()`` run in a thread joined with a timeout, so a pipe protocol
    that hangs fails the test instead of stalling the run."""
    outcome = {}

    def run():
        try:
            outcome["value"] = work()
        except BaseException as exc:  # handed to the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still blocked after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def git_processes(monkeypatch):
    """The git processes ``szzvc.gitrepo`` starts from now on, each as its
    two arguments after ``git -C <path>``."""
    from szzvc import gitrepo

    real = gitrepo.subprocess
    started = []

    class Recording:
        def __getattr__(self, name):
            return getattr(real, name)

        def run(self, argv, *args, **kwargs):
            started.append(argv[3:5])
            return real.run(argv, *args, **kwargs)

        def Popen(self, argv, *args, **kwargs):
            started.append(argv[3:5])
            return real.Popen(argv, *args, **kwargs)

    monkeypatch.setattr(gitrepo, "subprocess", Recording())
    return started


@pytest.fixture
def repo_fixture(tmp_path):
    return RepoFixture(tmp_path / "repo")


@pytest.fixture
def hello_world_pair(tmp_path):
    old = tmp_path / "old.pd"
    new = tmp_path / "new.pd"
    old.write_text(HELLO_WORLD_PD)
    new.write_text(HELLO_WORLD_PD_MUTATED)
    return old, new

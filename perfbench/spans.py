"""Spans around the calls into each ``szzvc`` module, installed from outside.

Every wrapper is set on the attribute its caller reads (``szzvc.miner.parse_pd``
rather than ``szzvc.pdparser.parse_pd``), so the span covers exactly the calls
the pipeline makes. ``Repository`` methods are wrapped on the class. Git
processes are counted at the ``subprocess`` module as ``szzvc.gitrepo`` sees
it, so a long-lived process counts once however many requests it serves.

Spans are kept in memory as ``(name, start, end, parent index)`` and reduced
to per-layer metrics after the run. A layer's self time is its spans'
durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

_SPAWNERS = ("run", "call", "check_call", "check_output", "Popen",
             "getoutput", "getstatusoutput")


class _CountingSubprocess:
    """Stands in for the ``subprocess`` module; counts processes started."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._real, name)
        if name not in _SPAWNERS:
            return value

        @functools.wraps(value)
        def spawn(*args, **kwargs):
            self._tracer.procs += 1
            return value(*args, **kwargs)

        return spawn


def _first_arg(name: str):
    def keep(args, kwargs, result):
        return kwargs[name] if name in kwargs else args[0]
    return keep


def _diff_key(args, kwargs, result):
    old, new = args[0], args[1]
    return (kwargs.get("old_version", args[2] if len(args) > 2 else None),
            kwargs.get("new_version", args[3] if len(args) > 3 else None),
            old.source_path, new.source_path, len(result.records))


def _result(args, kwargs, result):
    return result


def _n_candidates(args, kwargs, result):
    return len(result.candidates)


# (module or "module:Class", attribute, span name, what to keep per call)
TARGETS = (
    ("szzvc.gitrepo:Repository", "__init__", "gitrepo.open", None),
    ("szzvc.gitrepo:Repository", "read_file", "gitrepo.read_file", _result),
    ("szzvc.gitrepo:Repository", "rev_parse", "gitrepo.meta", None),
    ("szzvc.gitrepo:Repository", "commit_time", "gitrepo.meta", None),
    ("szzvc.gitrepo:Repository", "commit_message", "gitrepo.meta", None),
    ("szzvc.gitrepo:Repository", "changed_files", "gitrepo.meta", None),
    ("szzvc.gitrepo:Repository", "first_parent_log", "gitrepo.log", None),
    ("szzvc.gitrepo:Repository", "all_commits", "gitrepo.log", None),
    ("szzvc.miner", "parse_pd", "pdparser.parse", _first_arg("text")),
    ("szzvc.pdparser", "split_records", "pdparser.split_records", None),
    ("szzvc.pdparser", "canonicalize", "ir.canonicalize", None),
    ("szzvc.miner", "parse_maxpat", "maxparser.parse", _first_arg("text")),
    ("szzvc.maxparser", "canonicalize", "ir.canonicalize", None),
    ("szzvc.miner", "diff_ir", "diff.diff_ir", _diff_key),
    ("szzvc.miner", "match_changes", "diff.match_changes", None),
    ("szzvc.report", "identify_fixing_commits", "miner.identify_fixing_commits", None),
    ("szzvc.report", "find_inducing", "miner.find_inducing", _n_candidates),
    ("szzvc.miner", "history_steps", "miner.history_steps", None),
    ("szzvc.textual", "history_steps", "miner.history_steps", None),
    ("szzvc.report", "textual_find_inducing", "textual.find_inducing", _n_candidates),
    ("szzvc.textual", "changed_pre_fix_lines", "textual.changed_pre_fix_lines", None),
    ("szzvc.textual", "annotate", "textual.annotate", None),
    ("szzvc.report", "run_analysis", "report.run_analysis", None),
    ("szzvc.report", "dumps_report", "report.dumps_report", None),
)


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.kept: dict[str, list] = defaultdict(list)
        self.procs = 0
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target; a missing name raises instead of reading as zero."""
        gitrepo = importlib.import_module("szzvc.gitrepo")
        if not hasattr(gitrepo, "subprocess"):
            raise RuntimeError("szzvc.gitrepo no longer reads the subprocess module")
        gitrepo.subprocess = _CountingSubprocess(gitrepo.subprocess, self)
        for spec, attr, name, keep in TARGETS:
            owner = _owner(spec)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise RuntimeError(f"trace target {spec}.{attr} no longer exists")
            setattr(owner, attr, self._wrap(original, name, keep))

    def _wrap(self, original, name: str, keep):
        spans, stack, kept = self.spans, self._stack, self.kept[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if keep is not None:
                kept.append(keep(args, kwargs, result))
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"procs": self.procs, "spans": self.spans}))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and useful-work ratios."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        self_s = {name: total[name] - child[name] for name in total}

        def ratio(distinct: int, name: str) -> float:
            return distinct / calls[name] if calls[name] else 0.0

        def digests(name: str) -> set:
            return {None if v is None else hashlib.sha1(
                v if isinstance(v, bytes) else v.encode()).digest()
                for v in self.kept[name]}

        def s(name: str) -> float:
            return self_s.get(name, 0.0)

        reads = self.kept["gitrepo.read_file"]
        diffs = self.kept["diff.diff_ir"]
        return {
            "gitrepo.procs": self.procs,
            "gitrepo.s": sum(v for k, v in self_s.items() if k.startswith("gitrepo.")),
            "gitrepo.read_file.calls": calls["gitrepo.read_file"],
            "gitrepo.read_file.s": s("gitrepo.read_file"),
            "gitrepo.read_file.bytes": sum(len(v) for v in reads if v is not None),
            "gitrepo.read_file.useful_ratio": ratio(len(digests("gitrepo.read_file")),
                                                    "gitrepo.read_file"),
            "gitrepo.meta.calls": calls["gitrepo.meta"],
            "gitrepo.meta.s": s("gitrepo.meta"),
            "gitrepo.log.s": s("gitrepo.log"),
            "pdparser.parse.calls": calls["pdparser.parse"],
            "pdparser.parse.s": s("pdparser.parse"),
            "pdparser.split_records.s": s("pdparser.split_records"),
            "pdparser.parse.useful_ratio": ratio(len(digests("pdparser.parse")),
                                                 "pdparser.parse"),
            "maxparser.parse.calls": calls["maxparser.parse"],
            "maxparser.parse.s": s("maxparser.parse"),
            "maxparser.parse.useful_ratio": ratio(len(digests("maxparser.parse")),
                                                  "maxparser.parse"),
            "ir.canonicalize.calls": calls["ir.canonicalize"],
            "ir.canonicalize.s": s("ir.canonicalize"),
            "diff.diff_ir.calls": calls["diff.diff_ir"],
            "diff.diff_ir.s": s("diff.diff_ir"),
            "diff.diff_ir.useful_ratio": ratio(len({d[:4] for d in diffs}), "diff.diff_ir"),
            "diff.records": sum(d[4] for d in diffs),
            "diff.match_changes.s": s("diff.match_changes"),
            "miner.identify_fixing_commits.s": s("miner.identify_fixing_commits"),
            "miner.history_steps.calls": calls["miner.history_steps"],
            "miner.history_steps.s": s("miner.history_steps"),
            "miner.find_inducing.s": s("miner.find_inducing"),
            "miner.candidates": sum(self.kept["miner.find_inducing"])
            + sum(self.kept["textual.find_inducing"]),
            "textual.find_inducing.s": s("textual.find_inducing"),
            "textual.changed_pre_fix_lines.s": s("textual.changed_pre_fix_lines"),
            "textual.annotate.calls": calls["textual.annotate"],
            "textual.annotate.s": s("textual.annotate"),
            "report.run_analysis.s": s("report.run_analysis"),
            "report.dumps_report.s": s("report.dumps_report"),
        }

"""Run-report assembly: the analyze pipeline's structured output.

The report is a schema-versioned JSON document with deterministic ordering
(fixing commits sorted by id, keys sorted on serialization), so two runs on
the same clone and config are byte-identical once timing is excluded. The
aligned tables printed elsewhere are derived from it, never the reverse.

Each method answers a fixing commit with an :class:`~szzvc.miner.InducingResult`,
handled one way: its failures and the versions it read with a warning
become warnings, its fix diffs (``szz-vc`` only) ``diffs``, and its
candidates, split by the time filter, the method's section. A version that
both methods read with a warning is named once.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone

from . import __version__
from .diff import paths_at_depth, nodes_touched, render_path
from .gitrepo import Repository
from .miner import (
    FixingCommit,
    InducingCandidate,
    MinerConfig,
    MiningCache,
    filter_candidates,
    find_inducing,
    identify_fixing_commits,
    language_for_path,
)
from .textual import textual_find_inducing

SCHEMA = "szzvc-report/1"

METHODS = ("szz-vc", "textual")


def _iso(stamp: datetime | None) -> str | None:
    if stamp is None:
        return None
    return stamp.astimezone(timezone.utc).isoformat()


def run_analysis(
    repo_path: str,
    config: MinerConfig,
    issue_links=None,
    methods=("szz-vc",),
    head: str = "HEAD",
    with_timing: bool = True,
) -> tuple[dict, bool]:
    """Full pipeline run; returns (report, whether a version failed to parse)."""
    started = time.monotonic()
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    with Repository(repo_path) as repo:
        # once, indexing it: the ref may move during the run
        head_id = repo.log_entry(head).commit_id
        fixing = identify_fixing_commits(repo, config, issue_links=issue_links,
                                         head=head_id)
        cache = MiningCache(repo, config)
        results = [_analyze_fixing_commit(repo, cache, fix, config, methods)
                   for fix in fixing]

    entries = [entry for entry, _ in results]
    had_failures = any(failed for _, failed in results)

    report = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "config": {
            **config.to_dict(),
            "methods": sorted(methods),
            "head": head_id,
        },
        "fixing_commits": entries,
    }
    if with_timing:
        report["timing"] = {
            "finished": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": round(time.monotonic() - started, 3),
        }
    return report, had_failures


def _analyze_fixing_commit(repo: Repository, cache: MiningCache,
                           fixing: FixingCommit, config: MinerConfig,
                           methods) -> tuple[dict, bool]:
    """One fixing commit's report entry, and whether any version of its
    files failed to parse."""
    warnings: list[str] = []
    had_failures = False
    languages = sorted({
        lang.value
        for change in fixing.visual_files
        for lang in [language_for_path(change.path, config.extensions)]
        if lang is not None
    })
    entry = {
        "commit": fixing.commit_id,
        "summary": fixing.message.split("\n", 1)[0],
        "linked_issue": fixing.linked_issue,
        "report_time": _iso(fixing.report_time),
        "language": languages[0] if len(languages) == 1 else "mixed",
        "files": [
            {"path": c.path, "status": c.status, "old_path": c.old_path}
            for c in fixing.visual_files
        ],
        "diffs": {},
        "methods": {},
        "warnings": warnings,
    }

    for method in METHODS:
        if method not in methods:
            continue
        # the module's names, read at each call, so that a tracer can wrap them
        if method == "szz-vc":
            tag, result = (config.method_tag_vc,
                           find_inducing(repo, fixing, config, cache))
        else:
            tag, result = method, textual_find_inducing(repo, fixing, config)
        for failure in result.failures:
            had_failures = True
            warnings.append(
                f"unparseable version {failure.commit_id}:{failure.file_path}: "
                f"{failure.reason}"
            )
        for note in result.warnings:
            warning = f"version {note.commit_id}:{note.file_path}: {note.message}"
            if warning not in warnings:
                warnings.append(warning)
        for path, fix_diff in sorted(result.fix_diffs.items()):
            entry["diffs"][path] = {
                "nodes_touched": nodes_touched(fix_diff),
                "records": [
                    {"kind": kind.value, "path": render_path(p), "depth": len(p)}
                    for p, kind in paths_at_depth(fix_diff, config.depth_mode)
                ],
            }
        kept, dropped = filter_candidates(result.candidates, fixing)
        entry["methods"][tag] = {
            "candidates": [_candidate_dict(c) for c in kept],
            "dropped_by_time_filter": [_candidate_dict(c) for c in dropped],
            "unfiltered": fixing.report_time is None,
        }

    if fixing.report_time is None:  # once, whatever the number of methods
        warnings.append("time filter skipped: fixing commit has no linked report time")
    return entry, had_failures


def _candidate_dict(candidate: InducingCandidate) -> dict:
    return {
        "inducing_commit": candidate.inducing_commit,
        "file_path": candidate.file_path,
        "inducing_commit_time": _iso(candidate.inducing_commit_time),
        "via_addition_reduction": candidate.via_addition_reduction,
        "matched_paths": [
            {"path": render_path(path), "effective_depth": depth}
            for path, depth in candidate.matched_paths
        ],
    }


def dumps_report(report: dict) -> str:
    """The report as JSON text, keys sorted, strings ASCII-escaped. A path
    that is not UTF-8 is written as ``os.fsdecode`` reads it, one lone
    surrogate ``\\udcXX`` per undecodable byte (``p\\xe9.pd`` is
    ``"p\\udce9.pd"``). Valid UTF-8 never yields U+DC80 to U+DCFF, so
    ``os.fsencode`` of the loaded string gives the bytes back exactly; but a
    lone surrogate is not valid Unicode, and a strict I-JSON (RFC 7493)
    reader may refuse the report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def loads_report(text: str) -> dict:
    report = json.loads(text)
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError("not a szzvc run report")
    return report

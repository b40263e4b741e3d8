"""Command-line entry point.

Subcommands mirror the pipeline stages so each is independently inspectable:

  analyze   full run: fixing commits -> candidates -> report
  diff      structural diff of two patch files at a change-depth
  score     fold reviewer verdicts over a report into precision tables
  parse     dump a patch file's canonical IR
  history   debug a file's backtracking history

Exit codes: 0 ok; 1 partial results / strict abort; 2 invalid config or
verdicts, an input file that cannot be read or is not UTF-8, or an output
file that cannot be written; 3 unreadable repository; 4 patch parse failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import __version__
from .diff import MAX_DEPTH, diff_ir, paths_at_depth, render_path
from .errors import ConfigError, GitError, PatchSyntaxError, read_input
from .evaluate import ScoreGroup, format_table, load_verdicts, score_methods
from .gitrepo import Repository
from .ir import Language, dumps_ir
from .maxparser import PropertyFilter
from .miner import (
    MinerConfig,
    history_steps,
    language_for_path,
    load_issue_links,
    parse_depth,
    parse_patch_text,
)
from .pdparser import decode_patch_bytes
from .report import dumps_report, loads_report, run_analysis

CONFIG_ENV_VAR = "SZZVC_CONFIG"

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_REPO = 3
EXIT_PARSE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szzvc",
        description="Defect-inducing change detection for visual code",
    )
    parser.add_argument("--version", action="version", version=f"szzvc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline on a repository")
    analyze.add_argument("--repo", required=True, help="path to a local git clone")
    analyze.add_argument("--config", default=None,
                         help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
    analyze.add_argument("--issues", default=None,
                         help="newline-delimited JSON issue-link table")
    analyze.add_argument("--method", choices=["szz-vc", "textual", "both"],
                         default="szz-vc")
    analyze.add_argument("--depth", default=None, help="change-depth: 1..N or 'max'")
    analyze.add_argument("--include-layout", action="store_true", default=None)
    analyze.add_argument("--property-filter", default=None,
                         help="JSON property filter file")
    analyze.add_argument("--follow-renames", nargs="?", const="true", default=None,
                         metavar="BOOL")
    analyze.add_argument("--all-matches", action="store_true", default=None)
    analyze.add_argument("--strict", action="store_true")
    analyze.add_argument("--no-timing", action="store_true")
    analyze.add_argument("--head", default="HEAD")
    analyze.add_argument("--out", default=None, help="report path (default stdout)")

    diff = sub.add_parser("diff", help="diff two patch file versions")
    diff.add_argument("file_old")
    diff.add_argument("file_new")
    diff.add_argument("--language", choices=[lang.value for lang in Language],
                      default=None, help="inferred from the extension when omitted")
    diff.add_argument("--depth", default="max")
    diff.add_argument("--include-layout", action="store_true", default=None)
    diff.add_argument("--property-filter", default=None)
    diff.add_argument("--show-values", action="store_true")
    diff.add_argument("--out", default=None, help="also write a structured diff")

    score_cmd = sub.add_parser("score", help="score a report against verdicts")
    score_cmd.add_argument("report", help="report JSON from analyze")
    score_cmd.add_argument("verdicts", help="newline-delimited JSON verdicts")
    score_cmd.add_argument("--allow-partial", action="store_true")
    score_cmd.add_argument("--out", default=None, help="structured eval output path")

    parse_cmd = sub.add_parser("parse", help="dump a patch file's canonical IR")
    parse_cmd.add_argument("file")
    parse_cmd.add_argument("--language", choices=[lang.value for lang in Language],
                           default=None)
    parse_cmd.add_argument("--include-layout", action="store_true", default=None)
    parse_cmd.add_argument("--property-filter", default=None)
    parse_cmd.add_argument("--out", default=None)

    history = sub.add_parser("history", help="show a file's backtracking history")
    history.add_argument("path")
    history.add_argument("--repo", required=True)
    history.add_argument("--before", default="HEAD")
    history.add_argument("--follow-renames", nargs="?", const="true", default=None,
                         metavar="BOOL")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "score":
            return _cmd_score(args)
        if args.command == "parse":
            return _cmd_parse(args)
        return _cmd_history(args)
    except ConfigError as exc:
        print(f"szzvc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GitError as exc:
        print(f"szzvc: repository error: {exc}", file=sys.stderr)
        return EXIT_REPO


def entrypoint() -> None:
    sys.exit(main())


def _parse_bool(value: str | None, flag: str) -> bool | None:
    if value is None:
        return None
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{flag} expects true or false, got {value!r}")


def _load_config(args) -> MinerConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    raw = {}
    if path:
        raw = _read_json(path, "config")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    if "fixing_detection" not in raw:
        raw["fixing_detection"] = "explicit-list" if args.issues else "message-regex"
    # flags win over the config file
    if args.depth is not None:
        raw["depth"] = parse_depth(args.depth)
    if args.include_layout is not None:
        raw["include_layout"] = True
    if args.property_filter is not None:
        raw["property_filter"] = _read_json(args.property_filter, "property filter")
    follow = _parse_bool(args.follow_renames, "--follow-renames")
    if follow is not None:
        raw["follow_renames"] = follow
    if getattr(args, "all_matches", None):
        raw["all_matches"] = True
    return MinerConfig.from_dict(raw)


def _read_json(path: str, what: str) -> dict:
    try:
        return json.loads(read_input(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}")


def _check_out(out: str | None) -> None:
    """Refuse an output path that cannot be a file in an existing directory
    before any work is done; the file is neither created nor truncated, so a
    run that fails later leaves an old report alone. ``_write_out`` still
    reports what only writing can find."""
    if out is None:
        return
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(out) or "."):
        code = errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write {out}: {OSError(code, os.strerror(code), out)}")


def _cmd_analyze(args) -> int:
    _check_out(args.out)  # before the repository is opened and mined
    config = _load_config(args)
    issue_links = load_issue_links(args.issues) if args.issues else None
    methods = ("szz-vc", "textual") if args.method == "both" else (args.method,)
    report, had_failures = run_analysis(
        args.repo, config, issue_links=issue_links, methods=methods,
        head=args.head, with_timing=not args.no_timing,
    )
    if args.strict and had_failures:
        print("szzvc: per-file parse failures (strict mode)", file=sys.stderr)
        return EXIT_PARTIAL
    _write_out(dumps_report(report), args.out)
    return EXIT_PARTIAL if had_failures else EXIT_OK


def _load_patch(path: str, language_arg: str | None, config: MinerConfig):
    if language_arg is not None:
        language = Language(language_arg)
    else:
        language = language_for_path(path, config.extensions)
        if language is None:
            raise ConfigError(
                f"cannot infer language from {path!r}; pass --language"
            )
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    text, warnings = decode_patch_bytes(data)
    for warning in warnings:
        print(f"szzvc: {path}: {warning}", file=sys.stderr)
    return parse_patch_text(text, language, config, source_path=path)


def _diff_config(args) -> MinerConfig:
    kwargs = {}
    if getattr(args, "include_layout", None):
        kwargs["include_layout"] = True
    if getattr(args, "property_filter", None):
        kwargs["property_filter"] = PropertyFilter.from_dict(
            _read_json(args.property_filter, "property filter")
        )
    return MinerConfig(**kwargs)


def _cmd_diff(args) -> int:
    config = _diff_config(args)
    mode = parse_depth(args.depth)
    try:
        old_ir = _load_patch(args.file_old, args.language, config)
        new_ir = _load_patch(args.file_new, args.language, config)
    except PatchSyntaxError as exc:
        print(f"szzvc: parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if old_ir.source_language is not new_ir.source_language:
        raise ConfigError(
            f"cannot diff a {old_ir.source_language.value} patch against a "
            f"{new_ir.source_language.value} patch"
        )
    diff = diff_ir(old_ir, new_ir, old_version=args.file_old,
                   new_version=args.file_new)
    projected = paths_at_depth(diff, mode)
    for i, (path, kind) in enumerate(projected):
        line = f"{kind.label} {render_path(path)}"
        if args.show_values and mode == MAX_DEPTH:  # one pair per record, in order
            record = diff.records[i]
            line += f"  {record.old_value!r} -> {record.new_value!r}"
        print(line)
    if args.out:
        structured = {
            "old": args.file_old,
            "new": args.file_new,
            "depth": mode,
            "records": [
                {"kind": kind.value, "path": render_path(path), "depth": len(path)}
                for path, kind in projected
            ],
        }
        _write_out(json.dumps(structured, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_score(args) -> int:
    results = score_methods(_score_groups(_load_report(args.report)),
                            load_verdicts(args.verdicts), args.allow_partial)
    for evaluation in results.values():
        print(format_table(evaluation))
    if args.out:
        structured = {
            method: {
                "rows": [
                    {
                        "fixing_commit": row.fixing_commit,
                        "language": row.language,
                        "tp": row.tp,
                        "fp": row.fp,
                        "u": row.u,
                        "tdic": row.tdic,
                        "precision": row.precision,
                    }
                    for row in evaluation.rows
                ],
                "averages": evaluation.averages,
                "unjudged": [list(pair) for pair in evaluation.unjudged],
            }
            for method, evaluation in results.items()
        }
        _write_out(json.dumps(structured, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _score_groups(report: dict) -> dict[str, list[ScoreGroup]]:
    """Each method's candidate set per fixing commit."""
    methods: dict[str, list[ScoreGroup]] = {}
    try:
        for entry in report.get("fixing_commits", []):
            for method, section in sorted(entry.get("methods", {}).items()):
                group = ScoreGroup(
                    fixing_commit=entry["commit"],
                    language=entry.get("language", "unknown"),
                    candidates=tuple(
                        c["inducing_commit"] for c in section["candidates"]
                    ),
                )
                if not all(isinstance(value, str) for value in (
                        group.fixing_commit, group.language, *group.candidates)):
                    raise TypeError("commit ids and languages must be strings")
                methods.setdefault(method, []).append(group)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"not a usable report: {exc!r}")
    return methods


def _load_report(path: str) -> dict:
    try:
        return loads_report(read_input(path, "report"))
    except (json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"not a usable report: {exc}")


def _cmd_parse(args) -> int:
    config = _diff_config(args)
    try:
        ir = _load_patch(args.file, args.language, config)
    except PatchSyntaxError as exc:
        print(f"szzvc: parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _write_out(dumps_ir(ir), args.out)
    return EXIT_OK


def _cmd_history(args) -> int:
    follow = _parse_bool(args.follow_renames, "--follow-renames")
    with Repository(args.repo) as repo:
        steps = history_steps(repo, args.path, args.before,
                              follow_renames=True if follow is None else follow)
        if not steps and not _existed_around(repo, args.path, args.before):
            raise GitError(f"path never existed before {args.before}: {args.path}")
    # a path git holds in bytes that are not UTF-8 is written as those bytes
    sys.stdout.flush()
    for step in steps:
        sys.stdout.buffer.write(f"{step.entry.commit_id} ".encode()
                                + os.fsencode(step.path_new) + b"\n")
    sys.stdout.buffer.flush()
    return EXIT_OK


def _existed_around(repo: Repository, path: str, before: str) -> bool:
    if repo.read_file(before, path) is not None:
        return True
    try:
        parent = repo.rev_parse(f"{before}^")
    except GitError:
        return False
    return repo.read_file(parent, path) is not None

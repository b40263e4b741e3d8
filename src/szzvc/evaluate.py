"""Precision scoring of manually reviewed defect-inducing candidates.

Reviewers label each (fixing, inducing) pair TP, FP, or U (unknown); the
harness turns those verdicts into per-fixing-commit rows (TP FP U TDIC Pr)
and per-language plus overall average precision. Precision is TP/(TP+FP),
defined as 0 when there is nothing to divide by, and a fixing commit with no
candidates at all still contributes a 0 to the averages. Recall and F1 are
deliberately absent: there is no false-negative ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError, read_input

LABELS = ("TP", "FP", "U")


@dataclass(frozen=True)
class Verdict:
    fixing_commit: str
    inducing_commit: str
    label: str
    note: str | None = None
    reviewer: str | None = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise ConfigError(f"verdict label must be one of {LABELS}, got {self.label!r}")


def load_verdicts(path: str) -> list[Verdict]:
    """Newline-delimited JSON verdict records; one verdict per pair."""
    verdicts = []
    seen = set()
    for lineno, line in enumerate(read_input(path, "verdict file").split("\n"), 1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            fixing, inducing = raw["fixing_commit"], raw["inducing_commit"]
            # the pair is a dict key: a list would fail there, a number
            # would never match a report's commit id
            if not (isinstance(fixing, str) and isinstance(inducing, str)):
                raise TypeError("commit ids must be strings, got "
                                f"{fixing!r} and {inducing!r}")
            verdict = Verdict(
                fixing_commit=fixing,
                inducing_commit=inducing,
                label=raw["label"],
                note=raw.get("note"),
                reviewer=raw.get("reviewer"),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ConfigError) as exc:
            raise ConfigError(f"malformed verdict at line {lineno}: {exc}")
        pair = (verdict.fixing_commit, verdict.inducing_commit)
        if pair in seen:
            raise ConfigError(
                f"duplicate verdict for {pair[0]}/{pair[1]} at line {lineno}"
            )
        seen.add(pair)
        verdicts.append(verdict)
    return verdicts


@dataclass(frozen=True)
class ScoreGroup:
    """One fixing commit's candidate set for one method."""

    fixing_commit: str
    language: str
    candidates: tuple[str, ...]  # inducing commit ids


@dataclass(frozen=True)
class EvalRow:
    fixing_commit: str
    language: str
    tp: int
    fp: int
    u: int

    @property
    def tdic(self) -> int:
        return self.tp + self.fp + self.u

    @property
    def precision(self) -> float:
        judged = self.tp + self.fp
        return self.tp / judged if judged else 0.0


@dataclass(frozen=True)
class EvalReport:
    method: str
    rows: tuple[EvalRow, ...]
    averages: dict[str, float]  # per language plus "overall"
    unjudged: tuple[tuple[str, str], ...] = ()  # skipped pairs (allow_partial)


def score(groups, verdicts, method: str = "", allow_partial: bool = False) -> EvalReport:
    """Fold verdicts over candidate groups into an evaluation report.

    Every candidate needs a verdict (unless ``allow_partial`` skips the
    missing ones) and a verdict naming an unknown candidate is an error.
    Verdict order never matters.
    """
    by_pair = {(v.fixing_commit, v.inducing_commit): v for v in verdicts}
    rows = []
    missing: list[tuple[str, str]] = []
    for group in groups:
        counts = {"TP": 0, "FP": 0, "U": 0}
        for inducing in group.candidates:
            pair = (group.fixing_commit, inducing)
            verdict = by_pair.get(pair)
            if verdict is None:
                missing.append(pair)
                continue
            counts[verdict.label] += 1
        rows.append(
            EvalRow(
                fixing_commit=group.fixing_commit,
                language=group.language,
                tp=counts["TP"],
                fp=counts["FP"],
                u=counts["U"],
            )
        )
    _check_known(by_pair, _pairs(groups))
    if missing and not allow_partial:
        raise ConfigError(
            "candidates without a verdict: "
            + ", ".join(f"{f}/{i}" for f, i in sorted(missing))
        )
    return EvalReport(
        method=method,
        rows=tuple(rows),
        averages=_averages(rows),
        unjudged=tuple(sorted(missing)),
    )


def score_methods(methods: dict[str, list[ScoreGroup]], verdicts,
                  allow_partial: bool) -> dict[str, EvalReport]:
    """Score each method's groups, in method order. Reviewers label each
    distinct pair once, whichever methods found it: every verdict must name
    a candidate of some method, and each method is scored on the verdicts
    of its own candidates."""
    pairs = {method: _pairs(groups) for method, groups in methods.items()}
    _check_known([(v.fixing_commit, v.inducing_commit) for v in verdicts],
                 set().union(*pairs.values()))
    results = {}
    for method, groups in sorted(methods.items()):
        own = [v for v in verdicts if (v.fixing_commit, v.inducing_commit) in pairs[method]]
        results[method] = score(groups, own, method, allow_partial)
    return results


def _pairs(groups) -> set[tuple[str, str]]:
    return {(group.fixing_commit, c) for group in groups for c in group.candidates}


def _check_known(verdict_pairs, known_pairs) -> None:
    stray = sorted(pair for pair in verdict_pairs if pair not in known_pairs)
    if stray:
        raise ConfigError("verdicts for unknown candidates: "
                          + ", ".join(f"{f}/{i}" for f, i in stray))


def _averages(rows) -> dict[str, float]:
    averages = {}
    by_language: dict[str, list[float]] = {}
    for row in rows:
        by_language.setdefault(row.language, []).append(row.precision)
    for language, values in sorted(by_language.items()):
        averages[language] = sum(values) / len(values)
    averages["overall"] = (
        sum(row.precision for row in rows) / len(rows) if rows else 0.0
    )
    return averages


def format_table(report: EvalReport) -> str:
    """Aligned text table; the structured report stays the source of truth."""
    header = ("Commit", "TP", "FP", "U", "TDIC", "Pr")
    body = [
        (
            row.fixing_commit,
            str(row.tp),
            str(row.fp),
            str(row.u),
            str(row.tdic),
            f"{row.precision:.2f}",
        )
        for row in report.rows
    ]
    footer = [
        (f"Avg {language} Precision", "", "", "", "", f"{value:.2f}")
        for language, value in report.averages.items()
    ]
    table = [header, *body, *footer]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = [f"# method: {report.method}"] if report.method else []
    for row in table:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"

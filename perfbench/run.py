"""Benchmark for ``szzvc analyze`` on seeded synthetic Pd and Max repositories.

    python3 perfbench/run.py --workload pd-hot-file --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's repository is generated from ``--seed`` under
``.bench_work/`` and removed afterwards. Every sample runs in a fresh
interpreter with the default ``MinerConfig`` (serial, depth ``max``).

``--trace 0`` alternates set-up samples (``Repository`` plus
``identify_fixing_commits``) with untraced analyze samples until
``--seconds`` is used up and reports medians of the end-to-end metrics.
Times are wall time less host steal time (see ``sample.py``); the raw wall
times are printed too.
``--trace 1`` alternates traced and untraced analyze samples and reports the
per-layer metrics of the traced ones; the spans of the last traced sample
stay in ``.bench_work/spans-<workload>-<seed>.json``.

Every analyze sample is checked: the fixing commits must be the generated
ones, no version may be unparseable, each fix's candidates must contain the
oracle's expected inducing commits, and the report without ``timing`` must
be the same in every sample. The last line printed is one JSON object with
``correct``, ``attempted`` and ``failed`` counted in fixes, and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3
# No new round starts once the rounds so far project past this, whatever
# MIN_SAMPLES says, so that a much slower program still ends within 180 s.
LIMIT_S = 120
SAMPLE_TIMEOUT_S = 120


class SampleError(RuntimeError):
    pass


def _sample(part: str, repo: gen.BuiltRepo, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), part, str(ROOT / "src"),
         str(repo.path), repo.method, *extra],
        capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SampleError(f"{part} sample failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


class Checker:
    """Counts fixes attempted and failed against the oracle, and requires
    every report (timing excluded) and every layer count to repeat exactly."""

    def __init__(self, repo: gen.BuiltRepo):
        self.repo = repo
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest = None
        self._counts = None

    def _note(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)

    def analyzed(self, out: dict) -> None:
        expected = self.repo.expected
        self.attempted += len(expected)
        found = out["fixes"]
        if set(found) != set(expected):
            self._note(f"fixing commits differ from the generated ones: "
                       f"{len(found)} found, {len(expected)} generated")
        for commit, oracle in sorted(expected.items()):
            got = found.get(commit, {"candidates": [], "unparseable": False})
            missing = sorted(oracle - set(got["candidates"]))
            if commit not in found or got["unparseable"] or missing:
                self.failed += 1
                self._note(f"fix {commit[:12]}: missing expected {[m[:12] for m in missing]}"
                           + (" (unparseable version)" if got["unparseable"] else ""))
        if self._digest is None:
            self._digest = out["digest"]
        elif out["digest"] != self._digest:
            self._note("reports differ between runs of one workload (timing excluded)")

    def set_up(self, out: dict) -> None:
        if out["fixes"] != len(self.repo.expected):
            self._note(f"set-up found {out['fixes']} fixing commits, "
                       f"{len(self.repo.expected)} generated")

    def traced(self, layers: dict) -> None:
        counts = {k: v for k, v in layers.items() if not k.endswith(".s")}
        if self._counts is None:
            self._counts = counts
        elif counts != self._counts:
            diff = sorted(k for k in counts if counts[k] != self._counts.get(k))
            self._note(f"per-layer counts differ between traced runs: {diff}")

    def sample_failed(self, error: Exception) -> None:
        self.attempted += len(self.repo.expected)
        self.failed += len(self.repo.expected)
        self._note(str(error))

    @property
    def correct(self) -> bool:
        return not self.problems


def _measure(repo: gen.BuiltRepo, seconds: float, trace: bool, span_file: Path,
             checker: Checker) -> dict[str, list]:
    """Alternate the two sample kinds until ``seconds`` is used up."""
    series: dict[str, list] = {}
    started = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        try:
            if trace:
                out = _sample("trace", repo, str(span_file))
                checker.analyzed(out)
                checker.traced(out["layers"])
                series.setdefault("trace.analyze_s", []).append(out["analyze_s"])
                series.setdefault("report.bytes", []).append(out["report_bytes"])
                for name, value in out["layers"].items():
                    series.setdefault(name, []).append(value)
            else:
                out = _sample("setup", repo)
                checker.set_up(out)
                series.setdefault("setup_s", []).append(out["setup_s"])
                series.setdefault("setup_wall_s", []).append(out["setup_wall_s"])
            out = _sample("analyze", repo)
        except (SampleError, subprocess.TimeoutExpired) as exc:
            checker.sample_failed(exc)
            break
        checker.analyzed(out)
        for name in ("analyze_s", "wall_s", "steal_s", "cpu_s", "peak_rss_mb"):
            series.setdefault(name, []).append(out[name])
        series.setdefault("fixes_per_s", []).append(len(repo.expected) / out["analyze_s"])
        projected = (time.perf_counter() - started) * (rounds + 1) / rounds
        if projected > LIMIT_S or (rounds >= MIN_SAMPLES and projected > seconds):
            break
    return series


def _metrics(series: dict[str, list], trace: bool, spec: dict) -> dict:
    med = {name: statistics.median(values) for name, values in series.items()}
    if trace:
        med["trace.overhead_s"] = med["trace.analyze_s"] - med["analyze_s"]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in med]
    if missing:
        raise RuntimeError(f"the benchmark does not measure {missing}")
    return {m["name"]: {"value": med[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "szzvc" / "__init__.py").is_file():
        print("perfbench: no szzvc sources under src/ in this checkout", file=sys.stderr)
        return 2

    runs = ROOT / ".bench_work"
    work = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        repo = gen.build(gen.WORKLOADS[args.workload], args.seed, work / "repo")
        checker = Checker(repo)
        series = _measure(repo, args.seconds, bool(args.trace),
                          runs / f"spans-{args.workload}-{args.seed}.json", checker)
        if "analyze_s" not in series:
            for problem in checker.problems:
                print(f"perfbench: {problem}", file=sys.stderr)
            return 1
        metrics = _metrics(series, bool(args.trace), spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in checker.problems:
        print(f"problem: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {len(repo.expected)} fixes, "
          f"head {repo.head}, {len(series['analyze_s'])} analyze samples")
    print(f"failed_fix_ratio {checker.failed / checker.attempted:.4f} ratio "
          f"({checker.failed} of {checker.attempted} fixes)")
    print(f"analyze wall time {statistics.median(series['wall_s']):.6g} s, of which host "
          f"steal {statistics.median(series['steal_s']):.6g} s (medians)")
    if "setup_wall_s" in series:
        print(f"set-up wall time {statistics.median(series['setup_wall_s']):.6g} s (median)")
    for name, metric in metrics.items():
        spread = ""
        if len(set(series.get(name, ()))) > 1:
            q1, _, q3 = statistics.quantiles(series[name], n=4)
            spread = f" (quartiles {q1:.6g} {q3:.6g}, {len(series[name])} samples)"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{spread}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One measurement in a fresh interpreter; prints one JSON object.

    python3 sample.py setup   <src dir> <repo> <method>
    python3 sample.py analyze <src dir> <repo> <method>
    python3 sample.py trace   <src dir> <repo> <method> <span file>

``setup`` times ``Repository(path)`` plus ``identify_fixing_commits``.
``analyze`` times ``run_analysis`` plus ``dumps_report``, as ``szzvc analyze``
runs them, with the default ``MinerConfig``. ``trace`` does the same with
spans installed and adds the per-layer metrics. The report itself does not
leave the process: its candidates per fixing commit and a digest of it with
``timing`` removed do.

Times are wall time less the host steal time over the same interval: the
time the hypervisor gave the sample's CPU to other guests, which on a shared
virtual machine can add half again to a run and says nothing about the
program. The sample and its git processes are pinned to one CPU so that this
steal time is that CPU's. The raw wall time is reported beside it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    waited = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + waited.ru_utime + waited.ru_stime


def _pin() -> str:
    """Keep this process and the git processes it starts on one CPU, so that
    the steal time of that CPU is the steal time of the sample. Returns the
    CPU's ``/proc/stat`` label."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return "cpu"  # no affinity control: fall back to the whole machine
    return f"cpu{cpu}"


def _steal_s(label: str) -> float:
    """Host steal time of one CPU so far (Linux ``/proc/stat``); 0 where the
    system does not report it."""
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields and fields[0] == label:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class _Clock:
    """Wall time and host steal time of one CPU over a ``with`` block."""

    def __init__(self, cpu_label: str):
        self._cpu = cpu_label

    def __enter__(self):
        self._steal = _steal_s(self._cpu)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start
        self.steal_s = _steal_s(self._cpu) - self._steal
        self.s = self.wall_s - self.steal_s


def _setup(repo_path: str, cpu_label: str) -> dict:
    from szzvc.gitrepo import Repository
    from szzvc.miner import MinerConfig, identify_fixing_commits

    config = MinerConfig()
    with _Clock(cpu_label) as clock:
        fixing = identify_fixing_commits(Repository(repo_path), config)
    return {"setup_s": clock.s, "setup_wall_s": clock.wall_s, "fixes": len(fixing)}


def _analyze(repo_path: str, method: str, cpu_label: str) -> tuple[dict, dict]:
    from szzvc import report as report_module
    from szzvc.miner import MinerConfig

    config = MinerConfig()
    cpu_before = _cpu_s()
    with _Clock(cpu_label) as clock:
        report, _ = report_module.run_analysis(repo_path, config, methods=(method,))
        report_module.dumps_report(report)
    return report, {
        "analyze_s": clock.s,
        "wall_s": clock.wall_s,
        "steal_s": clock.steal_s,
        "cpu_s": _cpu_s() - cpu_before,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _outcome(report: dict) -> dict:
    """What the parent checks: the report digest without ``timing`` and the
    candidates found for each fixing commit."""
    from szzvc.report import dumps_report

    del report["timing"]
    stable = dumps_report(report).encode()
    fixes = {}
    for entry in report["fixing_commits"]:
        found = set()
        for section in entry["methods"].values():
            for key in ("candidates", "dropped_by_time_filter"):
                found.update(c["inducing_commit"] for c in section[key])
        fixes[entry["commit"]] = {
            "candidates": sorted(found),
            "unparseable": any(w.startswith("unparseable version")
                               for w in entry["warnings"]),
        }
    return {"report_bytes": len(stable),
            "digest": hashlib.sha256(stable).hexdigest(),
            "fixes": fixes}


def main(argv: list[str]) -> int:
    part, src, repo_path, method = argv[:4]
    sys.path.insert(0, src)
    cpu_label = _pin()
    if part == "setup":
        out = _setup(repo_path, cpu_label)
    elif part == "analyze":
        report, out = _analyze(repo_path, method, cpu_label)
        out.update(_outcome(report))
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        report, out = _analyze(repo_path, method, cpu_label)
        out["layers"] = tracer.layer_metrics()
        tracer.write(Path(argv[4]))
        out.update(_outcome(report))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

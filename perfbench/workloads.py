"""The three workloads: the command each runs and the check of its output.

Every workload is one ``python -m repro ...`` process with ``--jobs 1``, run
against its own cache directory.  ``README.md`` says why each one exists.
"""

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

SCENARIO = "pll3"
FAMILY = "pll3_ip_ladder"
LADDER_SAMPLES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "verify" or "sweep"
    warm: bool         # start from a copy of the set-up cache snapshot

    def command(self, seed: int, cache_dir: str, report: str) -> List[str]:
        if self.kind == "verify":
            return ["verify", SCENARIO, "--jobs", "1", "--seed", str(seed),
                    "--cache-dir", cache_dir, "--json", report]
        # The ladder is a deterministic family: the CLI refuses --seed for it,
        # so the workload seed changes nothing here and is only recorded.
        return ["sweep", FAMILY, "--samples", str(LADDER_SAMPLES), "--jobs", "1",
                "--cache-dir", cache_dir, "--json", report]

    def probe_args(self) -> List[str]:
        if self.kind == "verify":
            return ["verify", SCENARIO]
        return ["sweep", FAMILY, str(LADDER_SAMPLES)]


WORKLOADS = {
    "pll3_cold": Workload("pll3_cold", "verify", warm=False),
    "pll3_warm": Workload("pll3_warm", "verify", warm=True),
    "ip_ladder": Workload("ip_ladder", "sweep", warm=True),
}


@dataclass
class Outcome:
    """What one run's output says, and what is wrong with it."""

    problems: List[str]
    # Counts the program reports; identical on every run at a fixed seed.
    counts: Dict[str, object]
    level_min: float = float("nan")
    certified_points: float = 0.0
    # The report's own totals, compared with the traced run's counts.
    solves: Optional[int] = None
    iterations: Optional[int] = None
    cache_hits: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _load(path: str, problems: List[str]) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        problems.append(f"report {path} unreadable: {exc}")
        return None


def check_verify(status: int, path: str, expected_jobs: List[str]) -> Outcome:
    """Exit 0, every planned job reported, a finite positive level per mode.

    ``level_min`` is the smallest level over the modes whose level-set job
    is ``ok``; ``certified_points`` is the number of those modes.
    """
    problems: List[str] = []
    if status != 0:
        problems.append(f"exit status {status}: verdict differs from the "
                        f"scenario's registered expectation")
    payload = _load(path, problems)
    if payload is None:
        return Outcome(problems, {})
    engine = payload.get("engine", {})
    scenarios = {s.get("scenario"): s for s in payload.get("scenarios", [])}
    scenario = scenarios.get(SCENARIO)
    if scenario is None:
        problems.append(f"scenario {SCENARIO} missing from the report")
        return Outcome(problems, {})
    jobs = {job.get("job_id"): job for job in scenario.get("jobs", [])}
    missing = sorted(set(expected_jobs) - set(jobs))
    if missing:
        problems.append(f"jobs missing from the report: {missing}")
    if not scenario.get("matches_expected"):
        problems.append("report says the verdict does not match expectation")

    invariant = scenario.get("report", {}).get("property_one", {}).get("invariant") or []
    levels_by_mode = {entry.get("mode"): entry.get("level") for entry in invariant}
    levels = []
    for job_id, job in sorted(jobs.items()):
        if job.get("step") != "levelset" or job.get("status") != "ok":
            continue
        level = levels_by_mode.get(job.get("mode"))
        if not isinstance(level, (int, float)) or not math.isfinite(level) \
                or level <= 0:
            problems.append(f"{job_id} is ok but its level is {level!r}")
        else:
            levels.append(float(level))

    counters = engine.get("counters", {})
    cache = engine.get("cache", {})
    per_job = {}
    iterations = 0
    for job_id, job in sorted(jobs.items()):
        stats = job.get("array_backend_stats", {})
        job_iterations = sum(int(s.get("iterations", 0)) for s in stats.values())
        iterations += job_iterations
        per_job[job_id] = {"status": job.get("status"),
                           "solved": job.get("counters", {}).get("solved", 0),
                           "iterations": job_iterations}
    counts = {"solved": counters.get("solved"), "cache_hits": cache.get("hits"),
              "cache_writes": cache.get("writes"), "jobs": per_job}
    return Outcome(problems, counts,
                   level_min=min(levels) if levels else float("nan"),
                   certified_points=float(len(levels)),
                   solves=counters.get("solved"), iterations=iterations,
                   cache_hits=cache.get("hits"))


def check_sweep(status: int, path: str, expected_points: int) -> Outcome:
    """Exit 0 and a frontier that lists every point of the family once."""
    problems: List[str] = []
    if status != 0:
        problems.append(f"exit status {status}")
    payload = _load(path, problems)
    if payload is None:
        return Outcome(problems, {})
    points = payload.get("frontier", {}).get("points", [])
    indices = sorted(int(point.get("index", -1)) for point in points)
    if indices != list(range(expected_points)):
        problems.append(f"frontier has {len(points)} point(s) with indices "
                        f"other than 0..{expected_points - 1}")
    run = payload.get("run", {})
    counters = run.get("counters", {})
    cache = run.get("cache", {})
    certified = [int(p["index"]) for p in points if p.get("certified")]
    counts = {"solved": counters.get("solved"), "cache_hits": cache.get("hits"),
              "cache_writes": cache.get("writes"),
              "structures": run.get("structures", {}),
              "certified": certified}
    return Outcome(problems, counts, certified_points=float(len(certified)),
                   solves=counters.get("solved"), cache_hits=cache.get("hits"))

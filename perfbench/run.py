"""End-to-end benchmark of the ``repro`` CLI; see ``README.md``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload pll3_cold --seed 1 --seconds 10 --trace 0

Every timed run is its own ``python -m repro ...`` process, one at a time,
with BLAS and OpenMP pinned to one thread and a cache directory of its own.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced run (``layers.py``).  The last line of standard
output is the result as JSON; lines before it record the environment and
every run.

The first run of a version of the code builds the set-up snapshot: the
cache a cold ``verify pll3`` leaves behind, kept under
``$CARGO_TARGET_DIR/perfbench/<digest>`` (``CARGO_TARGET_DIR`` defaults to
``.bench_build``).
``<digest>`` hashes ``src/`` and this directory, so the snapshot and the
state kept beside it (untraced walls, determinism reference counts) are only
ever used by the code that produced them.  The warm workloads start from a
copy of the snapshot.

Times are reported in reference seconds: each is scaled by the speed of the
host around and during it, measured with a fixed kernel (``Calibrator``).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_sweep, check_verify  # noqa: E402

#: Thread pinning of every child process.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Set-up probes of an untraced run: half before its repetitions and half
#: after, so that the median spans more than one state of the host.
SETUP_REPEATS = 4
SNAPSHOT_SEED = 0
#: A run stops starting repetitions once the next might pass this budget,
#: and kills a child that would outlive the run's deadline.
RUN_BUDGET_S = 150.0
RUN_DEADLINE_S = 175.0
SNAPSHOT_TIMEOUT_S = 600.0
#: Seconds of a timed process's run between two calibration stops.
SAMPLE_EVERY_S = 0.5
#: Kernel time, in seconds, of the reference host that scaled times refer to
#: (about the kernel's time on a 2-vCPU Xeon VM).
REFERENCE_S = 0.045


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (bad checkout, broken set-up)."""


class Calibrator:
    """Client of the ``calibrate.py`` helper process; see its docstring.

    Each time this benchmark measures is scaled by ``REFERENCE_S / mean of
    the kernel times`` taken around and during it: the time the same work
    would take on a host that runs the kernel in ``REFERENCE_S``.  A change
    to the program moves the workload and leaves the kernel alone, so it
    shows in full; a change of host speed moves both and cancels out.
    """

    def __init__(self):
        env = dict(os.environ)
        env.update(PINNED)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError("the calibration helper did not start")
        self.libraries = json.loads(line)

    def sample(self):
        """One kernel pass: ``(wall seconds, CPU seconds)``."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        wall, cpu = self.proc.stdout.readline().split()
        return float(wall), float(cpu)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scale(samples):
    """Factors ``(wall, cpu)`` that turn measured times into reference times.

    A process's time is the sum of its work at the host's speed of each
    moment, so it scales with the mean of samples spread evenly over its
    run, not with their median.
    """
    return (REFERENCE_S / statistics.fmean(wall for wall, _ in samples),
            REFERENCE_S / statistics.fmean(cpu for _, cpu in samples))


@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    #: Calibration samples taken before, during and after the process.
    samples: list

    def scaled(self):
        """Wall and CPU time in reference-host seconds (``calibrate.py``)."""
        wall_factor, cpu_factor = scale(self.samples)
        return self.wall_s * wall_factor, self.cpu_s * cpu_factor


def run_child(argv, env, log_path, timeout, calibrator, sample_every=None):
    """Run one process to completion, measuring wall, CPU and peak RSS.

    ``calibrator`` is sampled twice before the process starts and twice
    after it ends.  With ``sample_every``, the process is also stopped
    (``SIGSTOP``) after every ``sample_every`` seconds of its run, sampled
    once and resumed; the stopped time is not part of its wall time.
    """
    samples = [calibrator.sample() for _ in range(2)]
    paused = 0.0
    usage = None
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, stdin=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            deadline = start + timeout
            while usage is None:
                wait = deadline - time.perf_counter()
                if wait <= 0:
                    proc.kill()
                    wait = None  # until it has died
                elif sample_every is not None:
                    wait = min(wait, sample_every)
                if select.select([pidfd], [], [], wait)[0]:
                    end = time.perf_counter()
                    _, raw_status, usage = os.wait4(proc.pid, 0)
                elif sample_every is not None:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, raw_status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(raw_status):
                        end = time.perf_counter()  # it ended before the stop
                        continue
                    usage = None
                    stopped = time.perf_counter()
                    samples.append(calibrator.sample())
                    paused += time.perf_counter() - stopped
                    os.kill(proc.pid, signal.SIGCONT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    samples += [calibrator.sample() for _ in range(2)]
    proc.returncode = os.waitstatus_to_exitcode(raw_status)
    return Child(status=proc.returncode, wall_s=end - start - paused,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, samples=samples)


def tree_digest(*dirs):
    """SHA-256 of the ``.py`` files under ``dirs``, names and contents."""
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            digest.update(str(path.relative_to(top.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Bench:
    """Paths, child environment and persistent state of one code version."""

    def __init__(self, root: Path):
        self.root = root
        build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        version = tree_digest(root / "src", HERE)[:16]
        self.dir = ((build if build.is_absolute() else root / build)
                    / "perfbench" / version)
        self.snapshot = self.dir / "snapshot"
        self.state_path = self.dir / "state.json"
        self.work = self.dir / f"run-{os.getpid()}"
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            self.state = json.loads(self.state_path.read_text())
        except (OSError, ValueError):
            self.state = {"walls": {}, "reference": {}}
        # This process and every child share one CPU, so that calibration
        # samples the CPU the measured process runs on.
        self.cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpus[0]})
        self.calibrator = Calibrator()

    def close(self):
        self.calibrator.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def save_state(self):
        tmp = self.state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state, indent=1, sort_keys=True))
        os.replace(tmp, self.state_path)

    def env(self, cache_dir):
        env = dict(os.environ)
        env.update(PINNED)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        # Nothing the program does may reach a cache outside the run's own.
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["XDG_CACHE_HOME"] = str(Path(cache_dir).parent / "xdg")
        return env

    def timeout(self):
        return max(1.0, self.deadline - time.perf_counter())

    def fresh_dir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # ------------------------------------------------------------------
    def run(self, argv, env, log_path, timeout=None, sample_every=None):
        return run_child(argv, env, log_path, timeout or self.timeout(),
                         self.calibrator, sample_every)

    def probe(self, workload):
        """One set-up probe: returns (reference seconds, expected output shape)."""
        where = self.fresh_dir("probe")
        argv = [sys.executable, str(HERE / "probe.py"), *workload.probe_args()]
        child = self.run(argv, self.env(where / "cache"), where / "log")
        log = (where / "log").read_text(errors="replace")
        if child.status != 0:
            raise BenchError(f"set-up probe failed ({child.status}):\n{log[-2000:]}")
        shape = json.loads(log.strip().splitlines()[-1])
        wall_factor, _ = scale(child.samples)
        return shape.pop("setup_s") * wall_factor, shape

    def check(self, workload, status, report, expected, seed):
        if workload.kind == "verify":
            outcome = check_verify(status, str(report), expected["jobs"])
        else:
            outcome = check_sweep(status, str(report), expected["points"])
            # The ladder certifies no level set: its level_min is that of the
            # anchor invariant it probes, from this checkout's snapshot.
            outcome.level_min = self.snapshot_level_min()
        if not outcome.ok:
            return outcome
        key = f"{workload.name}/{seed}"
        reference = self.state["reference"].setdefault(key, outcome.counts)
        if reference != outcome.counts:
            outcome.problems.append(
                f"counts differ from an earlier run at seed {seed}: "
                f"{json.dumps(outcome.counts, sort_keys=True)} != "
                f"{json.dumps(reference, sort_keys=True)}")
        return outcome

    def record_wall(self, workload_name, wall):
        walls = self.state["walls"].setdefault(workload_name, [])
        walls.append(wall)
        del walls[:-20]

    def snapshot_level_min(self):
        return json.loads((self.snapshot / "meta.json").read_text())["level_min"]

    def ensure_snapshot(self):
        """Build the cache a cold ``verify pll3`` leaves, once per code version."""
        if (self.snapshot / "meta.json").exists():
            return
        cold = WORKLOADS["pll3_cold"]
        _, expected = self.probe(cold)
        tmp = self.dir / "snapshot.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        report = tmp / "report.json"
        argv = cold.command(SNAPSHOT_SEED, str(tmp / "cache"), str(report))
        child = self.run([sys.executable, "-m", "repro", *argv],
                         self.env(tmp / "cache"), tmp / "log", SNAPSHOT_TIMEOUT_S)
        outcome = self.check(cold, child.status, report, expected, SNAPSHOT_SEED)
        if not outcome.ok:
            raise BenchError("set-up cold run failed: " + "; ".join(outcome.problems))
        (tmp / "meta.json").write_text(json.dumps({"level_min": outcome.level_min}))
        self.record_wall(cold.name, child.scaled()[0])
        shutil.rmtree(self.snapshot, ignore_errors=True)
        os.replace(tmp, self.snapshot)
        self.save_state()
        # Building the snapshot is the checkout's one-off build step; the
        # run's own deadline starts after it.
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def cache_for(self, workload, where):
        cache = where / "cache"
        if workload.warm:
            shutil.copytree(self.snapshot / "cache", cache)
        return cache


# ----------------------------------------------------------------------
def environment(root, seed, bench):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(bench.cpus),
        "pinned_to_cpu": bench.cpus[0],
        "python": platform.python_version(),
        **bench.calibrator.libraries,
        "threads": PINNED,
        "seed": seed,
        "git_commit": commit or "not a git checkout",
        "src_sha256": tree_digest(root / "src"),
    }


def median(values):
    return float(statistics.median(values))


def finite(value):
    """JSON has no NaN: a metric a failed run could not produce reads 0."""
    return value if math.isfinite(value) else 0.0


def untraced(bench, workload, seed, seconds, expected):
    """Repeat the workload within ``seconds`` (at least once); end-to-end metrics."""
    reps = []
    started = time.perf_counter()
    while True:
        where = bench.fresh_dir(f"rep{len(reps)}")
        cache = bench.cache_for(workload, where)
        report = where / "report.json"
        argv = [sys.executable, "-m", "repro",
                *workload.command(seed, str(cache), str(report))]
        child = bench.run(argv, bench.env(cache), where / "log",
                          sample_every=SAMPLE_EVERY_S)
        outcome = bench.check(workload, child.status, report, expected, seed)
        wall, cpu = child.scaled()
        reps.append((child, outcome, wall, cpu))
        print(f"rep {len(reps)}: wall {child.wall_s:.3f}s cpu {child.cpu_s:.3f}s "
              f"(reference {wall:.3f}s {cpu:.3f}s, {len(child.samples)} samples) "
              f"rss {child.rss_mb:.1f}MB level_min {outcome.level_min:.6g} "
              f"certified {outcome.certified_points:g} "
              f"{'ok' if outcome.ok else 'FAILED: ' + '; '.join(outcome.problems)}")
        if outcome.ok:
            bench.record_wall(workload.name, wall)
        shutil.rmtree(where, ignore_errors=True)
        elapsed = time.perf_counter() - started
        # Start another repetition only if it should end within ``seconds``
        # and well within the run's budget.
        if (elapsed + child.wall_s > seconds
                or elapsed + 1.5 * child.wall_s > RUN_BUDGET_S):
            break
    passed = [o for _, o, _, _ in reps if o.ok] or [o for _, o, _, _ in reps]
    metrics = {
        "wall_s": median([wall for _, _, wall, _ in reps]),
        "cpu_s": median([cpu for _, _, _, cpu in reps]),
        "peak_rss_mb": median([c.rss_mb for c, _, _, _ in reps]),
        "ok_frac": sum(o.ok for _, o, _, _ in reps) / len(reps),
        "level_min": median([o.level_min for o in passed]),
        "certified_points": median([o.certified_points for o in passed]),
    }
    return metrics, len(reps), sum(not o.ok for _, o, _, _ in reps)


def traced(bench, workload, seed, expected):
    """One traced run; per-layer metrics, cross-checked with the report."""
    walls = bench.state["walls"].get(workload.name)
    failed = 0
    attempted = 0
    if not walls:
        # The tracing overhead needs an untraced time of this workload.
        _, extra_attempted, failed = untraced(bench, workload, seed, 0, expected)
        attempted += extra_attempted
        walls = bench.state["walls"].get(workload.name) or [float("nan")]
    where = bench.fresh_dir("traced")
    cache = bench.cache_for(workload, where)
    report = where / "report.json"
    spans_path = where / "spans.json"
    argv = [sys.executable, str(HERE / "layers.py"), str(spans_path),
            *workload.command(seed, str(cache), str(report))]
    # No stops during a traced run: they would land inside its spans.
    child = bench.run(argv, bench.env(cache), where / "log")
    attempted += 1
    try:
        spans = json.loads(spans_path.read_text())
        status = spans["status"]
    except (OSError, ValueError, KeyError) as exc:
        spans, status = {"metrics": {}, "setup_s": 0.0, "spanned_s": 0.0}, child.status
        print(f"traced run wrote no spans: {exc}")
    outcome = bench.check(workload, status, report, expected, seed)
    layer = dict(spans["metrics"])
    for name, reported in (("sdp.solves", outcome.solves),
                           ("sdp.iterations", outcome.iterations),
                           ("engine.cache_hits", outcome.cache_hits)):
        if reported is not None and layer.get(name) != reported:
            outcome.problems.append(f"traced {name} = {layer.get(name)} but the "
                                    f"report says {reported}")
    # ``engine.run`` and ``sweep.run`` enclose the whole command: their self
    # time is the time no layer accounts for, so it is not covered.
    covered = (spans["setup_s"] + spans["spanned_s"]
               - layer.get("engine.run_s", 0.0) - layer.get("sweep.run_s", 0.0))
    layer["trace.coverage"] = covered / child.wall_s
    reference = child.scaled()[0]
    layer["trace.overhead_s"] = reference - median(walls)
    print(f"traced: wall {child.wall_s:.3f}s (reference {reference:.3f}s, "
          f"untraced median {median(walls):.3f}s of {len(walls)}) "
          f"coverage {layer['trace.coverage']:.4f} "
          f"{'ok' if outcome.ok else 'FAILED: ' + '; '.join(outcome.problems)}")
    shutil.rmtree(where, ignore_errors=True)
    return layer, attempted, failed + (not outcome.ok)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # child is killed and reaped before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print(f"error: {root} is not a repro source checkout (no src/repro)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    table = declared["per_layer" if args.trace else "end_to_end"]

    bench = None
    try:
        bench = Bench(root)
        print("env " + json.dumps(environment(root, args.seed, bench),
                                  sort_keys=True))
        bench.ensure_snapshot()
        repeats = SETUP_REPEATS // 2 if not args.trace else 1
        probes = [bench.probe(workload) for _ in range(repeats)]
        expected = probes[0][1]
        if args.trace:
            metrics, attempted, failed = traced(bench, workload, args.seed, expected)
        else:
            metrics, attempted, failed = untraced(bench, workload, args.seed,
                                                  args.seconds, expected)
            probes += [bench.probe(workload) for _ in range(repeats)]
            setup = [seconds for seconds, _ in probes]
            print("setup probes: " + " ".join(f"{value:.3f}s" for value in setup))
            metrics["setup_s"] = median(setup)
        bench.save_state()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()

    names = [entry["name"] for entry in table]
    if failed:
        # A failed traced run may have no spans to report.
        metrics = {name: metrics.get(name, 0.0) for name in names}
    if sorted(names) != sorted(metrics):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(names)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": finite(metrics[entry["name"]]),
                                    "unit": entry["unit"]} for entry in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

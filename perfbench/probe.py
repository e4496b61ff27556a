"""Set-up probe: a fresh interpreter imports ``repro`` and builds one input.

``python perfbench/probe.py verify pll3`` builds the scenario and plans its
job DAG; ``python perfbench/probe.py sweep pll3_ip_ladder 200`` expands the
sweep family.  Either prints, as JSON, what the output check of a run needs
(the planned job ids, or the number of points) and ``setup_s``: the time
from the start of this script, before any import, to the end of the build.
Timing inside the process leaves out interpreter start-up and teardown,
whose jitter would otherwise swamp a change of a few percent.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    kind, name = argv[0], argv[1]
    if kind == "verify":
        from repro.engine import EngineOptions, VerificationEngine

        plan = VerificationEngine(EngineOptions()).plan(name)
        shape = {"jobs": sorted(spec.job_id for spec in plan)}
    elif kind == "sweep":
        from repro.sweep import SweepOptions, SweepRunner

        runner = SweepRunner(SweepOptions(samples=int(argv[2])))
        family = runner.resolve_family(name)
        shape = {"points": sum(1 for _ in family.points())}
    else:
        print(f"unknown probe kind {kind!r}", file=sys.stderr)
        return 2
    shape["setup_s"] = time.perf_counter() - START
    print(json.dumps(shape))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

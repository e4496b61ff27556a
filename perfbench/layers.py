"""Traced run of one ``repro`` command: per-layer self time and counts.

Run as a child process by ``run.py``::

    python perfbench/layers.py OUT.json verify pll3 --jobs 1 ...

It wraps public functions of each ``repro`` layer from the outside (nothing
under ``src/`` changes), calls ``repro.__main__.main`` in this process, and
writes the layer metrics and the command's exit status to ``OUT.json``.

A span is one call of a wrapped function.  A layer's self time is its spans'
duration minus the time of the wrapped calls nested inside them.  A call
made while a span of the same group is open is not a new span
(``validate_decrease_along_field`` calling ``validate_nonnegativity``, a
parametric compile calling ``SOSProgram.compile``): its time and counts
belong to the outer span.  Counts are taken at the same span boundaries.
Import and start-up, up to the call of ``main``, form the ``setup`` span.
"""

import time

START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

#: (module, attribute, span group).  ``attribute`` is ``Class.method`` or a
#: module-level function; one group may cover several functions.
TARGETS = (
    ("repro.sdp.admm", "ADMMConicSolver.solve", "sdp.serial_loop"),
    ("repro.sdp.batch", "BatchADMMSolver.solve", "sdp.batch_loop"),
    ("repro.sdp.batch", "BatchADMMSolver.solve_batch", "sdp.batch_loop"),
    ("repro.sdp.backend", "NumpyBackend.eigh", "sdp.eigh"),
    ("repro.sdp.backend", "NumpyBackend.kkt_factor", "sdp.kkt_factor"),
    ("repro.sdp.cones", "project_onto_cone", "sdp.project"),
    ("repro.sdp.cones", "project_onto_cone_many", "sdp.project"),
    ("repro.sdp.scaling", "presolve", "sdp.presolve"),
    ("repro.sos.program", "SOSProgram.compile", "sos.compile"),
    ("repro.sos.parametric", "ParametricSOSProgram.compile", "sos.compile"),
    ("repro.sos.parametric", "MultiParametricSOSProgram.compile", "sos.compile"),
    ("repro.sos.parametric", "ParametricSOSProgram.bind", "sos.bind"),
    ("repro.sos.parametric", "ParametricSOSProgram.bind_many", "sos.bind"),
    ("repro.sos.parametric", "MultiParametricSOSProgram.bind", "sos.bind"),
    ("repro.sos.validation", "validate_nonnegativity", "sos.validate"),
    ("repro.sos.validation", "validate_decrease_along_field", "sos.validate"),
    ("repro.sos.validation", "minimum_on_level_set", "sos.validate"),
    ("repro.polynomial.polynomial", "Polynomial.evaluate", "polynomial.evaluate"),
    ("repro.polynomial.polynomial", "PolynomialStack.evaluate",
     "polynomial.evaluate"),
    ("repro.polynomial.polynomial", "Polynomial.evaluate_many",
     "polynomial.evaluate_many"),
    ("repro.polynomial.polynomial", "PolynomialStack.evaluate_many",
     "polynomial.evaluate_many"),
    ("repro.analysis.falsification", "run_falsification", "analysis.falsify"),
    ("repro.analysis.falsification", "simulate_relay_abstraction",
     "analysis.relay_sim"),
    ("repro.hybrid.simulation", "HybridSimulator.simulate", "hybrid.simulate"),
    ("repro.hybrid.simulation", "HybridSimulator.simulate_batch",
     "hybrid.simulate"),
    ("repro.core.lyapunov", "MultipleLyapunovSynthesizer.synthesize",
     "core.lyapunov"),
    ("repro.core.levelset", "LevelSetMaximizer.maximize", "core.levelset"),
    ("repro.core.inevitability", "run_mode_property_two", "core.advection"),
    ("repro.engine.engine", "VerificationEngine.run", "engine.run"),
    ("repro.engine.cache", "CertificateCache.get", "engine.cache_get"),
    ("repro.engine.cache", "CertificateCache.put", "engine.cache_put"),
    ("repro.scenarios.registry", "build_problem", "scenarios.build"),
    ("repro.sweep.planner", "SweepRunner.run", "sweep.run"),
    ("repro.sweep.probe", "run_sweep_shard", "sweep.shard"),
)

#: Imported before patching, so that every ``from x import f`` copy of a
#: wrapped function already exists and is replaced as well.
PRELOAD = ("repro.__main__", "repro.engine.engine", "repro.sweep.planner",
           "repro.sweep.probe", "repro.core.inevitability")

SOLVER_GROUPS = frozenset({"sdp.serial_loop", "sdp.batch_loop"})


class Tracer:
    """In-memory span aggregation: self time and span count per group."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.spans = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_s = 0.0
        self.open = set()
        # Time of the wrapped calls nested in each open span, innermost last.
        self._children = []

    def wrap(self, group, fn, on_result=None):
        clock = time.perf_counter
        opened = self.open
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group in opened:
                return fn(*args, **kwargs)
            opened.add(group)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                opened.discard(group)
                self.self_s[group] += elapsed - children.pop()
                self.spans[group] += 1
                if children:
                    children[-1] += elapsed
                else:
                    self.root_s += elapsed
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def metrics(self):
        """Every per-layer metric, by its name in ``BENCHMARK.json``."""
        s, n, c = self.self_s, self.spans, self.counts
        solves = c["sdp.solves"]
        out = {
            "sdp.solves": solves,
            "sdp.iterations": c["sdp.iterations"],
            "sdp.iterations_max": c["sdp.iterations_max"],
            "sdp.capped_frac": c["sdp.capped"] / solves if solves else 0.0,
            "sdp.serial_loop_s": s["sdp.serial_loop"],
            "sdp.batch_loop_s": s["sdp.batch_loop"],
            "sdp.eigh_calls": n["sdp.eigh"],
            "sdp.eigh_blocks": c["sdp.eigh_blocks"],
            "sdp.eigh_s": s["sdp.eigh"],
            "sdp.project_s": s["sdp.project"],
            "sdp.kkt_factor_calls": n["sdp.kkt_factor"],
            "sdp.kkt_factor_s": s["sdp.kkt_factor"],
            "sdp.kkt_solve_calls": n["sdp.kkt_solve"],
            "sdp.kkt_solve_s": s["sdp.kkt_solve"],
            "sdp.presolve_s": s["sdp.presolve"],
            "sos.compile_calls": n["sos.compile"],
            "sos.compile_s": s["sos.compile"],
            "sos.bind_calls": n["sos.bind"],
            "sos.bind_s": s["sos.bind"],
            "sos.validate_calls": n["sos.validate"],
            "sos.validate_s": s["sos.validate"],
            "sos.validate_samples": c["sos.validate_samples"],
            "sos.validate_in_domain": c["sos.validate_in_domain"],
            "polynomial.evaluate_calls": n["polynomial.evaluate"],
            "polynomial.evaluate_s": s["polynomial.evaluate"],
            "polynomial.evaluate_many_calls": n["polynomial.evaluate_many"],
            "polynomial.evaluate_many_s": s["polynomial.evaluate_many"],
            "analysis.falsify_s": s["analysis.falsify"],
            "analysis.relay_sim_calls": n["analysis.relay_sim"],
            "analysis.relay_sim_s": s["analysis.relay_sim"],
            "hybrid.simulate_calls": n["hybrid.simulate"],
            "hybrid.simulate_s": s["hybrid.simulate"],
            "core.lyapunov_s": s["core.lyapunov"],
            "core.levelset_s": s["core.levelset"],
            "core.advection_s": s["core.advection"],
            "engine.run_s": s["engine.run"],
            "engine.cache_lookups": n["engine.cache_get"],
            "engine.cache_hits": c["engine.cache_hits"],
            "engine.cache_get_s": s["engine.cache_get"],
            "engine.cache_writes": n["engine.cache_put"],
            "engine.cache_put_s": s["engine.cache_put"],
            "engine.cache_bytes": c["engine.cache_bytes"],
            "scenarios.build_s": s["scenarios.build"],
            "sweep.run_s": s["sweep.run"],
            "sweep.points": c["sweep.points"],
            "sweep.sampling_rejects": c["sweep.sampling_rejects"],
            "sweep.shard_s": s["sweep.shard"],
        }
        return {name: float(value) for name, value in out.items()}


class _TracedFactorization:
    """A KKT factorization whose ``solve`` is an ``sdp.kkt_solve`` span."""

    __slots__ = ("solve",)

    def __init__(self, inner, tracer):
        self.solve = tracer.wrap("sdp.kkt_solve", inner.solve)


def _result_hooks(tracer):
    """Counts read from what a wrapped call returns, keyed by span group."""
    counts = tracer.counts
    capped = importlib.import_module("repro.sdp.result").SolverStatus.MAX_ITERATIONS

    def solved(results):
        # Only the outermost solver span counts: a batch that falls back to
        # serial solves must not count its problems twice.
        if tracer.open & SOLVER_GROUPS:
            return
        for result in results:
            iterations = int(result.iterations or 0)
            counts["sdp.solves"] += 1
            counts["sdp.iterations"] += iterations
            counts["sdp.iterations_max"] = max(counts["sdp.iterations_max"],
                                               iterations)
            counts["sdp.capped"] += result.status is capped

    def eigh(result, args):
        matrices = args[1]
        counts["sdp.eigh_blocks"] += matrices.shape[0] if matrices.ndim == 3 else 1

    def validate(result, args):
        counts["sos.validate_samples"] += getattr(result, "num_samples", 0)
        counts["sos.validate_in_domain"] += getattr(result, "num_in_domain", 0)

    def cache_get(result, args):
        counts["engine.cache_hits"] += result is not None

    def cache_put(result, args):
        cache, key = args[0], args[1]
        counts["engine.cache_bytes"] += cache.path_for(key).stat().st_size

    def shard(result, args):
        points = result[2].get("points", [])
        counts["sweep.points"] += len(points)
        counts["sweep.sampling_rejects"] += sum(
            1 for point in points if not point.get("sampling"))

    return {
        "sdp.serial_loop": lambda result, args: solved([result]),
        "sdp.batch_loop": lambda result, args: solved(
            result if isinstance(result, list) else [result]),
        "sdp.eigh": eigh,
        "sos.validate": validate,
        "engine.cache_get": cache_get,
        "engine.cache_put": cache_put,
        "sweep.shard": shard,
    }


def install(tracer):
    """Replace every target, and every module-level alias of it, by a span."""
    for name in PRELOAD:
        importlib.import_module(name)
    hooks = _result_hooks(tracer)
    replaced = {}
    for module_name, attribute, group in TARGETS:
        owner = importlib.import_module(module_name)
        *cls_path, leaf = attribute.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(group, original, hooks.get(group))
        if group == "sdp.kkt_factor":
            factor = wrapped

            @functools.wraps(original)
            def wrapped(self, kkt, _factor=factor):
                return _TracedFactorization(_factor(self, kkt), tracer)
        setattr(owner, leaf, wrapped)
        if not cls_path:
            replaced[id(original)] = (original, wrapped)
    # ``from .scaling import presolve`` and the like bind the function in the
    # importing module too; rebind those copies.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                namespace[key] = entry[1]


def main(argv):
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.__main__ import main as repro_main

    setup_s = time.perf_counter() - START
    try:
        status = repro_main(command)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    with open(out_path, "w") as handle:
        json.dump({"status": status, "setup_s": setup_s,
                   "spanned_s": tracer.root_s, "metrics": tracer.metrics()},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

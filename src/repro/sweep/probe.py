"""Per-point recertification probes: the sweep shard's worker-side half.

A shard receives a batch of parameter points plus the *anchor* Lyapunov
certificates (synthesised once per family at the nominal parameters) and
decides, for every point, whether the anchor certificates remain valid and
under which Gram-cone rung — the frontier's "cheapest certifying
relaxation".

Only the decrease condition (Theorem 1(b)) depends on the swept dynamics:
positivity and jump non-increase constrain the fixed certificate polynomials
alone, so they are established once at the anchor and hold verbatim at every
point.  Per point, acceptance mirrors the synthesis pipeline's ladder:

1. deterministic sampling validation of the Lie-derivative decrease at the
   point's dynamics (seeded, pure NumPy — the decisive gate, and a cheap
   filter that skips conic solves in clearly-degraded regions);
2. a conic decrease-probe solve per ladder rung; cheap rungs (dsos/sdsos/
   chordal) are accepted only when the recovered Gram certificates are
   numerically sound in the full PSD sense, the final rung accepts the
   solver's candidate — exactly `MultipleLyapunovSynthesizer.synthesize`'s
   escalation semantics applied to a fixed certificate.

A shard runs step 1 on every point first, then climbs the ladder one rung
at a time: all points still uncertified solve that rung's probe as one
batch (:meth:`SolveContext.solve_many`, whose per-problem results match
solving each point alone), and each point then applies the acceptance rules
above to its own result.

The conic data of each rung's probe family is decomposed affinely over the
sweep axes by :class:`~repro.sos.parametric.MultiParametricSOSProgram`
(one structural compile per rung, pure array re-assembly per point); axes
that enter the dynamics non-affinely (e.g. the PLL's ``c2``) are detected by
the compile-time affinity check and transparently fall back to per-point
rebuilds, reported as ``structure_mode: "rebuild"``.

Every solve goes through the job's :class:`SolveContext` and therefore the
content-addressed certificate cache: a warm re-sweep performs zero SDP
solves, and a perturbed grid re-solves only the changed points.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.lyapunov import MultipleLyapunovSynthesizer
from ..engine.serialize import certificates_from_data
from ..scenarios.registry import build_problem
from ..sdp import SolveContext, cone_for_relaxation
from ..sos import MultiParametricSOSProgram, ParametricProgramError
from ..utils import get_logger

LOGGER = get_logger("sweep.probe")


def _point_problem(scenario: str, params: Dict[str, float]):
    problem = build_problem(scenario, params=params or None)
    if problem.options.lyapunov.domain_boxes is None:
        problem.options.lyapunov.domain_boxes = problem.state_bounds()
    return problem


def _synthesizer(problem, context: SolveContext) -> MultipleLyapunovSynthesizer:
    return MultipleLyapunovSynthesizer(
        problem.system, options=problem.options.lyapunov, context=context)


class _Pending(NamedTuple):
    """A point that passed sampling and still climbs the ladder."""

    outcome: Dict[str, object]
    params: Dict[str, float]
    options: object
    settings: Dict[str, object]
    validated: bool


class _RungStructure:
    """One Gram-cone rung's compiled probe structure over the sweep axes."""

    def __init__(self, scenario: str, rung: str, certificates,
                 anchor_params: Dict[str, float],
                 base: Dict[str, float], steps: Dict[str, float],
                 context: SolveContext):
        self.rung = rung
        self.cone = cone_for_relaxation(rung)
        self.rebuild_compiles = 0
        self._scenario = scenario
        self._certificates = certificates
        self._anchor = dict(anchor_params)
        self._context = context

        def build_at(params: Dict[str, float]):
            return self._probe_program(params)

        self.family: Optional[MultiParametricSOSProgram] = None
        try:
            family = MultiParametricSOSProgram(
                build_at, base=base, steps=steps, context=context,
                name=f"sweep_{scenario}_{rung}")
            family.compile()
            self.family = family
            self.mode = "parametric"
        except ParametricProgramError as exc:
            # Non-affine axis (or structure change across the range): every
            # point of this rung pays a full rebuild instead.
            LOGGER.info("sweep %s/%s: parametric fast path unavailable (%s); "
                        "falling back to per-point rebuilds",
                        scenario, rung, exc)
            self.mode = "rebuild"

    def _probe_program(self, params: Dict[str, float]):
        problem = _point_problem(self._scenario, {**self._anchor, **params})
        synthesizer = _synthesizer(problem, self._context)
        return synthesizer.decrease_probe_program(
            self._certificates, cone=self.cone,
            name=f"sweep_probe_{self._scenario}_{self.rung}")

    def probe_at(self, params: Dict[str, float]):
        """The point's conic problem and the ``interpret(result, ...)`` that
        maps its solver result back onto SOS certificates: an array bind of
        the family, or a rebuilt program of the point's own."""
        if self.family is not None:
            return self.family.bind(params), self.family.interpret
        program = self._probe_program(params)
        self.rebuild_compiles += 1
        return program.compile()[0].build(), program.interpret_result

    def stats(self) -> Dict[str, object]:
        parametric = self.family
        return {
            "mode": self.mode,
            "parametric_compiles": 1 if parametric is not None else 0,
            "structure_compiles": (parametric.num_structure_compiles
                                   if parametric is not None else 0),
            "binds": parametric.num_binds if parametric is not None else 0,
            "rebuild_compiles": self.rebuild_compiles,
        }


def run_sweep_shard(payload: Dict[str, object], context: SolveContext
                    ) -> Tuple[str, str, Dict[str, object]]:
    """Execute one sweep shard: certify every point, report cheapest rungs.

    Payload keys: ``scenario``, ``certificates`` (anchor certificates on the
    wire), ``rungs`` (the relaxation ladder, cheapest first), ``base`` /
    ``steps`` (the affine parametrization anchors), ``anchor_params``,
    ``points`` (``[{"index": int, "params": {axis: value}}, ...]``) and
    optional ``probe_settings`` / ``backend`` overrides.
    """
    scenario = str(payload["scenario"])
    certificates = certificates_from_data(payload["certificates"])
    rungs = [str(r) for r in payload["rungs"]]
    anchor_params = {k: float(v)
                     for k, v in (payload.get("anchor_params") or {}).items()}
    base = {k: float(v) for k, v in payload["base"].items()}
    steps = {k: float(v) for k, v in payload["steps"].items()}
    probe_settings = dict(payload.get("probe_settings") or {})
    backend = payload.get("backend")

    structures: Dict[str, _RungStructure] = {}

    def structure_for(rung: str) -> _RungStructure:
        if rung not in structures:
            structures[rung] = _RungStructure(
                scenario, rung, certificates, anchor_params, base, steps,
                context)
        return structures[rung]

    # Pass 1: sampling validation of every point.
    outcomes: List[Dict[str, object]] = []
    pending: List[_Pending] = []
    for entry in payload["points"]:
        index = int(entry["index"])
        params = {k: float(v) for k, v in entry["params"].items()}
        problem = _point_problem(scenario, {**anchor_params, **params})
        options = problem.options.lyapunov
        settings = dict(options.solver_settings)
        settings.update(probe_settings)

        synthesizer = _synthesizer(problem, context)
        reports = synthesizer.validate_certificate_decrease(certificates)
        # With sampling disabled (validate_samples=0) the conic solve is the
        # only evidence, so the final rung then demands full convergence
        # instead of accepting any candidate.
        validated = bool(reports)
        sampling_ok = all(r.passed for r in reports) if validated else True

        outcome: Dict[str, object] = {
            "index": index,
            "params": {k: params[k] for k in sorted(params)},
            "certified": False,
            "rung": None,
            "sampling": sampling_ok,
            "attempts": [],
        }
        outcomes.append(outcome)
        if sampling_ok:
            pending.append(_Pending(outcome, params, options, settings, validated))

    # Pass 2, the ladder: cheapest rung first, one batched solve per rung
    # over every point still uncertified.  The final rung accepts the
    # solver candidate (sampling already passed), cheaper rungs must also
    # reconstruct numerically sound PSD Gram matrices.
    for position, rung in enumerate(rungs):
        if not pending:
            break
        final = position == len(rungs) - 1
        settings = pending[0].settings
        if any(point.settings != settings for point in pending[1:]):
            raise ValueError(
                f"sweep shard of {scenario!r}: the points of rung {rung!r} "
                "resolve to different solver settings and cannot share a "
                "batched solve")
        structure = structure_for(rung)
        probes = [structure.probe_at(point.params) for point in pending]
        results = context.solve_many([conic for conic, _ in probes],
                                     backend=backend, **settings)
        uncertified = []
        for point, (_, interpret), result in zip(pending, probes, results):
            point.outcome["attempts"].append(rung)
            if _accepted(result, interpret, point.options, final, point.validated):
                point.outcome["certified"] = True
                point.outcome["rung"] = rung
            else:
                uncertified.append(point)
        pending = uncertified

    outcomes.sort(key=lambda o: o["index"])
    certified = sum(1 for o in outcomes if o["certified"])
    data = {
        "points": outcomes,
        "structures": {rung: structure.stats()
                       for rung, structure in structures.items()},
    }
    detail = f"{certified}/{len(outcomes)} point(s) recertified"
    return "ok", detail, data


def _accepted(result, interpret, options, final: bool, validated: bool) -> bool:
    """Does one rung's probe result certify its point?"""
    if result.x is None:
        return False
    if final:
        return validated or result.is_success
    solution = interpret(result, with_certificates=True)
    return bool(solution.certificates) and all(
        certificate.is_numerically_sos(
            eig_tol=options.relaxation_eig_tol,
            res_tol=options.relaxation_res_tol)
        for certificate in solution.certificates.values())

"""Simulation-based falsification and cross-validation of verification claims.

The SOS pipeline is only as trustworthy as its numerical certificates, so the
library ships an independent check: simulate the system (verification-model
abstraction or full behavioural PLL), project the trajectories into the
certificate coordinates, and test the claims directly —

* trajectories starting inside the attractive invariant must converge to the
  lock neighbourhood and must never leave the invariant;
* the per-mode Lyapunov certificates must be non-increasing along in-mode
  flow segments (up to the configured tolerance);
* trajectories starting in the outer set must reach the invariant within the
  bounded time implied by the advection iterations.

A failed check is reported as a :class:`FalsificationFinding` with the
offending trajectory so it can be inspected or turned into a regression test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.attractive import AttractiveInvariant
from ..pll.model import PLLVerificationModel
from ..polynomial import PolynomialStack

RelayTrajectory = np.ndarray  # shape (steps + 1, n) or (B, steps + 1, n)


@dataclass
class FalsificationFinding:
    """One violated claim discovered by simulation."""

    claim: str
    initial_state: np.ndarray
    worst_value: float
    step_index: int

    def __str__(self) -> str:
        return (f"{self.claim}: violation {self.worst_value:.3e} at step {self.step_index} "
                f"from x0={np.round(self.initial_state, 4).tolist()}")


class FalsificationFindings(list):
    """The findings of one :func:`run_falsification` campaign and its evidence.

    A plain list of :class:`FalsificationFinding`.  ``states`` counts the
    simulated initial states and ``decrease_pairs`` maps each certificate's
    mode to the consecutive in-mode sample pairs its decrease check compared,
    so a vacuous check (``0`` pairs) is visible rather than silently passed.
    """

    def __init__(self, findings: Sequence[FalsificationFinding] = (),
                 states: int = 0, decrease_pairs: Optional[Dict[str, int]] = None):
        super().__init__(findings)
        self.states = states
        self.decrease_pairs = dict(decrease_pairs or {})

    def summary(self) -> str:
        text = f"{self.states} states"
        if self.decrease_pairs:
            text += "; decrease pairs " + " ".join(
                f"{mode}={count}" for mode, count in self.decrease_pairs.items())
        return text


def _step_count(duration: float, dt: float) -> int:
    # Rounding, not truncation: 0.3 / 0.1 is 2.9999999999999996.
    return int(round(duration / dt))


def _state_batch(model: PLLVerificationModel,
                 initial_states: Sequence[Sequence[float]]) -> np.ndarray:
    return np.asarray(initial_states, dtype=float).reshape(
        -1, len(model.state_variables))


def simulate_relay_abstraction(model: PLLVerificationModel,
                               initial_state: Sequence[float],
                               duration: float = 60.0,
                               dt: float = 1e-3) -> RelayTrajectory:
    """Forward-Euler simulation of the sign-of-``e`` switching abstraction.

    This is the executable counterpart of the verification model: the charge
    pump is up whenever the phase difference is positive and down whenever it
    is negative (mode 1 is a measure-zero sliding surface in this abstraction).

    ``initial_state`` is one state ``(n,)``, giving a ``(steps + 1, n)``
    trajectory, or a batch ``(B, n)``, giving ``(B, steps + 1, n)``.  A batch
    advances in lockstep: each Euler step is one stacked evaluation of all
    three mode fields at every state, and each row keeps its own mode's rows.
    """
    fields = model.nominal_fields()
    # Stacked in the order of the per-row pick: idle (e == 0), up, down.
    stack = PolynomialStack(
        [component for mode in ("mode1", "mode2", "mode3")
         for component in fields[mode]],
        model.state_variables)
    states = np.array(initial_state, dtype=float)
    single = states.ndim == 1
    states = np.atleast_2d(states)
    batch, n = states.shape
    rows = np.arange(batch)
    steps = _step_count(duration, dt)
    trajectory = np.empty((batch, steps + 1, n))
    trajectory[:, 0] = states
    for k in range(steps):
        e = states[:, -1]
        mode = (e > 0) + 2 * (e < 0)
        derivative = stack.evaluate_many(states).reshape(batch, 3, n)[rows, mode]
        states = states + dt * derivative
        trajectory[:, k + 1] = states
    return trajectory[0] if single else trajectory


def _convergence_findings(states: np.ndarray, trajectories: np.ndarray,
                          invariant: AttractiveInvariant, lock_radius: float,
                          tolerance: float, check_invariance: bool,
                          tube_radius: Optional[float]) -> List[FalsificationFinding]:
    findings: List[FalsificationFinding] = []
    for x0, trajectory in zip(states, trajectories):
        # Membership is only swept when the invariance claim is checked.
        inside_mask = invariant.contains_points(trajectory) if check_invariance else None
        if inside_mask is not None and inside_mask.any():
            first_inside = int(np.argmax(inside_mask))
            later = trajectory[first_inside::25]
            margins = invariant.membership_margins(later)
            if tube_radius is not None:
                off_tube = np.linalg.norm(later[:, :-1], axis=1) > tube_radius
                margins = margins[off_tube]
            worst = float(margins.max()) if margins.size else 0.0
            if worst > tolerance:
                findings.append(FalsificationFinding(
                    claim="forward invariance of X1",
                    initial_state=x0.copy(),
                    worst_value=worst,
                    step_index=first_inside,
                ))
        final_voltages = trajectory[-1][:-1]
        if np.linalg.norm(final_voltages) > lock_radius:
            findings.append(FalsificationFinding(
                claim="convergence to the lock neighbourhood",
                initial_state=x0.copy(),
                worst_value=float(np.linalg.norm(final_voltages)),
                step_index=trajectory.shape[0] - 1,
            ))
    return findings


def _decrease_findings(states: np.ndarray, trajectories: np.ndarray,
                       certificates: Dict[str, "np.ndarray"], tolerance: float,
                       tube_radius: float
                       ) -> Tuple[List[FalsificationFinding], Dict[str, int]]:
    """Decrease findings, and the sample pairs compared per mode."""
    findings: List[FalsificationFinding] = []
    pairs = {mode_name: 0 for mode_name in certificates}
    for x0, trajectory in zip(states, trajectories):
        e_values = trajectory[:, -1]
        voltage_norm = np.linalg.norm(trajectory[:, :-1], axis=1)
        for mode_name, certificate in certificates.items():
            if mode_name == "mode2":
                mask = e_values > 1e-6
            elif mode_name == "mode3":
                mask = e_values < -1e-6
            else:
                mask = np.abs(e_values) <= 1e-6
            # Only count decrease where the practical-stability tube does not apply.
            steps = np.flatnonzero(mask & (voltage_norm > tube_radius))
            if steps.size < 3:
                continue
            values = certificate.evaluate_many(trajectory[steps])
            consecutive = np.diff(steps) == 1
            increases = np.diff(values)[consecutive]
            ends = steps[1:][consecutive]
            pairs[mode_name] += int(increases.size)
            if increases.size and float(increases.max()) > tolerance:
                worst = int(np.argmax(increases))
                findings.append(FalsificationFinding(
                    claim=f"V non-increasing along {mode_name} flow",
                    initial_state=x0.copy(),
                    worst_value=float(increases[worst]),
                    step_index=int(ends[worst]),
                ))
    return findings, pairs


def check_invariant_convergence(
    model: PLLVerificationModel,
    invariant: AttractiveInvariant,
    initial_states: Optional[Sequence[Sequence[float]]] = None,
    duration: float = 80.0,
    dt: float = 1e-3,
    lock_radius: float = 0.6,
    tolerance: float = 1e-4,
    count: int = 8,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    check_invariance: bool = True,
    tube_radius: Optional[float] = None,
) -> List[FalsificationFinding]:
    """Simulate from each initial state and test convergence / invariance claims.

    ``initial_states`` may be omitted, in which case ``count`` states are
    drawn inside the outer set with the explicit ``rng`` (or ``seed``), making
    a run reproducible end to end without the caller materialising states.

    The invariance claim tests the *union* of the per-mode level sets, which
    is strictly stronger than what per-mode certificates with independent
    levels imply (the union is only guaranteed invariant when the levels are
    cross-mode compatible).  ``check_invariance=False`` skips it;
    ``tube_radius`` exempts samples whose voltage deviation lies inside the
    practical-stability tube, where the decrease condition was deliberately
    not enforced.
    """
    if initial_states is None:
        initial_states = random_initial_states(model, count, rng=rng, seed=seed)
    states = _state_batch(model, initial_states)
    if states.shape[0] == 0:
        return []
    trajectories = simulate_relay_abstraction(model, states, duration=duration, dt=dt)
    return _convergence_findings(states, trajectories, invariant, lock_radius,
                                 tolerance, check_invariance, tube_radius)


def check_certificate_decrease_along_trajectories(
    model: PLLVerificationModel,
    certificates: Dict[str, "np.ndarray"],
    initial_states: Optional[Sequence[Sequence[float]]] = None,
    duration: float = 20.0,
    dt: float = 1e-3,
    tolerance: float = 1e-3,
    count: int = 8,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    tube_radius: float = 0.55,
) -> List[FalsificationFinding]:
    """Check that each mode's certificate is non-increasing during that mode's flow.

    ``certificates`` maps mode name to a numeric polynomial (the synthesised
    Lyapunov function).  Only samples where the trajectory stays in one mode
    between consecutive steps are compared, and only outside the
    practical-stability tube of radius ``tube_radius`` (where the decrease
    condition was enforced).  A finding's ``step_index`` is the trajectory
    step ``k`` of the worst increase ``V(x[k]) - V(x[k - 1])``.  As with
    :func:`check_invariant_convergence`, omitted ``initial_states`` are drawn
    with the explicit ``rng``/``seed``.
    """
    if initial_states is None:
        initial_states = random_initial_states(model, count, rng=rng, seed=seed)
    states = _state_batch(model, initial_states)
    if states.shape[0] == 0:
        return []
    trajectories = simulate_relay_abstraction(model, states, duration=duration, dt=dt)
    findings, _ = _decrease_findings(states, trajectories, certificates,
                                     tolerance, tube_radius)
    return findings


def run_falsification(
    model: PLLVerificationModel,
    invariant: AttractiveInvariant,
    certificates: Optional[Dict[str, "np.ndarray"]] = None,
    initial_states: Optional[Sequence[Sequence[float]]] = None,
    count: int = 8,
    duration: float = 40.0,
    dt: float = 1e-3,
    lock_radius: float = 0.6,
    tolerance: float = 1e-3,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    check_invariance: bool = False,
    tube_radius: Optional[float] = None,
) -> FalsificationFindings:
    """Run the full simulation cross-check with one explicit random stream.

    Draws ``count`` initial states once and simulates them in one batch; the
    invariant-convergence check reads the whole trajectories and the
    certificate-decrease check their first ``min(duration, 20)`` time units,
    so a campaign is fully determined by (``rng`` | ``seed``) — the property
    the verification engine relies on for reproducible runs.

    ``check_invariance`` defaults to off here: the engine's per-mode levels
    are maximised independently, so the union-invariance claim is stronger
    than the synthesised conditions guarantee (see
    :func:`check_invariant_convergence`).  The claims checked by default —
    convergence to the lock neighbourhood and per-mode certificate decrease
    along in-mode flow — are exactly the ones the certificates assert.

    ``initial_states`` overrides the sampling entirely; callers that must
    distinguish "no findings" from "no states could be sampled" (the engine)
    draw the states themselves and pass them in.
    """
    if initial_states is None:
        rng = rng if rng is not None else np.random.default_rng(seed)
        initial_states = random_initial_states(model, count, rng=rng)
    states = _state_batch(model, initial_states)
    if states.shape[0] == 0:
        return FalsificationFindings()
    trajectories = simulate_relay_abstraction(model, states, duration=duration, dt=dt)
    findings = _convergence_findings(states, trajectories, invariant, lock_radius,
                                     tolerance, check_invariance, tube_radius)
    pairs: Dict[str, int] = {}
    if certificates:
        prefix = _step_count(min(duration, 20.0), dt) + 1
        decrease, pairs = _decrease_findings(
            states, trajectories[:, :prefix], certificates, tolerance,
            tube_radius if tube_radius is not None else 0.55)
        findings.extend(decrease)
    return FalsificationFindings(findings, states=states.shape[0],
                                 decrease_pairs=pairs)


def random_initial_states(model: PLLVerificationModel, count: int,
                          scale: float = 0.8, seed: int = 0,
                          rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Random initial states inside the outer ellipsoid (scaled by ``scale``).

    An explicit ``rng`` takes precedence over ``seed``, letting callers thread
    one generator through a whole falsification campaign.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    bounds = model.state_bounds()
    states = []
    outer = model.outer_set_polynomial(margin=scale)
    attempts = 0
    while len(states) < count and attempts < 100 * count:
        candidate = np.array([rng.uniform(lo, hi) for lo, hi in bounds]) * scale
        if outer.evaluate(candidate) <= 0.0:
            states.append(candidate)
        attempts += 1
    return np.array(states) if states else np.zeros((0, len(bounds)))

"""Tests for the analysis helpers (projection, falsification, timing) and utils."""

import logging

import numpy as np
import pytest

from repro.analysis import (
    StageTimer,
    check_certificate_decrease_along_trajectories,
    project_sublevel_set,
    project_union,
    random_initial_states,
    run_falsification,
    simulate_relay_abstraction,
)
from repro.core.attractive import AttractiveInvariant
from repro.core.levelset import MaximizedLevelSet
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.pll import build_third_order_model
from repro.utils import (
    Interval,
    box_center,
    disable_console_logging,
    enable_console_logging,
    get_logger,
    interval_vertices,
)


@pytest.fixture()
def xy():
    x, y = make_variables("x", "y")
    return VariableVector([x, y])


class TestProjection:
    def test_slice_projection_of_disc(self, xy):
        px = Polynomial.from_variable(xy[0], xy)
        py = Polynomial.from_variable(xy[1], xy)
        disc = px * px + py * py - 1.0
        grid = project_sublevel_set(disc, xy, ("x0", "x1") if False else ("x", "y"),
                                    [(-2, 2), (-2, 2)], resolution=41)
        assert 0.1 < grid.occupancy < 0.3        # pi/16 ~ 0.196
        x_min, x_max, y_min, y_max = grid.extent()
        assert x_min == pytest.approx(-1.0, abs=0.15)
        assert x_max == pytest.approx(1.0, abs=0.15)
        assert grid.boundary_points().shape[1] == 2
        assert len(grid.row_summary()) > 0

    def test_shadow_projection_larger_than_slice(self):
        x, y, z = make_variables("x", "y", "z")
        xv = VariableVector([x, y, z])
        px = Polynomial.from_variable(x, xv)
        py = Polynomial.from_variable(y, xv)
        pz = Polynomial.from_variable(z, xv)
        # offset sphere: centred at z = 1, so the z=0 slice is smaller than the shadow
        sphere = px * px + py * py + (pz - 1.0) ** 2 - 1.5
        bounds = [(-2, 2), (-2, 2), (-2, 2)]
        slice_grid = project_sublevel_set(sphere, xv, ("x", "y"), bounds, resolution=31)
        shadow_grid = project_sublevel_set(sphere, xv, ("x", "y"), bounds,
                                           resolution=31, kind="shadow",
                                           hidden_samples=25)
        assert shadow_grid.occupancy >= slice_grid.occupancy

    def test_union_projection(self, xy):
        px = Polynomial.from_variable(xy[0], xy)
        py = Polynomial.from_variable(xy[1], xy)
        left = (px + 1.0) ** 2 + py * py - 0.25
        right = (px - 1.0) ** 2 + py * py - 0.25
        union = project_union([left, right], xy, ("x", "y"), [(-2, 2), (-2, 2)],
                              resolution=41)
        single = project_sublevel_set(left, xy, ("x", "y"), [(-2, 2), (-2, 2)],
                                      resolution=41)
        assert union.occupancy > single.occupancy

    def test_unknown_axis_rejected(self, xy):
        px = Polynomial.from_variable(xy[0], xy)
        with pytest.raises(ValueError):
            project_sublevel_set(px, xy, ("x", "nope"), [(-1, 1), (-1, 1)])


class TestFalsification:
    def test_relay_abstraction_converges_from_moderate_state(self):
        model = build_third_order_model(uncertainty="none")
        trajectory = simulate_relay_abstraction(model, [1.0, -1.0, 0.5],
                                                duration=40.0, dt=2e-3)
        assert trajectory.shape[1] == 3
        final_voltages = trajectory[-1][:2]
        assert np.linalg.norm(final_voltages) < 0.5

    def test_batched_simulation_matches_single_state_and_reference_loop(self):
        model = build_third_order_model(uncertainty="none")
        states = np.array([[1.0, -1.0, 0.5], [-1.5, 1.0, -0.8], [0.3, 0.2, -0.1]])
        batch = simulate_relay_abstraction(model, states, duration=2.0, dt=1e-3)
        assert batch.shape == (3, 2001, 3)
        fields = model.nominal_fields()
        for i, x0 in enumerate(states):
            single = simulate_relay_abstraction(model, x0, duration=2.0, dt=1e-3)
            assert np.max(np.abs(batch[i] - single)) <= 1e-12
            # Plain per-state Euler loop over the sign-of-e relay.
            state = x0.copy()
            reference = [state]
            for _ in range(2000):
                e = state[-1]
                mode = "mode2" if e > 0 else "mode3" if e < 0 else "mode1"
                state = state + 1e-3 * np.array(
                    [component.evaluate(state) for component in fields[mode]])
                reference.append(state)
            assert np.max(np.abs(batch[i] - np.array(reference))) <= 1e-12

    def test_step_count_rounds_instead_of_truncating(self):
        model = build_third_order_model(uncertainty="none")
        assert int(0.3 / 0.1) == 2
        trajectory = simulate_relay_abstraction(model, [1.0, -1.0, 0.5],
                                                duration=0.3, dt=0.1)
        assert trajectory.shape == (4, 3)

    def test_decrease_step_index_is_a_trajectory_step(self):
        # V = v1 along mode2 from this state: the in-mode, off-tube samples
        # form several separate runs, so an index into the masked samples is
        # not a trajectory step.
        model = build_third_order_model(uncertainty="none")
        variables = model.state_variables
        v1 = Polynomial.from_variable(variables[0], variables)
        x0 = [-1.5, 1.0, -0.8]
        findings = check_certificate_decrease_along_trajectories(
            model, {"mode2": v1}, [x0], tolerance=0.0)
        assert len(findings) == 1
        trajectory = simulate_relay_abstraction(model, x0, duration=20.0)
        in_mode = (trajectory[:, -1] > 1e-6) & (
            np.linalg.norm(trajectory[:, :-1], axis=1) > 0.55)
        increases = np.where(in_mode[1:] & in_mode[:-1],
                             np.diff(trajectory[:, 0]), -np.inf)
        worst_step = int(np.argmax(increases)) + 1
        assert worst_step == 1568
        assert findings[0].step_index == worst_step
        assert findings[0].worst_value == pytest.approx(increases[worst_step - 1])

    def test_run_falsification_skips_membership_when_invariance_is_off(self):
        class NoMembership:
            def contains_points(self, points):
                raise AssertionError("membership swept with check_invariance off")

            membership_margins = contains_points

        model = build_third_order_model(uncertainty="none")
        variables = model.state_variables
        v1 = Polynomial.from_variable(variables[0], variables)
        findings = run_falsification(
            model, NoMembership(), certificates={"mode1": v1, "mode2": v1},
            initial_states=[[-1.5, 1.0, -0.8], [1.0, -1.0, 0.5]],
            duration=2.0, lock_radius=5.0, tolerance=1.0, check_invariance=False)
        assert list(findings) == []
        assert findings.states == 2
        assert findings.decrease_pairs["mode1"] == 0
        assert findings.decrease_pairs["mode2"] > 0
        assert findings.summary() == (
            f"2 states; decrease pairs mode1=0 "
            f"mode2={findings.decrease_pairs['mode2']}")

    def test_run_falsification_reports_leaving_the_invariant(self):
        model = build_third_order_model(uncertainty="none")
        variables = model.state_variables
        x0 = np.array([1.0, -1.0, 0.5])
        # A small ball around the start: the trajectory begins inside it and
        # flows out.
        ball = Polynomial.zero(variables)
        for variable, centre in zip(variables, x0):
            offset = Polynomial.from_variable(variable, variables) - float(centre)
            ball = ball + offset * offset
        invariant = AttractiveInvariant(
            {"mode1": MaximizedLevelSet("mode1", ball, 0.01, iterations=0)},
            variables)
        findings = run_falsification(
            model, invariant, initial_states=[x0], duration=2.0,
            lock_radius=5.0, check_invariance=True)
        assert [f.claim for f in findings] == ["forward invariance of X1"]
        assert findings[0].step_index == 0
        assert findings[0].worst_value > 1e-3

    def test_random_initial_states_inside_outer_set(self):
        model = build_third_order_model(uncertainty="none")
        states = random_initial_states(model, 10, scale=0.7, seed=1)
        outer = model.outer_set_polynomial(margin=0.7)
        assert states.shape == (10, 3)
        assert np.all(outer.evaluate_many(states) <= 1e-9)


class TestTimerAndLogging:
    def test_stage_timer_accumulates(self):
        timer = StageTimer()
        with timer.measure("step"):
            sum(range(1000))
        with timer.measure("step"):
            sum(range(1000))
        assert timer.total("step") > 0
        assert timer.grand_total() == pytest.approx(timer.total("step"))
        assert dict(timer.rows())["step"] == pytest.approx(timer.total("step"))

    def test_logging_helpers(self):
        logger = get_logger("unit")
        assert logger.name == "repro.unit"
        enable_console_logging(logging.WARNING)
        root = get_logger()
        assert any(isinstance(h, logging.StreamHandler) for h in root.handlers)
        disable_console_logging()
        assert not any(isinstance(h, logging.StreamHandler) for h in root.handlers)


class TestIntervalUtilities:
    def test_vertices_and_center(self):
        intervals = [Interval(0.0, 1.0), Interval(2.0, 2.0), Interval(-1.0, 1.0)]
        vertices = list(interval_vertices(intervals))
        assert len(vertices) == 4          # degenerate middle interval contributes one value
        assert box_center(intervals) == (0.5, 2.0, 0.0)

    def test_reciprocal_and_division(self):
        interval = Interval(2.0, 4.0)
        inv = interval.reciprocal()
        assert inv.lower == pytest.approx(0.25)
        assert inv.upper == pytest.approx(0.5)
        with pytest.raises(ZeroDivisionError):
            Interval(-1.0, 1.0).reciprocal()

    def test_containment_and_clamp(self):
        interval = Interval(-1.0, 3.0)
        assert interval.contains(0.0)
        assert interval.contains_interval(Interval(0.0, 1.0))
        assert not interval.contains_interval(Interval(0.0, 5.0))
        assert interval.clamp(10.0) == 3.0
        assert Interval.coerce((1, 2)).width == pytest.approx(1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

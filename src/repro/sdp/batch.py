"""Batched ADMM engine: many structurally identical conic SDPs in one loop.

The verification pipeline produces *families* of near-identical problems —
every bisection level of a level-curve maximisation, every domain inequality
of a mode, every point of a parameter sweep.  Solving them one at a time pays
the per-iteration Python and LAPACK dispatch overhead ``B`` times over.

:class:`BatchADMMSolver` advances all ``B`` problems through the same
operator-splitting iteration as :class:`~repro.sdp.admm.ADMMConicSolver`:

* the iterates live in ``(B, n)`` row-contiguous arrays on the configured
  :class:`~repro.sdp.backend.ArrayBackend` (``ADMMSettings.array_backend``),
  so each problem's row is contiguous and the identical loop runs on NumPy,
  CuPy or torch tensors; problems and results stay NumPy and cross the
  device boundary once per batch;
* the x-update factorises each distinct ``(A, rho)`` pair once per batch:
  when two or more active problems share a pair (parameter sweeps in ``b``,
  whose adaptive ``rho`` values may drift apart) every distinct pair's rows
  are one multi-RHS solve against its cached ``splu`` factor; only when
  every active pair is distinct (each bisection level has its own ``A``)
  are the per-problem KKT blocks assembled into one block-diagonal
  factorisation, recomputed when the active set or a problem's adaptive
  ``rho`` changes — never per iteration;
* the z-update projects all PSD blocks of all problems through one stacked
  ``eigh`` (:func:`~repro.sdp.cones.project_onto_cone_many`);
* residuals, tolerances, stall detection and adaptive-``rho`` updates are
  vectorised per problem.

Two scheduling modes decide what happens when problems finish early:

**Synchronous** (default): every iteration gathers the active columns out of
the full batch state, checks every termination criterion, and drops finished
problems from the active index — the schedule every existing test pins.

**Asynchronous bounded-staleness** (``ADMMSettings.async_mode``): the state
is *physically compacted* to the live problems, so retired rows cost nothing
at all (no gather/scatter traffic over dead state), and the termination
bookkeeping — residual reductions, convergence/infeasibility/stall checks,
history snapshots — runs every ``staleness_bound`` iterations instead of
every iteration.  Between checks the per-problem epochs advance freely, so a
problem may run up to ``staleness_bound`` iterations past its synchronous
stopping point before it retires (bounded staleness in the sense of the
asynchronous approximate distributed ADMM analyses); statuses are unchanged
because every retirement decision evaluates the same criteria on the same
residual definitions.

There is **no cross-problem coupling**: each problem follows exactly the
iteration it would follow in a standalone :class:`ADMMConicSolver.solve`, so
per-problem statuses match the serial solver.  Batches whose members turn out
not to share a structure (different cone dims or constraint counts after
presolve) transparently fall back to serial solves.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .admm import ADMMConicSolver, ADMMSettings, WarmStart, unpack_warm_start
from .backend import resolve_array_backend
from .cones import project_onto_cone_many
from .problem import ConicProblem
from .result import SolveHistory, SolverResult, SolverStatus
from .scaling import presolve


def _block_diag_csc(blocks: List[sp.csc_matrix], size: int) -> sp.csc_matrix:
    """Block-diagonal CSC assembly of equally sized square CSC blocks.

    Plain array concatenation with offsets — ~100x cheaper than
    ``scipy.sparse.block_diag`` (which routes through COO) for the epoch
    refactorisations of the batch loop.
    """
    nnz_offsets = np.cumsum([0] + [b.nnz for b in blocks])
    data = np.concatenate([b.data for b in blocks])
    indices = np.concatenate([b.indices + i * size for i, b in enumerate(blocks)])
    indptr = np.concatenate(
        [b.indptr[(1 if i else 0):] + nnz_offsets[i] for i, b in enumerate(blocks)])
    total = size * len(blocks)
    return sp.csc_matrix((data, indices, indptr), shape=(total, total))


def _due(iteration: int, last: int, interval: int) -> bool:
    """Has a multiple of ``interval`` passed since the event at ``last``?

    The async loop only looks at the world every ``staleness_bound``
    iterations; interval-based events (adaptive rho, plateau snapshots) fire
    on the first check at-or-after each multiple of their interval, which
    coincides with the synchronous schedule whenever ``staleness_bound``
    divides the interval (the default 25 divides 100).
    """
    return (iteration // interval) > (last // interval)


class BatchADMMSolver:
    """Solve a batch of structurally identical conic problems in one ADMM loop."""

    def __init__(self, settings: Optional[ADMMSettings] = None):
        self.settings = settings or ADMMSettings()

    # ------------------------------------------------------------------
    def solve(self, problem: ConicProblem,
              warm_start: Optional[WarmStart] = None) -> SolverResult:
        """Single-problem convenience wrapper (backend-registry compatible)."""
        return self.solve_batch([problem], [warm_start])[0]

    def _solve_serial(self, problems: Sequence[ConicProblem],
                      warm_starts: Sequence[Optional[WarmStart]]) -> List[SolverResult]:
        solver = ADMMConicSolver(self.settings)
        return [solver.solve(p, warm_start=ws) for p, ws in zip(problems, warm_starts)]

    # ------------------------------------------------------------------
    def solve_batch(self, problems: Sequence[ConicProblem],
                    warm_starts: Optional[Sequence[Optional[WarmStart]]] = None,
                    ) -> List[SolverResult]:
        """Solve ``problems`` together; returns one :class:`SolverResult` each.

        All problems must share cone dimensions and, after presolve, the
        equality-row count; otherwise the batch silently degrades to serial
        solves with identical semantics.
        """
        start = time.perf_counter()
        problems = list(problems)
        if not problems:
            return []
        if warm_starts is None:
            warm_starts = [None] * len(problems)
        warm_starts = list(warm_starts)
        if len(warm_starts) != len(problems):
            raise ValueError("warm_starts must align with problems")

        settings = self.settings
        dims = problems[0].dims
        if any(p.dims != dims for p in problems[1:]):
            return self._solve_serial(problems, warm_starts)

        results: List[Optional[SolverResult]] = [None] * len(problems)
        prepped: List[Tuple[int, ConicProblem, ConicProblem, object]] = []
        for i, problem in enumerate(problems):
            try:
                scaled, scaling = presolve(problem, scale=settings.scale_problem)
            except ValueError as exc:
                results[i] = SolverResult(
                    status=SolverStatus.INFEASIBLE_SUSPECTED,
                    info={"reason": str(exc)},
                    solve_time=time.perf_counter() - start,
                )
                continue
            prepped.append((i, problem, scaled, scaling))
        if not prepped:
            return results  # type: ignore[return-value]

        n = dims.total
        m = prepped[0][2].num_constraints
        if any(entry[2].num_constraints != m for entry in prepped[1:]):
            return self._solve_serial(problems, warm_starts)

        xb = resolve_array_backend(settings.array_backend)

        # Deduplicate coefficient matrices: problems differing only in b (or
        # in nothing) share one KKT factorisation and one multi-RHS solve.
        batch = len(prepped)
        group_of = np.zeros(batch, dtype=np.int64)
        group_keys: Dict[tuple, int] = {}
        unique_A: List[sp.csc_matrix] = []
        for col, (_, _, scaled, _) in enumerate(prepped):
            A = scaled.A.tocsc()
            key = (A.nnz, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes())
            group = group_keys.setdefault(key, len(unique_A))
            if group == len(unique_A):
                unique_A.append(A)
            group_of[col] = group

        regularization = settings.kkt_regularization
        kkt_cache: Dict[Tuple[int, float], sp.csc_matrix] = {}
        lu_cache: Dict[Tuple[int, float], object] = {}

        def kkt_block(group: int, rho_value: float) -> sp.csc_matrix:
            cache_key = (group, rho_value)
            kkt = kkt_cache.get(cache_key)
            if kkt is None:
                A = unique_A[group]
                upper = sp.hstack([rho_value * sp.identity(n, format="csc"), A.T])
                lower = sp.hstack([A, -regularization * sp.identity(m, format="csc")])
                kkt = sp.vstack([upper, lower]).tocsc()
                kkt_cache[cache_key] = kkt
            return kkt

        def get_lu(group: int, rho_value: float):
            cache_key = (group, rho_value)
            lu = lu_cache.get(cache_key)
            if lu is None:
                lu = xb.kkt_factor(kkt_block(group, rho_value))
                lu_cache[cache_key] = lu
            return lu

        def build_epoch(cols: np.ndarray) -> Optional[_Epoch]:
            """The KKT factorisations for the problems in ``cols``.

            Returns ``None`` when a factorisation failed: either some
            per-problem KKT (recorded in ``numerical_failures``) or only the
            assembled block-diagonal (nothing recorded — the caller falls
            back to serial solves).
            """
            pairs = [(int(group_of[col]), float(rho[col])) for col in cols]
            rows_of: Dict[Tuple[int, float], List[int]] = {}
            for position, pair in enumerate(pairs):
                rows_of.setdefault(pair, []).append(position)
            try:
                if len(pairs) > 1 and len(rows_of) == len(pairs):
                    return _Epoch(xb, n, block=xb.kkt_factor(_block_diag_csc(
                        [kkt_block(*pair) for pair in pairs], n + m)))
                if len(rows_of) == 1:
                    return _Epoch(xb, n, parts=[(get_lu(*pairs[0]), None)])
                return _Epoch(xb, n, parts=[
                    (get_lu(*pair), xb.index_from_host(np.asarray(rows)))
                    for pair, rows in rows_of.items()])
            except RuntimeError:  # pragma: no cover - singular KKT
                for col, pair in zip(cols, pairs):
                    try:
                        get_lu(*pair)
                    except RuntimeError as exc:
                        numerical_failures[int(col)] = \
                            f"KKT factorization failed: {exc}"
                        statuses[int(col)] = SolverStatus.NUMERICAL_ERROR
                return None

        # Row-contiguous (B, n) state on the backend's device; each problem is
        # one row.  Problems/warm starts are host NumPy and cross over here.
        C_host = np.zeros((batch, n))
        B_host = np.zeros((batch, m))
        X_host = np.zeros((batch, n))
        Z_host = np.zeros((batch, n))
        U_host = np.zeros((batch, n))
        warm_flags = np.zeros(batch, dtype=bool)
        for col, (i, _, scaled, _) in enumerate(prepped):
            C_host[col] = scaled.c
            B_host[col] = scaled.b
            initial = unpack_warm_start(warm_starts[i], n)
            if initial is not None:
                X_host[col], Z_host[col], U_host[col] = initial
                warm_flags[col] = True
        C_dev = xb.from_host(C_host)
        B_dev = xb.from_host(B_host)
        X = xb.from_host(X_host)
        Z = xb.from_host(Z_host)
        U = xb.from_host(U_host)

        # Per-problem termination bookkeeping stays on the host: these are
        # (B,)-sized vectors driving Python-level control flow.
        rho = np.full(batch, float(settings.rho))
        alpha = settings.over_relaxation
        sqrt_n = float(np.sqrt(n))
        best_primal = np.full(batch, np.inf)
        best_primal_at = np.zeros(batch, dtype=np.int64)
        primal_snapshot = np.full(batch, np.inf)
        frozen_streak = np.zeros(batch, dtype=np.int64)
        last_primal = np.full(batch, np.nan)
        last_dual = np.full(batch, np.nan)
        statuses: List[SolverStatus] = [SolverStatus.MAX_ITERATIONS] * batch
        final_iteration = np.full(batch, settings.max_iterations, dtype=np.int64)
        histories = [SolveHistory() for _ in range(batch)]
        numerical_failures: Dict[int, str] = {}

        shared = _SharedLoopState(
            xb=xb, settings=settings, dims=dims, n=n, m=m, batch=batch,
            build_epoch=build_epoch, rho=rho, alpha=alpha, sqrt_n=sqrt_n,
            best_primal=best_primal, best_primal_at=best_primal_at,
            primal_snapshot=primal_snapshot, frozen_streak=frozen_streak,
            last_primal=last_primal, last_dual=last_dual, statuses=statuses,
            final_iteration=final_iteration, histories=histories,
            numerical_failures=numerical_failures,
        )
        if settings.async_mode:
            finals = self._run_async(shared, C_dev, B_dev, X, Z, U)
        else:
            finals = self._run_sync(shared, C_dev, B_dev, X, Z, U)
        if finals is None:
            # An assembled block-diagonal factorisation failed even though
            # every per-problem KKT is healthy: preserve the per-problem
            # parity guarantee by solving serially.
            return self._solve_serial(problems, warm_starts)  # pragma: no cover
        X_fin, Z_fin, U_fin, work = finals

        elapsed = time.perf_counter() - start
        for col, (i, original, _, scaling) in enumerate(prepped):
            if col in numerical_failures:
                results[i] = SolverResult(
                    status=SolverStatus.NUMERICAL_ERROR,
                    info={"reason": numerical_failures[col]},
                    solve_time=elapsed,
                )
                continue
            candidate = Z_fin[col].copy()
            status = statuses[col]
            if status == SolverStatus.OPTIMAL and np.allclose(original.c, 0.0):
                status = SolverStatus.FEASIBLE
            results[i] = SolverResult(
                status=status,
                x=candidate,
                objective=original.objective_value(candidate),
                primal_residual=float(np.linalg.norm(X_fin[col] - Z_fin[col])),
                dual_residual=float(last_dual[col]),
                equality_residual=original.equality_residual(candidate),
                cone_violation=original.cone_violation(candidate),
                iterations=int(final_iteration[col]),
                solve_time=elapsed,
                info={
                    "rho_final": float(rho[col]),
                    "history": histories[col],
                    "scaled": scaling is not None,
                    "warm_started": bool(warm_flags[col]),
                    "warm_start_data": {"x": X_fin[col].copy(), "z": candidate.copy(),
                                        "u": U_fin[col].copy()},
                    "batch_size": batch,
                    "batch_index": col,
                    "batch_wall_time": elapsed,
                    "array_backend": xb.name,
                    "async_mode": settings.async_mode,
                    "batch_iterations_per_second": work / max(elapsed, 1e-12),
                },
            )
            if settings.verbose:  # pragma: no cover - logging only
                print(f"[batch-admm {col + 1}/{batch}] {results[i].summary()}")
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_sync(self, s: "_SharedLoopState", C_dev, B_dev, X, Z, U):
        """The synchronous schedule: masked gathers over the full batch state.

        Checks every termination criterion every iteration; finished problems
        leave the active index but their state rows stay in place (their last
        iterate is the final answer).  This is numerically identical to the
        historical column-major implementation — the state layout is the
        transpose of the same memory, and every arithmetic expression keeps
        its evaluation order.
        """
        xb, settings = s.xb, s.settings
        n, m = s.n, s.m
        active = np.arange(s.batch)
        epoch_key: Optional[tuple] = None
        epoch: Optional[_Epoch] = None
        act_dev = rho_dev = C_act = W = None
        work = 0

        for iteration in range(1, settings.max_iterations + 1):
            if active.size == 0:
                break

            # x-update: the active set's KKT solves (one per _Epoch factor).
            current_key = (active.tobytes(), s.rho[active].tobytes())
            if current_key != epoch_key:
                epoch = s.build_epoch(active)
                if epoch is None:
                    failed = [c for c in active if c in s.numerical_failures]
                    if not failed:  # pragma: no cover - block-diag-only failure
                        return None
                    for col in failed:
                        s.final_iteration[col] = iteration
                    active = active[~np.isin(active, failed)]
                    epoch_key = None
                    if active.size == 0:
                        break
                    continue
                epoch_key = current_key
                k = active.size
                act_dev = xb.index_from_host(active)
                rho_dev = xb.from_host(s.rho[active][:, None])
                C_act = C_dev[act_dev]
                W = xb.empty((k, n + m))
                W[:, n:] = B_dev[act_dev]
            k = active.size
            work += k
            W[:, :n] = rho_dev * (Z[act_dev] - U[act_dev]) - C_act
            x_act = epoch.solve_x(W)
            X[act_dev] = x_act

            act = active
            z_prev = Z[act_dev]
            x_relaxed = alpha_combine(s.alpha, x_act, z_prev)
            z_new = project_onto_cone_many(x_relaxed + U[act_dev], s.dims,
                                           backend=xb)
            Z[act_dev] = z_new
            U[act_dev] = U[act_dev] + x_relaxed - z_new

            primal = xb.to_host(xb.row_norms(x_act - z_new))
            dual = s.rho[act] * xb.to_host(xb.row_norms(z_new - z_prev))
            scale_primal = np.maximum(np.maximum(
                xb.to_host(xb.row_norms(x_act)),
                xb.to_host(xb.row_norms(z_new))), 1.0)
            scale_dual = np.maximum(
                s.rho[act] * xb.to_host(xb.row_norms(U[act_dev])), 1.0)
            eps_primal = settings.eps_abs * s.sqrt_n + settings.eps_rel * scale_primal
            eps_dual = settings.eps_abs * s.sqrt_n + settings.eps_rel * scale_dual
            s.last_primal[act] = primal
            s.last_dual[act] = dual

            if iteration % settings.history_stride == 0 or iteration == 1:
                objectives = xb.to_host(xb.row_dots(C_act, x_act))
                for position, col in enumerate(act):
                    s.histories[col].record(primal[position], dual[position],
                                            float(objectives[position]))

            improved = primal < s.best_primal[act] * settings.stall_improvement
            s.best_primal_at[act[improved]] = iteration
            s.best_primal[act] = np.minimum(s.best_primal[act], primal)

            converged = (primal <= eps_primal) & (dual <= eps_dual)

            # Early infeasibility detection (mirrors the serial solver): the
            # primal residual locked onto a plateau far above feasibility
            # with the dual residual below it.
            frozen_fire = np.zeros(act.shape[0], dtype=bool)
            if settings.infeasibility_detection and \
                    iteration % settings.infeasibility_interval == 0:
                if iteration >= settings.infeasibility_min_iteration:
                    frozen = (primal > 100.0 * eps_primal) & (dual < primal) \
                        & (np.abs(primal - s.primal_snapshot[act])
                           <= settings.infeasibility_rel_change * primal)
                    s.frozen_streak[act] = np.where(frozen, s.frozen_streak[act] + 1, 0)
                else:
                    s.frozen_streak[act] = 0
                s.primal_snapshot[act] = primal
                frozen_fire = (~converged) & \
                    (s.frozen_streak[act] >= settings.infeasibility_streak)

            stalled = (~converged) & (~frozen_fire) \
                & ((iteration - s.best_primal_at[act]) > settings.stall_window) \
                & (primal > 100.0 * eps_primal)
            for col in act[converged]:
                s.statuses[col] = SolverStatus.OPTIMAL
                s.final_iteration[col] = iteration
            for col in act[frozen_fire | stalled]:
                s.statuses[col] = SolverStatus.INFEASIBLE_SUSPECTED
                s.final_iteration[col] = iteration
            keep = ~(converged | frozen_fire | stalled)
            active = act[keep]

            if settings.adaptive_rho and iteration % settings.rho_update_interval == 0 \
                    and active.size:
                primal_keep = primal[keep]
                dual_keep = dual[keep]
                raise_rho = (primal_keep > 10.0 * dual_keep) & (s.rho[active] < 1e6)
                lower_rho = (~raise_rho) & (dual_keep > 10.0 * primal_keep) \
                    & (s.rho[active] > 1e-6)
                cols_up = active[raise_rho]
                if cols_up.size:
                    s.rho[cols_up] *= 2.0
                    up_dev = xb.index_from_host(cols_up)
                    U[up_dev] = U[up_dev] / 2.0
                cols_down = active[lower_rho]
                if cols_down.size:
                    s.rho[cols_down] /= 2.0
                    down_dev = xb.index_from_host(cols_down)
                    U[down_dev] = U[down_dev] * 2.0

        return xb.to_host(X), xb.to_host(Z), xb.to_host(U), work

    # ------------------------------------------------------------------
    def _run_async(self, s: "_SharedLoopState", C_dev, B_dev, X, Z, U):
        """The asynchronous bounded-staleness schedule.

        The live problems are *compacted* into dense state blocks (no masked
        gathers over retired rows), and every reduction that exists only to
        decide termination runs once per ``staleness_bound`` iterations.
        Between checks the update sweeps are pure: two in-place triads, one
        multi-RHS back-substitution and one stacked projection — per-iteration
        allocations on the NumPy path are just the two solver outputs.
        """
        xb, settings = s.xb, s.settings
        n, m = s.n, s.m
        stride = max(1, int(settings.staleness_bound))
        idx = np.arange(s.batch)  # compacted row -> original problem column
        X_fin = np.zeros((s.batch, n))
        Z_fin = np.zeros((s.batch, n))
        U_fin = np.zeros((s.batch, n))
        dirty = True
        epoch: Optional[_Epoch] = None
        rho_dev = W = XR = ZB = None
        last_infeas = 0
        last_rho = 0
        work = 0
        iteration = 0

        while iteration < settings.max_iterations and idx.size:
            iteration += 1
            if dirty:
                epoch = s.build_epoch(idx)
                if epoch is None:
                    failed_mask = np.asarray(
                        [int(col) in s.numerical_failures for col in idx])
                    if not failed_mask.any():  # pragma: no cover
                        return None
                    s.final_iteration[idx[failed_mask]] = iteration
                    keep_dev = xb.index_from_host(np.flatnonzero(~failed_mask))
                    X, Z, U = X[keep_dev], Z[keep_dev], U[keep_dev]
                    C_dev, B_dev = C_dev[keep_dev], B_dev[keep_dev]
                    idx = idx[~failed_mask]
                    iteration -= 1  # nothing advanced this pass
                    continue
                k = idx.size
                rho_dev = xb.from_host(s.rho[idx][:, None])
                W = xb.empty((k, n + m))
                W[:, n:] = B_dev
                XR = xb.empty((k, n))
                ZB = xb.empty((k, n))
                dirty = False
            k = idx.size
            work += k
            check = iteration % stride == 0 or iteration == settings.max_iterations

            Wx = W[:, :n]
            Wx[:] = Z
            Wx -= U
            Wx *= rho_dev
            Wx -= C_dev
            X = epoch.solve_x(W)
            XR[:] = X
            XR *= s.alpha
            ZB[:] = Z
            ZB *= (1.0 - s.alpha)
            XR += ZB  # XR = alpha * x + (1 - alpha) * z
            ZB[:] = XR
            ZB += U
            z_new = project_onto_cone_many(ZB, s.dims, backend=xb)
            U += XR
            U -= z_new
            z_prev, Z = Z, z_new

            if not check:
                continue

            primal = xb.to_host(xb.row_norms(X - Z))
            dual = s.rho[idx] * xb.to_host(xb.row_norms(Z - z_prev))
            scale_primal = np.maximum(np.maximum(
                xb.to_host(xb.row_norms(X)), xb.to_host(xb.row_norms(Z))), 1.0)
            scale_dual = np.maximum(s.rho[idx] * xb.to_host(xb.row_norms(U)), 1.0)
            eps_primal = settings.eps_abs * s.sqrt_n + settings.eps_rel * scale_primal
            eps_dual = settings.eps_abs * s.sqrt_n + settings.eps_rel * scale_dual
            s.last_primal[idx] = primal
            s.last_dual[idx] = dual

            objectives = xb.to_host(xb.row_dots(C_dev, X))
            for position, col in enumerate(idx):
                s.histories[col].record(primal[position], dual[position],
                                        float(objectives[position]))

            improved = primal < s.best_primal[idx] * settings.stall_improvement
            s.best_primal_at[idx[improved]] = iteration
            s.best_primal[idx] = np.minimum(s.best_primal[idx], primal)

            converged = (primal <= eps_primal) & (dual <= eps_dual)

            frozen_fire = np.zeros(k, dtype=bool)
            if settings.infeasibility_detection and \
                    _due(iteration, last_infeas, settings.infeasibility_interval):
                last_infeas = iteration
                if iteration >= settings.infeasibility_min_iteration:
                    frozen = (primal > 100.0 * eps_primal) & (dual < primal) \
                        & (np.abs(primal - s.primal_snapshot[idx])
                           <= settings.infeasibility_rel_change * primal)
                    s.frozen_streak[idx] = np.where(frozen, s.frozen_streak[idx] + 1, 0)
                else:
                    s.frozen_streak[idx] = 0
                s.primal_snapshot[idx] = primal
                frozen_fire = (~converged) & \
                    (s.frozen_streak[idx] >= settings.infeasibility_streak)

            stalled = (~converged) & (~frozen_fire) \
                & ((iteration - s.best_primal_at[idx]) > settings.stall_window) \
                & (primal > 100.0 * eps_primal)
            for col in idx[converged]:
                s.statuses[col] = SolverStatus.OPTIMAL
                s.final_iteration[col] = iteration
            for col in idx[frozen_fire | stalled]:
                s.statuses[col] = SolverStatus.INFEASIBLE_SUSPECTED
                s.final_iteration[col] = iteration
            keep = ~(converged | frozen_fire | stalled)

            if settings.adaptive_rho and keep.any() and \
                    _due(iteration, last_rho, settings.rho_update_interval):
                last_rho = iteration
                survivors = idx[keep]
                primal_keep = primal[keep]
                dual_keep = dual[keep]
                raise_rho = (primal_keep > 10.0 * dual_keep) & (s.rho[survivors] < 1e6)
                lower_rho = (~raise_rho) & (dual_keep > 10.0 * primal_keep) \
                    & (s.rho[survivors] > 1e-6)
                if raise_rho.any():
                    s.rho[survivors[raise_rho]] *= 2.0
                    rows = xb.index_from_host(np.flatnonzero(keep)[raise_rho])
                    U[rows] = U[rows] / 2.0
                    dirty = True
                if lower_rho.any():
                    s.rho[survivors[lower_rho]] /= 2.0
                    rows = xb.index_from_host(np.flatnonzero(keep)[lower_rho])
                    U[rows] = U[rows] * 2.0
                    dirty = True

            if not keep.all():
                # Retiring problems leave the device now; the survivors are
                # compacted so the next epoch's sweeps touch live rows only.
                retired = np.flatnonzero(~keep)
                ret_dev = xb.index_from_host(retired)
                X_fin[idx[~keep]] = xb.to_host(X[ret_dev])
                Z_fin[idx[~keep]] = xb.to_host(Z[ret_dev])
                U_fin[idx[~keep]] = xb.to_host(U[ret_dev])
                keep_dev = xb.index_from_host(np.flatnonzero(keep))
                X, Z, U = X[keep_dev], Z[keep_dev], U[keep_dev]
                C_dev, B_dev = C_dev[keep_dev], B_dev[keep_dev]
                idx = idx[keep]
                dirty = True

        if idx.size:
            X_fin[idx] = xb.to_host(X)
            Z_fin[idx] = xb.to_host(Z)
            U_fin[idx] = xb.to_host(U)
        return X_fin, Z_fin, U_fin, work


class _Epoch:
    """The x-update's KKT factorisations for one active set.

    Either one block-diagonal factor over every active problem (``block``),
    or ``parts``: one cached factor per distinct ``(A, rho)`` pair with the
    active rows it serves (``None`` = every row), solved as multi-RHS.
    """

    __slots__ = ("xb", "n", "block", "parts")

    def __init__(self, xb, n: int, block=None, parts=None):
        self.xb = xb
        self.n = n
        self.block = block
        self.parts = parts

    def solve_x(self, W):
        """The x rows ``(k, n)`` of the KKT solves of the rows of ``W``."""
        n = self.n
        if self.block is not None:
            k = W.shape[0]
            return self.block.solve(W.reshape(-1)).reshape((k, -1))[:, :n]
        if len(self.parts) == 1:
            return self.parts[0][0].solve(W.T)[:n].T
        x = self.xb.empty((W.shape[0], n))
        for lu, rows in self.parts:
            x[rows] = lu.solve(W[rows].T)[:n].T
        return x


def alpha_combine(alpha: float, x, z):
    """Over-relaxed combination ``alpha * x + (1 - alpha) * z``."""
    return alpha * x + (1.0 - alpha) * z


class _SharedLoopState:
    """Bookkeeping shared by the synchronous and asynchronous loop bodies."""

    __slots__ = (
        "xb", "settings", "dims", "n", "m", "batch", "build_epoch", "rho",
        "alpha", "sqrt_n", "best_primal", "best_primal_at", "primal_snapshot",
        "frozen_streak", "last_primal", "last_dual", "statuses",
        "final_iteration", "histories", "numerical_failures",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

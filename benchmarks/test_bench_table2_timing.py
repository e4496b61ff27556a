"""Table 2 — computation time of the inevitability verification steps.

Runs the full verification pipeline (attractive invariant, level-curve
maximisation, bounded advection, set-inclusion checks, escape certificates)
for the third- and fourth-order CP PLL and prints the per-step wall-clock
breakdown, the analogue of Table 2 of the paper.  Absolute numbers differ from
the paper (pure-Python first-order solver, reduced certificate degrees); the
*shape* — attractive-invariant synthesis dominating, level-curve maximisation
and inclusion checks being comparatively cheap — is the reproduction target.
"""

import time

import pytest

from repro.core import (
    TABLE2_STEP_ORDER,
    LevelSetMaximizer,
    LevelSetOptions,
    LyapunovSynthesisOptions,
    MultipleLyapunovSynthesizer,
)
from repro.exceptions import CertificateError
from repro.polynomial import Monomial
from repro.sdp import ConicProblemBuilder

from conftest import print_rows, record_bench


def _rows_for(report):
    rows = dict((step, seconds) for step, seconds, _, _ in report.table2_rows())
    return [f"{rows[step]:.2f}" if step in rows else "-" for step in TABLE2_STEP_ORDER]


def test_bench_table2_third_order(benchmark, third_order_report):
    report = third_order_report
    benchmark.pedantic(lambda: report.table2_rows(), rounds=1, iterations=1)
    record_bench("table2_third_order", {
        "steps": [{"step": step, "seconds": seconds, "detail": detail}
                  for step, seconds, detail, _ in report.table2_rows()],
        "total_seconds": report.total_time,
    })
    print_rows(
        "Table 2 (third order): verification step timings [s]",
        ["Step", "Time (s)", "Detail"],
        [(step, f"{seconds:.2f}", detail) for step, seconds, detail, _ in report.table2_rows()],
    )
    print(f"P1={report.property_one.status.value}  "
          f"P2={report.property_two.status.value}  "
          f"inevitability={report.inevitability_status.value}  "
          f"total={report.total_time:.1f}s")
    assert report.timing_for("Attractive Invariant") > 0
    # Attractive-invariant synthesis dominates the budget, as in the paper.
    assert report.timing_for("Attractive Invariant") >= report.timing_for("Max. Level Curves")


def _lyapunov_program(model, degree):
    """The 4th-order PLL inevitability SOS program (program 1 of the paper)."""
    options = LyapunovSynthesisOptions(
        certificate_degree=degree, multiplier_degree=degree,
        positivity_margin=0.05, lock_tube_radius=0.8, validate_samples=0,
    )
    synthesizer = MultipleLyapunovSynthesizer(model.system, options,
                                              region_box=model.state_bounds())
    program, _ = synthesizer.build_program()
    return program


def _per_entry_compile(program):
    """The seed's per-Gram-entry compile loop, kept as the reference baseline
    the vectorized ``SOSProgram.compile`` is benchmarked against."""
    builder = ConicProblemBuilder()
    decision_order = program._decision_order()
    var_location = {}
    if decision_order:
        free_id, _ = builder.add_free_block(len(decision_order), name="decision")
        for local, dvar in enumerate(decision_order):
            var_location[dvar] = (free_id, local)
    sos_blocks = []
    for constraint in program._sos_constraints:
        block_id, _ = builder.add_psd_block(constraint.gram_order, name=constraint.name)
        sos_blocks.append((constraint, block_id))
    for constraint, block_id in sos_blocks:
        basis = constraint.basis
        expr = constraint.expression
        support = {}
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                prod = basis[i] * basis[j]
                local, coeff = builder.psd_entry_local_index(block_id, i, j)
                weight = 1.0 if i == j else 2.0
                entry_map = support.setdefault(prod, {})
                key = (block_id, local)
                entry_map[key] = entry_map.get(key, 0.0) + weight * coeff
        all_monomials = set(support) | set(expr.coefficients)
        for mono in sorted(all_monomials, key=Monomial.sort_key):
            entries = dict(support.get(mono, {}))
            coeff_expr = expr.coefficient(mono)
            rhs = coeff_expr.constant
            for dvar, a in coeff_expr.coeffs.items():
                loc = var_location[dvar]
                entries[loc] = entries.get(loc, 0.0) - a
            if not entries:
                continue
            builder.add_equality_row(entries, rhs)
    return builder


def _best_compile_seconds(model, degree, compile_program, repeats=5):
    # Best-of-N is far less sensitive to CI runner noise than a mean/median.
    times = []
    for _ in range(repeats):
        program = _lyapunov_program(model, degree)
        start = time.perf_counter()
        compile_program(program)
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_table2_compile_solve_split(fourth_order_model):
    """Compile time vs solve time of the 4th-order inevitability SOS program.

    The vectorized compile must stay >= 3x faster than the seed's
    per-Gram-entry Python loop (reproduced above as the baseline, so the
    comparison is self-calibrating across machines).
    """
    model = fourth_order_model
    rows = []
    speedups = {}
    for degree in (2, 4):
        _lyapunov_program(model, degree).compile()  # warm the structural caches
        # Each repeat builds a fresh program untimed (``compile()`` memoises
        # per program) and times the compile stage alone.
        compile_fast = _best_compile_seconds(
            model, degree, lambda program: program.compile()[0].build())
        compile_slow = _best_compile_seconds(
            model, degree, lambda program: _per_entry_compile(program).build())
        speedups[degree] = compile_slow / compile_fast
        rows.append((f"deg {degree}", f"{compile_fast * 1e3:.2f}",
                     f"{compile_slow * 1e3:.2f}", f"{speedups[degree]:.1f}x"))
    print_rows(
        "Table 2 extension: SOS compile time, vectorized vs per-entry seed loop [ms]",
        ["Certificate", "Vectorized compile", "Per-entry compile", "Speedup"],
        rows,
    )

    # Solve-time split on the bench-budget (degree 2) program.
    program = _lyapunov_program(model, 2)
    solution = program.solve(max_iterations=3000, eps_rel=1e-5, eps_abs=1e-6)
    print_rows(
        "Table 2 extension: compile/solve split (degree 2) [s]",
        ["Stage", "Time (s)"],
        [("compile", f"{solution.compile_time:.4f}"),
         ("solve", f"{solution.solve_time:.4f}")],
    )
    assert solution.compile_time > 0.0 and solution.solve_time > 0.0
    record_bench("compile_solve_split", {
        "per_degree_speedup": {str(d): s for d, s in speedups.items()},
        "degree2_compile_seconds": solution.compile_time,
        "degree2_solve_seconds": solution.solve_time,
    })
    assert speedups[4] >= 3.0, (
        f"vectorized compile only {speedups[4]:.1f}x faster than the per-entry loop"
    )


def test_bench_table2_levelset_batched_vs_serial(third_order_report, third_order_model):
    """Parametric+batched level-curve maximisation vs the serial per-level path.

    The baseline is the seed's per-level path: a fresh Lemma-1 program is
    constructed, compiled and solved for every probe, with rejections paying
    the full stall window (``infeasibility_detection=False`` reproduces the
    seed solver's economics).  The batched engine compiles each inclusion
    family once (``bind`` re-assembles the conic data per level), probes K
    levels per round through the batched ADMM solver with plateau-based
    infeasibility detection, and must be >= 3x faster end-to-end with
    certified levels matching within the bisection tolerance.
    """
    lyapunov = third_order_report.property_one.lyapunov
    if lyapunov is None or not lyapunov.certificates:
        pytest.skip("no Lyapunov certificates synthesised at benchmark budget")
    certificates = {name: cert.certificate
                    for name, cert in lyapunov.certificates.items()}
    domains = {name: cert.domain for name, cert in lyapunov.certificates.items()}
    bounds = third_order_model.state_bounds()

    tolerance = 0.05
    common = dict(bisection_tolerance=tolerance, max_bisection_iterations=10,
                  initial_upper_bound=5.0)
    serial_options = LevelSetOptions(
        strategy="serial",
        solver_settings=dict(max_iterations=4000, infeasibility_detection=False),
        **common)
    batched_options = LevelSetOptions(
        strategy="batched", solver_settings=dict(max_iterations=4000), **common)

    def run(options):
        maximizer = LevelSetMaximizer(options)
        levels, elapsed = {}, {}
        for name in certificates:
            start = time.perf_counter()
            try:
                levels[name] = maximizer.maximize(
                    name, certificates[name], domains[name], bounds=bounds).level
            except CertificateError:
                levels[name] = None
            elapsed[name] = time.perf_counter() - start
        return levels, elapsed

    serial_levels, serial_times = run(serial_options)
    batched_levels, batched_times = run(batched_options)

    total_serial = sum(serial_times.values())
    total_batched = sum(batched_times.values())
    speedup = total_serial / max(total_batched, 1e-9)
    rows = []
    for name in certificates:
        fmt = lambda level: "-" if level is None else f"{level:.4f}"
        rows.append((name, fmt(serial_levels[name]), f"{serial_times[name]:.2f}",
                     fmt(batched_levels[name]), f"{batched_times[name]:.2f}"))
    print_rows(
        "Table 2 extension: level-set maximisation, serial per-level vs batched [s]",
        ["Mode", "Serial level", "Serial time", "Batched level", "Batched time"],
        rows + [("total", "", f"{total_serial:.2f}", "", f"{total_batched:.2f}")],
    )
    record_bench("levelset_batched_vs_serial", {
        "serial_seconds": total_serial,
        "batched_seconds": total_batched,
        "speedup": speedup,
        "modes": {name: {"serial_level": serial_levels[name],
                         "batched_level": batched_levels[name],
                         "serial_seconds": serial_times[name],
                         "batched_seconds": batched_times[name]}
                  for name in certificates},
    })

    for name in certificates:
        serial_level = serial_levels[name]
        batched_level = batched_levels[name]
        assert (serial_level is None) == (batched_level is None), (
            f"{name}: serial and batched paths disagree about certifiability")
        if serial_level is not None:
            assert abs(serial_level - batched_level) <= tolerance + 1e-9, (
                f"{name}: levels diverge beyond the bisection tolerance "
                f"({serial_level:.4f} vs {batched_level:.4f})")
    assert speedup >= 3.0, (
        f"batched level-set maximisation only {speedup:.2f}x faster than the "
        f"serial per-level path")


def _levelset_ksection_binds(count):
    """A level-set K-section ladder: ≥64 simultaneous θ binds of one family.

    ``{V <= θ} ⊆ {V <= 4}`` holds iff θ <= 4, so a ladder spanning the
    threshold mixes quick feasible rungs, slow borderline rungs and
    plateau-detected infeasible rungs — the convergence-time spread the
    asynchronous compaction schedule exists for.  The DSOS (LP-cone)
    relaxation keeps the per-iteration core small so the schedule overhead,
    not the cone projection, is what the two modes differ in.
    """
    from repro.core.inclusion import ParametricInclusionFamily
    from repro.polynomial import Polynomial, VariableVector, make_variables

    x, y, z = make_variables("x", "y", "z")
    xv = VariableVector([x, y, z])
    px, py, pz = (Polynomial.from_variable(v, xv) for v in (x, y, z))
    V = px * px + 0.5 * py * py + 0.8 * pz * pz + 0.3 * px * py - 0.2 * py * pz
    family = ParametricInclusionFamily(V, V - 4.0, multiplier_degree=2,
                                       cone="dd")
    family.compile()
    import numpy as np

    third = count // 3
    levels = np.concatenate([
        np.linspace(0.05, 3.0, third),
        4.0 - np.geomspace(0.9, 0.01, third),
        np.linspace(4.2, 8.0, count - 2 * third),
    ])
    return family.bind_many(levels)


def test_bench_table2_backend_matrix():
    """Per-array-backend iterations/sec of the batched level-set K-section.

    160 simultaneous θ binds solved by ``BatchADMMSolver`` under every array
    backend importable in this process (NumPy always; CuPy/torch rows appear
    only where the adapters resolve), in both the masked synchronous schedule
    and the asynchronous bounded-staleness schedule.  Statuses must agree
    mode-for-mode, and on the NumPy path the async compaction schedule must
    deliver >= 1.5x the synchronous iteration throughput.
    """
    from repro.sdp import ADMMSettings, BatchADMMSolver, available_array_backends

    problems = _levelset_ksection_binds(160)
    staleness = 50
    section = {"binds": len(problems), "staleness_bound": staleness}
    rows = []
    for backend_name in available_array_backends():
        entry = {}
        statuses = {}
        for mode in ("sync", "async"):
            settings = ADMMSettings(max_iterations=6000,
                                    array_backend=backend_name,
                                    async_mode=(mode == "async"),
                                    staleness_bound=staleness)
            solver = BatchADMMSolver(settings)
            best_wall = best_ips = None
            for _ in range(2):  # best-of-2 damps runner noise
                start = time.perf_counter()
                results = solver.solve_batch(problems)
                wall = time.perf_counter() - start
                if best_wall is None or wall < best_wall:
                    best_wall = wall
                    best_ips = results[0].info["batch_iterations_per_second"]
            statuses[mode] = [r.status.value for r in results]
            entry[f"wall_seconds_{mode}"] = best_wall
            entry[f"iterations_per_second_{mode}"] = best_ips
        entry["async_speedup"] = (entry["iterations_per_second_async"]
                                  / entry["iterations_per_second_sync"])
        section[backend_name] = entry
        rows.append((backend_name,
                     f"{entry['iterations_per_second_sync']:.0f}",
                     f"{entry['iterations_per_second_async']:.0f}",
                     f"{entry['wall_seconds_sync']:.2f}",
                     f"{entry['wall_seconds_async']:.2f}",
                     f"{entry['async_speedup']:.2f}x"))
        assert statuses["async"] == statuses["sync"], (
            f"{backend_name}: async and sync schedules disagree on statuses")
    record_bench("backends", section)
    print_rows(
        "Table 2 extension: level-set K-section (160 binds) per array backend",
        ["Backend", "Sync it/s", "Async it/s", "Sync wall", "Async wall",
         "Async speedup"],
        rows,
    )
    numpy_speedup = section["numpy"]["async_speedup"]
    assert numpy_speedup >= 1.5, (
        f"async compaction only {numpy_speedup:.2f}x the masked synchronous "
        f"batch on the NumPy backend")


def test_bench_table2_fourth_order(benchmark, fourth_order_report):
    report = fourth_order_report
    benchmark.pedantic(lambda: report.table2_rows(), rounds=1, iterations=1)
    record_bench("table2_fourth_order", {
        "steps": [{"step": step, "seconds": seconds, "detail": detail}
                  for step, seconds, detail, _ in report.table2_rows()],
        "total_seconds": report.total_time,
    })
    print_rows(
        "Table 2 (fourth order): verification step timings [s]",
        ["Step", "Time (s)", "Detail"],
        [(step, f"{seconds:.2f}", detail) for step, seconds, detail, _ in report.table2_rows()],
    )
    print(f"P1={report.property_one.status.value}  "
          f"P2={report.property_two.status.value}  "
          f"inevitability={report.inevitability_status.value}  "
          f"total={report.total_time:.1f}s")
    assert report.timing_for("Attractive Invariant") > 0

import collections
import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dowg.verify
from dowg.angular import Isotropic, build_circle_trapezoid
from dowg.assembly import (
    DODG,
    DODSD,
    WG,
    Medium,
    _boundary_sum,
    _face_traces,
    _jump_sum,
    _side_points,
    _side_traces,
    assemble_direction,
)
from dowg.elements import ElementQuadrature, ElementTables, _sample
from dowg.mesh import SIDE_NORMALS, build_mesh
from dowg.solver import SolverFailure, SourceIterationConfig, source_iteration
from dowg.verify import (
    AngularStudyReport,
    ConvergenceReport,
    ManufacturedCase,
    Separable,
    build_case,
    dominance_ratios,
    measure_error,
    project_exact,
    run_angular_study,
    run_comparison,
    run_convergence,
    solve_case,
)
from dowg.verify import (
    _assemble_all,
    _build_tables,
    _case_kernel,
    _check_memory,
    _iterate,
)


class TestBuildCase:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_case("example3")

    def test_example1_basics(self):
        case = build_case("example1")
        assert case.u(0.5, 0.5, 0.0) == pytest.approx(1.0)
        assert case.u(0.5, 0.5, 2.1) == pytest.approx(1.0)
        # boundary trace vanishes
        assert abs(case.u(0.0, 0.3, 1.0)) < 1e-15
        assert case.medium.sigma_t == 2.0 and case.medium.sigma_s == 0.5

    def test_example2_constant(self):
        case = build_case("example2")
        # c = 1/(1 + 6 sigma_s) = 1/4 at sigma_s = 1/2
        x, y = 0.2, 0.7
        e = np.exp(-0.5 * (x + y))
        assert case.u(x, y, 0.0) == pytest.approx(e * 1.25)
        assert case.scatter_u(x, y, 0.0) == pytest.approx(e * (1 + 0.25 * 0.25))
        loose = build_case("example2", sigma_s=0.0)
        assert loose.u(x, y, 0.0) == pytest.approx(2.0 * e)

    def test_example2_convolution_against_dense_quadrature(self):
        # periodic trapezoid with 1e4 angles as the independent oracle
        case = build_case("example2")
        tq = np.linspace(0.0, 2 * np.pi, 10_001)[:-1]
        dth = tq[1] - tq[0]
        x, y = 0.35, 0.6
        for th in (0.0, 0.9, 2.0, 4.4):
            phi = (2.0 + np.cos(th - tq)) / (4 * np.pi)
            dense = np.sum(phi * case.u(x, y, tq)) * dth
            assert abs(dense - case.scatter_u(x, y, th)) < 1e-10

    def test_example1_source_by_finite_differences(self):
        # s . grad u via central differences, then the full balance
        case = build_case("example1")
        d = 1e-6
        for th in (0.3, 1.2, 3.9):
            s = np.array([np.cos(th), np.sin(th)])
            for x, y in ((0.3, 0.4), (0.62, 0.18)):
                adv = (case.u(x + d * s[0], y + d * s[1], th)
                       - case.u(x - d * s[0], y - d * s[1], th)) / (2 * d)
                expect = adv + (2.0 - 0.5) * case.u(x, y, th)
                assert abs(case.f(x, y, th) - expect) < 1e-6

    def test_example2_source_consistency(self):
        case = build_case("example2")
        d = 1e-6
        th = 2.4
        s = np.array([np.cos(th), np.sin(th)])
        x, y = 0.5, 0.25
        adv = (case.u(x + d * s[0], y + d * s[1], th)
               - case.u(x - d * s[0], y - d * s[1], th)) / (2 * d)
        expect = adv + 2.0 * case.u(x, y, th) - 0.5 * case.scatter_u(x, y, th)
        assert abs(case.f(x, y, th) - expect) < 1e-6


class TestMeasureError:
    def test_zero_field_closed_form(self):
        # || sin pi x sin pi y ||_{L2}^2 = 1/4, angular weight sums to 2 pi
        case = build_case("example1")
        sol = solve_case(case, k=1, level=2)
        zero = np.zeros_like(sol.field)
        err, _ = measure_error(zero, case, sol.mesh, sol.tables, sol.quad)
        assert_allclose(err, np.sqrt(2 * np.pi) / 2, rtol=1e-12)

    def test_polynomial_exactness(self):
        poly = ManufacturedCase(
            "poly",
            u=Separable(((np.ones_like, lambda x, y: (1 + 2 * x) * (0.5 - y)),)),
            scatter_u=None, f=None, u_in=None,
            phase=Isotropic(), medium=Medium(),
        )
        sol = solve_case(build_case("example1"), k=1, level=2)
        field = project_exact(poly, sol.mesh, sol.tables, sol.quad)
        err_dom, err_tri = measure_error(field, poly, sol.mesh, sol.tables, sol.quad)
        assert err_dom < 1e-12 and err_tri < 1e-12

    def test_triple_dominates(self):
        case = build_case("example2")
        sol = solve_case(case, k=1, level=3)
        err_dom, err_tri = measure_error(sol.field, case, sol.mesh, sol.tables, sol.quad)
        assert err_tri > err_dom > 0

    def test_projection_orders(self):
        # projection error of the exact solution: the volume norm gains
        # the full k+1, the triple norm at least k+1/2 (boundary term)
        for k in (1, 2):
            case = build_case("example2")
            quad = build_circle_trapezoid(20)
            doms, tris = [], []
            from dowg.elements import ElementQuadrature, ElementTables, LocalBasis
            from dowg.mesh import build_mesh

            tables = ElementTables(LocalBasis(k), ElementQuadrature.build(k))
            for lv in (3, 4, 5):
                mesh = build_mesh(lv)
                field = project_exact(case, mesh, tables, quad)
                ed, et = measure_error(field, case, mesh, tables, quad)
                doms.append(ed)
                tris.append(et)
            dom_orders = np.log2(np.array(doms[:-1]) / np.array(doms[1:]))
            tri_orders = np.log2(np.array(tris[:-1]) / np.array(tris[1:]))
            assert dom_orders.min() >= k + 0.9
            assert tri_orders.min() >= k + 0.4


def _pointwise_errors(field, case, mesh, tables, quad):
    """``measure_error`` with the exact solution evaluated pointwise at
    every ordinate, as a reference for the once-sampled factors."""
    h, k = mesh.h, tables.basis.k
    fine = ElementTables(tables.basis, ElementQuadrature.build(k, k + 3, k + 3))
    fq = fine.quad
    X, Y = mesh.points(fq.vol_points)
    edges = _side_points(mesh, fq)
    dom = tri = 0.0
    for m, th in enumerate(quad.thetas):
        diff = field[m] @ fine.V.T - case.u(X, Y, th)
        vol = h * h * np.sum(diff**2 @ fq.vol_weights)
        kappa = np.abs(SIDE_NORMALS @ quad.vectors[m]) * h
        faces, _ = _face_traces(mesh, tables, field[m])
        jump = _jump_sum(kappa, tables.quad.edge_weights, faces, faces)
        sides = _side_traces(mesh, fine, field[m])
        bdy = [t - case.u(x, y, th) for t, (x, y) in zip(sides, edges)]
        dom += quad.weights[m] * vol
        tri += quad.weights[m] * (
            vol + 0.5 * jump + _boundary_sum(kappa, fq.edge_weights, bdy, bdy)
        )
    return np.sqrt(dom), np.sqrt(tri)


_SCHEMES = {"wg": WG(), "dodg": DODG(), "dodsd": DODSD()}


def _per_ordinate_errors(field, case, mesh, tables, quad):
    """Reference: ``measure_error`` as it was before it reused its
    buffers, with new arrays per ordinate, both traces of every face and
    side, and the exact solution's terms summed from 0."""
    h, k = mesh.h, tables.basis.k
    fine = ElementTables(tables.basis, ElementQuadrature.build(k, k + 3, k + 3))
    fq = fine.quad

    def sampled(x, y):
        parts = [(a, _sample(g, x, y)) for a, g in case.u.terms]
        return lambda th: sum(a(th) * G for a, G in parts)

    u = sampled(*mesh.points(fq.vol_points))
    vol = np.empty(len(quad))
    for m, th in enumerate(quad.thetas):
        diff = field[m] @ fine.V.T - u(th)
        vol[m] = h * h * np.sum(diff**2 @ fq.vol_weights)
    err_dom = float(np.sqrt(np.sum(quad.weights * vol)))
    edges = [sampled(x, y) for x, y in _side_points(mesh, fq)]
    total = 0.0
    for m, th in enumerate(quad.thetas):
        kappa = np.abs(SIDE_NORMALS @ quad.vectors[m]) * h
        faces, _ = _face_traces(mesh, tables, field[m])
        jump = _jump_sum(kappa, tables.quad.edge_weights, faces, faces)
        sides = _side_traces(mesh, fine, field[m])
        diff = [t - u_b(th) for t, u_b in zip(sides, edges)]
        bdy = _boundary_sum(kappa, fq.edge_weights, diff, diff)
        total += quad.weights[m] * (vol[m] + 0.5 * jump + bdy)
    return err_dom, float(np.sqrt(total))


class TestMeasureErrorBuffers:
    """``measure_error`` reuses one (C, q) buffer per pass and takes each
    face's traces once: bit for bit the errors of the loop it replaced."""

    @pytest.mark.parametrize("level", [3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_bitwise_the_per_ordinate_loop(self, name, scheme, k, level):
        case = build_case(name)
        sol = solve_case(case, scheme=_SCHEMES[scheme], k=k, level=level)
        got = measure_error(sol.field, case, sol.mesh, sol.tables, sol.quad)
        assert got == _per_ordinate_errors(sol.field, case, sol.mesh, sol.tables, sol.quad)

    def test_volume_pass_holds_two_arrays_at_any_m(self):
        # with an exact solution of constant factors, the broken-L2 pass
        # holds the points X and Y, its buffer and one sampled term, each
        # (C, q), however many ordinates there are
        case = ManufacturedCase(
            "flat", u=Separable(((np.cos, lambda x, y: 1.0),)), scatter_u=None, f=None,
            u_in=None, phase=Isotropic(), medium=Medium(),
        )
        mesh, tables = build_mesh(6), _build_tables(1)
        q = (tables.basis.k + 3) ** 2
        array = mesh.n_cells * q * 8
        peaks = []
        for M in (4, 64):
            quad = build_circle_trapezoid(M)
            field = np.random.default_rng(M).standard_normal((len(quad), mesh.n_cells, 4))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                dowg.verify._errors(field, case, mesh, tables, quad)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= (2 + 2.1) * array


class TestSeparableTerms:
    # level 3 is solved by the exact pairs (at most 576 unknowns per
    # ordinate), level 4 by sweeps; the last two cases are non-stock at odd M
    @pytest.mark.parametrize(
        "name,scheme,k,level,kw,M",
        [
            (name, scheme, k, level, {}, 20)
            for name in ("example1", "example2")
            for scheme in _SCHEMES
            for k in (1, 2)
            for level in (3, 4)
        ]
        + [("example2", "dodsd", 2, 4, {"sigma_t": 5.0, "sigma_s": 3.0}, 7),
           ("example1", "wg", 1, 4, {"sigma_t": 5.0, "sigma_s": 3.0}, 7)],
    )
    def test_match_pointwise_evaluation(self, name, scheme, k, level, kw, M):
        case = build_case(name, **kw)
        sol = solve_case(case, scheme=_SCHEMES[scheme], k=k, level=level, M=M)
        for system in sol.systems:
            ref = assemble_direction(
                sol.scheme, sol.mesh, sol.tables, sol.quad, sol.kernel, case.medium,
                system.m, f=case.f, u_in=case.u_in,
            ).rhs_fixed
            assert np.linalg.norm(system.rhs_fixed - ref) <= 1e-14 * np.linalg.norm(ref)
        got = measure_error(sol.field, case, sol.mesh, sol.tables, sol.quad)
        ref = _pointwise_errors(sol.field, case, sol.mesh, sol.tables, sol.quad)
        assert_allclose(got, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_each_factor_sampled_once_per_run(self, name):
        # the spatial factors are evaluated as often at M = 16 as at M = 4
        def counted(fn, label, counts):
            def wrap(g, key):
                def g_counted(x, y):
                    counts[key] += 1
                    return g(x, y)
                return g_counted

            return Separable(tuple((a, wrap(g, (label, j))) for j, (a, g) in enumerate(fn.terms)))

        runs = []
        for M in (4, 16):
            counts = collections.Counter()
            base = build_case(name)
            case = dataclasses.replace(
                base, u=counted(base.u, "u", counts), f=counted(base.f, "f", counts),
                u_in=counted(base.u_in, "u_in", counts),
            )
            sol = solve_case(case, k=1, level=2, M=M)
            measure_error(sol.field, case, sol.mesh, sol.tables, sol.quad)
            project_exact(case, sol.mesh, sol.tables, sol.quad)
            runs.append(counts)
        assert runs[0] == runs[1]
        assert {label for label, _ in runs[0]} == {"u", "f", "u_in"}


class TestSolveCase:
    def test_by_name_and_by_object(self):
        by_name = solve_case("example1", k=1, level=2)
        by_obj = solve_case(build_case("example1"), k=1, level=2)
        assert_allclose(by_name.field, by_obj.field, atol=1e-13)

    def test_production_tolerance_converges(self):
        sol = solve_case("example1", k=1, level=3)
        assert sol.trace.converged
        assert sol.trace.errs[-1] < 1e-3

    def test_pure_absorption_two_iterations(self):
        case = build_case("example1", sigma_s=0.0)
        sol = solve_case(case, k=1, level=2)
        assert sol.trace.iterations == 2

    def test_renormalize_override(self):
        on = solve_case("example1", k=1, level=2)
        off = solve_case("example1", k=1, level=2, renormalize=False)
        assert on.kernel.renormalized and not off.kernel.renormalized
        assert np.abs(on.field - off.field).max() > 1e-5


class TestRunConvergence:
    def test_levels_must_ascend(self):
        with pytest.raises(ValueError):
            run_convergence("example1", levels=[4, 3])

    def test_small_study_orders(self):
        rep = run_convergence("example1", k=1, levels=range(2, 5))
        assert rep.case == "example1" and rep.scheme == "wg"
        assert rep.inv_h == [4, 8, 16]
        assert rep.rows[0][2] is None
        # self-consistency: eoc equals log2 of the stored error ratio
        for (_, e0, _), (_, e1, eoc) in zip(rep.rows, rep.rows[1:]):
            assert_allclose(eoc, np.log2(e0 / e1), rtol=1e-12)
        assert min(rep.eocs) > 1.4
        assert len(rep.walls) == len(rep.iterations) == 3
        # energy-norm errors dominate the tabulated L2 ones
        assert all(t > e for t, (_, e, _) in zip(rep.triple_errors, rep.rows))

    def test_rows_are_certified(self):
        # tol None resumes a row until its bound is 1% of its error, so
        # the row's error matches a tight solve's to that 1%
        case = build_case("example2")
        quad = build_circle_trapezoid(20)
        _, kernel = _case_kernel(case, quad, None)
        mesh, tables = build_mesh(4), _build_tables(2)
        systems = _assemble_all(case, DODG(), mesh, tables, quad, kernel)

        # the certified row is measured on the loop's own field over its
        # distinct directions and their quadrature, the reference on the
        # full field
        def measure(f, q=quad):
            return measure_error(f, case, mesh, tables, q)

        _, trace, (err, _) = _iterate(systems, kernel, quad, None, "row", measure)
        ref, _ = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-13)
        )
        assert trace.converged and trace.bound <= 0.01 * err
        assert abs(err - measure(ref)[0]) <= 0.01 * err

    @staticmethod
    def _recorded(monkeypatch):
        """Run the three-level example2 Q1 study, recording each broken-L2
        measurement (``_errors``) as [field copy, args, L2 error,
        triple-norm error or None while it is not finished]."""
        calls = []
        real = dowg.verify._errors

        def recording(field, *args):
            err, finish = real(field, *args)
            call = [field.copy(), args, err, None]
            calls.append(call)

            def triple():
                call[3] = finish()
                return call[3]

            return err, triple

        monkeypatch.setattr(dowg.verify, "_errors", recording)
        return calls, run_convergence("example2", k=1, levels=[2, 3, 4])

    def test_triple_norm_once_per_row(self, monkeypatch):
        # certification measures the broken-L2 error only; each row's
        # triple-norm error is finished once, on its final field, and its
        # L2 error is bitwise the one its last certification saw
        calls, rep = self._recorded(monkeypatch)
        rows = [i for i, call in enumerate(calls) if call[3] is not None]
        assert len(rows) == len(rep.rows) and len(calls) > len(rows)
        for i, (_, err, _), tri in zip(rows, rep.rows, rep.triple_errors):
            assert calls[i][2:] == [err, tri]

    def test_l2_once_per_certification(self, monkeypatch):
        # a certified row's final field is the one its last certification
        # measured, so the row reuses that L2 error: five measurements for
        # the three rows (eight while the row measured it again), and both
        # errors bitwise those of measure_error on the final field
        calls, rep = self._recorded(monkeypatch)
        assert len(calls) == 5
        rows = [call for call in calls if call[3] is not None]
        for (field, args, err, tri), (_, row_err, _) in zip(rows, rep.rows, strict=True):
            assert measure_error(field, *args) == (err, tri) and err == row_err

    @pytest.mark.parametrize("study", ["convergence", "angular"])
    def test_loop_field_freed_before_the_next_assembly(self, monkeypatch, study):
        # a certified row's triple-norm error is finished from the loop's
        # own field; once it is, that field is dead before the next level
        # (or ordinate count) assembles
        owners, alive = [], []
        real_errors, real_assemble = dowg.verify._errors, dowg.verify._assemble_all

        def errors(field, *args):
            owners.append(weakref.ref(field if field.base is None else field.base))
            return real_errors(field, *args)

        def assemble(*args):
            alive.append([ref() is not None for ref in owners])
            return real_assemble(*args)

        monkeypatch.setattr(dowg.verify, "_errors", errors)
        monkeypatch.setattr(dowg.verify, "_assemble_all", assemble)
        if study == "convergence":
            run_convergence("example2", k=1, levels=[2, 3, 4])
        else:
            run_angular_study(k=1, level=4, Ms=(4, 8, 16), tol=None)
        assert len(alive) == 3 and owners
        assert alive[0] == [] and alive[1] and not any(alive[1] + alive[2])

    @pytest.mark.parametrize("study", ["convergence", "angular"])
    def test_systems_freed_before_the_next_assembly(self, monkeypatch, study):
        # a level's (or ordinate count's) systems, their right sides among
        # them, are dead once its loop returns, before the next assembly
        owners, alive = [], []
        real_assemble = dowg.verify._assemble_all

        def assemble(*args):
            alive.append([ref() is not None for ref in owners])
            systems = real_assemble(*args)
            owners.extend([weakref.ref(systems[0]), weakref.ref(systems[0].rhs_fixed)])
            return systems

        monkeypatch.setattr(dowg.verify, "_assemble_all", assemble)
        if study == "convergence":
            run_convergence("example2", k=1, levels=[2, 3, 4])
        else:
            run_angular_study(k=1, level=4, Ms=(4, 8, 16), tol=None)
        assert [len(a) for a in alive] == [0, 2, 4]
        assert not any(alive[1] + alive[2])

    def test_gap_levels_prolong_twice(self, monkeypatch):
        # level 4 starts from level 2's field prolonged over the gap; every
        # row is certified, and each error is within 1% of its zero
        # start's, which a one-level run gives
        gaps = []
        real = dowg.verify._prolong

        def recording(field, basis, times=1):
            gaps.append((field.shape[1], times))
            return real(field, basis, times)

        monkeypatch.setattr(dowg.verify, "_prolong", recording)
        rep = run_convergence("example1", k=1, levels=[2, 4])
        assert rep.inv_h == [4, 16] and gaps == [(16, 2)]
        for lv, err in zip((2, 4), rep.errors):
            zero = run_convergence("example1", k=1, levels=[lv]).errors[0]
            assert abs(err - zero) <= 0.01 * zero

    def test_fine_tables_built_once_per_run(self, monkeypatch):
        # every error measurement of a run reads the one set of fine
        # tables built for the run's tables: two tables in all, the run's
        # own and those, for five measurements
        built, real = [], dowg.verify.ElementTables

        def counted(*args):
            built.append(real(*args))
            return built[-1]

        calls, real_errors = [], dowg.verify._errors

        def errors(*args):
            calls.append(1)
            return real_errors(*args)

        monkeypatch.setattr(dowg.verify, "ElementTables", counted)
        monkeypatch.setattr(dowg.verify, "_errors", errors)
        run_convergence("example2", k=1, levels=[2, 3, 4])
        assert len(calls) == 5 and len(built) == 2

    def test_tolerance_override(self):
        rep = run_convergence("example1", k=1, levels=[2, 3], tol=1e-7)
        assert min(rep.eocs) > 1.4


class TestRunComparison:
    def test_three_schemes(self):
        reps = run_comparison("example2", k=1, levels=range(2, 5))
        assert set(reps) == {"wg", "dodg", "dodsd"}
        for rep in reps.values():
            assert len(rep.rows) == 3
        # all three converge at second order on the shared levels and
        # stay within a constant factor of one another
        for rep in reps.values():
            assert rep.eocs[-1] > 1.5
        ratios = dominance_ratios(reps)
        assert len(ratios) == 3
        assert all(0.2 < r < 5.0 for r in ratios)

    def test_ratio_metric(self):
        a = ConvergenceReport("c", "wg", 1, 4, rows=[(8, 2.0, None), (16, 1.0, 1.0)])
        b = ConvergenceReport("c", "dodg", 1, 4, rows=[(8, 1.0, None), (16, 4.0, -2.0)])
        c = ConvergenceReport("c", "dodsd", 1, 4, rows=[(8, 4.0, None), (16, 2.0, 1.0)])
        assert dominance_ratios({"wg": a, "dodg": b, "dodsd": c}) == [2.0, 0.5]
        c.rows = c.rows[:1]
        with pytest.raises(ValueError):
            dominance_ratios({"wg": a, "dodg": b, "dodsd": c})


class TestRunAngularStudy:
    def test_ms_must_ascend(self):
        with pytest.raises(ValueError):
            run_angular_study(Ms=(8, 4))

    def test_monotone_and_plateau(self):
        rep = run_angular_study("example2", k=1, level=3, Ms=(4, 8, 16, 32))
        assert isinstance(rep, AngularStudyReport)
        # distance to the plateau shrinks monotonically and the curve
        # levels out at the spatial error
        assert rep.monotone
        assert rep.plateaued()
        assert rep.contributions[-1] == 0.0
        assert all(e > 0 for e in rep.errors)

    def test_unconverged_row_raises_with_m(self, monkeypatch):
        # two sweeps cannot meet tol 1e-300; left uncapped, the exact pairs
        # may reach a fixed point whose update is exactly 0 and certify
        monkeypatch.setattr(
            dowg.verify, "SourceIterationConfig",
            lambda **kw: SourceIterationConfig(max_outer=2, **kw),
        )
        with pytest.raises(SolverFailure, match="M = 4") as err:
            run_angular_study("example1", k=1, level=2, Ms=(4,), tol=1e-300)
        assert err.value.residual > 0

    def test_example1_insensitive_to_m(self):
        rep = run_angular_study("example1", k=1, level=3, Ms=(8, 20))
        errs = rep.errors
        assert abs(errs[1] - errs[0]) <= 0.06 * errs[0]


class TestCheckMemory:
    def test_refuses_over_budget(self):
        with pytest.raises(ValueError, match="GiB"):
            _check_memory(1, 3, 20, budget=2**20)
        _check_memory(1, 3, 20, budget=2**30)

    def test_estimate_scales_with_the_run(self):
        # Q1 at level 9 needs several GiB of operators; level 8 a quarter
        with pytest.raises(ValueError, match="level 9"):
            _check_memory(1, 9, 20, budget=4 * 2**30)
        _check_memory(1, 8, 20, budget=4 * 2**30)
        with pytest.raises(ValueError, match="M = 80"):
            _check_memory(1, 8, 80, budget=4 * 2**30)

    def test_counts_the_scattering_kernel(self):
        # at M = 100000 the dense (L, L) kernel alone is 75 GiB, while the
        # per-ordinate storage and fields on a 4 x 4 grid are 1.3 GB
        with pytest.raises(ValueError, match="M = 100000"):
            _check_memory(1, 2, 100_000, budget=8 * 2**30)
        _check_memory(1, 2, 20, budget=8 * 2**30)

    @pytest.mark.parametrize("start", ["zero", "nested"])
    @pytest.mark.parametrize("name, k, level", [("example1", 1, 4), ("example1", 1, 5),
                                                ("example2", 2, 3), ("example2", 2, 4)])
    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    def test_bounds_the_traced_peak(self, scheme, name, k, level, start):
        # the estimate stays above all that a run allocates, from zero or
        # from the previous level's prolonged field (3.2-12.2x above it);
        # SuperLU, which the exact pairs and DODG's CSR load, is imported
        # first, so its module objects are not counted
        import scipy.sparse.linalg  # noqa: F401

        tracemalloc.start()
        try:
            if start == "zero":
                solve_case(name, scheme=_SCHEMES[scheme], k=k, level=level)
            else:
                run_convergence(name, scheme=_SCHEMES[scheme], k=k, levels=[level - 1, level])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with pytest.raises(ValueError, match="GiB"):
            _check_memory(k, level, 20, budget=peak)

    def test_solve_case_checks_before_assembly(self, monkeypatch):
        monkeypatch.setattr("dowg.verify._memory_budget", lambda: 2**10)
        with pytest.raises(ValueError, match="GiB"):
            solve_case("example1", k=1, level=2)
        with pytest.raises(ValueError, match="GiB"):
            run_convergence("example1", k=1, levels=[2, 3])
        with pytest.raises(ValueError, match="GiB"):
            run_angular_study("example1", k=1, level=2, Ms=(4,))

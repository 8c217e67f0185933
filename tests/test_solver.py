import io
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from test_assembly import _THETAS, _one_ordinate, _quadrature_norm, _quadrature_source
from test_class_stencil import _dinv_cells

import dowg.solver
from dowg.angular import (
    HenyeyGreenstein,
    Isotropic,
    build_circle_trapezoid,
    build_scatter_kernel,
)
from dowg.assembly import (
    DODG, DODSD, WG, DirectionSystem, Medium, assemble_direction, l2_dom_norm,
    scattering_source,
)
from dowg.elements import ElementQuadrature, ElementTables, LocalBasis, project_field
from dowg.mesh import build_mesh
from dowg.solver import (
    IterationTrace,
    SolverFailure,
    SourceIterationConfig,
    _SweepSolve,
    _pairs,
    _unit_lower_solve,
    source_iteration,
)
from dowg.verify import _iterate, run_convergence, solve_case


def _setup(level=2, k=1, sigma_s=0.5, phase=None, renormalize=True):
    quad = build_circle_trapezoid(20)
    phase = phase or HenyeyGreenstein(0.5)
    kernel = build_scatter_kernel(quad, phase, 2.0, sigma_s, renormalize=renormalize)
    medium = Medium(2.0, sigma_s)
    mesh = build_mesh(level)
    tables = ElementTables(LocalBasis(k), ElementQuadrature.build(k))
    return quad, kernel, medium, mesh, tables


def _systems(scheme, quad, kernel, medium, mesh, tables, f=None, u_in=None):
    return [
        assemble_direction(scheme, mesh, tables, quad, kernel, medium, m, f=f, u_in=u_in)
        for m in range(len(quad))
    ]


def _source(x, y, th):
    return np.sin(3.0 * x + th) + np.cos(2.0 * y)


def _discrete_residual(systems, kernel, quad, field):
    """||A u - F - S(u)|| / ||F + S(u)|| over all ordinates, the relative
    residual the benchmark checks a returned field against."""
    src = scattering_source(systems, kernel, quad, field)
    num = den = 0.0
    for m, system in enumerate(systems):
        rhs = system.rhs_fixed + src[m].ravel()
        r = system.matrix @ field[m].ravel() - rhs
        num += float(r @ r)
        den += float(rhs @ rhs)
    return float(np.sqrt(num / den))


def _lower_part(P, d, mesh, direction):
    """D + L of P in the original numbering: the diagonal cell blocks and
    the blocks coupling a cell to cells on earlier fronts, with fronts
    counted along the flow from the cells' grid coordinates."""
    c = np.arange(mesh.n_cells)
    ij = np.column_stack([c % mesh.n, c // mesh.n])  # (column i, row j)
    front = np.zeros(mesh.n_cells, dtype=int)
    for axis in (0, 1):
        t = ij[:, axis]
        front += t if direction[axis] >= 0 else mesh.n - 1 - t
    coo = P.tocoo()
    rc, cc = coo.row // d, coo.col // d
    keep = (rc == cc) | (front[cc] < front[rc])
    return sp.csc_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=P.shape
    )


@dataclass(frozen=True)
class _UpwindDG(DODG):
    """Reference: the penalty-free upwind DG operator (c_p = 0), which
    the solver used to assemble as the WG sweep preconditioner."""

    c_p: float = 0.0

    def __post_init__(self):
        pass


def _sweep_matrix(system):
    """The matrix whose diagonal and upwind blocks the sweep inverts: the
    system matrix for DODG and DODSD, the penalty-free upwind DG operator
    for WG."""
    if isinstance(system.scheme, WG):
        return replace(system, scheme=_UpwindDG()).matrix
    return system.matrix


def _natural_lower(sw):
    """The sweep's D + L in the original numbering, rebuilt from what it
    holds: D from D^{-1}, and D M renumbered back from front order."""
    d = sw.d
    dofs = (np.asarray(sw._order)[:, None] * d + np.arange(d)).ravel()
    D = sp.block_diag(list(np.linalg.inv(_dinv_cells(sw))), format="csr")
    P = (D @ sw.M).tocoo()
    return sp.csr_matrix(
        (P.data, (dofs[P.row], dofs[P.col])), shape=P.shape
    )


class _FrontLoopSweep(_SweepSolve):
    """Reference P^{-1} = (D + L)^{-1}: forward substitution front by
    front in a Python loop over the blocks of the assembled sweep matrix,
    as the solver did before the triangular solve replaced it."""

    def __init__(self, system, patterns, start=None):
        super().__init__(system, patterns, start)
        mesh, d, direction = system.mesh, system.tables.dof, system.direction
        n = mesh.n
        idx = np.arange(n)
        ip = idx if direction[0] >= 0 else idx[::-1]
        jp = idx if direction[1] >= 0 else idx[::-1]
        front = (jp[:, None] + ip[None, :]).ravel()
        B = _sweep_matrix(system).tobsr(blocksize=(d, d))
        rows = np.repeat(np.arange(mesh.n_cells), np.diff(B.indptr))
        cols = B.indices
        diag = rows == cols
        self._dinv_cells = np.linalg.inv(B.data[diag][np.argsort(rows[diag])])
        lower = front[cols] < front[rows]
        self._fronts = [
            (np.nonzero(front == l)[0], lower & (front[rows] == l))
            for l in range(2 * n - 1)
        ]
        self._blocks = (rows, cols, B.data)

    def _forward(self, r):
        rows, cols, data = self._blocks
        acc = np.array(r, dtype=float).reshape(-1, self.d)
        z = np.empty_like(acc)
        for cells, sel in self._fronts:
            take = data[sel] @ z[cols[sel], :, None]
            np.subtract.at(acc, rows[sel], take[..., 0])
            z[cells] = np.einsum("cij,cj->ci", self._dinv_cells[cells], acc[cells])
        return z.ravel()


_SCHEMES = {"wg": WG(), "dodg": DODG(), "dodsd": DODSD()}


class TestLinearSolve:
    def test_zero_rhs_short_circuit(self, monkeypatch):
        # zero data: the first sweep's update is exactly zero, which
        # certifies the zero field at once
        monkeypatch.setattr(dowg.solver, "_EXACT_UP_TO", 0)
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        systems = _systems(DODG(), quad, kernel, medium, mesh, tables)
        field, trace = source_iteration(systems, kernel, quad)
        assert trace.converged and trace.iterations == 1
        assert trace.bound == 0.0 and trace.residual == 0.0
        assert field.shape == (len(quad), mesh.n_cells, tables.dof)
        assert not np.any(field)

    def test_failure_carries_residual(self):
        # a table row that cannot be certified raises with the coupled
        # relative residual its last sweep saw
        quad, kernel, medium, mesh, tables = _setup(level=2, k=1)
        systems = _systems(DODG(), quad, kernel, medium, mesh, tables, f=_source)
        with pytest.raises(SolverFailure, match="row 7: .*200 sweeps") as err:
            _iterate(systems, kernel, quad, 1e-300, "row 7", lambda f: (1.0, 1.0))
        assert err.value.residual is not None and err.value.residual > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SourceIterationConfig(tol=-1.0)
        with pytest.raises(ValueError):
            SourceIterationConfig(max_outer=0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_config_rejects_non_finite_tol(self, tol):
        # tol = inf would stop after one sweep and report convergence
        with pytest.raises(ValueError, match="finite"):
            SourceIterationConfig(tol=tol)


class TestSweep:
    def test_matches_direct_all_schemes(self, monkeypatch):
        # without scattering the fused loop is Richardson iteration on
        # each ordinate's own system; the cutoff at 0 forces sweeps
        monkeypatch.setattr(dowg.solver, "_EXACT_UP_TO", 0)
        quad, kernel, medium, mesh, tables = _setup(level=2, k=1, sigma_s=0.0)
        for scheme in (WG(), DODG(), DODSD()):
            systems = _systems(scheme, quad, kernel, medium, mesh, tables, f=_source)
            field, trace = source_iteration(
                systems, kernel, quad, SourceIterationConfig(tol=1e-12)
            )
            assert trace.converged
            # m = 0, 5, 10, 15 are the axis-aligned ordinates
            for m in (0, 2, 5, 7, 10, 13, 15, 18):
                ref = spla.spsolve(systems[m].matrix.tocsc(), systems[m].rhs_fixed)
                assert_allclose(field[m].ravel(), ref, atol=1e-10 * np.abs(ref).max())

    def test_streamline_diffusion_is_one_sweep(self):
        # in upwind order that matrix is exactly block lower triangular
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(
            DODSD(), mesh, tables, quad, kernel, medium, 3, f=_source
        )
        sw = _SweepSolve(sysm, {})
        assert sw.R is None
        b = np.sin(np.arange(sysm.n_dof))
        x = sw._forward(b)
        assert np.linalg.norm(sysm.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_warm_start_is_a_fixed_point(self):
        # the fused step is x <- P^{-1}(b - R x) with A = P + R, so the
        # exact solution is left where it is
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        sysm = assemble_direction(
            WG(), mesh, tables, quad, kernel, medium, 4, f=_source
        )
        [(solve, R)] = _pairs([sysm])
        assert R is not None
        b = np.cos(np.arange(sysm.n_dof))
        x = spla.spsolve(sysm.matrix.tocsc(), b)
        step = solve(b - R @ x) - x
        assert np.abs(step).max() <= 1e-12 * np.abs(x).max()

    def test_pairs_pick_sweep_then_exact(self):
        # above the cutoff the WG ordinate is swept and keeps its
        # stabilizer remainder; at desk scale it is solved exactly (R = 0)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        sysm = assemble_direction(WG(), mesh, tables, quad, kernel, medium, 1)
        [(_, R)] = _pairs([sysm])
        assert R is not None
        small_mesh = build_mesh(1)
        s2 = assemble_direction(
            WG(), small_mesh, tables, quad, kernel, medium, 1
        )
        [(solve, R)] = _pairs([s2])
        assert R is None
        b = np.ones(s2.n_dof)
        assert np.abs(s2.matrix @ solve(b) - b).max() <= 1e-12

    def test_stalled_sweep_falls_back_to_sparse_lu(self, monkeypatch):
        # sweeping the WG matrix's own lower part (instead of the
        # penalty-free upwind operator) diverges; the run warns once,
        # moves every ordinate to sparse LU, counts them and still solves
        # the coupled system, here without scattering so that each
        # ordinate matches a direct solve
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1, sigma_s=0.0)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        with pytest.warns(RuntimeWarning, match="sparse LU") as record:
            field, trace = source_iteration(
                systems, kernel, quad, SourceIterationConfig(tol=1e-10)
            )
        assert len([w for w in record if w.category is RuntimeWarning]) == 1
        assert trace.converged
        assert trace.escalated == len(quad)
        for m in (0, 3, 8, 14):
            ref = spla.spsolve(systems[m].matrix.tocsc(), systems[m].rhs_fixed)
            assert_allclose(field[m].ravel(), ref, atol=1e-10 * np.abs(ref).max())

    def test_large_dodg_penalty_reaches_the_fallback(self):
        # no patching: at c_p = 10 the DODG sweeps' downwind remainder is
        # too strong for them to converge, so the real input stalls, warns
        # once and certifies on sparse LU for every ordinate
        with pytest.warns(RuntimeWarning, match="sparse LU") as record:
            sol = solve_case("example1", scheme=DODG(c_p=10), k=1, level=5, M=4,
                             cfg=SourceIterationConfig(tol=1e-9))
        warned = [str(w.message) for w in record if w.category is RuntimeWarning]
        assert len(warned) == 1
        assert "switching 5 of 5 ordinates to sparse LU" in warned[0]
        assert sol.trace.converged
        assert sol.trace.escalated == 5

    @pytest.mark.parametrize("name", ["wg", "dodg"])
    def test_roundoff_is_not_a_stall(self, name):
        # a tolerance below roundoff leaves the update norm at machine
        # precision, where it stops falling by noise: the run ends
        # unconverged without a warning and keeps its sweeps
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = source_iteration(
                systems, kernel, quad, SourceIterationConfig(tol=1e-16, max_outer=80)
            )
        assert not trace.converged and trace.iterations == 80
        assert trace.escalated == 0


class TestSweepProperty:
    """The sweep applies (D + L)^{-1} of its preconditioner for any
    direction, and solves the streamline-diffusion system exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        name=st.sampled_from(sorted(_SCHEMES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_is_the_lower_solve(self, theta, k, name, seed):
        # P^{-1} is the lower solve with the sweep matrix's D + L, and R
        # holds the rest of the system matrix
        _, kernel, medium, mesh, tables = _setup(level=3, k=k)
        one = _one_ordinate(theta)
        sysm = assemble_direction(
            _SCHEMES[name], mesh, tables, one, kernel, medium, 0
        )
        lower = _lower_part(_sweep_matrix(sysm), tables.dof, mesh, sysm.direction)
        sw = _SweepSolve(sysm, {})
        b = np.random.default_rng(seed).standard_normal(sysm.n_dof)
        ref = spla.spsolve(lower, b)
        x = sw._forward(b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        A = sysm.matrix
        R = sp.csr_matrix(A.shape) if sw.R is None else sw.R
        assert np.abs(R + lower - A).max() <= 1e-14 * np.abs(A).max()
        if name == "dodsd":
            exact = spla.spsolve(sysm.matrix.tocsc(), b)
            assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()

    @settings(max_examples=40, deadline=None)
    @given(theta=_THETAS, k=st.sampled_from([1, 2]))
    def test_wg_sweep_matrix_is_penalty_free_upwind(self, theta, k):
        # the D + L the WG sweep holds (WG plus its stabilizer once more)
        # is that of upwind DG without penalty
        _, kernel, medium, mesh, tables = _setup(level=3, k=k)
        one = _one_ordinate(theta)
        sysm = assemble_direction(WG(), mesh, tables, one, kernel, medium, 0)
        ref = assemble_direction(_UpwindDG(), mesh, tables, one, kernel, medium, 0)
        lower = _lower_part(ref.matrix, tables.dof, mesh, sysm.direction)
        diff = _natural_lower(_SweepSolve(sysm, {})) - lower
        assert np.abs(diff).max() <= 1e-14 * np.abs(ref.matrix).max()

    def test_forward_leaves_its_input(self):
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(DODSD(), mesh, tables, quad, kernel, medium, 3)
        sw = _SweepSolve(sysm, {})
        b = np.sin(np.arange(sysm.n_dof))
        first = sw._forward(b)
        assert_array_equal(b, np.sin(np.arange(sysm.n_dof)))
        assert_array_equal(sw._forward(b), first)


class TestPreChangeEquivalence:
    """The fused loop through the triangular-solve sweep and the
    coefficient-space scattering source and norm reproduces the same loop
    with the front-loop P^{-1} and quadrature-point scattering and norm."""

    @pytest.mark.parametrize("name, k, level", [("wg", 1, 4), ("dodsd", 2, 4)])
    def test_fields_match(self, monkeypatch, name, k, level):
        quad, kernel, medium, mesh, tables = _setup(level=level, k=k)
        systems = _systems(
            _SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source
        )
        assert systems[0].n_dof > dowg.solver._EXACT_UP_TO
        cfg = SourceIterationConfig(tol=1e-9)
        new, tnew = source_iteration(systems, kernel, quad, cfg)
        monkeypatch.setattr(dowg.solver, "_SweepSolve", _FrontLoopSweep)
        monkeypatch.setattr(dowg.solver, "scattering_source", _quadrature_source)
        monkeypatch.setattr(dowg.solver, "l2_dom_norm", _quadrature_norm)
        old, told = source_iteration(systems, kernel, quad, cfg)
        assert tnew.converged and tnew.iterations == told.iterations
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


class TestSourceIteration:
    def test_pure_absorption_stops_after_two(self):
        # sigma_s = 0: the first pass is already exact, the second only
        # certifies the zero update
        quad, kernel, medium, mesh, tables = _setup(sigma_s=0.0)
        systems = _systems(DODSD(), quad, kernel, medium, mesh, tables, f=_source)
        _, trace = source_iteration(systems, kernel, quad)
        assert trace.converged
        assert trace.iterations == 2

    def test_update_norms_contract(self):
        quad, kernel, medium, mesh, tables = _setup(level=3)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        _, trace = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-9)
        )
        assert trace.converged
        errs = trace.errs
        assert all(b <= 0.5 * a for a, b in zip(errs[1:], errs[2:]))

    def test_duplicate_endpoint_rows_agree(self):
        # theta = 0 and theta = 2 pi are distinct ordinates of the same
        # direction and must produce the same per-cell solution
        quad, kernel, medium, mesh, tables = _setup(level=3)
        systems = _systems(
            WG(), quad, kernel, medium, mesh, tables, f=_source,
            u_in=lambda x, y, th: 0.1 + 0.0 * x,
        )
        field, _ = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-10)
        )
        scale = np.abs(field[0]).max()
        assert np.abs(field[-1] - field[0]).max() <= 1e-9 * max(scale, 1.0)

    def test_sweep_equals_exact_end_to_end(self, monkeypatch):
        # level 4 with k = 1 sits above the exact-solve cutoff, so the
        # default run takes the preconditioned wavefront sweep; raising
        # the cutoff past the system size gives the exact-LU reference
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        assert systems[0].n_dof > dowg.solver._EXACT_UP_TO
        cfg = SourceIterationConfig(tol=1e-8)
        fa, _ = source_iteration(systems, kernel, quad, cfg)
        monkeypatch.setattr(dowg.solver, "_EXACT_UP_TO", systems[0].n_dof)
        fd, _ = source_iteration(systems, kernel, quad, cfg)
        assert np.abs(fa - fd).max() <= 1e-8

    def test_nonconvergence_is_flagged_not_raised(self):
        quad, kernel, medium, mesh, tables = _setup(level=2)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        _, trace = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-13, max_outer=2)
        )
        assert not trace.converged
        assert trace.iterations == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_update_stops_at_once(self, monkeypatch, bad):
        # a sweep whose solve returns a non-finite field ends the loop,
        # uncertified, after that sweep
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        real = dowg.solver._pairs
        solves = []

        def poisoned(solve):
            def step(g):
                solves.append(1)
                x = solve(g)
                if len(solves) > 2 * len(quad):  # from the third sweep on
                    x[0] = bad
                return x
            return step

        def failing(systems):
            return [(poisoned(solve), R) for solve, R in real(systems)]

        monkeypatch.setattr(dowg.solver, "_pairs", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, trace = source_iteration(
                systems, kernel, quad, SourceIterationConfig(tol=1e-9)
            )
        assert not trace.converged and trace.iterations == 3
        assert not np.isfinite(trace.errs[-1])
        assert np.isfinite(trace.errs[:2]).all()

    def test_scattering_fixed_point(self):
        # converged field solves each direction system with the lagged
        # source evaluated at the field itself
        from dowg.assembly import scattering_source

        quad, kernel, medium, mesh, tables = _setup(level=2)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        field, _ = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-12)
        )
        src = scattering_source(systems, kernel, quad, field)
        for k in (0, 7, 14):
            lhs = systems[k].matrix @ field[k].ravel()
            rhs = systems[k].rhs_fixed + src[k].ravel()
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_isotropic_constant_balance(self):
        # u = 1, f = sigma_t - sigma_s: iteration reproduces the constant
        quad, kernel, medium, mesh, tables = _setup(
            phase=Isotropic(), renormalize=False
        )
        systems = _systems(
            WG(), quad, kernel, medium, mesh, tables,
            f=lambda x, y, th: np.full_like(np.broadcast_arrays(x, th)[0], 1.5),
            u_in=lambda x, y, th: np.ones_like(np.broadcast_arrays(x, th)[0]),
        )
        field, trace = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-12)
        )
        ones = project_field(mesh, tables, lambda x, y: np.ones_like(x))
        assert trace.converged
        assert np.abs(field - ones[None]).max() <= 1e-9


class TestCertifiedStop:
    """On sweep-sized systems the stop certifies what it claims: the
    bound covers the true iteration error and the returned field's
    coupled residual is at most the tolerance."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-7])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_bound_and_residual(self, name, tol):
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source)
        assert systems[0].n_dof > dowg.solver._EXACT_UP_TO
        field, trace = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=tol)
        )
        ref, tref = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-13)
        )
        assert trace.converged and tref.converged
        assert trace.bound <= tol and trace.residual <= tol
        assert l2_dom_norm(mesh, tables, quad, field - ref) <= trace.bound
        assert _discrete_residual(systems, kernel, quad, field) <= tol

    def test_certify_resumes_without_new_setup(self, monkeypatch):
        # the loop stops at tol, the target is tighter, so it resumes on
        # the same per-ordinate sweeps until the bound meets the target
        built = []

        class Counted(_SweepSolve):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dowg.solver, "_SweepSolve", Counted)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(DODG(), quad, kernel, medium, mesh, tables, f=_source)
        asked = []

        def certify(field):
            asked.append(len(asked))
            return 1e-10

        _, trace = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-3), certify=certify
        )
        assert trace.converged and trace.bound <= 1e-10 and trace.residual <= 1e-10
        assert len(asked) >= 2
        assert len(built) == len(quad)


class TestUnitLowerSolve:
    """The direct SuperLU call equals ``spsolve_triangular``, so a change
    of scipy's private binding fails here rather than silently."""

    def test_real_sweep_matrix(self):
        quad, kernel, medium, mesh, tables = _setup(level=4, k=2)
        sysm = assemble_direction(DODG(), mesh, tables, quad, kernel, medium, 7)
        M = _SweepSolve(sysm, {}).M
        assert M.format == "csc" and np.all(M.diagonal() == 1.0)
        b = np.random.default_rng(3).standard_normal(M.shape[0])
        ref = spla.spsolve_triangular(M, b, lower=True, unit_diagonal=True)
        assert_allclose(_unit_lower_solve(M, b), ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_random_unit_lower(self):
        rng = np.random.default_rng(5)
        n = 300
        strict = sp.random(n, n, density=0.02, random_state=rng, format="csc")
        M = (sp.tril(strict, -1) + sp.eye(n)).tocsc()
        M.sort_indices()
        b = rng.standard_normal(n)
        keep = b.copy()
        ref = spla.spsolve_triangular(M, b, lower=True, unit_diagonal=True)
        z = _unit_lower_solve(M, b)
        assert_array_equal(b, keep)
        assert_allclose(z, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        assert np.abs(M @ z - b).max() <= 1e-12 * np.abs(b).max()


class TestSplitStorage:
    """Each sweep ordinate holds D^{-1} per class, M and R only, and the
    loop never assembles a system matrix."""

    @staticmethod
    def _no_matrix(system):
        raise AssertionError("the loop read DirectionSystem.matrix")

    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_loop_never_assembles(self, monkeypatch, name):
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source)
        built = []

        class Kept(_SweepSolve):
            def __init__(self, system, patterns, start=None):
                super().__init__(system, patterns, start)
                built.append(self)

        monkeypatch.setattr(dowg.solver, "_SweepSolve", Kept)
        monkeypatch.setattr(DirectionSystem, "matrix", property(self._no_matrix))
        _, trace = source_iteration(systems, kernel, quad, SourceIterationConfig(tol=1e-9))
        monkeypatch.undo()
        assert trace.converged and trace.escalated == 0
        assert len(built) == len(quad)
        for sw, sysm in zip(built, systems):
            held = {k: v for k, v in vars(sw).items() if sp.issparse(v)}
            assert held.keys() == ({"M"} if name == "dodsd" else {"M", "R"})
            assert held["M"].format == "csc"
            if sw.R is not None:
                assert sw.R.format == "csr" and sw.R.nnz < sysm.matrix.nnz
            # D^{-1} per class: the bulk block and the 4n - 4 boundary cells' blocks
            blocks = sum(v.size for v in vars(sw).values()
                         if isinstance(v, np.ndarray) and v.ndim > 1)
            assert blocks <= (4 * mesh.n - 3) * tables.dof**2
            assert not any(sp.issparse(v) for v in vars(sysm).values())


class TestFreeResidual:
    """The coupled residual the loop takes as the difference of
    successive right sides g equals ||b + S x - A x|| / ||b + S x|| of the
    assembled matrices, at every sweep, across the fallback too."""

    @staticmethod
    def _check(monkeypatch, systems, kernel, quad, sweeps):
        fields = []
        real = dowg.solver.scattering_source

        def recording(*args):
            fields.append(args[-1].copy())
            return real(*args)

        with monkeypatch.context() as mp:
            mp.setattr(dowg.solver, "scattering_source", recording)
            source_iteration(
                systems, kernel, quad, SourceIterationConfig(tol=1e-300, max_outer=sweeps)
            )
        for k in range(1, sweeps + 1):
            # the k-th sweep's residual is that of the field it started from
            _, trace = source_iteration(
                systems, kernel, quad, SourceIterationConfig(tol=1e-300, max_outer=k)
            )
            ref = _discrete_residual(systems, kernel, quad, fields[k - 1])
            assert trace.residual == pytest.approx(ref, rel=1e-12, abs=1e-12)
        return trace

    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_every_sweep(self, monkeypatch, name):
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source)
        assert systems[0].n_dof > dowg.solver._EXACT_UP_TO
        self._check(monkeypatch, systems, kernel, quad, 8)

    def test_across_the_fallback(self, monkeypatch):
        # the unshifted WG sweep diverges and switches to sparse LU after
        # eleven sweeps; the residual stays exact after the switch
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        with pytest.warns(RuntimeWarning, match="sparse LU"):
            trace = self._check(monkeypatch, systems, kernel, quad, 14)
        assert trace.escalated == len(quad)


class TestStartField:
    """From a start field x0 the loop iterates x0 itself, and each
    ordinate's first previous g is P x0, so the first residual is that of
    x0 and the stop is unchanged; with no start it is the zero start, bit
    for bit.  Q2 at 1/h = 8 takes the exact pairs, Q1 at 1/h = 16 the
    sweeps."""

    @staticmethod
    def _run(name, k, level, **cfg):
        quad, kernel, medium, mesh, tables = _setup(level=level, k=k)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source)
        assert (systems[0].n_dof <= dowg.solver._EXACT_UP_TO) == (k == 2)

        def run(start=None):
            return source_iteration(
                systems, kernel, quad, SourceIterationConfig(**cfg), start=start
            )

        return systems, kernel, quad, run

    @pytest.mark.parametrize("k, level", [(2, 3), (1, 4)])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_first_residual_is_the_starts(self, name, k, level):
        systems, kernel, quad, run = self._run(name, k, level, tol=1e-300, max_outer=1)
        s0 = systems[0]
        x0 = np.random.default_rng(7).standard_normal((len(quad), s0.mesh.n_cells, s0.tables.dof))
        start = x0.copy()
        field, trace = run(start)
        assert field is start
        ref = _discrete_residual(systems, kernel, quad, x0)
        assert trace.residual == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k, level, sweeps", [
        (2, 3, {"dodg": 10, "dodsd": 10, "wg": 10}),
        (1, 4, {"dodg": 21, "dodsd": 10, "wg": 21}),
    ])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_no_start_is_the_zero_start(self, name, k, level, sweeps):
        _, _, _, run = self._run(name, k, level, tol=1e-8)
        field, trace = run()
        zero, tzero = run(np.zeros_like(field))
        assert trace.converged and trace.iterations == sweeps[name]
        assert_array_equal(zero, field)
        assert tzero.iterations == trace.iterations

    @pytest.mark.parametrize("k, level", [(2, 3), (1, 4)])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_certified_start_certifies_at_once(self, name, k, level):
        _, _, _, run = self._run(name, k, level, tol=1e-8)
        field, _ = run()
        again, trace = run(field.copy())
        assert trace.converged and trace.iterations <= 2
        assert np.abs(again - field).max() <= 1e-7 * np.abs(field).max()

    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_sweep_start_never_assembles(self, monkeypatch, name):
        _, _, _, run = self._run(name, 1, 4, tol=1e-8)
        field, _ = run()
        monkeypatch.setattr(DirectionSystem, "matrix", property(TestSplitStorage._no_matrix))
        _, trace = run(field)
        assert trace.converged

    def test_start_shape_is_checked(self):
        _, _, quad, run = self._run("wg", 2, 3)
        with pytest.raises(ValueError, match="start field"):
            run(np.zeros((len(quad), 64, 4)))

    def test_nested_convergence_sweeps(self):
        # each level after the first starts from the previous one's field;
        # from zero the same rows take 10 / 40 / 75 sweeps
        rep = run_convergence("example2", DODG(), k=2, levels=range(3, 6))
        assert rep.iterations == [10, 14, 26]


class TestIterationTrace:
    def test_csv_stream_and_path(self, tmp_path):
        tr = IterationTrace([0.5, 0.01, 2e-4], True)
        buf = io.StringIO()
        tr.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iteration,err"
        assert lines[1].startswith("1,0.5")
        assert tr.iterations == 3
        target = tmp_path / "trace.csv"
        tr.to_csv(target)
        assert target.read_text() == buf.getvalue()

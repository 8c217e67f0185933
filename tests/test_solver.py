import io

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from test_assembly import _quadrature_norm, _quadrature_row, _quadrature_source

import dowg.solver
from dowg.angular import (
    AngularQuadrature,
    Direction,
    HenyeyGreenstein,
    Isotropic,
    build_circle_trapezoid,
    build_scatter_kernel,
)
from dowg.assembly import DODG, DODSD, WG, Medium, assemble_direction, l2_dom_norm
from dowg.elements import ElementQuadrature, ElementTables, LocalBasis, project_field
from dowg.mesh import build_mesh
from dowg.solver import (
    IterationTrace,
    LinearSolveConfig,
    SolverFailure,
    SourceIterationConfig,
    _CachedSolve,
    _SweepSolve,
    _UpwindDG,
    source_iteration,
)


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


def _one_ordinate(theta):
    """A single-node quadrature along angle theta, with the same snapping
    of rounding noise on the axes as the stock circle rule."""
    vec = np.array([np.cos(theta), np.sin(theta)])
    vec[np.abs(vec) < 1e-14] = 0.0
    return AngularQuadrature(
        [Direction(theta, vec)], np.array([2 * np.pi]), "circle-trapezoid", 1,
        2 * np.pi,
    )


def _lower_part(P, d, mesh, direction):
    """D + L of P in the original numbering: the diagonal cell blocks and
    the blocks coupling a cell to cells on earlier fronts, with fronts
    counted along the flow from the cells' grid coordinates."""
    ij = np.rint(mesh.cell_origins / mesh.h).astype(int)
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


class _FrontLoopSweep(_SweepSolve):
    """Reference sweep: forward substitution front by front in a Python
    loop, as the solver did before the triangular solve replaced it."""

    def __init__(self, A, cfg, d, mesh, direction, precond=None):
        super().__init__(A, cfg, d, mesh, direction, precond=precond)
        n = mesh.n
        idx = np.arange(n)
        ip = idx if direction[0] >= 0 else idx[::-1]
        jp = idx if direction[1] >= 0 else idx[::-1]
        front = (jp[:, None] + ip[None, :]).ravel()
        B = sp.csr_matrix(A if precond is None else precond).tobsr(blocksize=(d, d))
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
    def test_zero_rhs_short_circuit(self):
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(DODG(), mesh, tables, quad, kernel, medium, 2)
        sw = _SweepSolve(
            sysm.matrix, LinearSolveConfig(), tables.dof, mesh, sysm.direction
        )
        x = sw.solve(np.zeros(sysm.n_dof))
        assert x.shape == (sysm.n_dof,) and not np.any(x)

    def test_shape_mismatch(self):
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(DODG(), mesh, tables, quad, kernel, medium, 2)
        with pytest.raises(ValueError):
            _SweepSolve(
                sysm.matrix, LinearSolveConfig(), tables.dof, build_mesh(2),
                sysm.direction,
            )

    def test_failure_carries_residual(self, monkeypatch):
        # DODG leaves its jump penalty to the Richardson remainder, so one
        # sweep cannot reach tolerance
        monkeypatch.setattr(_SweepSolve, "_MAX_SWEEPS", 1)
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(
            DODG(), mesh, tables, quad, kernel, medium, 2, f=_source
        )
        sw = _SweepSolve(
            sysm.matrix, LinearSolveConfig(), tables.dof, mesh, sysm.direction
        )
        with pytest.raises(SolverFailure) as err:
            sw.solve(sysm.rhs_fixed)
        assert err.value.residual is not None and err.value.residual > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinearSolveConfig(rtol=0.0)
        with pytest.raises(ValueError):
            SourceIterationConfig(tol=-1.0)
        with pytest.raises(ValueError):
            SourceIterationConfig(ordering="random")


class TestSweep:
    def test_matches_direct_all_schemes(self):
        quad, kernel, medium, mesh, tables = _setup(level=2, k=1)
        cfg = LinearSolveConfig(rtol=1e-11)
        rng = np.random.default_rng(7)
        # m = 0, 5, 10, 15 are the axis-aligned ordinates
        for scheme in (WG(), DODG(), DODSD()):
            pre_scheme = _UpwindDG() if isinstance(scheme, WG) else None
            for m in (0, 2, 5, 7, 10, 13, 15, 18):
                sysm = assemble_direction(
                    scheme, mesh, tables, quad, kernel, medium, m, f=_source
                )
                pre = None
                if pre_scheme is not None:
                    pre = assemble_direction(
                        pre_scheme, mesh, tables, quad, kernel, medium, m
                    ).matrix
                sw = _SweepSolve(
                    sysm.matrix, cfg, tables.dof, mesh, sysm.direction, precond=pre
                )
                b = rng.standard_normal(sysm.n_dof)
                ref = spla.spsolve(sysm.matrix.tocsc(), b)
                assert_allclose(sw.solve(b), ref, atol=1e-8 * np.abs(ref).max())

    def test_streamline_diffusion_is_one_sweep(self):
        # in upwind order that matrix is exactly block lower triangular
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(
            DODSD(), mesh, tables, quad, kernel, medium, 3, f=_source
        )
        sw = _SweepSolve(
            sysm.matrix, LinearSolveConfig(), tables.dof, mesh, sysm.direction
        )
        b = np.sin(np.arange(sysm.n_dof))
        x = sw._forward(b)
        assert np.linalg.norm(sysm.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_warm_start_is_a_fixed_point(self):
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(
            WG(), mesh, tables, quad, kernel, medium, 4, f=_source
        )
        pre = assemble_direction(
            _UpwindDG(), mesh, tables, quad, kernel, medium, 4
        ).matrix
        sw = _SweepSolve(
            sysm.matrix, LinearSolveConfig(), tables.dof, mesh, sysm.direction,
            precond=pre,
        )
        b = np.cos(np.arange(sysm.n_dof))
        x = sw.solve(b)
        assert_allclose(sw.solve(b, x0=x), x, rtol=0, atol=1e-12 * np.abs(x).max())

    def test_cached_solve_picks_sweep_then_dense(self):
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        sysm = assemble_direction(WG(), mesh, tables, quad, kernel, medium, 1)
        big = _CachedSolve(sysm, LinearSolveConfig(), quad, kernel)
        big.solve(np.ones(sysm.n_dof))
        assert big.kind == "sweep"
        small_mesh = build_mesh(1)
        s2 = assemble_direction(
            WG(), small_mesh, tables, quad, kernel, medium, 1
        )
        small = _CachedSolve(s2, LinearSolveConfig(), quad, kernel)
        small.solve(np.ones(s2.n_dof))
        assert small.kind == "dense"

    def test_stalled_sweep_falls_back_to_sparse_lu(self, monkeypatch):
        # one DODG sweep stalls (see test_failure_carries_residual);
        # level 4 sits above the cached-dense cutoff
        monkeypatch.setattr(_SweepSolve, "_MAX_SWEEPS", 1)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        sysm = assemble_direction(
            DODG(), mesh, tables, quad, kernel, medium, 2, f=_source
        )
        b = sysm.rhs_fixed
        cached = _CachedSolve(sysm, LinearSolveConfig(), quad, kernel)
        with pytest.warns(RuntimeWarning, match="direction .*residual"):
            x = cached.solve(b)
        assert cached.kind == "splu"
        ref = spla.spsolve(sysm.matrix.tocsc(), b)
        assert_allclose(x, ref, atol=1e-10 * np.abs(ref).max())


class TestSweepProperty:
    """The sweep applies (D + L)^{-1} of its preconditioner for any
    direction, and solves the streamline-diffusion system exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.one_of(
            st.floats(0.0, 2 * np.pi),
            st.sampled_from([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2 * np.pi]),
            st.floats(2 * np.pi - 1e-6, 2 * np.pi),
        ),
        k=st.sampled_from([1, 2]),
        name=st.sampled_from(sorted(_SCHEMES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_is_the_lower_solve(self, theta, k, name, seed):
        _, kernel, medium, mesh, tables = _setup(level=3, k=k)
        one = _one_ordinate(theta)
        sysm = assemble_direction(
            _SCHEMES[name], mesh, tables, one, kernel, medium, 0
        )
        pre = None
        if name == "wg":
            pre = assemble_direction(
                _UpwindDG(), mesh, tables, one, kernel, medium, 0
            ).matrix
        sw = _SweepSolve(
            sysm.matrix, LinearSolveConfig(), tables.dof, mesh, sysm.direction,
            precond=pre,
        )
        b = np.random.default_rng(seed).standard_normal(sysm.n_dof)
        P = sysm.matrix if pre is None else pre
        ref = spla.spsolve(_lower_part(P, tables.dof, mesh, sysm.direction), b)
        x = sw._forward(b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        if name == "dodsd":
            exact = spla.spsolve(sysm.matrix.tocsc(), b)
            assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_forward_leaves_its_input(self):
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(DODSD(), mesh, tables, quad, kernel, medium, 3)
        sw = _SweepSolve(
            sysm.matrix, LinearSolveConfig(), tables.dof, mesh, sysm.direction
        )
        b = np.sin(np.arange(sysm.n_dof))
        first = sw._forward(b)
        assert_array_equal(b, np.sin(np.arange(sysm.n_dof)))
        assert_array_equal(sw._forward(b), first)


class TestPreChangeEquivalence:
    """Source iteration through the triangular-solve sweep and the
    coefficient-space scattering source and norm reproduces the front
    loop with quadrature-point scattering and norm."""

    @pytest.mark.parametrize("ordering", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("name, k, level", [("wg", 1, 4), ("dodsd", 2, 4)])
    def test_fields_match(self, monkeypatch, ordering, name, k, level):
        quad, kernel, medium, mesh, tables = _setup(level=level, k=k)
        systems = _systems(
            _SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source
        )
        assert systems[0].n_dof > _CachedSolve._DENSE_CACHED
        cfg = SourceIterationConfig(tol=1e-9, ordering=ordering)
        new, tnew = source_iteration(systems, kernel, quad, cfg)
        monkeypatch.setattr(dowg.solver, "_SweepSolve", _FrontLoopSweep)
        monkeypatch.setattr(dowg.solver, "scattering_source", _quadrature_source)
        monkeypatch.setattr(dowg.solver, "scattering_row", _quadrature_row)
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

    def test_orderings_agree_at_tolerance(self):
        quad, kernel, medium, mesh, tables = _setup(level=2)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        fj, tj = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-11)
        )
        fg, tg = source_iteration(
            systems, kernel, quad,
            SourceIterationConfig(tol=1e-11, ordering="gauss-seidel"),
        )
        assert tj.converged and tg.converged
        assert tg.iterations <= tj.iterations
        assert np.abs(fj - fg).max() <= 1e-8

    def test_sweep_equals_dense_end_to_end(self, monkeypatch):
        # level 4 with k = 1 sits above the cached-dense cutoff, so the
        # default run takes the preconditioned wavefront sweep; raising
        # the cutoff past the system size gives the dense-LU reference
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables, f=_source)
        assert systems[0].n_dof > _CachedSolve._DENSE_CACHED
        cfg = SourceIterationConfig(tol=1e-8)
        fa, _ = source_iteration(systems, kernel, quad, cfg)
        monkeypatch.setattr(_CachedSolve, "_DENSE_CACHED", systems[0].n_dof)
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

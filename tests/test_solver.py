import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from test_assembly import _THETAS, _one_ordinate, _quadrature_norm, _quadrature_source
from test_class_stencil import _dinv_cells, _inverse, _remainder_product

import dowg.solver
from dowg.angular import (
    AngularQuadrature,
    HenyeyGreenstein,
    Isotropic,
    build_circle_trapezoid,
    build_scatter_kernel,
)
from dowg.assembly import (
    DODG, DODSD, WG, DirectionSystem, Medium, assemble_direction, l2_dom_norm,
    scattering_source,
)
from dowg.elements import ElementQuadrature, ElementTables, LocalBasis, _prolong, project_field
from dowg.mesh import build_mesh
from dowg.solver import (
    IterationTrace,
    SolverFailure,
    SourceIterationConfig,
    _Exact,
    _Rows,
    _Sweep,
    source_iteration,
)
from dowg.verify import _assemble_all, _iterate, build_case, run_convergence, solve_case


def _setup(level=2, k=1, sigma_s=0.5, phase=None, renormalize=True, sigma_t=2.0, M=20):
    quad = build_circle_trapezoid(M)
    phase = phase or HenyeyGreenstein(0.5)
    kernel = build_scatter_kernel(quad, phase, sigma_t, sigma_s, renormalize=renormalize)
    medium = Medium(sigma_t, sigma_s)
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


def _natural_lower(sweep, b, system):
    """The batch's D + L for its ordinate b in the original numbering,
    rebuilt from what it holds: D from the per-cell D^{-1}, and the two
    upwind blocks at every cell with a neighbour across that side."""
    n, d = system.mesh.n, system.tables.dof
    c = np.arange(n * n)
    i, j = c % n, c // n
    sx, sy = system.direction
    rows, cols = [c], [c]
    blocks = [np.linalg.inv(_dinv_cells(sweep, b))]
    # [L_bottom^T; L_left^T], bottom and left counted along the flow
    for k, (t, step, stride) in enumerate([(j, 1 if sy >= 0 else -1, n), (i, 1 if sx >= 0 else -1, 1)]):
        has = (t - step >= 0) & (t - step < n)
        rows.append(c[has])
        cols.append(c[has] - step * stride)
        blocks.append(np.broadcast_to(sweep._upwind[b, k * d:(k + 1) * d].T, (has.sum(), d, d)))
    r, cc, blocks = np.concatenate(rows), np.concatenate(cols), np.concatenate(blocks)
    dof = np.arange(d)
    r = np.broadcast_to(r[:, None, None] * d + dof[:, None], blocks.shape)
    cc = np.broadcast_to(cc[:, None, None] * d + dof, blocks.shape)
    return sp.csr_matrix((blocks.ravel(), (r.ravel(), cc.ravel())), shape=(n * n * d,) * 2)


class _FrontLoopSweep(_Sweep):
    """Reference P^{-1} = (D + L)^{-1}: forward substitution front by
    front in a Python loop over the blocks of each ordinate's assembled
    sweep matrix, as the solver did before the triangular solve replaced
    it, on g in the first rows of ``bufs[i]``; R and the start's P x0
    are the batch's."""

    def __init__(self, systems, start=None):
        super().__init__(systems, start)
        self._loops = []
        for m, system in enumerate(systems):
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
            dinv = np.linalg.inv(B.data[diag][np.argsort(rows[diag])])
            lower = front[cols] < front[rows]
            fronts = [
                (np.nonzero(front == l)[0], lower & (front[rows] == l))
                for l in range(2 * n - 1)
            ]
            self._loops.append((m, fronts, rows, cols, B.data, dinv))

    def solve(self, i):
        C = self._C
        g = self.bufs[i][:len(self._loops) * C]
        for m, fronts, rows, cols, data, dinv in self._loops:
            acc = np.array(g[m * C:(m + 1) * C], dtype=float)
            z = np.empty_like(acc)
            for cells, sel in fronts:
                take = data[sel] @ z[cols[sel], :, None]
                np.subtract.at(acc, rows[sel], take[..., 0])
                z[cells] = np.einsum("cij,cj->ci", dinv[cells], acc[cells])
            yield m, z


def _face_remainder(system, x, g):
    """g -= R x for one ordinate of WG's shifted sweep, x and g (C, d), in
    the arithmetic of ``solver._Jumps`` on that ordinate alone: per axis
    the jumps of the face values between each cell and the next one
    across its side 1 or 3 (0 where there is none), their product with
    the edge mass, the scale h|s_x|/4 or h|s_y|/4, and the result added
    to the first side's face dofs and subtracted from the second's."""
    tables, n = system.tables, system.mesh.n
    faces = [np.flatnonzero(tables.trace[b].any(axis=0)) for b in range(4)]
    mass = tables.E_self[1][np.ix_(faces[1], faces[1])]
    c = np.arange(n * n)
    axes = [(faces[1], faces[0], 1, c % n == n - 1), (faces[3], faces[2], n, c >= n * n - n)]
    scales = 0.25 * system.mesh.h * np.abs(system.direction)
    for (first, second, off, none), scale in zip(axes, scales):
        jump = np.zeros((len(mass), n * n))
        jump[:, :-off] = (x[:-off, first] - x[off:, second]).T
        jump[:, none] = 0.0
        y = mass @ jump
        y *= scale
        g[:-off, first] += y[:, :-off].T
        g[off:, second] -= y[:, :-off].T


def _grid_remainder(system, x, g):
    """g -= R x for one ordinate swept without a shift, x and g (C, d), in
    the arithmetic of ``solver._Downwind`` on that ordinate alone: per
    downwind side, top or bottom then right or left, the neighbours' rows
    times the interior class's block there, 0 at a row's end, subtracted
    from g."""
    acc, n, C = system.stencil(), system.mesh.n, system.mesh.n_cells
    sx, sy = system.direction
    c = np.arange(C)
    for slot, off, none in [(4, n, None) if sy >= 0 else (0, -n, None),
                            (3, 1, c % n == n - 1) if sx >= 0 else (1, -1, c % n == 0)]:
        block = acc.blocks[dowg.solver._INTERIOR, slot]
        if not block.any():
            continue
        to = slice(0, C - off) if off > 0 else slice(-off, C)
        at = slice(off, C) if off > 0 else slice(0, C + off)
        y = np.empty_like(x)
        y[to] = x[at] @ block.T
        if none is not None:
            y[none] = 0.0
        g[to] -= y[to]


def _row_pairs(system, x=None):
    """One ordinate's exact pairs (``solver._Rows``): its solve, and
    ``x`` replaced by A x if given."""
    rows = _Rows([system], None if x is None else x.reshape(-1, system.tables.dof))
    if x is not None:
        x[:] = rows.bufs[1].ravel()

    def solve(g):
        rows.bufs[0].ravel()[:] = g
        [(_, out)] = rows.solve(0)
        return out.ravel()

    return solve


def _per_ordinate_loop(systems, kernel, quad, cfg, start=None, fold=True):
    """Reference: the loop as it was before the fused sweep, a Python
    pass over the ordinates per sweep, each forming its g, residual sums
    and previous g on its own, with the exact pairs (``_row_pairs`` at
    desk scale, sparse LU after a switch) solved ordinate by ordinate and
    the swept ones after the pass.  Covers runs whose
    ordinates all have a remainder or none; returns (field, trace).
    With ``fold`` it runs on the solver's groups (``_fold``): one
    representative per group, counted once per member in the residual
    sums and the escalation, and the field filled from them at the end;
    without, on every ordinate, as the loop did before the fold."""
    L = len(systems)
    reps = group = np.arange(L)
    if fold:
        reps, group, systems, kernel, quad = dowg.solver._fold(systems, kernel, quad)
    count = np.bincount(group)
    out = start
    if start is not None:
        start = start[reps]
    mesh, tables = systems[0].mesh, systems[0].tables
    B, C, d = len(systems), mesh.n_cells, tables.dof
    g_prev = np.zeros((B, C * d))
    field = np.zeros((B, C, d)) if start is None else start
    if start is not None:
        g_prev[:] = start.reshape(B, C * d)

    def exact(system, x=None):
        A = system.matrix
        lu = spla.splu(A.tocsc())
        if x is not None:
            x[:] = A @ x
        return lu.solve

    x0 = None if start is None else g_prev
    if systems[0].n_dof <= dowg.solver._EXACT_UP_TO:
        solves = {m: _row_pairs(s, None if x0 is None else x0[m]) for m, s in enumerate(systems)}
        sweep = None
    else:
        solves, sweep = {}, _Sweep(systems, None if start is None else field.reshape(-1, d))
        if start is not None:
            g_prev[:] = sweep.bufs[1][:B * C].reshape(B, C * d)
    shifted = set() if sweep is None else {
        m for m, s in enumerate(systems) if dowg.solver._sweep_shift(s) is not None}
    # the ordinates swept without a shift: each has its downwind remainder
    remainders = set() if sweep is None else set(range(B)) - shifted
    errs, residuals = [], []
    tol, converged, switched, escalated = cfg.tol, False, False, 0
    bound = residual = np.inf
    while len(errs) < cfg.max_outer:
        update = scattering_source(systems, kernel, quad, field)
        num = den = 0.0
        for m, s in enumerate(systems):
            rhs = s.rhs_fixed + update[m].ravel()
            # R x as the solver forms it
            g = rhs.copy()
            if m in remainders:
                _grid_remainder(s, field[m], g.reshape(C, d))
            if m in shifted:
                _face_remainder(s, field[m], g.reshape(C, d))
            r = g - g_prev[m]
            num += count[m] * (r @ r)
            den += count[m] * (rhs @ rhs)
            g_prev[m] = g
            if m in solves:
                x = solves[m](g).reshape(C, d)
                update[m] = x - field[m]
                field[m] = x
        if sweep is not None:
            x = _inverse(sweep, g_prev).reshape(field.shape)
            update[:] = x - field
            field[:] = x
        residual = float(np.sqrt(num / den)) if num else 0.0
        residuals.append(residual)
        errs.append(l2_dom_norm(mesh, tables, quad, update))
        bound = dowg.solver._bound(errs, residuals)
        if not np.isfinite(errs[-1] + residual):
            break
        if bound <= tol and residual <= tol:
            converged = True
            break
        if (
            not switched and len(errs) > dowg.solver._STALL
            and errs[-1] >= errs[-1 - dowg.solver._STALL]
            and errs[-1] > dowg.solver._ROUNDOFF * l2_dom_norm(mesh, tables, quad, field)
        ):
            switched = True
            if sweep is not None and (sweep.jumps is not None or sweep.downwind is not None):
                for m in range(B):
                    g_prev[m] = field[m].ravel()
                    solves[m] = exact(systems[m], g_prev[m])
                sweep, remainders, shifted, escalated = None, set(), set(), L
    if out is None:
        out = np.empty((L, C, d))
    out[...] = field[group]
    return out, IterationTrace(errs, converged, bound, residual, escalated)


def _stock_endpoint(systems):
    """The systems with the last one's right side the first one's, as
    ``verify._assemble_all`` builds the trapezoid rule's theta = 2 pi:
    the run solves that direction once."""
    return systems[:-1] + [replace(systems[-1], rhs_fixed=systems[0].rhs_fixed)]


_SCHEMES = {"wg": WG(), "dodg": DODG(), "dodsd": DODSD()}

# a thick medium (``test_assembly.THICK``)
_THICK = {"sigma_t": 20.0, "sigma_s": 19.8}


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

    def test_no_systems_is_refused(self):
        quad, kernel = _setup(level=1)[:2]
        with pytest.raises(ValueError, match="one system per quadrature ordinate"):
            source_iteration([], kernel, quad)

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
        sweep = _Sweep([sysm])
        assert sweep.downwind is None and sweep.jumps is None
        b = np.sin(np.arange(sysm.n_dof))
        [x] = _inverse(sweep, [b])
        assert np.linalg.norm(sysm.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_warm_start_is_a_fixed_point(self):
        # the fused step is x <- P^{-1}(b - R x) with A = P + R, so the
        # exact solution is left where it is
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        sysm = assemble_direction(
            WG(), mesh, tables, quad, kernel, medium, 4, f=_source
        )
        sweep = _Sweep([sysm])
        assert sysm.n_dof > dowg.solver._EXACT_UP_TO and sweep.jumps is not None
        b = np.cos(np.arange(sysm.n_dof))
        x = spla.spsolve(sysm.matrix.tocsc(), b)
        [step] = _inverse(sweep, b - _remainder_product(sweep, x[None])) - x
        assert np.abs(step).max() <= 1e-12 * np.abs(x).max()

    def test_pairs_pick_sweep_then_exact(self):
        # above the cutoff the WG ordinate is swept and keeps its
        # stabilizer remainder; at desk scale it is solved exactly (R = 0)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        sysm = assemble_direction(WG(), mesh, tables, quad, kernel, medium, 1)
        assert sysm.n_dof > dowg.solver._EXACT_UP_TO
        assert _Sweep([sysm]).jumps is not None
        small_mesh = build_mesh(1)
        s2 = assemble_direction(
            WG(), small_mesh, tables, quad, kernel, medium, 1
        )
        assert s2.n_dof <= dowg.solver._EXACT_UP_TO
        exact = _Rows([s2])
        assert exact.jumps is None and exact.downwind is None
        assert [buf.shape for buf in exact.bufs] == [(small_mesh.n_cells, tables.dof)] * 2
        [x] = _inverse(exact, [np.ones(s2.n_dof)])
        assert np.abs(s2.matrix @ x - 1.0).max() <= 1e-12

    def test_exact_pairs_share_their_patterns(self, monkeypatch):
        # the exact pairs expand every ordinate's stencil through one
        # pattern dict: one pattern per distinct set of live entries, not
        # one per ordinate
        calls, real = [], dowg.assembly._pattern

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(dowg.assembly, "_pattern", counted)
        quad, kernel, medium, mesh, tables = _setup(level=2, k=1)
        systems = _systems(WG(), quad, kernel, medium, mesh, tables)
        _Exact(systems)
        live = {(s.stencil().blocks != 0).tobytes() for s in systems}
        assert len(calls) == len(live) < len(systems)

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

    def test_mixed_run_switches_every_ordinate(self, monkeypatch):
        # WG ordinates, swept unshifted so that they stall, beside DODSD
        # ones, whose sweep is exact: the whole run switches to sparse LU
        # at once, warns once and still solves each ordinate
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1, sigma_s=0.0)
        systems = [
            assemble_direction(WG() if m % 2 else DODSD(), mesh, tables, quad, kernel, medium,
                               m, f=_source)
            for m in range(len(quad))
        ]
        with pytest.warns(RuntimeWarning, match="switching 21 of 21 ordinates") as record:
            field, trace = source_iteration(
                systems, kernel, quad, SourceIterationConfig(tol=1e-10)
            )
        assert len([w for w in record if w.category is RuntimeWarning]) == 1
        assert trace.converged and trace.escalated == 21
        for m in (0, 3, 8, 13):
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
        thick=st.booleans(),
    )
    @example(theta=0.5 * np.pi, k=1, name="wg", seed=0, thick=True)
    @example(theta=np.pi, k=2, name="dodg", seed=1, thick=True)
    def test_forward_is_the_lower_solve(self, theta, k, name, seed, thick):
        # P^{-1} is the lower solve with the sweep matrix's D + L, and R
        # holds the rest of the system matrix: its product to 1e-14 of A's
        # (WG's, applied on the faces, and DODG's, A's downwind blocks on
        # the grid); any direction, the axes' s.n = 0 ties, the stock or a
        # thick medium
        _, kernel, medium, mesh, tables = _setup(level=3, k=k, **_THICK if thick else {})
        one = _one_ordinate(theta)
        sysm = assemble_direction(
            _SCHEMES[name], mesh, tables, one, kernel, medium, 0
        )
        lower = _lower_part(_sweep_matrix(sysm), tables.dof, mesh, sysm.direction)
        sweep = _Sweep([sysm])
        b = np.random.default_rng(seed).standard_normal(sysm.n_dof)
        ref = spla.spsolve(lower, b)
        [x] = _inverse(sweep, [b])
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        A = sysm.matrix
        assert (sweep.downwind is not None, sweep.jumps is not None) == {
            "wg": (False, True), "dodg": (True, False), "dodsd": (False, False)}[name]
        [Rb] = _remainder_product(sweep, b[None])
        assert np.abs(Rb - (A - lower) @ b).max() <= 1e-14 * (abs(A) @ np.abs(b)).max()
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
        diff = _natural_lower(_Sweep([sysm]), 0, sysm) - lower
        assert np.abs(diff).max() <= 1e-14 * np.abs(ref.matrix).max()

    def test_forward_leaves_its_input(self):
        # g in the first rows of one buffer, the other the work array:
        # either way round, g is left as it is and solved alike
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        sysm = assemble_direction(DODSD(), mesh, tables, quad, kernel, medium, 3)
        sweep = _Sweep([sysm])
        g = np.sin(np.arange(sysm.n_dof)).reshape(-1, tables.dof)
        solved = []
        for i in (0, 1, 0):
            sweep.bufs[i][:len(g)] = g
            solved.append([x.copy() for _, x in sweep.solve(i)])
            assert_array_equal(sweep.bufs[i][:len(g)], g)
        assert_array_equal(solved[0], solved[1])
        assert_array_equal(solved[0], solved[2])

    def test_batch_over_all_quadrants_is_the_direct_solve(self):
        # one batch over every M = 20 ordinate, on both axes (m = 0, 5,
        # 10, 15, 20) and four strictly inside each quadrant, applies each
        # ordinate's (D + L)^{-1} and solves each streamline-diffusion
        # system exactly
        quad, kernel, medium, mesh, tables = _setup(level=3, k=2)
        rng = np.random.default_rng(2)
        for name in sorted(_SCHEMES):
            systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables)
            sweep = _Sweep(systems)
            g = rng.standard_normal((len(systems), systems[0].n_dof))
            x = _inverse(sweep, g)
            for m, s in enumerate(systems):
                A = _sweep_matrix(s) if name == "wg" else s.matrix
                ref = spla.spsolve(_lower_part(A, tables.dof, mesh, s.direction), g[m])
                assert np.abs(x[m] - ref).max() <= 1e-12 * np.abs(ref).max()
                if name == "dodsd":
                    exact = spla.spsolve(s.matrix.tocsc(), g[m])
                    assert np.abs(x[m] - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_start_is_the_lower_product(self, name):
        # a start x0's previous g is (D + L) x0, formed on the work-array
        # layout into the first rows of the second buffer, and the start
        # rows, the loop's iterate, are left as they are
        quad, kernel, medium, mesh, tables = _setup(level=3, k=1)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables)
        d, C = tables.dof, mesh.n_cells
        x0 = np.random.default_rng(4).standard_normal((len(systems), C * d))
        rows = x0.reshape(-1, d).copy()
        sweep = _Sweep(systems, rows)
        assert_array_equal(rows, x0.reshape(-1, d))
        px0 = sweep.bufs[1][:len(rows)].reshape(len(systems), -1)
        for m, s in enumerate(systems):
            ref = _lower_part(_sweep_matrix(s), d, mesh, s.direction) @ x0[m]
            assert np.abs(px0[m] - ref).max() <= 1e-13 * np.abs(ref).max()


class TestRowPairs:
    """The exact pairs at desk scale (``solver._Rows``): block elimination
    over the grid rows solves each ordinate's system, forms A x0 from a
    start, and refuses a singular row."""

    # M = 4 has only axis ordinates, each with two sides where s.n = 0
    @pytest.mark.parametrize("M", [4, 20])
    @pytest.mark.parametrize("thick", [False, True])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_solves_every_ordinate(self, name, k, thick, M):
        quad, kernel, medium, mesh, tables = _setup(level=3, k=k, M=M, **_THICK if thick else {})
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables)
        assert systems[0].n_dof <= dowg.solver._EXACT_UP_TO
        g = np.random.default_rng(8).standard_normal((len(systems), systems[0].n_dof))
        x = _inverse(_Rows(systems), g)
        for m, s in enumerate(systems):
            assert np.linalg.norm(s.matrix @ x[m] - g[m]) <= 1e-13 * np.linalg.norm(g[m])

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_start_is_the_system_product(self, name, k):
        # a start x0's previous g is A x0, in the first rows of the second
        # buffer, and the start rows are left as they are
        quad, kernel, medium, mesh, tables = _setup(level=3, k=k)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables)
        d, C = tables.dof, mesh.n_cells
        x0 = np.random.default_rng(9).standard_normal((len(systems), C * d))
        rows = x0.reshape(-1, d).copy()
        pairs = _Rows(systems, rows)
        assert_array_equal(rows, x0.reshape(-1, d))
        px0 = pairs.bufs[1].reshape(len(systems), -1)
        for m, s in enumerate(systems):
            A = s.matrix
            assert np.abs(px0[m] - A @ x0[m]).max() <= 1e-14 * (abs(A) @ np.abs(x0[m])).max()

    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_zeroed_own_block_is_singular(self, monkeypatch, name):
        quad, kernel, medium, mesh, tables = _setup(level=2, k=1)
        system = assemble_direction(_SCHEMES[name], mesh, tables, quad, kernel, medium, 3)
        real = DirectionSystem.stencil

        def zeroed(self):
            st = real(self)
            st.blocks[:, 2] = 0.0
            return st

        monkeypatch.setattr(DirectionSystem, "stencil", zeroed)
        with pytest.raises(np.linalg.LinAlgError):
            _Rows([system])


class TestPreChangeEquivalence:
    """The fused loop through the triangular-solve sweep and the
    coefficient-space scattering source and norm reproduces the same loop
    with the front-loop P^{-1} and quadrature-point scattering and norm.
    That norm reaches only the stall test: the loop takes the update norm
    itself, and ``TestPerOrdinateLoopEquivalence`` checks it against
    ``l2_dom_norm``."""

    @pytest.mark.parametrize("name, k, level", [("wg", 1, 4), ("dodsd", 2, 4)])
    def test_fields_match(self, monkeypatch, name, k, level):
        quad, kernel, medium, mesh, tables = _setup(level=level, k=k)
        systems = _systems(
            _SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source
        )
        assert systems[0].n_dof > dowg.solver._EXACT_UP_TO
        cfg = SourceIterationConfig(tol=1e-9)
        new, tnew = source_iteration(systems, kernel, quad, cfg)
        monkeypatch.setattr(dowg.solver, "_Sweep", _FrontLoopSweep)
        monkeypatch.setattr(dowg.solver, "scattering_source", _quadrature_source)
        monkeypatch.setattr(dowg.solver, "l2_dom_norm", _quadrature_norm)
        old, told = source_iteration(systems, kernel, quad, cfg)
        assert tnew.converged and tnew.iterations == told.iterations
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


class TestPerOrdinateLoopEquivalence:
    """The fused sweep reproduces the per-ordinate loop it replaced bit
    for bit: the same fields and sweep counts, and the residual and
    bound up to the order of the residual's sums.  Q2 at 1/h = 8 takes
    the exact pairs, Q1 at 1/h = 16 the sweep.  The systems give
    theta = 2 pi the right side of theta = 0, as the stock runs do, so
    both loops solve that direction once; against the loop that solves
    it twice the fields agree to roundoff."""

    @staticmethod
    def _compare(systems, kernel, quad, cfg, start=None):
        # theta = 2 pi rides on theta = 0
        assert dowg.solver._fold(systems, kernel, quad)[1][-1] == 0
        copy = None if start is None else start.copy()
        field, trace = source_iteration(systems, kernel, quad, cfg, start=start)
        ref, tref = _per_ordinate_loop(systems, kernel, quad, cfg, start=copy)
        assert field.tobytes() == ref.tobytes()
        assert start is None or field is start
        assert trace.iterations == tref.iterations and trace.converged == tref.converged
        assert trace.escalated == tref.escalated
        assert trace.residual == pytest.approx(tref.residual, rel=1e-12)
        assert trace.bound == pytest.approx(tref.bound, rel=1e-12)
        # each sweep's update norm, taken ordinate by ordinate as x is
        # overwritten, is l2_dom_norm of the update field
        assert trace.errs == pytest.approx(tref.errs, rel=1e-12)
        return trace

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("k, level", [(2, 3), (1, 4)])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_fields_are_bitwise_equal(self, name, k, level, start):
        quad, kernel, medium, mesh, tables = _setup(level=level, k=k)
        systems = _stock_endpoint(
            _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source))
        assert (systems[0].n_dof <= dowg.solver._EXACT_UP_TO) == (k == 2)
        x0 = None
        if start == "random":
            shape = (len(quad), mesh.n_cells, tables.dof)
            x0 = np.random.default_rng(11).standard_normal(shape)
        trace = self._compare(systems, kernel, quad, SourceIterationConfig(tol=1e-9), x0)
        assert trace.converged

    @pytest.mark.parametrize("start", ["zero", "random"])
    def test_across_the_fallback(self, monkeypatch, start):
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _stock_endpoint(_systems(WG(), quad, kernel, medium, mesh, tables, f=_source))
        x0 = None
        if start == "random":
            shape = (len(quad), mesh.n_cells, tables.dof)
            x0 = np.random.default_rng(12).standard_normal(shape)
        with pytest.warns(RuntimeWarning, match="switching 21 of 21 ordinates"):
            trace = self._compare(systems, kernel, quad, SourceIterationConfig(tol=1e-9), x0)
        assert trace.converged and trace.escalated == len(quad)

    # g and the previous g swap between the loop's two buffers every
    # sweep, so which of them holds the last g, and which served as the
    # last work array, depends on whether the sweep count is odd or even
    @pytest.mark.parametrize("max_outer", [1, 2, 3, 4])
    @pytest.mark.parametrize("start", ["zero", "random"])
    def test_every_rotation(self, start, max_outer):
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _stock_endpoint(_systems(WG(), quad, kernel, medium, mesh, tables, f=_source))
        x0 = None
        if start == "random":
            shape = (len(quad), mesh.n_cells, tables.dof)
            x0 = np.random.default_rng(13).standard_normal(shape)
        cfg = SourceIterationConfig(tol=1e-9, max_outer=max_outer)
        trace = self._compare(systems, kernel, quad, cfg, x0)
        assert trace.iterations == max_outer and not trace.converged

    def test_rotation_across_the_fallback(self, monkeypatch):
        # the switch to the exact pairs after the eleventh sweep, an odd
        # count, which writes A x into one of the same two buffers, and
        # two sweeps on them, from a random start
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _stock_endpoint(_systems(WG(), quad, kernel, medium, mesh, tables, f=_source))
        shape = (len(quad), mesh.n_cells, tables.dof)
        x0 = np.random.default_rng(14).standard_normal(shape)
        cfg = SourceIterationConfig(tol=1e-9, max_outer=13)
        with pytest.warns(RuntimeWarning, match="switching 21 of 21 ordinates"):
            trace = self._compare(systems, kernel, quad, cfg, x0)
        assert trace.iterations == 13 and trace.escalated == len(quad)


    @pytest.mark.parametrize("k, level", [(2, 3), (1, 4)])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_unfolded_loop_agrees_to_roundoff(self, name, k, level):
        quad, kernel, medium, mesh, tables = _setup(level=level, k=k)
        systems = _stock_endpoint(
            _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source))
        cfg = SourceIterationConfig(tol=1e-9)
        field, trace = source_iteration(systems, kernel, quad, cfg)
        ref, tref = _per_ordinate_loop(systems, kernel, quad, cfg, fold=False)
        assert trace.converged and trace.iterations == tref.iterations
        assert np.abs(field - ref).max() <= 1e-14 * np.abs(ref).max()
        # the last residual is a difference of nearly equal right sides
        assert trace.residual == pytest.approx(tref.residual, rel=1e-6, abs=0)


def _unfolded(systems, kernel, quad):
    """``solver._fold`` that keeps every ordinate: the loop before the fold."""
    every = np.arange(len(systems))
    return every, every, systems, kernel, quad


class TestFold:
    """The loop solves each distinct direction once: the stock trapezoid
    rule's theta = 2 pi rides on theta = 0, and the returned field's last
    row is its first, bit for bit.  A run with no repeated row runs as
    before."""

    @staticmethod
    def _counted(monkeypatch):
        """Record the ordinate count each P^{-1} object is built for, and
        each sparse LU factorization."""
        built = []

        class Sweep(_Sweep):
            def __init__(self, systems, start=None):
                built.append(("sweep", len(systems)))
                super().__init__(systems, start)

        class Rows(_Rows):
            def __init__(self, systems, start=None):
                built.append(("rows", len(systems)))
                super().__init__(systems, start)

        class Exact(_Exact):
            def __init__(self, systems, start=None, bufs=None):
                built.append(("exact", len(systems)))
                super().__init__(systems, start, bufs)

        real = spla.splu

        def splu(*args, **kwargs):
            built.append(("splu", 1))
            return real(*args, **kwargs)

        monkeypatch.setattr(dowg.solver, "_Sweep", Sweep)
        monkeypatch.setattr(dowg.solver, "_Rows", Rows)
        monkeypatch.setattr(dowg.solver, "_Exact", Exact)
        monkeypatch.setattr(spla, "splu", splu)
        return built

    @pytest.mark.parametrize("level, pairs", [(3, "exact"), (4, "sweep")])
    def test_twenty_of_twenty_one_are_set_up(self, monkeypatch, level, pairs):
        # the exact pairs at desk scale are the row pairs, which factor
        # nothing with sparse LU
        built = self._counted(monkeypatch)
        sol = solve_case("example1", k=1, level=level, M=20)
        assert sol.trace.converged and len(sol.systems) == 21
        # the drivers give theta = 2 pi the right side of theta = 0
        assert sol.systems[-1].rhs_fixed is sol.systems[0].rhs_fixed
        assert sol.field.shape == (21, sol.mesh.n_cells, 4)
        assert built == [({"exact": "rows", "sweep": "sweep"}[pairs], 20)]
        assert sol.field[-1].tobytes() == sol.field[0].tobytes()

    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_nested_start_fills_the_last_row(self, name):
        case = build_case("example2")
        coarse = solve_case(case, scheme=_SCHEMES[name], k=1, level=3)
        mesh = build_mesh(4)
        systems = _assemble_all(case, _SCHEMES[name], mesh, coarse.tables, coarse.quad,
                                coarse.kernel)
        start = _prolong(coarse.field, coarse.tables.basis)
        field, trace = source_iteration(systems, coarse.kernel, coarse.quad, start=start)
        assert trace.converged and field is start
        assert field[-1].tobytes() == field[0].tobytes()

    @pytest.mark.parametrize("level", [3, 4])
    def test_three_ordinates_two_distinct(self, monkeypatch, level):
        # M = 2: theta = 0, pi and 2 pi
        sol = solve_case("example2", k=1, level=level, M=2, cfg=SourceIterationConfig(tol=1e-9))
        assert sol.field[2].tobytes() == sol.field[0].tobytes()
        reps, group, _, _, quad = dowg.solver._fold(sol.systems, sol.kernel, sol.quad)
        assert list(reps) == [0, 1] and list(group) == [0, 1, 0]
        assert_array_equal(quad.weights, [np.pi, np.pi])
        monkeypatch.setattr(dowg.solver, "_fold", _unfolded)
        ref, tref = source_iteration(sol.systems, sol.kernel, sol.quad,
                                     SourceIterationConfig(tol=1e-9))
        assert tref.iterations == sol.trace.iterations
        assert np.abs(sol.field - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("hand", ["distinct directions", "f at 2 pi"])
    @pytest.mark.parametrize("k, level", [(2, 3), (1, 4)])
    def test_no_repeated_row_runs_as_before(self, hand, k, level):
        # a quadrature of 20 distinct directions, or the stock one with f
        # evaluated at theta = 2 pi: nothing folds, and the field is bit
        # for bit the per-ordinate loop's over every ordinate
        quad, kernel, medium, mesh, tables = _setup(level=level, k=k)
        if hand == "distinct directions":
            quad = AngularQuadrature(quad.thetas[:-1], np.full(20, 2 * np.pi / 20),
                                     quad.vectors[:-1])
            kernel = build_scatter_kernel(quad, HenyeyGreenstein(0.5), 2.0, 0.5,
                                          renormalize=True)
        systems = _systems(DODG(), quad, kernel, medium, mesh, tables, f=_source)
        reps, _, same, folded, fquad = dowg.solver._fold(systems, kernel, quad)
        assert len(reps) == len(quad) and same is systems
        assert folded is kernel and fquad is quad
        cfg = SourceIterationConfig(tol=1e-9)
        field, trace = source_iteration(systems, kernel, quad, cfg)
        ref, tref = _per_ordinate_loop(systems, kernel, quad, cfg, fold=False)
        assert trace.converged and trace.iterations == tref.iterations
        assert field.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k, level", [(2, 3), (1, 4)])
    def test_only_the_endpoint_folds(self, k, level):
        # 20 ordinates, of which the eleventh repeats the fourth bit for
        # bit, its direction, kernel row and column and right side too,
        # and the last is not the first: nothing folds, and the field is
        # bit for bit the per-ordinate loop's over every ordinate
        quad, _, medium, mesh, tables = _setup(level=level, k=k)
        keep = np.r_[0:10, 3, 11:20]
        quad = AngularQuadrature(quad.thetas[keep], np.full(20, 2 * np.pi / 20),
                                 quad.vectors[keep])
        kernel = build_scatter_kernel(quad, HenyeyGreenstein(0.5), 2.0, 0.5, renormalize=True)
        systems = _systems(DODG(), quad, kernel, medium, mesh, tables, f=_source)
        K = kernel.matrix
        assert np.array_equal(K[10], K[3]) and np.array_equal(K[:, 10], K[:, 3])
        assert systems[10].rhs_fixed.tobytes() == systems[3].rhs_fixed.tobytes()
        reps, _, same, folded, fquad = dowg.solver._fold(systems, kernel, quad)
        assert len(reps) == len(quad) and same is systems
        assert folded is kernel and fquad is quad
        cfg = SourceIterationConfig(tol=1e-9)
        field, trace = source_iteration(systems, kernel, quad, cfg)
        ref, tref = _per_ordinate_loop(systems, kernel, quad, cfg, fold=False)
        assert trace.converged and trace.iterations == tref.iterations
        assert field.tobytes() == ref.tobytes()

    def test_fallback_counts_every_ordinate(self, monkeypatch):
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        built = self._counted(monkeypatch)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _stock_endpoint(_systems(WG(), quad, kernel, medium, mesh, tables, f=_source))
        with pytest.warns(RuntimeWarning) as record:
            field, trace = source_iteration(systems, kernel, quad,
                                            SourceIterationConfig(tol=1e-9))
        [warned] = [w for w in record if w.category is RuntimeWarning]
        assert re.fullmatch(r"update norm \S+ has not fallen in 10 sweeps; "
                            r"switching 21 of 21 ordinates to sparse LU", str(warned.message))
        # it points at the caller of source_iteration
        assert warned.filename == __file__
        assert trace.converged and trace.escalated == 21
        assert built == [("sweep", 20), ("exact", 20)] + [("splu", 1)] * 20
        assert field[-1].tobytes() == field[0].tobytes()


class TestLoopMemory:
    def test_peak_is_at_most_three_point_six_fields(self):
        # the loop holds the iterate and two work-sized buffers, g and
        # the previous g, that swap roles every sweep, the sweep's work
        # array being the previous g's; the scattering source is written
        # into g's, so no kernel-contracted field is formed, and the
        # sweep takes each ordinate's update norm as it writes the
        # iterate, so no update field either.  theta = 2 pi rides on
        # theta = 0, so each of these holds 20 of the 21 ordinates (4.77
        # fields with three rotating buffers and a separate work array;
        # 3.59 measured).  DODSD Q1 at 1/h = 64 takes the sweep and no
        # remainder
        quad, kernel, medium, mesh, tables = _setup(level=6, k=1)
        systems = _stock_endpoint(_systems(DODSD(), quad, kernel, medium, mesh, tables, f=_source))
        n, d, L = mesh.n, tables.dof, len(systems)
        # each front's cells and a pad row at either end, per ordinate
        bufs = _Sweep(systems[:-1]).bufs
        assert [b.shape for b in bufs] == [((L - 1) * (n * n + 2 * (2 * n - 1)), d)] * 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, trace = source_iteration(systems, kernel, quad, SourceIterationConfig(tol=1e-9))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert trace.converged
        assert peak <= 3.6 * L * mesh.n_cells * d * 8

    def test_wg_peak_is_at_most_five_fields(self):
        # WG Q1 at 1/h = 64 keeps a remainder: the run's two jump
        # operators J_x and J_y, shared by every ordinate, not one CSR per
        # ordinate (10.72 fields with those; 4.57 measured)
        quad, kernel, medium, mesh, tables = _setup(level=6, k=1)
        systems = _stock_endpoint(_systems(WG(), quad, kernel, medium, mesh, tables, f=_source))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, trace = source_iteration(systems, kernel, quad, SourceIterationConfig(tol=1e-9))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert trace.converged and trace.escalated == 0
        assert peak <= 5 * len(systems) * mesh.n_cells * tables.dof * 8


class TestSuperLUImport:
    def test_loaded_only_when_a_run_factors(self):
        # a subprocess, as this suite imports scipy itself.  Importing
        # dowg loads no scipy module, nor do WG, DODSD and DODG Q1 solves
        # at 1/h = 16 (1024 unknowns per ordinate), which sweep and build
        # no CSR, nor the desk-scale solves at 1/h = 8, whose exact pairs
        # are the row pairs; a run whose unshifted WG sweep stalls
        # switches to sparse LU and loads SuperLU
        script = (
            "import sys\n"
            "import warnings\n"
            "def loaded(name):\n"
            "    return any(m == name or m.startswith(name + '.') for m in sys.modules)\n"
            "import dowg\n"
            "import dowg.solver\n"
            "from dowg.assembly import DODG, DODSD\n"
            "from dowg.verify import solve_case\n"
            "print(loaded('scipy'))\n"
            "solve_case('example1', level=4)\n"
            "print(loaded('scipy'))\n"
            "solve_case('example1', scheme=DODSD(), level=4)\n"
            "print(loaded('scipy'))\n"
            "solve_case('example1', scheme=DODG(), level=4)\n"
            "print(loaded('scipy'))\n"
            "for scheme in (DODG(), DODSD()):\n"
            "    solve_case('example2', scheme=scheme, k=2, level=3)\n"
            "solve_case('example1', level=3)\n"
            "print(loaded('scipy'))\n"
            "dowg.solver._sweep_shift = lambda s: None\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    solve_case('example1', level=4)\n"
            "print(len(caught), 'scipy.sparse.linalg' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(dowg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False"] * 5 + ["1", "True"]


class TestSourceIteration:
    def test_scatter_map_computed_once_per_system(self, monkeypatch):
        # each system keeps its scattering map: a run computes it once for
        # each system it sweeps (theta = 2 pi rides on theta = 0), not
        # once per ordinate and sweep
        calls, real = [], dowg.assembly._scatter_map

        def counted(system):
            calls.append(system)
            return real(system)

        monkeypatch.setattr(dowg.assembly, "_scatter_map", counted)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _stock_endpoint(_systems(DODSD(), quad, kernel, medium, mesh, tables,
                                           f=_source))
        _, trace = source_iteration(systems, kernel, quad, SourceIterationConfig(tol=1e-9))
        assert trace.converged and trace.iterations > 2
        assert [id(s) for s in calls] == [id(s) for s in systems[:-1]]

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
        real = dowg.solver._Sweep.solve
        sweeps = []

        def poisoned(self, i):
            sweeps.append(1)
            for m, x in real(self, i):
                if len(sweeps) > 2:  # from the third sweep on
                    x[0] = bad
                yield m, x

        monkeypatch.setattr(dowg.solver._Sweep, "solve", poisoned)
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

        class Counted(_Sweep):
            def __init__(self, systems, start=None):
                built.extend(range(len(systems)))
                super().__init__(systems, start)

        monkeypatch.setattr(dowg.solver, "_Sweep", Counted)
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(DODG(), quad, kernel, medium, mesh, tables, f=_source)
        asked = []

        def certify(field, quad):
            asked.append(len(asked))
            return 1e-10

        _, trace = source_iteration(
            systems, kernel, quad, SourceIterationConfig(tol=1e-3), certify=certify
        )
        assert trace.converged and trace.bound <= 1e-10 and trace.residual <= 1e-10
        assert len(asked) >= 2
        assert len(built) == len(quad)


class TestSplitStorage:
    """The sweep holds D^{-1} per class, the upwind blocks and R only,
    and the loop never assembles a system matrix."""

    @staticmethod
    def _no_matrix(system):
        raise AssertionError("the loop read DirectionSystem.matrix")

    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_loop_never_assembles(self, monkeypatch, name):
        quad, kernel, medium, mesh, tables = _setup(level=4, k=1)
        systems = _systems(_SCHEMES[name], quad, kernel, medium, mesh, tables, f=_source)
        built = []

        class Kept(_Sweep):
            def __init__(self, systems, start=None):
                super().__init__(systems, start)
                built.append(self)

        monkeypatch.setattr(dowg.solver, "_Sweep", Kept)
        monkeypatch.setattr(DirectionSystem, "matrix", property(self._no_matrix))
        _, trace = source_iteration(systems, kernel, quad, SourceIterationConfig(tol=1e-9))
        monkeypatch.undo()
        assert trace.converged and trace.escalated == 0
        [sweep] = built
        # no R is sparse: WG's is applied on the faces, DODG's on the
        # grid, each product (A - P) x to 1e-14
        def sparse(v):
            return sp.issparse(v) or isinstance(v, (list, tuple)) and any(map(sparse, v))

        for held in filter(None, (sweep, sweep.jumps, sweep.downwind)):
            assert not any(sparse(v) for v in vars(held).values())
        assert (sweep.jumps is not None) == (name == "wg")
        assert (sweep.downwind is not None) == (name == "dodg")
        x = np.random.default_rng(6).standard_normal((len(systems), systems[0].n_dof))
        Rx = _remainder_product(sweep, x)
        for m, sysm in enumerate(systems):
            A = sysm.matrix
            lower = _lower_part(_sweep_matrix(sysm), tables.dof, mesh, sysm.direction)
            err = np.abs(Rx[m] - (A - lower) @ x[m]).max()
            assert err <= 1e-14 * (abs(A) @ np.abs(x[m])).max()
            assert not any(sp.issparse(v) for v in vars(sysm).values())
        # D^{-1} per class: the interior block and the two end blocks of
        # each of the 2n - 1 fronts, against n^2 cells
        held = sweep._bulk.size + sweep._ends.size
        assert held <= (4 * mesh.n - 1) * tables.dof**2 * len(quad)


class TestFreeResidual:
    """The coupled residual the loop takes as the difference of
    successive right sides g equals ||b + S x - A x|| / ||b + S x|| of the
    assembled matrices, at every sweep, across the fallback too."""

    @staticmethod
    def _check(monkeypatch, systems, kernel, quad, sweeps):
        fields = []
        real = dowg.solver.scattering_source

        def recording(*args, out=None):
            fields.append(args[-1].copy())
            return real(*args, out=out)

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

    @pytest.mark.parametrize("dtype", [int, np.float32])
    def test_start_dtype_is_checked(self, dtype):
        # the iterate is the start array itself, so a start that is not
        # float64 would round every field written into it
        _, _, quad, run = self._run("wg", 2, 3)
        with pytest.raises(ValueError, match="start field must be float64"):
            run(np.zeros((len(quad), 64, 9), dtype=dtype))

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

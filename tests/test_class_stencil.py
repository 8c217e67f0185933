"""The class-built stencil and sweep equal the per-cell ones bitwise.

Each ordinate's block stencil is assembled once per cell class and each
sweep is filled into sparsity patterns shared by the ordinates of a run.
The references below are the per-cell stencil, every cell its own
class, and the sweep construction the solver used before: it converts
each ordinate's per-cell blocks to CSR/CSC separately.
"""

import gc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_assembly import _THETAS, _one_ordinate, _per_cell

import dowg.assembly
import dowg.solver
from dowg import _hooks
from dowg.angular import HenyeyGreenstein, build_circle_trapezoid, build_scatter_kernel
from dowg.assembly import DODG, DODSD, WG, Medium, assemble_direction
from dowg.elements import ElementQuadrature, ElementTables, LocalBasis
from dowg.mesh import build_mesh
from dowg.solver import (
    SourceIterationConfig, _pairs, _SweepSolve, _unit_lower_solve, source_iteration,
)

_SCHEMES = {"wg": WG(), "dodg": DODG(), "dodsd": DODSD()}


class _CellSweep:
    """Reference sweep construction: D^{-1}, M and R cut from one
    ordinate's per-cell stencil, M converted block matrix -> CSC and R
    stencil -> CSR on their own, as ``_SweepSolve`` built them before
    the shared patterns."""

    def __init__(self, system):
        mesh = system.mesh
        n, C, d = mesh.n, mesh.n_cells, system.tables.dof
        sx, sy = system.direction
        idx = np.arange(n)
        ip = idx if sx >= 0 else idx[::-1]
        jp = idx if sy >= 0 else idx[::-1]
        front = (jp[:, None] + ip[None, :]).ravel()
        order = np.argsort(front, kind="stable")
        rank = np.empty(C, dtype=np.intp)
        rank[order] = np.arange(C)

        acc = system.stencil()
        upwind = [0 if sy >= 0 else 4, 1 if sx >= 0 else 3]
        kept = upwind + [2]
        P = acc.blocks[:, kept]
        shift = dowg.assembly._sweep_shift(system)
        shifted = shift is not None
        if shifted:
            P += shift.blocks[:, kept]
        dinv = np.linalg.inv(P[:, 2])

        r, c, blocks = [rank], [rank], [np.broadcast_to(np.eye(d), (C, d, d))]
        for j, slot in enumerate(upwind):
            cells = np.nonzero(acc.touched[:, slot])[0]
            r.append(rank[cells])
            c.append(rank[cells + acc.offsets[slot]])
            blocks.append(dinv[cells] @ P[cells, j])
        r, c, blocks = np.concatenate(r), np.concatenate(c), np.concatenate(blocks)
        perm = np.lexsort((c, r))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=C))))
        M = sp.bsr_matrix((blocks[perm], c[perm], indptr), shape=(C * d, C * d)).tocsc()
        M.eliminate_zeros()
        M.sort_indices()
        M.indices = M.indices.astype(np.intc, copy=False)
        M.indptr = M.indptr.astype(np.intc, copy=False)

        if shifted:
            acc.blocks[:, kept] -= P
        else:
            acc.touched[:, kept] = False
        R = acc.tocsr()
        R.eliminate_zeros()
        self.M = M
        self.R = R if R.nnz else None
        self.dinv = dinv[order]
        self._order = order
        self._rank = rank


def _cell_built(system):
    """The system matrix and sweep of the per-cell references."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dowg.assembly, "_class_grid", _per_cell)
        return system.matrix, _CellSweep(system)


def _dinv_cells(sw):
    """The per-cell D^{-1} in front order that a sweep's class storage
    stands for: its bulk block at every cell, the edge blocks at
    ``_edge``."""
    cells = np.repeat(sw._bulk.T[None], len(sw._order), axis=0)
    cells[sw._edge] = sw._edge_dinv
    return cells


def _same(a, b):
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _same_sparse(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.format == b.format and a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        _same(getattr(a, name), getattr(b, name))


def _assert_class_built_is_cell_built(systems):
    patterns = {}
    for system in systems:
        A_ref, ref = _cell_built(system)
        _same_sparse(system.matrix, A_ref)
        sw = _SweepSolve(system, patterns)
        _same_sparse(sw.M, ref.M)
        _same_sparse(sw.R, ref.R)
        _same(_dinv_cells(sw), ref.dinv)
        _same(sw._order, ref._order)
        _same(sw._rank, ref._rank)


def _setup(k, level, sigma_t=2.0):
    quad = build_circle_trapezoid(20)
    kernel = build_scatter_kernel(quad, HenyeyGreenstein(0.5), 2.0, 0.5, renormalize=True)
    tables = ElementTables(LocalBasis(k), ElementQuadrature.build(k))
    return quad, kernel, Medium(sigma_t, 0.5), build_mesh(level), tables


def _systems(name, k, level, sigma_t=2.0, f=None):
    quad, kernel, medium, mesh, tables = _setup(k, level, sigma_t)
    return [
        assemble_direction(_SCHEMES[name], mesh, tables, quad, kernel, medium, m, f=f)
        for m in range(len(quad))
    ]


def _source(x, y, th):
    return np.sin(3.0 * x + th) + np.cos(2.0 * y)


class TestClassBuiltEqualsCellBuilt:
    """``DirectionSystem.matrix`` and every sweep's M, R, D^{-1} and front
    order are bitwise those of the per-cell construction."""

    # every M = 20 ordinate, m = 0, 5, 10, 15 and 20 on the axes
    @pytest.mark.parametrize("level", [1, 2, 4, 5])  # n = 2, 4, 16, 32
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_every_ordinate(self, name, k, level):
        _assert_class_built_is_cell_built(_systems(name, k, level))

    @pytest.mark.parametrize("hook", ["flip_inflow_sign"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_under_hooks(self, name, k, hook):
        with _hooks.inject(hook):
            _assert_class_built_is_cell_built(_systems(name, k, 2))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_callable_sigma_t(self, name, k):
        # a varying sigma_t makes every cell its own class
        systems = _systems(name, k, 2, sigma_t=lambda x, y: 2.0 + x * y)
        assert np.array_equal(systems[0].stencil().cls, np.arange(16))
        _assert_class_built_is_cell_built(systems)

    @settings(max_examples=40, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        name=st.sampled_from(sorted(_SCHEMES)),
        level=st.sampled_from([1, 2, 3]),
        hook=st.sampled_from([None, "flip_inflow_sign"]),
    )
    def test_any_direction(self, theta, k, name, level, hook):
        _, kernel, medium, mesh, tables = _setup(k, level)
        one = _one_ordinate(theta)
        with _hooks.inject(hook) if hook else nullcontext():
            system = assemble_direction(_SCHEMES[name], mesh, tables, one, kernel, medium, 0)
            _assert_class_built_is_cell_built([system])


def _assert_forward_is_cell_forward(systems):
    """Each sweep's ``_forward`` equals the per-cell reference: the
    per-cell D^{-1} einsum, the triangular solve, the rank gather."""
    patterns = {}
    rng = np.random.default_rng(11)
    for system in systems:
        _, ref = _cell_built(system)
        sw = _SweepSolve(system, patterns)
        d = sw.d
        g = rng.standard_normal(system.n_dof)
        y = np.einsum("cij,cj->ci", ref.dinv, g.reshape(-1, d)[ref._order]).ravel()
        want = _unit_lower_solve(ref.M, y).reshape(-1, d)[ref._rank].ravel()
        assert np.abs(sw._forward(g) - want).max() <= 1e-14 * np.abs(want).max()


def _sigma_t(kind):
    return 2.0 if kind == "constant" else (lambda x, y: 2.0 + x * y)


class TestClassDinv:
    """D^{-1} is held per class: one bulk block and the blocks of the
    other cells, and ``_forward`` applies it as the per-cell blocks did."""

    @pytest.mark.parametrize("kind", ["constant", "callable"])
    @pytest.mark.parametrize("level", [1, 2, 4])  # n = 2, 4, 16
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_forward_equals_per_cell(self, name, k, level, kind):
        _assert_forward_is_cell_forward(_systems(name, k, level, sigma_t=_sigma_t(kind)))

    @settings(max_examples=40, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        name=st.sampled_from(sorted(_SCHEMES)),
        level=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(["constant", "callable"]),
        hook=st.sampled_from([None, "flip_inflow_sign"]),
    )
    def test_any_direction(self, theta, k, name, level, kind, hook):
        _, kernel, medium, mesh, tables = _setup(k, level, _sigma_t(kind))
        one = _one_ordinate(theta)
        with _hooks.inject(hook) if hook else nullcontext():
            system = assemble_direction(_SCHEMES[name], mesh, tables, one, kernel, medium, 0)
            _assert_forward_is_cell_forward([system])

    @pytest.mark.parametrize("level", [2, 4, 5])
    def test_class_sized_storage(self, level):
        # with a constant sigma_t the edge cells are the boundary ones
        # (n > 2), and no array holds a block per cell; a callable sigma_t
        # keeps every cell but the bulk one at the edge
        n = 2**level
        for kind, edge in (("constant", 4 * n - 4), ("callable", n * n - 1)):
            patterns = {}
            for system in _systems("dodg", 1, level, sigma_t=_sigma_t(kind)):
                sw = _SweepSolve(system, patterns)
                assert sw._bulk.shape == (sw.d, sw.d) and len(sw._edge) == edge
                assert sw._edge_dinv.shape == (edge, sw.d, sw.d)
                blocks = sum(v.size for v in vars(sw).values()
                             if isinstance(v, np.ndarray) and v.ndim > 1)
                assert blocks == (edge + 1) * sw.d**2


class TestSharedPatterns:
    def test_one_quadrant_shares_its_indices(self):
        # m = 1..4 lie strictly inside the first quadrant; the patterns
        # are shared and read-only, the values are each ordinate's own
        sweeps = [solve.__self__ for solve, _ in _pairs(_systems("wg", 1, 4))]
        first, *rest = sweeps[1:5]
        for sw in rest:
            for a, b in ((sw.M, first.M), (sw.R, first.R)):
                assert np.shares_memory(a.indices, b.indices)
                assert np.shares_memory(a.indptr, b.indptr)
                assert not np.shares_memory(a.data, b.data)
            assert sw._order is first._order and sw._rank is first._rank
            assert sw._edge is first._edge
        assert not first.M.indices.flags.writeable
        assert not first.R.indptr.flags.writeable
        assert not first._edge.flags.writeable
        assert not np.shares_memory(sweeps[0].M.indices, first.M.indices)  # on an axis

    def test_sweeps_die_with_the_run(self, monkeypatch):
        # no reference cycle keeps a sweep alive after the loop returns:
        # with the cyclic collector off, reference counting alone frees it
        refs = []

        class Watched(_SweepSolve):
            def __init__(self, system, patterns, start=None):
                super().__init__(system, patterns, start)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(dowg.solver, "_SweepSolve", Watched)
        systems = _systems("wg", 1, 4, f=_source)
        quad, kernel = _setup(1, 4)[:2]
        enabled = gc.isenabled()
        gc.disable()
        try:
            _, trace = source_iteration(systems, kernel, quad, SourceIterationConfig(tol=1e-6))
            assert trace.converged and len(refs) == len(quad)
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

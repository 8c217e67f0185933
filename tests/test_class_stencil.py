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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_assembly import _MEDIA, _THETAS, _one_ordinate, _per_cell

import dowg.assembly
import dowg.solver
from dowg import _hooks
from dowg.angular import HenyeyGreenstein, build_circle_trapezoid, build_scatter_kernel
from dowg.assembly import DODG, DODSD, WG, Medium, _pattern, assemble_direction, triple_norm
from dowg.elements import ElementQuadrature, ElementTables, LocalBasis
from dowg.mesh import build_mesh
from dowg.solver import (
    SourceIterationConfig, _pairs, _SweepSolve, _unit_lower_solve, source_iteration,
)
from dowg.verify import build_case, measure_error

_SCHEMES = {"wg": WG(), "dodg": DODG(), "dodsd": DODSD()}

# (sigma_t, sigma_s): the stock constant medium, and a thick one
# (``test_assembly.THICK``)
_KINDS = {"constant": (2.0, 0.5), "thick": (20.0, 19.8)}


def _bsr(acc, blocks):
    """The stencil ``acc`` with class blocks ``blocks`` as CSR, by the
    block conversion: every written block (one with a nonzero entry)
    gathered in full into its cell's block row as BSR, then CSR."""
    C, d = len(acc.cls), acc.d
    written = blocks.any(axis=(2, 3))[acc.cls]
    cells, slots = np.nonzero(written)
    indptr = np.concatenate(([0], np.cumsum(written.sum(axis=1))))
    return sp.bsr_matrix(
        (blocks[acc.cls[cells], slots], cells + acc.offsets[slots], indptr),
        shape=(C * d, C * d),
    ).tocsr()


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
            cells = np.nonzero(P[:, j].any(axis=(1, 2)))[0]
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
            acc.blocks[:, kept] = 0.0
        R = _bsr(acc, acc.blocks)
        R.eliminate_zeros()
        self.M = M
        self.R = R if R.nnz else None
        self.dinv = dinv[order]
        self._order = order
        self._rank = rank


def _cell_built(system):
    """The system matrix and sweep of the per-cell references."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dowg.assembly, "_empty_stencil", _per_cell)
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


def _setup(k, level, medium=_KINDS["constant"], M=20):
    quad = build_circle_trapezoid(M)
    kernel = build_scatter_kernel(quad, HenyeyGreenstein(0.5), *medium, renormalize=True)
    tables = ElementTables(LocalBasis(k), ElementQuadrature.build(k))
    return quad, kernel, Medium(*medium), build_mesh(level), tables


def _systems(name, k, level, medium=_KINDS["constant"], f=None, M=20):
    quad, kernel, medium, mesh, tables = _setup(k, level, medium, M)
    return [
        assemble_direction(_SCHEMES[name], mesh, tables, quad, kernel, medium, m, f=f)
        for m in range(len(quad))
    ]


def _assert_callable_refused(name, k, level):
    """A callable sigma_t builds no system: the first ordinate's assembly
    raises ``TypeError``, so there is no stencil, class grid or sweep."""
    quad, kernel, _, mesh, tables = _setup(k, level)
    medium = Medium(lambda x, y: 2.0 + x * y, 0.5)
    with pytest.raises(TypeError):
        assemble_direction(_SCHEMES[name], mesh, tables, quad, kernel, medium, 0)


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
        # cross sections are numbers: a varying sigma_t is refused rather
        # than made into a grid of one class per cell
        _assert_callable_refused(name, k, 2)

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

    @settings(max_examples=40, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        name=st.sampled_from(sorted(_SCHEMES)),
        level=st.sampled_from([1, 2, 3]),
        medium=_MEDIA,
    )
    @example(theta=0.3, k=2, name="wg", level=3, medium=(20.0, 19.8))
    @example(theta=np.pi, k=1, name="dodg", level=2, medium=(20.0, 19.8))
    def test_any_medium(self, theta, k, name, level, medium):
        _, kernel, medium, mesh, tables = _setup(k, level, medium)
        one = _one_ordinate(theta)
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


class TestClassDinv:
    """D^{-1} is held per class: one bulk block and the blocks of the
    other cells, and ``_forward`` applies it as the per-cell blocks did."""

    @pytest.mark.parametrize("kind", ["callable", *sorted(_KINDS)])
    @pytest.mark.parametrize("level", [1, 2, 4])  # n = 2, 4, 16
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_forward_equals_per_cell(self, name, k, level, kind):
        if kind == "callable":  # no system, so no sweep to hold D^{-1}
            _assert_callable_refused(name, k, level)
        else:
            _assert_forward_is_cell_forward(_systems(name, k, level, _KINDS[kind]))

    @settings(max_examples=40, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        name=st.sampled_from(sorted(_SCHEMES)),
        level=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(sorted(_KINDS)),
        hook=st.sampled_from([None, "flip_inflow_sign"]),
    )
    def test_any_direction(self, theta, k, name, level, kind, hook):
        _, kernel, medium, mesh, tables = _setup(k, level, _KINDS[kind])
        one = _one_ordinate(theta)
        with _hooks.inject(hook) if hook else nullcontext():
            system = assemble_direction(_SCHEMES[name], mesh, tables, one, kernel, medium, 0)
            _assert_forward_is_cell_forward([system])

    @pytest.mark.parametrize("level", [2, 4, 5])
    def test_class_sized_storage(self, level):
        # the edge cells are the boundary ones (n > 2), and no array holds
        # a block per cell
        edge = 4 * 2**level - 4
        patterns = {}
        for system in _systems("dodg", 1, level):
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


def _reference_pattern(acc, nonzero, front=None):
    """``_pattern`` as the conversion it replaced: every written block
    expanded block by block to BSR, then CSR, its zeros removed, and for
    M a COO round trip into CSC in front order, all on 1 + each entry's
    position in the class blocks."""
    ids = np.arange(1, nonzero.size + 1, dtype=np.intc).reshape(nonzero.shape)
    A = _bsr(acc, ids * nonzero)
    A.eliminate_zeros()
    if front is not None:
        A = A.tocoo()
        dof = (front[1][:, None] * acc.d + np.arange(acc.d)).ravel()
        A = sp.csc_matrix((A.data, (dof[A.row], dof[A.col])), shape=A.shape)
    return A.indices.astype(np.intc), A.indptr.astype(np.intc), A.data.astype(np.intp) - 1


def _fancy_by_class(v, bulk, edge, blocks):
    """``_by_class`` with fancy-indexed rows."""
    y = v @ bulk
    y[edge] = np.einsum("cij,cj->ci", blocks, v[edge])
    return y


def _fancy_face_traces(mesh, tables, coeffs):
    """``assembly._face_traces`` with fancy-indexed rows."""
    interior = [
        (s1, coeffs[c1] @ tables.trace[s1].T, coeffs[c2] @ tables.trace[s2].T)
        for s1, s2, c1, c2 in mesh.interior_faces()
    ]
    return interior, _fancy_side_traces(mesh, tables, coeffs)


def _fancy_side_traces(mesh, tables, coeffs):
    """``assembly._side_traces`` with fancy-indexed rows."""
    return [coeffs[mesh.boundary_cells(b)] @ tables.trace[b].T for b in range(4)]


class TestRowTakes:
    """The live-slot pattern build and the ``np.take`` row moves equal,
    bit for bit, the conversion and the fancy indexing they replaced."""

    # every ordinate of M = 4 (all on an axis) and M = 20
    @pytest.mark.parametrize("M", [4, 20])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @pytest.mark.parametrize("level", [1, 2, 4])  # n = 2, 4, 16
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_pattern_equals_reference(self, name, k, level, kind, M, monkeypatch):
        keys = []

        def checked(acc, nonzero, front=None):
            got = _pattern(acc, nonzero, front)
            for a, b in zip(got, _reference_pattern(acc, nonzero, front), strict=True):
                _same(a, b)
            keys.append(front is None)
            return got

        monkeypatch.setattr(dowg.assembly, "_pattern", checked)
        patterns = {}
        for system in _systems(name, k, level, _KINDS[kind], M=M):
            _SweepSolve(system, patterns)
        # every pattern key of the run, M's and, but for DODSD, R's
        assert len(keys) == sum(len(key) == 4 for key in patterns)
        assert not all(keys) and any(keys) == (name != "dodsd")

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @pytest.mark.parametrize("level", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_forward_and_start_equal_fancy_indexing(self, name, k, level, kind):
        patterns = {}
        rng = np.random.default_rng(5)
        for system in _systems(name, k, level, _KINDS[kind]):
            x0 = rng.standard_normal(system.n_dof)
            px0 = x0.copy()
            sw = _SweepSolve(system, patterns, px0)
            d, order, rank = sw.d, sw._order, sw._rank
            g = rng.standard_normal(system.n_dof)
            y = _fancy_by_class(g.reshape(-1, d)[order], sw._bulk, sw._edge, sw._edge_dinv)
            z = _unit_lower_solve(sw.M, y.ravel())
            _same(sw._forward(g), z.reshape(-1, d)[rank].ravel())
            # P x0 = D (M x0), D the own blocks of the swept stencil
            acc = system.stencil()
            D = acc.blocks[:, 2]
            shift = dowg.assembly._sweep_shift(system)
            if shift is not None:
                D = D + shift.blocks[:, 2]
            bulk = np.argmax(np.bincount(acc.cls[order]))
            z = (sw.M @ x0.reshape(-1, d)[order].ravel()).reshape(-1, d)
            y = _fancy_by_class(z, D[bulk].T, sw._edge, D[acc.cls[order[sw._edge]]])
            _same(px0, y[rank].ravel())

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_norms_equal_fancy_indexing(self, name, k, monkeypatch):
        quad, _, _, mesh, tables = _setup(k, 4)
        field = np.random.default_rng(k).standard_normal((len(quad), mesh.n_cells, tables.dof))
        case = build_case(name)
        got = measure_error(field, case, mesh, tables, quad), triple_norm(mesh, tables, quad, field)
        for module in (dowg.assembly, dowg.verify):
            monkeypatch.setattr(module, "_face_traces", _fancy_face_traces)
            monkeypatch.setattr(module, "_side_traces", _fancy_side_traces)
        want = measure_error(field, case, mesh, tables, quad), triple_norm(mesh, tables, quad, field)
        assert got == want

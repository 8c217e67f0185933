"""The class-built stencil and sweep equal the per-cell ones bitwise.

Each ordinate's block stencil is assembled once per cell class, and one
batched sweep holds every swept ordinate's class blocks and R: WG's on
the faces (``_Jumps``), every other one as its two downwind blocks on
the grid (``_Downwind``), shared by the ordinates of a run.  The
references below are the per-cell stencil, every cell its own class, and
the sweep construction the solver used before: it converts each
ordinate's per-cell blocks to CSR/CSC separately.  R x is the
reference's (A - P) x to 1e-14 of |A| |x|; everything else is bitwise
the reference's.
"""

import gc
import math
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from test_assembly import _MEDIA, _THETAS, _one_ordinate, _per_cell

import dowg.assembly
import dowg.solver
from dowg import _hooks
from dowg.angular import HenyeyGreenstein, build_circle_trapezoid, build_scatter_kernel
from dowg.assembly import (
    _INTERIOR, _SLOT, DODG, DODSD, WG, Medium, _filled, _jump_stencil, _pattern,
    assemble_direction, triple_norm,
)
from dowg.elements import ElementQuadrature, ElementTables, LocalBasis
from dowg.mesh import build_mesh
from dowg.solver import SourceIterationConfig, _Jumps, _Sweep, _windows, source_iteration
from dowg.verify import build_case, project_exact

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
    """Reference sweep construction: D^{-1} per cell, M = D^{-1}(D + L)
    and R cut from one ordinate's per-cell stencil, M converted block
    matrix -> CSC in front order and R stencil -> CSR on their own, as
    the solver built them before the shared patterns and the batch."""

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
        self.dinv = dinv
        self._order = order
        self._rank = rank


def _cell_built(system):
    """The system matrix and sweep of the per-cell references."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dowg.assembly, "_empty_stencil", _per_cell)
        return system.matrix, _CellSweep(system)


def _layout(sweep):
    """An ordinate's block of the packed work array, rebuilt from n
    alone: per front its first row, its rows (its cells and a pad at
    either end) and the flow row of its first cell."""
    n = math.isqrt(sweep._C)
    f = np.arange(2 * n - 1)
    lo = np.maximum(f - n + 1, 0)
    cols = np.minimum(f, n - 1) - lo + 3
    first = np.concatenate([[0], np.cumsum(cols)[:-1]])
    return first, cols, lo


def _front_views(sweep, rows):
    """Per front, the view (ordinates, rows, d) of work-array rows."""
    first, cols, _ = _layout(sweep)
    W = rows.reshape(len(sweep._bulk), cols.sum(), -1)
    return [W[:, a:a + c] for a, c in zip(first, cols)]


def _out_rows(sweep, b):
    """The work-array row of each cell of the batch's ordinate b, in its
    block, through its flow quadrant's ``_out``."""
    return sweep._out[sweep._quadrant[b]]


def _front_cells(sweep, b):
    """Per cell of the batch's ordinate b, in natural order: its front
    and whether it is the front's first or last cell, from its work-array
    rows."""
    first, cols, _ = _layout(sweep)
    row = _out_rows(sweep, b)
    front = np.searchsorted(first, row, side="right") - 1
    col = row - first[front]
    return front, col == 1, col == cols[front] - 2


def _packed(sweep, rows):
    """The work array (ordinates, rows, d) filled from ``rows``, C rows
    of d per ordinate, by fancy indexing with each ordinate's ``_in``,
    and the pads, which ``_layout`` places, set to zero."""
    first, cols, _ = _layout(sweep)
    g = rows.reshape(len(sweep._bulk), sweep._C, -1)
    W = np.stack([g[b][sweep._in[q]] for b, q in enumerate(sweep._quadrant)])
    W[:, np.concatenate([first, first + cols - 1])] = 0.0
    return W


def _unpacked(sweep, W):
    """Each ordinate's C rows of d of the work array ``W``, by fancy
    indexing with its ``_out``, ordinate after ordinate."""
    return np.concatenate([W[b][_out_rows(sweep, b)] for b in range(len(W))])


def _dinv_cells(sweep, b):
    """The per-cell D^{-1} in natural order that the batch's class storage
    stands for, for its ordinate b: the interior block at every cell, a
    front's end blocks at its first and last cell."""
    front, *ends = _front_cells(sweep, b)
    cells = np.repeat(sweep._bulk[b].T[None], len(front), axis=0)
    for e, at in enumerate(ends):
        cells[at] = sweep._ends[sweep._end_of[front[at]], e, b].transpose(0, 2, 1)
    return cells


def _inverse(pinv, g):
    """``solve`` of ``g``, one flat g per ordinate of the systems the
    pairs were built on, written into the first rows of ``bufs[0]``; as
    one flat array per ordinate."""
    g = np.asarray(g)
    buf = pinv.bufs[0]
    buf[:g.size // buf.shape[1]] = g.reshape(-1, buf.shape[1])
    x = np.empty(g.shape)
    for m, xm in pinv.solve(0):
        x[m] = xm.ravel()
    return x


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


def _batch(systems):
    """One batched sweep over all ``systems``."""
    return _Sweep(systems)


def _remainder_product(sweep, x):
    """R x of every ordinate the sweep holds, ``x`` (ordinates, n_dof), as
    the loop forms it: WG's on the faces, the others' on the grid."""
    g = np.zeros((len(x) * sweep._C, sweep._d))
    for R in (sweep.jumps, sweep.downwind):
        if R is not None:
            R.subtract(np.ascontiguousarray(x).reshape(g.shape), g)
    return -g.reshape(x.shape)


def _same_remainder(system, sweep, b, x, ref, A):
    """The sweep's R of ``system``, its ordinate b, against the per-cell
    A - P ``ref`` (None for 0): its product with ``x``
    (``_remainder_product``) to 1e-14 of |A| |x|, where for WG A - P
    cancels to within A's rounding.  WG's R is -shift on the faces, every
    other one the downwind blocks on the grid."""
    assert (sweep.jumps is not None) == isinstance(system.scheme, WG)
    Rx = _remainder_product(sweep, x)[b]
    want = 0.0 if ref is None else ref @ x[b]
    assert abs(Rx - want).max() <= 1e-14 * (abs(A) @ abs(x[b])).max()


def _assert_class_built_is_cell_built(systems):
    sweep = _batch(systems)
    x = np.random.default_rng(3).standard_normal((len(systems), systems[0].n_dof))
    for b, system in enumerate(systems):
        A_ref, ref = _cell_built(system)
        _same_sparse(system.matrix, A_ref)
        _same_remainder(system, sweep, b, x, ref.R, A_ref)
        _same(_dinv_cells(sweep, b), ref.dinv)


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
    """``DirectionSystem.matrix`` and the batch's R and D^{-1} of every
    ordinate are bitwise those of the per-cell construction, but for
    WG's R, whose product is that of its A - P to 1e-14
    (``_same_remainder``)."""

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
    """The batch's P^{-1} equals the per-cell reference for each ordinate:
    the per-cell D^{-1} einsum in front order, the triangular solve with
    M, the rank gather."""
    g = np.random.default_rng(11).standard_normal((len(systems), systems[0].n_dof))
    x = _inverse(_batch(systems), g)
    for b, system in enumerate(systems):
        _, ref = _cell_built(system)
        d, order = system.tables.dof, ref._order
        y = np.einsum("cij,cj->ci", ref.dinv[order], g[b].reshape(-1, d)[order]).ravel()
        z = spla.spsolve_triangular(ref.M, y, lower=True, unit_diagonal=True)
        want = z.reshape(-1, d)[ref._rank].ravel()
        assert np.abs(x[b] - want).max() <= 1e-14 * np.abs(want).max()


class TestClassDinv:
    """D^{-1} is held per class: the interior block and the blocks of
    each front's two ends, and the batch applies it as the per-cell
    blocks did."""

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
        # the fronts' ends are the 4n - 4 boundary cells (n > 2), and no
        # array holds a block per cell: the fronts whose ends have the same
        # classes share their blocks, five distinct pairs of the 2n - 1
        n = 2**level
        systems = _systems("dodg", 1, level)
        sweep = _batch(systems)
        L, d = len(systems), sweep._d
        assert sweep._bulk.shape == (L, d, d)
        assert sweep._ends.shape == (5, 2, L, d, d)
        assert sweep._end_of.shape == (2 * n - 1,)
        assert sweep._upwind.shape == (L, 2 * d, d)
        i, j = np.arange(n * n) % n, np.arange(n * n) // n
        boundary = (i == 0) | (i == n - 1) | (j == 0) | (j == n - 1)
        for b in range(L):
            _, first, last = _front_cells(sweep, b)
            assert_array_equal(first | last, boundary)


def _runs(sweep):
    """The ordinate ranges [lo, hi) of the sweep's downwind remainder runs."""
    return [(lo, hi) for _, lo, hi, _ in sweep.downwind._runs]


class TestSharedPatterns:
    def test_one_quadrant_shares_its_indices(self):
        # m = 1..4 lie strictly inside the first quadrant.  WG's R is one
        # face operator for every ordinate, the axis one m = 0 too, with
        # each ordinate's own scales h|s_x|/4 and h|s_y|/4, and no
        # downwind one; DODG's is one run of downwind blocks for the
        # quadrant, which m = 0 joins by the tie rule (s_y = 0 counts the
        # bottom as upwind) and m = 5 by its s_x = cos(pi/2) = 6e-17, and
        # m = 6 starts the second
        systems = _systems("wg", 1, 4)
        sweep = _batch(systems)
        assert sweep.downwind is None
        for m in range(5):
            h, (sx, sy) = systems[m].mesh.h, systems[m].direction
            assert list(sweep.jumps._scales[m]) == [0.25 * h * abs(sx), 0.25 * h * abs(sy)]
        sweep = _batch(_systems("dodg", 1, 4))
        assert sweep.jumps is None and _runs(sweep)[:2] == [(0, 6), (6, 11)]

    @staticmethod
    def _built(monkeypatch):
        """Every CSR the sweep's set-up expands from class blocks."""
        built, real = [], dowg.assembly._filled

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(dowg.assembly, "_filled", recording)
        monkeypatch.setattr(dowg.solver, "_filled", recording)
        return built

    @pytest.mark.parametrize("M", [4, 20])
    def test_wg_builds_two_operators(self, monkeypatch, M):
        # R = -(h/4)(|s_x| J_x + |s_y| J_y) at every ordinate: the run
        # holds J_x and J_y once, whatever the ordinate count, as one
        # operator on the faces, and expands no CSR
        built = self._built(monkeypatch)
        systems = _systems("wg", 1, 4, M=M)
        sweep = _batch(systems)
        assert built == [] and sweep.downwind is None
        for system, scales in zip(systems, sweep.jumps._scales, strict=True):
            h, s = system.mesh.h, system.direction
            assert list(scales) == list(0.25 * h * np.abs(s))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("M", [4, 20])
    def test_dodg_builds_one_per_flow_quadrant(self, monkeypatch, M, k):
        # DODG's R, the jump penalty in the downwind slots, is the same
        # bit for bit within a flow quadrant: one run of the two blocks
        # for each stretch of ordinates in one quadrant (theta = 2 pi,
        # after the fourth, runs alone), and no CSR
        built = self._built(monkeypatch)
        sweep = _batch(_systems("dodg", k, 4, M=M))
        assert built == [] and sweep.jumps is None
        q = sweep._quadrant
        starts = [m for m in range(1, M + 1) if q[m] != q[m - 1]]
        assert _runs(sweep) == list(zip([0] + starts, starts + [M + 1]))
        blocks = {}
        for (quadrant, values), *_ in sweep.downwind._runs:
            assert blocks.setdefault(quadrant, values) == values
        assert len(blocks) <= 4

    def test_unshifted_wg_shares_only_equal_remainders(self, monkeypatch):
        # swept without its shift, WG's R is A's downwind blocks, which
        # depend on the direction: one run per ordinate, theta = 2 pi's
        # blocks those of theta = 0, and no CSR
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        built = self._built(monkeypatch)
        sweep = _batch(_systems("wg", 1, 3))
        runs = sweep.downwind._runs
        assert built == [] and sweep.jumps is None
        assert [(lo, hi) for _, lo, hi, _ in runs] == [(m, m + 1) for m in range(21)]
        assert runs[20][0] == runs[0][0]

    def test_sweeps_die_with_the_run(self, monkeypatch):
        # no reference cycle keeps a sweep alive after the loop returns:
        # with the cyclic collector off, reference counting alone frees it
        refs = []

        class Watched(_Sweep):
            def __init__(self, systems, start=None):
                super().__init__(systems, start)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(dowg.solver, "_Sweep", Watched)
        systems = _systems("wg", 1, 4, f=_source)
        quad, kernel = _setup(1, 4)[:2]
        enabled = gc.isenabled()
        gc.disable()
        try:
            _, trace = source_iteration(systems, kernel, quad, SourceIterationConfig(tol=1e-6))
            assert trace.converged and len(refs) == 1
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()


class TestFaceRemainder:
    """WG's remainder on the faces (``solver._Jumps``) is minus its shift
    as the two jump CSRs it replaced: -(h/4)(|s_x| J_x + |s_y| J_y), J_x
    and J_y ``_filled`` from ``_jump_stencil`` on the vertical and the
    horizontal faces, on random vectors to 1e-14 of the same sum with
    every entry and value taken absolute."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        level=st.sampled_from([1, 2, 3, 4]),
        M=st.sampled_from([4, 20]),
        kind=st.sampled_from(sorted(_KINDS)),
        hook=st.sampled_from([None, "flip_inflow_sign"]),
        per=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=2, level=4, M=20, kind="thick", hook="flip_inflow_sign", per=None, seed=0)
    @example(k=1, level=1, M=4, kind="constant", hook=None, per=1, seed=1)
    @example(k=1, level=4, M=20, kind="constant", hook=None, per=3, seed=2)
    def test_equals_the_jump_csrs(self, k, level, M, kind, hook, per, seed):
        # ``per`` ordinates at a time (``solver._CHUNK``), or as many as
        # the default takes; M = 4 has only axis ordinates, with a scale 0
        with _hooks.inject(hook) if hook else nullcontext():
            systems = _systems("wg", k, level, _KINDS[kind], M=M)
        n, d = systems[0].mesh.n, systems[0].tables.dof
        with pytest.MonkeyPatch.context() as mp:
            if per is not None:
                mp.setattr(dowg.solver, "_CHUNK", per * n * n * d)
            sweep = _batch(systems)
        x = np.random.default_rng(seed).standard_normal((len(systems), n * n * d))
        Rx = _remainder_product(sweep, x)
        kappas = np.repeat(np.eye(2), 2, axis=1)  # sides 0, 1; 2, 3
        for m, system in enumerate(systems):
            J = [_filled({}, acc, acc.blocks) for acc in
                 (_jump_stencil(system, kappa) for kappa in kappas)]
            scale = 0.25 * system.mesh.h * np.abs(system.direction)
            ref = -(scale[0] * (J[0] @ x[m]) + scale[1] * (J[1] @ x[m]))
            size = scale[0] * (abs(J[0]) @ abs(x[m])) + scale[1] * (abs(J[1]) @ abs(x[m]))
            assert np.abs(Rx[m] - ref).max() <= 1e-14 * size.max()

    @pytest.mark.parametrize("table, at", [("E_self", (2, 0, 3)), ("E_pair", (0, 0, 1))])
    def test_set_up_refuses_edge_masses_off_the_faces(self, table, at):
        # the face form holds where each side's edge masses are one block
        # between the two sides' face dofs: an entry off the bottom side's
        # block, or a left-side pair block that is not the others', is
        # refused when the operator is built
        tables = ElementTables(LocalBasis(1), ElementQuadrature.build(1))
        getattr(tables, table)[at] += 2.0**-40
        with pytest.raises(RuntimeError, match="edge masses"):
            _Jumps(tables, 4, np.ones((1, 2)))


def _reference_pattern(acc, nonzero):
    """``_pattern`` as the conversion it replaced: every written block
    expanded block by block to BSR, then CSR, its zeros removed, all on
    1 + each entry's position in the class blocks."""
    ids = np.arange(1, nonzero.size + 1, dtype=np.intc).reshape(nonzero.shape)
    A = _bsr(acc, ids * nonzero)
    A.eliminate_zeros()
    return A.indices.astype(np.intc), A.indptr.astype(np.intc), A.data.astype(np.intp) - 1


def _fancy_solve(sweep, g):
    """``_Sweep.solve`` with fancy-indexed row moves: the same products
    front by front, on a work array filled and read out per ordinate by
    fancy indexing with its quadrant's ``_in`` and ``_out``."""
    work = _packed(sweep, g)
    W, (_, _, lo) = _front_views(sweep, work), _layout(sweep)
    B, d = len(sweep._bulk), sweep._d
    t = np.empty((B, math.isqrt(sweep._C), d))
    for l in range(len(W)):
        z = W[l][:, 1:-1]
        acc = t[:, :z.shape[1]]
        if l:
            win = _windows(W[l - 1][:, lo[l] - lo[l - 1]:], z.shape[1])
            np.matmul(win, sweep._upwind, out=acc)
            np.subtract(z, acc, out=acc)
        else:
            acc[...] = z
        np.matmul(acc, sweep._bulk, out=z)
        ends = sweep._ends[sweep._end_of[l]]
        np.matmul(acc[:, :1], ends[0], out=z[:, :1])
        np.matmul(acc[:, -1:], ends[1], out=z[:, -1:])
    return _unpacked(sweep, work).reshape(B, -1, d)


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
        calls = []

        def checked(acc, nonzero):
            got = _pattern(acc, nonzero)
            for a, b in zip(got, _reference_pattern(acc, nonzero), strict=True):
                _same(a, b)
            calls.append(1)
            return got

        monkeypatch.setattr(dowg.assembly, "_pattern", checked)
        systems = _systems(name, k, level, _KINDS[kind], M=M)
        sweep = _batch(systems)
        # the sweep builds no pattern: WG's R is applied on the faces,
        # DODG's on the grid, and DODSD has none
        assert calls == [] and (sweep.downwind is not None) == (name == "dodg")
        patterns = len(calls)
        for system in systems:
            _ = system.matrix  # its own pattern, checked the same way
        assert len(calls) == patterns + len(systems)

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @pytest.mark.parametrize("level", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_forward_and_start_equal_fancy_indexing(self, name, k, level, kind):
        systems = _systems(name, k, level, _KINDS[kind])
        rng = np.random.default_rng(5)
        d = systems[0].tables.dof
        x0, g = (rng.standard_normal((len(systems) * systems[0].mesh.n_cells, d))
                 for _ in range(2))
        start = x0.copy()
        sweep = _Sweep(systems, start)
        _same(start, x0)
        px0 = sweep.bufs[1][:len(x0)].copy()
        _same(_inverse(sweep, g.reshape(len(systems), -1)).reshape(len(systems), -1, d),
              _fancy_solve(sweep, g))
        # P x0 = D x0 + L x0 from the same class blocks, on a work array
        # filled by fancy indexing
        X = _packed(sweep, x0)
        acc = [s.stencil() for s in systems]
        own = np.stack([a.blocks[:, 2] for a in acc])
        for b, s in enumerate(systems):
            shift = dowg.assembly._sweep_shift(s)
            if shift is not None:
                own[b] += shift.blocks[:, 2]
        XF, (_, _, lo) = _front_views(sweep, X), _layout(sweep)
        D = own[:, _INTERIOR].transpose(0, 2, 1)
        Y = np.concatenate([x @ D for x in XF], axis=1)
        for b in range(len(systems)):
            front, *ends = _front_cells(sweep, b)
            cls = acc[b].cls
            for at in ends:
                rows = _out_rows(sweep, b)[at]
                E = np.ascontiguousarray(own[b, cls[at]].transpose(0, 2, 1))
                Y[b, rows] = (X[b, rows][:, None] @ E)[:, 0]
        YF = _front_views(sweep, Y)
        for l in range(1, len(YF)):
            cnt = YF[l].shape[1] - 2
            YF[l][:, 1:-1] += _windows(XF[l - 1][:, lo[l] - lo[l - 1]:], cnt) @ sweep._upwind
        _same(px0, _unpacked(sweep, Y))

    @pytest.mark.parametrize("k", [1, 2])
    def test_gather_indices_are_per_quadrant(self, k):
        # the ordinates of one flow quadrant share its gather indices, so
        # the index bytes are those of the four quadrants at any ordinate
        # count: one in-index per work row and one out-index per cell
        n = 16
        sweeps = [_batch(_systems("dodg", k, 4, M=M)) for M in (4, 20)]
        sizes = [s._in.nbytes + s._out.nbytes for s in sweeps]
        assert sizes[0] == sizes[1] == 4 * (2 * n * n + 2 * (2 * n - 1)) * np.intp().itemsize
        assert len(set(sweeps[1]._quadrant)) == 4

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_norms_equal_fancy_indexing(self, name, k, monkeypatch):
        quad, _, _, mesh, tables = _setup(k, 4)
        # the case's projected solution, perturbed; measure_error takes its
        # rows itself, and tests/test_verify.py checks it bit for bit
        # against the loop that used these two helpers
        rng = np.random.default_rng(k)
        field = project_exact(build_case(name), mesh, tables, quad)
        field += 0.1 * rng.standard_normal(field.shape)
        got = triple_norm(mesh, tables, quad, field)
        monkeypatch.setattr(dowg.assembly, "_face_traces", _fancy_face_traces)
        monkeypatch.setattr(dowg.assembly, "_side_traces", _fancy_side_traces)
        assert triple_norm(mesh, tables, quad, field) == got


# every fault hook, and none
_HOOKS = [None] + sorted(k for k, v in vars(_hooks).items() if isinstance(v, bool))


class TestUniformPairBlocks:
    """What the batched sweep relies on: every class with a neighbour
    across side b holds, in the slot across b, the interior class's block
    bit for bit, and a class without one holds 0, in the system stencil
    and in WG's sweep shift."""

    @settings(max_examples=60, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        name=st.sampled_from(sorted(_SCHEMES)),
        level=st.sampled_from([1, 2, 3]),
        hook=st.sampled_from(_HOOKS),
    )
    @example(theta=0.0, k=1, name="wg", level=2, hook=None)
    @example(theta=0.5 * np.pi, k=2, name="dodg", level=3, hook=None)
    @example(theta=np.pi, k=1, name="dodsd", level=1, hook="flip_inflow_sign")
    def test_any_direction(self, theta, k, name, level, hook):
        _, kernel, medium, mesh, tables = _setup(k, level)
        with _hooks.inject(hook) if hook else nullcontext():
            system = assemble_direction(
                _SCHEMES[name], mesh, tables, _one_ordinate(theta), kernel, medium, 0
            )
            stencils = [system.stencil(), dowg.assembly._sweep_shift(system)]
        for acc in filter(None, stencils):
            for side, slot in enumerate(_SLOT):
                inner = acc.inner[:, side]
                for c in np.nonzero(inner)[0]:
                    _same(acc.blocks[c, slot], acc.blocks[_INTERIOR, slot])
                assert not acc.blocks[~inner, slot].any()

    def test_set_up_refuses_a_class_that_differs(self, monkeypatch):
        # a first-column class whose bottom block is not the interior
        # class's: the batch cannot stand for it, so the set-up raises
        [system] = _systems("wg", 1, 2)[1:2]
        real = dowg.assembly._sweep_shift

        def skewed(s):
            shift = real(s)
            shift.blocks[3, 0] *= 1 + 2**-52
            return shift

        monkeypatch.setattr(dowg.solver, "_sweep_shift", skewed)
        with pytest.raises(RuntimeError, match="upwind blocks differ"):
            _Sweep([system])

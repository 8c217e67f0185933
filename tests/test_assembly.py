from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dowg.assembly
from dowg import _hooks
from dowg.angular import (
    AngularQuadrature,
    HenyeyGreenstein,
    Isotropic,
    build_circle_trapezoid,
    build_scatter_kernel,
)
from dowg.assembly import (
    DODG,
    DODSD,
    WG,
    Medium,
    assemble_direction,
    eval_bilinear,
    l2_dom_norm,
    scattering_source,
    triple_norm,
)
from dowg.elements import (
    ElementQuadrature,
    ElementTables,
    LocalBasis,
    project_field,
    weak_convection_blocks,
)
from dowg.mesh import SIDE_NORMALS, build_mesh

ST, SS = 2.0, 0.5


@pytest.fixture(scope="module")
def quad():
    return build_circle_trapezoid(20)


@pytest.fixture(scope="module")
def kernel(quad):
    return build_scatter_kernel(quad, HenyeyGreenstein(0.5), ST, SS, renormalize=True)


def _tables(k):
    return ElementTables(LocalBasis(k), ElementQuadrature.build(k))


def _quadrature_row(system, kernel, quad, field):
    """Reference scattering right side of one ordinate, evaluated at the
    element quadrature points: sigma_s h^2 sum_q w_q (K_d u)(x_q) test_q."""
    tables, h = system.tables, system.mesh.h
    vals = np.einsum("lcd,qd->lcq", field, tables.V)
    S = np.einsum("l,lcq->cq", kernel.matrix[system.m] * quad.weights, vals)
    w = tables.quad.vol_weights
    return system.medium.sigma_s * h * h * ((w[None, :] * S) @ system.scatter_test)


def _quadrature_source(systems, kernel, quad, field):
    return np.stack([_quadrature_row(s, kernel, quad, field) for s in systems])


def _quadrature_norm(mesh, tables, quad, field):
    """Reference angularly weighted broken L2 norm from point values."""
    vals = np.einsum("lcd,qd->lcq", field, tables.V)
    vol = mesh.h**2 * np.einsum("q,lcq->l", tables.quad.vol_weights, vals**2)
    return float(np.sqrt(np.sum(quad.weights * vol)))


def _per_cell(mesh, sigma_t):
    """Stand-in for ``assembly._class_grid`` that makes every cell its own
    class, so a stencil is assembled cell by cell on the mesh itself."""
    return mesh.n, np.arange(mesh.n_cells)


def _coo_reference(system):
    """Reference system matrix: every term added cell side by cell side
    on the full mesh as scalar COO triplets, summed and sorted by ``tocsr``.  A block
    a term writes stays in the pattern even where it is 0."""
    scheme, mesh, tables, medium = system.scheme, system.mesh, system.tables, system.medium
    s, h, d = system.direction, mesh.h, tables.dof
    rows, cols, vals = [], [], []

    def add(test, trial, block):
        rows.append(test * d + np.repeat(np.arange(d), d))
        cols.append(trial * d + np.tile(np.arange(d), d))
        vals.append(np.ravel(block))

    w, test_table = tables.quad.vol_weights, system.scatter_test
    idx = np.arange(mesh.n_cells)
    origins = mesh.h * np.column_stack([idx % mesh.n, idx // mesh.n]).astype(float)
    pts = origins[:, None, :] + h * tables.quad.vol_points[None, :, :]
    sigma = medium.sigma_t
    sv = sigma(pts[..., 0], pts[..., 1]) if callable(sigma) else np.full(pts.shape[:2], sigma)
    mass = h * h * np.einsum("cq,qi,qj->cij", w * sv, test_table, tables.V)
    if isinstance(scheme, DODSD):
        sd = s[0] * tables.DX + s[1] * tables.DY
        volume = h * (test_table.T @ (w[:, None] * sd))
    else:
        volume = -h * (s[0] * tables.GX + s[1] * tables.GY)
    for c in range(mesh.n_cells):
        add(c, c, volume + mass[c])

    for c, b in np.ndindex(mesh.neighbours.shape):
        nbr = mesh.neighbours[c, b]
        sn = SIDE_NORMALS[b] @ s  # s.n of cell c on side b
        if nbr < 0:
            # the own block is in the pattern anyway, so a 0 term may add
            if isinstance(scheme, WG):  # <u, s.n v>, and -<s.n u, v> on inflow
                coef = h * sn + (system.inflow_sign * h * sn if sn < 0 else 0.0)
            elif isinstance(scheme, DODG):  # outflow, where u_hat = u
                coef = h * max(sn, 0.0)
            else:  # DODSD: inflow <u, v |s.n|>
                coef = -h * min(sn, 0.0)
            add(c, c, coef * tables.E_self[b])
        elif isinstance(scheme, WG):  # <{u}, s.n v> and (|s.n|/4) <[u], [v]>
            kappa = 0.25 * abs(sn) * h
            add(c, c, (0.5 * h * sn + kappa) * tables.E_self[b])
            add(c, nbr, (0.5 * h * sn - kappa) * tables.E_pair[b])
        elif isinstance(scheme, DODG):  # upwind trace and c_p <[u], [v]>
            kappa = scheme.c_p * h
            add(c, c, (h * max(sn, 0.0) + kappa) * tables.E_self[b])
            add(c, nbr, (h * min(sn, 0.0) - kappa) * tables.E_pair[b])
        elif sn < 0:  # DODSD: <[u], v |s.n|> on the downwind cell
            add(c, c, -h * sn * tables.E_self[b])
            add(c, nbr, h * sn * tables.E_pair[b])
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(system.n_dof, system.n_dof),
    )
    return A.tocsr()


def _one_ordinate(theta):
    """A single-node quadrature along angle theta, with the same snapping
    of rounding noise on the axes as the stock circle rule."""
    vec = np.array([np.cos(theta), np.sin(theta)])
    vec[np.abs(vec) < 1e-14] = 0.0
    return AngularQuadrature(np.array([theta]), np.array([2 * np.pi]), vec[None, :])


# random angles plus exact axis ties and angles just below 2 pi
_THETAS = st.one_of(
    st.floats(0.0, 2 * np.pi),
    st.sampled_from([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2 * np.pi]),
    st.floats(2 * np.pi - 1e-6, 2 * np.pi),
)

_AXIS_THETAS = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2 * np.pi)


def _const_field(mesh, tables, quad, c):
    one = project_field(mesh, tables, lambda x, y: np.full_like(x, c))
    return np.broadcast_to(one, (len(quad),) + one.shape).copy()


class TestSchemes:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DODG(c_p=0.0)
        with pytest.raises(ValueError):
            DODG(c_p=-0.1)
        with pytest.raises(ValueError):
            DODSD(c=0.0)
        assert WG().name == "wg"
        assert DODG().c_p == 0.1
        assert DODSD().c == 1.0

    def test_medium_defaults(self):
        med = Medium()
        assert med.sigma_t == 2.0 and med.sigma_s == 0.5

    def test_margin_rejection(self, quad):
        # raw rows carry b ~ 1.418, so sigma_s b_max exceeds sigma_t
        # even though sigma_s < sigma_t
        hot = build_scatter_kernel(
            quad, HenyeyGreenstein(0.5), 1.0, 0.75, renormalize=False
        )
        mesh, tables = build_mesh(1), _tables(1)
        with pytest.raises(ValueError, match="positivity margin"):
            assemble_direction(WG(), mesh, tables, quad, hot, Medium(1.0, 0.75), 0)

    @pytest.mark.parametrize("make", [
        lambda: DODG(c_p=np.inf),
        lambda: DODG(c_p=np.nan),
        lambda: DODSD(c=np.inf),
    ], ids=["dodg-cp-inf", "dodg-cp-nan", "dodsd-c-inf"])
    def test_rejects_non_finite_parameters(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("medium", [Medium(np.inf, 0.5), Medium(2.0, -np.inf)],
                             ids=["sigma-t-inf", "sigma-s-minus-inf"])
    def test_rejects_non_finite_margin(self, quad, kernel, medium):
        # an infinite sigma_t would pass a sign check and reach the
        # factorization as an infinite system
        mesh, tables = build_mesh(1), _tables(1)
        with pytest.raises(ValueError, match="positive and finite"):
            assemble_direction(WG(), mesh, tables, quad, kernel, medium, 0)


class TestConstantSolution:
    # u = c with renormalized rows gives K u = c, so the balance
    # f = (sigma_t - sigma_s) c with inflow data c is discretely exact
    @pytest.mark.parametrize("scheme", [WG(), DODG(), DODSD()])
    @pytest.mark.parametrize("k", [1, 2])
    def test_residual_vanishes(self, quad, kernel, scheme, k):
        c0 = 0.75
        mesh, tables = build_mesh(2), _tables(k)
        med = Medium(ST, SS)
        systems = [
            assemble_direction(
                scheme, mesh, tables, quad, kernel, med, m,
                f=lambda x, y, th: np.full_like(np.broadcast_arrays(x, th)[0],
                                                (ST - SS) * c0),
                u_in=lambda x, y, th: np.full_like(np.broadcast_arrays(x, th)[0], c0),
            )
            for m in range(len(quad))
        ]
        field = _const_field(mesh, tables, quad, c0)
        src = scattering_source(systems, kernel, quad, field)
        for m in (0, 3, 7, 12, 20):
            res = systems[m].matrix @ field[m].ravel()
            res -= systems[m].rhs_fixed + src[m].ravel()
            assert np.abs(res).max() < 1e-13


class TestInvariantProperty:
    """The constant-solution residual, the coercivity floor and the tie
    rule hold for any direction and for any cross sections inside the
    positivity margin, not only the stock ones."""

    @settings(max_examples=40, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        scheme=st.sampled_from([WG(), DODG(), DODSD()]),
        sigma_t=st.floats(0.25, 8.0),
        ratio=st.floats(0.0, 0.99),
    )
    def test_constant_solution_residual(self, theta, k, scheme, sigma_t, ratio):
        # a renormalized one-node kernel has row mass 1, so K c = c and
        # the margin is sigma_t - sigma_s > 0
        c0, sigma_s = 0.75, ratio * sigma_t
        one = _one_ordinate(theta)
        kern = build_scatter_kernel(one, Isotropic(), sigma_t, sigma_s, renormalize=True)
        mesh, tables = build_mesh(2), _tables(k)
        sysm = assemble_direction(
            scheme, mesh, tables, one, kern, Medium(sigma_t, sigma_s), 0,
            f=lambda x, y, th: np.full_like(np.broadcast_arrays(x, th)[0],
                                            (sigma_t - sigma_s) * c0),
            u_in=lambda x, y, th: np.full_like(np.broadcast_arrays(x, th)[0], c0),
        )
        field = _const_field(mesh, tables, one, c0)
        src = scattering_source([sysm], kern, one, field)
        rhs = sysm.rhs_fixed + src[0].ravel()
        res = sysm.matrix @ field[0].ravel() - rhs
        assert np.abs(res).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        theta=_THETAS,
        k=st.sampled_from([1, 2]),
        sigma_t=st.floats(0.25, 8.0),
        ratio=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coercivity_floor(self, theta, k, sigma_t, ratio, seed):
        # A(v, v) >= min(margin, 1/2) |||v|||^2
        one = _one_ordinate(theta)
        kern = build_scatter_kernel(
            one, Isotropic(), sigma_t, ratio * sigma_t, renormalize=True
        )
        mesh, tables = build_mesh(2), _tables(k)
        med = Medium(sigma_t, ratio * sigma_t)
        cstar = min(kern.positivity_margin, 0.5)
        v = np.random.default_rng(seed).standard_normal(
            (1, mesh.n_cells, tables.dof)
        )
        lhs = eval_bilinear(WG(), mesh, tables, one, kern, med, v, v)
        rhs = cstar * triple_norm(mesh, tables, one, v) ** 2
        assert lhs >= rhs - 1e-10 * max(rhs, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(theta=_THETAS)
    def test_tie_rule(self, theta):
        # s.n read straight from the quadrature's vector: the axis
        # directions carry exact ties on the two sides parallel to them,
        # and exactly +-1 on the other two
        sn = SIDE_NORMALS @ _one_ordinate(theta).vectors[0]
        if theta in _AXIS_THETAS:
            assert_array_equal(np.sort(sn), [-1.0, 0.0, 0.0, 1.0])


class TestCoefficientSpace:
    """The scattering source and the update norm work on the (L, C, dof)
    coefficients; they equal the quadrature-point formulas."""

    @pytest.mark.parametrize(
        "scheme, sigma_t, k",
        [
            (WG(), ST, 1),
            (WG(), ST, 2),
            (DODSD(), ST, 1),
            (DODSD(), ST, 2),
            (WG(), lambda x, y: 2.0 + 0.5 * np.sin(3.0 * x) * y, 1),
            (DODSD(), lambda x, y: 2.0 + x * y, 2),
        ],
        ids=["wg-q1", "wg-q2", "dodsd-q1", "dodsd-q2", "wg-q1-callable",
             "dodsd-q2-callable"],
    )
    def test_scattering_matches_quadrature(self, quad, kernel, scheme, sigma_t, k):
        mesh, tables = build_mesh(3), _tables(k)
        med = Medium(sigma_t, SS)
        systems = [
            assemble_direction(scheme, mesh, tables, quad, kernel, med, m)
            for m in range(len(quad))
        ]
        field = np.random.default_rng(5).standard_normal(
            (len(quad), mesh.n_cells, tables.dof)
        )
        ref = _quadrature_source(systems, kernel, quad, field)
        got = scattering_source(systems, kernel, quad, field)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("k", [1, 2])
    def test_norm_matches_quadrature(self, quad, k):
        mesh, tables = build_mesh(3), _tables(k)
        field = np.random.default_rng(k).standard_normal(
            (len(quad), mesh.n_cells, tables.dof)
        )
        assert_allclose(
            l2_dom_norm(mesh, tables, quad, field),
            _quadrature_norm(mesh, tables, quad, field),
            rtol=1e-13,
        )


class TestStencilAssembly:
    """The class stencil assembles what the scalar COO triplets of every
    term, added edge by edge on the full mesh, do: the same pattern,
    explicit zero blocks included, and the same values up to the order
    of summation."""

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("callable_sigma", [False, True])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("scheme", [WG(), DODG(), DODSD()])
    def test_matches_coo_reference(self, quad, kernel, scheme, k, callable_sigma, flip):
        tables = _tables(k)
        sigma_t = (lambda x, y: 2.0 + x * y) if callable_sigma else ST
        med = Medium(sigma_t, SS)
        for level in (1, 2, 3):
            mesh = build_mesh(level)
            for m in (0, 3, 5, 12, 17):  # m = 0 and 5 lie on the axes
                with _hooks.inject("flip_inflow_sign") if flip else nullcontext():
                    system = assemble_direction(scheme, mesh, tables, quad, kernel, med, m)
                new, ref = system.matrix, _coo_reference(system)
                assert_array_equal(new.indptr, ref.indptr)
                assert_array_equal(new.indices, ref.indices)
                err = np.abs(new.data - ref.data).max()
                assert err <= 1e-14 * np.abs(ref.data).max()


class TestWGConvection:
    """The WG stencil less its mass, stabilizer and weak inflow term is
    the element convection map ``weak_convection_blocks`` on every cell:
    the assembly's edge-group adds build the same B(u, w)."""

    # stencil slot of the neighbour across cell side 0..3 (left, right,
    # bottom, top)
    _SLOT = {0: 1, 1: 3, 2: 0, 3: 4}

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_every_ordinate(self, quad, kernel, k, level):
        mesh, tables = build_mesh(level), _tables(k)
        h = mesh.h
        for m in range(len(quad)):
            sysm = assemble_direction(WG(), mesh, tables, quad, kernel, Medium(ST, SS), m)
            acc, shift = sysm.stencil(), dowg.assembly._sweep_shift(sysm)
            side_sn = SIDE_NORMALS @ sysm.direction
            mass = dowg.assembly._mass_blocks(tables, mesh, ST, sysm.scatter_test)
            for cell in range(mesh.n_cells):
                bdy = tuple(b for b in range(4) if mesh.neighbours[cell, b] < 0)
                rest = acc.blocks[acc.cls[cell]] - shift.blocks[shift.cls[cell]]
                rest[2] -= mass
                for b in bdy:
                    if side_sn[b] < 0:
                        rest[2] -= sysm.inflow_sign * h * side_sn[b] * tables.E_self[b]
                blk, nbr = weak_convection_blocks(tables, h, sysm.direction, bdy)
                expected = np.zeros_like(rest)
                expected[2] = blk
                for side, B in nbr.items():
                    expected[self._SLOT[side]] = B
                assert_allclose(rest, expected, rtol=0, atol=1e-15)


class TestSparsity:
    def test_wg_block_rows(self, quad, kernel):
        # each cell couples only to itself and edge neighbours
        mesh, tables = build_mesh(3), _tables(1)
        sysm = assemble_direction(WG(), mesh, tables, quad, kernel, Medium(), 2)
        d = tables.dof
        B = sysm.matrix.tobsr(blocksize=(d, d))
        per_row = np.diff(B.indptr)
        assert per_row.max() <= 5
        interior = per_row == 5
        assert np.count_nonzero(interior) == (mesh.n - 2) ** 2


class TestNorms:
    def test_dom_norm_of_constant(self, quad):
        mesh, tables = build_mesh(2), _tables(1)
        field = _const_field(mesh, tables, quad, -1.3)
        assert_allclose(
            l2_dom_norm(mesh, tables, quad, field),
            1.3 * np.sqrt(2 * np.pi),
            rtol=1e-13,
        )

    def test_triple_norm_of_constant(self, quad):
        # no jumps; boundary adds 2(|s_x| + |s_y|) c^2 per ordinate
        mesh, tables = build_mesh(1), _tables(1)
        c = 0.6
        field = _const_field(mesh, tables, quad, c)
        expect = np.sqrt(
            sum(
                w * c**2 * (1.0 + 2.0 * (abs(v[0]) + abs(v[1])))
                for w, v in zip(quad.weights, quad.vectors)
            )
        )
        assert_allclose(triple_norm(mesh, tables, quad, field), expect, rtol=1e-12)

    def test_triple_dominates_volume(self, quad):
        rng = np.random.default_rng(0)
        mesh, tables = build_mesh(2), _tables(1)
        field = rng.standard_normal((len(quad), mesh.n_cells, tables.dof))
        assert triple_norm(mesh, tables, quad, field) >= l2_dom_norm(
            mesh, tables, quad, field
        )


class TestBilinear:
    def test_matches_matrix_path(self, quad, kernel):
        # omega-weighted v' A u minus the lagged scattering term equals
        # the matrix-free evaluation
        mesh, tables = build_mesh(2), _tables(1)
        med = Medium(ST, SS)
        rng = np.random.default_rng(42)
        shape = (len(quad), mesh.n_cells, tables.dof)
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        systems = [
            assemble_direction(WG(), mesh, tables, quad, kernel, med, m)
            for m in range(len(quad))
        ]
        src = scattering_source(systems, kernel, quad, u)
        via_matrix = sum(
            quad.weights[m]
            * (v[m].ravel() @ (systems[m].matrix @ u[m].ravel() - src[m].ravel()))
            for m in range(len(quad))
        )
        direct = eval_bilinear(WG(), mesh, tables, quad, kernel, med, u, v)
        assert_allclose(direct, via_matrix, rtol=1e-10)

    def test_linearity(self, quad, kernel):
        mesh, tables = build_mesh(1), _tables(2)
        med = Medium(ST, SS)
        rng = np.random.default_rng(1)
        shape = (len(quad), mesh.n_cells, tables.dof)
        u1, u2, v = (rng.standard_normal(shape) for _ in range(3))
        a = eval_bilinear(WG(), mesh, tables, quad, kernel, med, u1, v)
        b = eval_bilinear(WG(), mesh, tables, quad, kernel, med, u2, v)
        ab = eval_bilinear(WG(), mesh, tables, quad, kernel, med, 2 * u1 - 3 * u2, v)
        assert_allclose(ab, 2 * a - 3 * b, rtol=1e-11)

    def test_rejects_comparators(self, quad, kernel):
        mesh, tables = build_mesh(1), _tables(1)
        z = np.zeros((len(quad), mesh.n_cells, tables.dof))
        with pytest.raises(ValueError):
            eval_bilinear(DODG(), mesh, tables, quad, kernel, Medium(), z, z)

    def test_coercive_on_random_fields(self, quad, kernel):
        # A(v, v) >= min(margin, 1/2) |||v|||^2 with margin
        # sigma_t - sigma_s max_m b_m
        mesh, tables = build_mesh(2), _tables(1)
        med = Medium(ST, SS)
        cstar = min(ST - SS * kernel.row_mass.max(), 0.5)
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal((len(quad), mesh.n_cells, tables.dof))
            lhs = eval_bilinear(WG(), mesh, tables, quad, kernel, med, v, v)
            rhs = cstar * triple_norm(mesh, tables, quad, v) ** 2
            assert lhs >= rhs - 1e-10

    def test_flipped_inflow_breaks_coercivity(self, quad, kernel):
        # the deliberate sign mutation must be caught by the same bound
        mesh, tables = build_mesh(2), _tables(1)
        med = Medium(ST, SS)
        cstar = min(ST - SS * kernel.row_mass.max(), 0.5)
        rng = np.random.default_rng(7)
        broken = 0
        with _hooks.inject("flip_inflow_sign"):
            for _ in range(20):
                v = rng.standard_normal((len(quad), mesh.n_cells, tables.dof))
                lhs = eval_bilinear(WG(), mesh, tables, quad, kernel, med, v, v)
                rhs = cstar * triple_norm(mesh, tables, quad, v) ** 2
                broken += lhs < rhs - 1e-10
        assert broken > 0


class TestTieSides:
    """A side with s.n = 0 adds nothing to an ordinate's system but
    DODG's jump penalty: checked on the axis-only ordinate set, whose
    ties are exact zeros of s.n."""

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("scheme", [WG(), DODG(), DODSD()], ids=["wg", "dodg", "dodsd"])
    def test_tie_slots_and_right_side(self, scheme, k, level):
        quad = build_circle_trapezoid(4)
        kern = build_scatter_kernel(quad, Isotropic(), ST, SS)
        mesh, tables = build_mesh(level), _tables(k)
        for m in range(len(quad)):
            sysm = assemble_direction(
                scheme, mesh, tables, quad, kern, Medium(ST, SS), m,
                u_in=lambda x, y, th: 1.0,
            )
            sn = SIDE_NORMALS @ quad.vectors[m]
            ties = np.nonzero(sn == 0.0)[0]
            assert len(ties) == 2
            acc = sysm.stencil()
            # one cell of each class, and whether it has a neighbour per side
            first = np.unique(acc.cls, return_index=True)[1]
            inner = mesh.neighbours[first] >= 0
            for b in ties:
                expected = np.zeros_like(tables.E_pair[b])
                if isinstance(scheme, DODG):
                    expected = -(scheme.c_p * mesh.h) * tables.E_pair[b]
                blocks = acc.blocks[inner[:, b], TestWGConvection._SLOT[b]]
                assert len(blocks) > 0
                for block in blocks:
                    assert_array_equal(block, expected)
            # inflow data enters only through the cells on an s.n < 0 side
            rhs = sysm.rhs_fixed.reshape(mesh.n_cells, tables.dof)
            inflow = np.zeros(mesh.n_cells, dtype=bool)
            for b in np.nonzero(sn < 0)[0]:
                inflow[mesh.boundary_cells(b)] = True
            assert np.all(rhs[~inflow] == 0.0)
            assert np.all(np.any(rhs[inflow] != 0.0, axis=1))


class TestDirectionSystem:
    def test_matrix_is_assembled_on_each_access(self, quad, kernel):
        # the system holds no matrix; each access assembles the same CSR
        # afresh, with the fault hook as it was when the system was built
        mesh, tables = build_mesh(2), _tables(1)
        for scheme in (WG(), DODG(), DODSD()):
            with _hooks.inject("flip_inflow_sign"):
                sysm = assemble_direction(scheme, mesh, tables, quad, kernel, Medium(), 3)
                first = sysm.matrix
            assert not any(sp.issparse(v) for v in vars(sysm).values())
            again = sysm.matrix
            assert again is not first
            assert_array_equal(again.indptr, first.indptr)
            assert_array_equal(again.indices, first.indices)
            assert_array_equal(again.data, first.data)
            plain = assemble_direction(scheme, mesh, tables, quad, kernel, Medium(), 3)
            flipped = (plain.matrix != again).nnz > 0
            assert flipped == isinstance(scheme, WG)

    def test_metadata(self, quad, kernel):
        mesh, tables = build_mesh(1), _tables(2)
        sysm = assemble_direction(DODSD(), mesh, tables, quad, kernel, Medium(), 6)
        assert sysm.n_dof == mesh.n_cells * tables.dof
        assert sysm.m == 6
        assert_allclose(sysm.direction, quad.vectors[6], atol=1e-15)
        # streamline-diffusion test table differs from plain values
        assert sysm.scatter_test.shape == tables.V.shape
        assert np.abs(sysm.scatter_test - tables.V).max() > 0.1

    def test_variable_sigma_t(self, quad, kernel):
        # callable total cross-section lands in the mass term, and a
        # constant it returns is broadcast
        mesh, tables = build_mesh(1), _tables(1)
        fixed = Medium(2.0, 0.5)
        u, v = np.random.default_rng(3).standard_normal((2, len(quad), mesh.n_cells, tables.dof))
        for sigma_t in (lambda x, y: np.full_like(x, 2.0), lambda x, y: 2.0):
            varying = Medium(sigma_t, 0.5)
            assert_allclose(
                assemble_direction(WG(), mesh, tables, quad, kernel, varying, 0).matrix.toarray(),
                assemble_direction(WG(), mesh, tables, quad, kernel, fixed, 0).matrix.toarray(),
                atol=1e-13,
            )
            assert_allclose(
                eval_bilinear(WG(), mesh, tables, quad, kernel, varying, u, v),
                eval_bilinear(WG(), mesh, tables, quad, kernel, fixed, u, v),
                rtol=1e-13,
            )

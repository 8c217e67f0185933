import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dowg import _hooks
from dowg.angular import (
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
    export_matrix_coo,
    l2_dom_norm,
    scattering_row,
    scattering_source,
    triple_norm,
)
from dowg.elements import ElementQuadrature, ElementTables, LocalBasis, project_field
from dowg.mesh import build_mesh, classify_edges

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
        row = scattering_row(systems[4], kernel, quad, field)
        assert np.abs(row - ref[4]).max() <= 1e-13 * np.abs(ref[4]).max()

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


class TestHooks:
    def test_tie_break_leaves_matrix_unchanged(self, quad, kernel):
        # edges with s.n = 0 carry no flux or stabilizer weight, so the
        # inflow/outflow tie break cannot show up in assembled entries;
        # the classification itself must flip, which the structural
        # selftest relies on
        mesh, tables = build_mesh(2), _tables(1)
        med = Medium(ST, SS)
        m_axis = 0  # theta = 0: horizontal edges have s.n = 0
        base = assemble_direction(WG(), mesh, tables, quad, kernel, med, m_axis)
        s = quad.vectors[m_axis]
        plain = classify_edges(mesh, s)
        with _hooks.inject("tie_break_inflow"):
            mutated = assemble_direction(WG(), mesh, tables, quad, kernel, med, m_axis)
            tied = classify_edges(mesh, s)
        assert (base.matrix != mutated.matrix).nnz == 0
        assert plain.side_sn[2] == 0.0
        assert 2 in plain.outflow_sides and 2 in tied.inflow_sides


class TestExport:
    def test_coo_round_trip(self, quad, kernel):
        mesh, tables = build_mesh(1), _tables(1)
        sysm = assemble_direction(WG(), mesh, tables, quad, kernel, Medium(), 4)
        buf = io.StringIO()
        export_matrix_coo(sysm, buf)
        lines = buf.getvalue().strip().splitlines()
        n, m, nnz = (int(t) for t in lines[0][1:].split())
        assert (n, m) == sysm.matrix.shape
        assert nnz == sysm.matrix.nnz == len(lines) - 1
        dense = np.zeros((n, m))
        for ln in lines[1:]:
            r, c, x = ln.split()
            dense[int(r), int(c)] += float(x)
        assert_allclose(dense, sysm.matrix.toarray(), atol=1e-15)


class TestDirectionSystem:
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
        # callable total cross-section lands in the mass term
        mesh, tables = build_mesh(1), _tables(1)
        fixed = assemble_direction(
            WG(), mesh, tables, quad, kernel, Medium(2.0, 0.5), 0
        )
        varying = assemble_direction(
            WG(), mesh, tables, quad, kernel,
            Medium(lambda x, y: np.full_like(x, 2.0), 0.5), 0,
        )
        assert_allclose(
            varying.matrix.toarray(), fixed.matrix.toarray(), atol=1e-13
        )

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dowg.elements import (
    ElementQuadrature,
    ElementTables,
    LocalBasis,
    PkBasis,
    _edge_points,
    _prolong,
    gauss_01,
    project_field,
    weak_convection_blocks,
    weak_gradient,
)
from dowg.mesh import OPPOSITE_SIDE, SIDE_NORMALS, build_mesh


def make_tables(k, **kw):
    return ElementTables(LocalBasis(k), ElementQuadrature.build(k, **kw))


def eval_field(basis, coeffs, cell, ref_pts):
    return basis.eval(ref_pts) @ coeffs[cell]


class TestLocalBasis:
    @pytest.mark.parametrize("k", [1, 2])
    def test_partition_of_unity(self, k):
        b = LocalBasis(k)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (40, 2))
        assert_allclose(b.eval(pts).sum(axis=1), 1.0, atol=1e-13)
        # gradients sum to zero accordingly
        assert_allclose(b.grad(pts).sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_nodal(self, k):
        b = LocalBasis(k)
        X, Y = np.meshgrid(b.nodes_1d, b.nodes_1d, indexing="xy")
        nodes = np.column_stack([X.ravel(), Y.ravel()])  # x fastest
        assert_allclose(b.eval(nodes), np.eye(b.dof_count), atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2])
    def test_gradient_fd(self, k):
        b = LocalBasis(k)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.1, 0.9, (10, 2))
        g = b.grad(pts)
        eps = 1e-6
        for axis in range(2):
            d = np.zeros(2)
            d[axis] = eps
            fd = (b.eval(pts + d) - b.eval(pts - d)) / (2 * eps)
            assert np.max(np.abs(fd - g[:, :, axis])) <= 1e-6

    def test_rejects_order(self):
        with pytest.raises(ValueError):
            LocalBasis(3)


class TestQuadrature:
    @pytest.mark.parametrize("k", [1, 2])
    def test_volume_monomial_exactness(self, k):
        q = ElementQuadrature.build(k)
        deg = 2 * k + 3
        for a in range(deg + 1):
            for b in range(deg + 1):
                val = np.sum(q.vol_weights * q.vol_points[:, 0] ** a * q.vol_points[:, 1] ** b)
                assert_allclose(val, 1.0 / ((a + 1) * (b + 1)), atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2])
    def test_edge_rule(self, k):
        q = ElementQuadrature.build(k)
        assert np.all(q.edge_weights > 0)
        for a in range(2 * k + 2):
            assert_allclose(np.sum(q.edge_weights * q.edge_points**a), 1 / (a + 1), atol=1e-14)

    def test_positive_weights(self):
        q = ElementQuadrature.build(2)
        assert np.all(q.vol_weights > 0)
        assert_allclose(q.vol_weights.sum(), 1.0, atol=1e-14)


class TestProjection:
    @pytest.mark.parametrize("k", [1, 2])
    def test_reproduces_qk(self, k):
        t = make_tables(k)
        m = build_mesh(2)
        f = lambda x, y: (1 + 2 * x + 3 * y + 4 * x * y) * (1 if k == 1 else (x + y) )
        c = project_field(m, t, f)
        # nodal basis: coefficients are nodal values, the nodes placed in
        # cell c = j*n + i at (h*i, h*j) + h*node
        b = t.basis
        X, Y = np.meshgrid(b.nodes_1d, b.nodes_1d, indexing="xy")
        for cell in range(m.n_cells):
            j, i = divmod(cell, m.n)
            x, y = m.h * i + m.h * X.ravel(), m.h * j + m.h * Y.ravel()
            assert_allclose(c[cell], f(x, y), atol=1e-12)

    def test_zero(self):
        t = make_tables(1)
        m = build_mesh(1)
        assert_allclose(project_field(m, t, lambda x, y: 0.0 * x), 0.0)
        assert_allclose(project_field(m, t, lambda x, y: 0.0), 0.0)

    def test_projection_rate(self):
        # L2 error of the elementwise projection of a smooth field decays
        # at order k+1
        k = 1
        t = make_tables(k, n_vol=k + 3)
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        for lv in (2, 3, 4, 5):
            m = build_mesh(lv)
            c = project_field(m, t, f)
            diff = f(*m.points(t.quad.vol_points)) - c @ t.V.T
            errs.append(np.sqrt(m.h**2 * np.sum(t.quad.vol_weights * diff**2)))
        rates = np.log2(np.array(errs[:-1]) / errs[1:])
        assert rates[-1] >= 1.9

    def test_project_field_matches_local(self):
        # the local L2 projection on every cell: the residual f - P f is
        # orthogonal to Q_k there, in the volume rule, V^T (w * (f - V c)) = 0
        t = make_tables(2)
        m = build_mesh(2)
        f = lambda x, y: np.exp(-x) * np.cos(y)
        c = project_field(m, t, f)
        fv = f(*m.points(t.quad.vol_points))
        w = t.quad.vol_weights
        for cell in range(m.n_cells):
            residual = t.V.T @ (w * (fv[cell] - t.V @ c[cell]))
            assert_allclose(residual, 0.0, atol=1e-13)


def fine_rule(n=12):
    x, w = gauss_01(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()]), np.outer(w, w).ravel(), x, w


def side_averages(mesh, tables_or_basis, coeffs, cell, side, t):
    """{v} at parameters t on one side of a cell, from raw basis evals."""
    basis = getattr(tables_or_basis, "basis", tables_or_basis)
    own = basis.eval(_edge_points(side, t)) @ coeffs[cell]
    nbr = mesh.neighbours[cell, side]
    if nbr < 0:
        return own
    nbr_vals = basis.eval(_edge_points(OPPOSITE_SIDE[side], t)) @ coeffs[nbr]
    return 0.5 * (own + nbr_vals)


class TestProlong:
    @staticmethod
    def _nodal(basis, level, coef):
        # a global Q_k polynomial's nodal field, in the mesh's cell order
        X, Y = np.meshgrid(basis.nodes_1d, basis.nodes_1d)
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        x, y = build_mesh(level).points(nodes)
        return np.polynomial.polynomial.polyval2d(x, y, coef)

    @pytest.mark.parametrize("times", [1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    def test_global_qk_is_kept(self, k, times):
        # broken Q_k on the children holds the parent's polynomial, so the
        # prolonged field is the polynomial's nodal field on the finer
        # mesh, in its cell order (a misplaced child reads other values)
        b = LocalBasis(k)
        coef = np.random.default_rng(k).standard_normal((2, k + 1, k + 1))
        for level in (2, 3):
            coarse = np.stack([self._nodal(b, level, c) for c in coef])
            fine = _prolong(coarse, b, times)
            ref = np.stack([self._nodal(b, level + times, c) for c in coef])
            assert fine.shape == ref.shape == (2, 4**times * 4**level, b.dof_count)
            assert np.abs(fine - ref).max() <= 1e-14 * np.abs(ref).max()


class TestWeakGradient:
    @pytest.mark.parametrize("k", [1, 2])
    def test_global_linear(self, k):
        t = make_tables(k)
        m = build_mesh(1)
        a, b, c = 0.7, -1.3, 2.1
        coeffs = project_field(m, t, lambda x, y: a + b * x + c * y)
        pk = PkBasis(k)
        pts = np.random.default_rng(0).uniform(0, 1, (5, 2))
        for cell in range(m.n_cells):
            g = weak_gradient(m, t, coeffs, cell)
            assert_allclose(pk.eval(pts) @ g[0], b, atol=1e-12)
            assert_allclose(pk.eval(pts) @ g[1], c, atol=1e-12)

    def test_constant(self):
        t = make_tables(2)
        m = build_mesh(1)
        coeffs = np.ones((m.n_cells, t.dof))
        for cell in range(m.n_cells):
            assert_allclose(weak_gradient(m, t, coeffs, cell), 0.0, atol=1e-13)

    def test_global_quadratic(self):
        # continuous Q2 field: weak gradient equals the P1 moments of the
        # classical gradient, here the gradient itself (already in P1)
        t = make_tables(2)
        m = build_mesh(1)
        coeffs = project_field(m, t, lambda x, y: x**2 + 3 * x * y - y)
        pk = PkBasis(2)
        ref = np.random.default_rng(1).uniform(0, 1, (6, 2))
        for cell in range(m.n_cells):
            g = weak_gradient(m, t, coeffs, cell)
            j, i = divmod(cell, m.n)
            phys = m.h * np.array([i, j]) + m.h * ref
            assert_allclose(pk.eval(ref) @ g[0], 2 * phys[:, 0] + 3 * phys[:, 1], atol=1e-12)
            assert_allclose(pk.eval(ref) @ g[1], 3 * phys[:, 0] - 1, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_defining_identity_random_field(self, k):
        # residual of (grad_w v, q)_T = -(v, div q)_T + <{v}, q.n>_dT for
        # every monomial q, against an independent 12-point Gauss oracle
        t = make_tables(k)
        m = build_mesh(1)
        h = m.h
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal((m.n_cells, t.dof))
        pk = PkBasis(k)
        pts, w, te, we = fine_rule(12)
        P = pk.eval(pts)
        Pg = pk.grad(pts)
        for cell in range(m.n_cells):
            g = weak_gradient(m, t, coeffs, cell)
            v = eval_field(t.basis, coeffs, cell, pts)
            for comp in range(2):
                lhs = h * h * np.sum(w[:, None] * (P @ g[comp])[:, None] * P, axis=0)
                rhs = -h * np.sum((w * v)[:, None] * Pg[:, :, comp], axis=0)
                for side in range(4):
                    avg = side_averages(m, t, coeffs, cell, side, te)
                    pe = pk.eval(_edge_points(side, te))
                    rhs = rhs + SIDE_NORMALS[side, comp] * h * (pe.T @ (we * avg))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestWeakConvection:
    def boundary_sides(self, mesh, cell):
        return tuple(s for s in range(4) if mesh.neighbours[cell, s] < 0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_constant_flux_identity(self, k):
        t = make_tables(k)
        m = build_mesh(1)
        s = np.array([np.cos(0.6), np.sin(0.6)])
        ones = np.ones(t.dof)
        for cell in range(m.n_cells):
            blk, nbr = weak_convection_blocks(t, m.h, s, self.boundary_sides(m, cell))
            total = ones @ (blk @ ones) + sum(ones @ (B @ ones) for B in nbr.values())
            assert abs(total) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2])
    def test_single_cell_integration_by_parts(self, k):
        # all edges boundary: {u} = u, so B(v, w) = (s.grad v, w) exactly
        t = make_tables(k)
        h = 1.0
        s = np.array([0.8, -0.6])
        blk, nbr = weak_convection_blocks(t, h, s, on_boundary=(0, 1, 2, 3))
        assert not nbr
        rng = np.random.default_rng(5)
        cv, cw = rng.standard_normal((2, t.dof))
        pts, w, _, _ = fine_rule(12)
        gv = t.basis.grad(pts)
        sdotgrad = (gv[:, :, 0] * s[0] + gv[:, :, 1] * s[1]) @ cv / h
        wvals = t.basis.eval(pts) @ cw
        oracle = h * h * np.sum(w * sdotgrad * wvals)
        assert_allclose(cw @ (blk @ cv), oracle, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_broken_field_identity(self, k):
        # block evaluation vs term-by-term brute force with independent
        # quadrature over a 2x2 mesh
        t = make_tables(k)
        m = build_mesh(1)
        h = m.h
        theta = 2.2
        s = np.array([np.cos(theta), np.sin(theta)])
        rng = np.random.default_rng(9)
        u = rng.standard_normal((m.n_cells, t.dof))
        v = rng.standard_normal((m.n_cells, t.dof))
        pts, w, te, we = fine_rule(12)
        sn = SIDE_NORMALS @ s
        total_blocks = 0.0
        total_oracle = 0.0
        for cell in range(m.n_cells):
            blk, nbr = weak_convection_blocks(t, h, s, self.boundary_sides(m, cell))
            val = v[cell] @ (blk @ u[cell])
            for side, B in nbr.items():
                val += v[cell] @ (B @ u[m.neighbours[cell, side]])
            total_blocks += val

            gw = t.basis.grad(pts)
            sgw = (gw[:, :, 0] * s[0] + gw[:, :, 1] * s[1]) @ v[cell] / h
            uv = eval_field(t.basis, u, cell, pts)
            term = -h * h * np.sum(w * uv * sgw)
            for side in range(4):
                avg = side_averages(m, t, u, cell, side, te)
                wtr = t.basis.eval(_edge_points(side, te)) @ v[cell]
                term += sn[side] * h * np.sum(we * avg * wtr)
            total_oracle += term
        assert_allclose(total_blocks, total_oracle, atol=1e-12)

"""Local broken Q_k spaces on the reference square, elemental quadrature,
edge traces, weak operators, and the elementwise L2 projection.

All element-level quantities live on the reference cell [0,1]^2 and are
scaled by the mesh width h at use sites (mass ~ h^2, edge terms ~ h,
derivatives ~ 1/h).  Basis functions are nodal Lagrange polynomials on
tensor Gauss-Lobatto points (equispaced for k <= 2), ordered with the x
index fastest: a = jy*(k+1) + ix.

Edge traces use a shared parametrization so that two cells incident to
one edge see the same physical point at the same parameter value:
side 0 (left) and 1 (right) are parametrized by y, side 2 (bottom) and
3 (top) by x.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .mesh import OPPOSITE_SIDE, SIDE_NORMALS

__all__ = [
    "LocalBasis",
    "ElementQuadrature",
    "ElementTables",
    "PkBasis",
    "gauss_01",
    "project_field",
    "weak_gradient",
    "weak_convection_blocks",
]


def gauss_01(q):
    """Gauss-Legendre nodes/weights mapped to [0, 1]; exact to degree 2q-1."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


class LocalBasis:
    """Nodal tensor-product Lagrange basis for Q_k on [0,1]^2, k in {1, 2}."""

    def __init__(self, k):
        if k not in (1, 2):
            raise ValueError(f"element order must be 1 or 2, got {k}")
        self.k = k
        self.nodes_1d = np.linspace(0.0, 1.0, k + 1)
        coef = []
        for i, xi in enumerate(self.nodes_1d):
            c = npoly.polyfromroots(np.delete(self.nodes_1d, i))
            coef.append(c / npoly.polyval(xi, c))
        self._coef = np.array(coef).T  # (k+1 coefs, k+1 polys)
        self._dcoef = npoly.polyder(self._coef)

    @property
    def dof_count(self):
        return (self.k + 1) ** 2

    def _eval1d(self, x, coef):
        return npoly.polyval(np.asarray(x, dtype=float), coef)  # (k+1, P)

    def eval(self, points):
        """Basis values at reference points, shape (P, dof)."""
        points = np.atleast_2d(points)
        lx = self._eval1d(points[:, 0], self._coef)
        ly = self._eval1d(points[:, 1], self._coef)
        kk = self.k + 1
        return (ly[:, None, :] * lx[None, :, :]).reshape(kk * kk, -1).T

    def grad(self, points):
        """Reference-coordinate gradients, shape (P, dof, 2)."""
        points = np.atleast_2d(points)
        lx = self._eval1d(points[:, 0], self._coef)
        ly = self._eval1d(points[:, 1], self._coef)
        dx = self._eval1d(points[:, 0], self._dcoef)
        dy = self._eval1d(points[:, 1], self._dcoef)
        kk = self.k + 1
        gx = (ly[:, None, :] * dx[None, :, :]).reshape(kk * kk, -1).T
        gy = (dy[:, None, :] * lx[None, :, :]).reshape(kk * kk, -1).T
        return np.stack([gx, gy], axis=-1)


@dataclass(frozen=True)
class ElementQuadrature:
    """Tensor Gauss rules on the reference square and its edges.

    Defaults: k+2 points per axis in the volume (degree 2k+3) and k+1 on
    edges (degree 2k+1) — exact for every constant-coefficient bilinear
    form integrand with headroom for manufactured sources.
    """

    k: int
    vol_points: np.ndarray
    vol_weights: np.ndarray
    edge_points: np.ndarray
    edge_weights: np.ndarray

    @classmethod
    def build(cls, k, n_vol=None, n_edge=None):
        n_vol = k + 2 if n_vol is None else n_vol
        n_edge = k + 1 if n_edge is None else n_edge
        x, w = gauss_01(n_vol)
        X, Y = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        wts = np.outer(w, w).ravel()
        ex, ew = gauss_01(n_edge)
        return cls(k, pts, wts, ex, ew)


def _edge_points(side, t):
    """Reference coordinates of edge points for a side, given parameters t."""
    z = np.zeros_like(t)
    o = np.ones_like(t)
    if side == 0:
        return np.column_stack([z, t])
    if side == 1:
        return np.column_stack([o, t])
    if side == 2:
        return np.column_stack([t, z])
    return np.column_stack([t, o])


class ElementTables:
    """Basis and quadrature tabulated once per (order, rule) combination.

    Attributes
    ----------
    V : ndarray, (Q, dof)
        Basis values at volume points.
    DX, DY : ndarray, (Q, dof)
        Reference derivatives at volume points (divide by h for physical).
    trace : ndarray, (4, q_e, dof)
        One-sided traces at edge quadrature points per side.
    M : ndarray, (dof, dof)
        Reference mass matrix (multiply by h^2).
    GX, GY : ndarray, (dof, dof)
        GX[i, j] = sum_q w_q DX[q, i] V[q, j]; the reference moment
        (phi_j, d phi_i) entering the convection term (row = test index).
    E_self, E_pair : ndarray, (4, dof, dof)
        Edge mass matrices (multiply by h): own-trace x own-trace, and
        own-trace x neighbor-trace through the shared parametrization.
    """

    def __init__(self, basis, quad):
        self.basis = basis
        self.quad = quad
        self.V = basis.eval(quad.vol_points)
        G = basis.grad(quad.vol_points)
        self.DX, self.DY = G[:, :, 0], G[:, :, 1]
        w = quad.vol_weights
        self.M = self.V.T @ (w[:, None] * self.V)
        self.GX = self.DX.T @ (w[:, None] * self.V)
        self.GY = self.DY.T @ (w[:, None] * self.V)
        self.trace = np.stack(
            [basis.eval(_edge_points(s, quad.edge_points)) for s in range(4)]
        )
        ew = quad.edge_weights[:, None]
        self.E_self = np.stack([self.trace[s].T @ (ew * self.trace[s]) for s in range(4)])
        self.E_pair = np.stack(
            [self.trace[s].T @ (ew * self.trace[OPPOSITE_SIDE[s]]) for s in range(4)]
        )

    @property
    def dof(self):
        return self.basis.dof_count


def _sample(fn, x, y, *args):
    """``fn(x, y, *args)`` as floats of the points' shape; a constant that
    ``fn`` returns is broadcast."""
    return np.broadcast_to(np.asarray(fn(x, y, *args), dtype=float), x.shape)


def project_field(mesh, tables, f):
    """Elementwise L2 projection over the whole mesh, shape (C, dof)."""
    fv = _sample(f, *mesh.points(tables.quad.vol_points))
    rhs = (tables.quad.vol_weights * fv) @ tables.V
    return np.linalg.solve(tables.M, rhs.T).T


def _prolong(field, basis, times=1):
    """A broken Q_k field (L, C, dof) on an n x n mesh as the same field
    on the mesh refined ``times`` times, (L, 4**times C, dof).

    Q_k on a child cell holds its parent's polynomial, and the basis is
    nodal, so child (a, b) of a cell (its lower-left corner at (a, b)/2
    of the parent) takes the parent's values at its nodes: one (dof, dof)
    map ``basis.eval((nodes + (a, b)) / 2)`` per child.  Cell c = j n + i
    has the children (2j + b) 2n + 2i + a, so the maps are applied by
    index reshapes, without a mass matrix or a cell loop.
    """
    X, Y = np.meshgrid(basis.nodes_1d, basis.nodes_1d)
    nodes = np.column_stack([X.ravel(), Y.ravel()])  # in dof order
    maps = [[basis.eval((nodes + (a, b)) / 2).T for a in (0, 1)] for b in (0, 1)]
    for _ in range(times):
        L, C, d = field.shape
        n = math.isqrt(C)
        coarse = field.reshape(L, n, n, d)
        fine = np.empty((L, n, 2, n, 2, d))
        for b in (0, 1):
            for a in (0, 1):
                np.matmul(coarse, maps[b][a], out=fine[:, :, b, :, a])
        field = fine.reshape(L, 4 * C, d)
    return field


class PkBasis:
    """Centered monomial basis of P_{k-1} on the reference square.

    k=1: {1}; k=2: {1, x-1/2, y-1/2}.  Used to represent weak gradients.
    """

    def __init__(self, k):
        if k not in (1, 2):
            raise ValueError(f"element order must be 1 or 2, got {k}")
        self.k = k
        self.dim = 1 if k == 1 else 3

    def eval(self, points):
        points = np.atleast_2d(points)
        cols = [np.ones(len(points))]
        if self.k == 2:
            cols += [points[:, 0] - 0.5, points[:, 1] - 0.5]
        return np.column_stack(cols)

    def grad(self, points):
        points = np.atleast_2d(points)
        g = np.zeros((len(points), self.dim, 2))
        if self.k == 2:
            g[:, 1, 0] = 1.0
            g[:, 2, 1] = 1.0
        return g


def weak_gradient(mesh, tables, coeffs, cell):
    """Weak gradient of a broken field on one cell, as a [P_{k-1}]^2
    polynomial in the PkBasis monomials of the reference cell.

    Defined by (grad_w v, q)_T = -(v, div q)_T + <{v}, q.n>_dT for every
    q in [P_{k-1}]^2, with the edge average {v} taken from the cell and
    its neighbors (the single trace on boundary edges).

    Parameters
    ----------
    coeffs : ndarray, (C, dof)
        Global broken-field coefficients.
    cell : int

    Returns
    -------
    ndarray, (2, dim P_{k-1})
        Component coefficients; evaluate with ``PkBasis(k).eval(pts) @ c``.
        Physical-gradient scale (1/h factors included).
    """
    basis = tables.basis
    pk = PkBasis(basis.k)
    h = mesh.h
    q = tables.quad
    P = pk.eval(q.vol_points)  # (Q, pdim)
    Pg = pk.grad(q.vol_points)  # (Q, pdim, 2)
    gram = h * h * (P.T @ (q.vol_weights[:, None] * P))

    v_vol = tables.V @ coeffs[cell]  # (Q,)
    # volume part: -(v, d/dx_c p) with physical derivative = reference / h
    rhs = np.empty((2, pk.dim))
    for comp in range(2):
        rhs[comp] = -h * (Pg[:, :, comp].T @ (q.vol_weights * v_vol))

    for side in range(4):
        avg = tables.trace[side] @ coeffs[cell]
        nbr = mesh.neighbours[cell, side]
        if nbr >= 0:
            avg = 0.5 * (avg + tables.trace[OPPOSITE_SIDE[side]] @ coeffs[nbr])
        pe = pk.eval(_edge_points(side, q.edge_points))  # (q_e, pdim)
        moment = h * (pe.T @ (q.edge_weights * avg))
        for comp in range(2):
            rhs[comp] += SIDE_NORMALS[side, comp] * moment

    return np.linalg.solve(gram, rhs.T).T


def weak_convection_blocks(tables, h, s, on_boundary=()):
    """Element blocks of the convection bilinear map assembled through the
    weak-divergence identity tested against the full Q_k space:

        B(u, w) = -(u, s.grad w)_T + <{u}, s.n w>_dT.

    Returns ``(self_block, neighbor_blocks)`` with row = test index (w),
    column = trial index (u); ``neighbor_blocks[side]`` couples the test
    cell to the neighbor across that side (through the 1/2 in {u}).
    Sides listed in ``on_boundary`` use {u} = own trace.
    """
    sn = SIDE_NORMALS @ np.asarray(s, dtype=float)
    self_block = -h * (s[0] * tables.GX + s[1] * tables.GY)
    neighbor = {}
    for side in range(4):
        if side in on_boundary:
            self_block = self_block + h * sn[side] * tables.E_self[side]
        else:
            self_block = self_block + 0.5 * h * sn[side] * tables.E_self[side]
            neighbor[side] = 0.5 * h * sn[side] * tables.E_pair[side]
    return self_block, neighbor

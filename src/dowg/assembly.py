"""Global per-ordinate system assembly for the three transport schemes.

For each ordinate s_m a sparse system A_m u^m = F^m is built over the
broken Q_k space (block structure: one (k+1)^2 block per cell, coupled
only to edge neighbors).  The scattering term is never assembled into
A_m; source iteration applies it as a lagged right-hand side
(``scattering_source``), keeping the per-direction systems independent.

Schemes
-------
WG
    Convection through the weak-divergence identity
    -(u, s.grad v)_T + <{u}, s.n v>_dT, total-cross-section mass, the
    weakly imposed inflow boundary term -<s.n u, v> on the inflow
    boundary, and the stabilizer sum_T <s.n (u - {u}), v - {v}> over
    outflow cell edges.  Parameter-free.
DODG
    Upwind discontinuous Galerkin: -(u, s.grad v)_T + <s.n u_hat, v>_dT
    with the upwind numerical trace u_hat, plus the interior jump
    penalty c_p <[u], [v]>.
DODSD
    Discontinuous streamline diffusion: volume terms tested against
    v + delta s.grad v with delta = c*h, inflow data and interelement
    coupling through <[u], v |s.n|> over inflow cell edges.

Uniform grids make every edge of a topological group (interior vertical,
interior horizontal, four boundary sides) carry identical element blocks,
so assembly reduces to a handful of block-scatter operations.
"""

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _hooks
from .elements import _edge_points
from .mesh import SIDE_NORMALS, classify_edges

__all__ = [
    "WG",
    "DODG",
    "DODSD",
    "Medium",
    "DirectionSystem",
    "assemble_direction",
    "scattering_source",
    "scattering_row",
    "triple_norm",
    "l2_dom_norm",
    "eval_bilinear",
    "export_matrix_coo",
]


@dataclass(frozen=True)
class WG:
    """Weak Galerkin scheme marker (parameter-free)."""

    name = "wg"


@dataclass(frozen=True)
class DODG:
    """Upwind DG with interior jump penalty c_p > 0."""

    c_p: float = 0.1
    name = "dodg"

    def __post_init__(self):
        if not self.c_p > 0:
            raise ValueError(f"penalty c_p must be positive, got {self.c_p}")


@dataclass(frozen=True)
class DODSD:
    """Streamline diffusion with delta = c*h, c > 0."""

    c: float = 1.0
    name = "dodsd"

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"stabilization multiplier c must be positive, got {self.c}")


@dataclass(frozen=True)
class Medium:
    """Constant cross-sections; sigma_t may be a callable for testing."""

    sigma_t: object = 2.0
    sigma_s: float = 0.5


def _check_margin(kernel, medium):
    if callable(medium.sigma_t):
        return  # variable-coefficient path: caller's responsibility
    margin = medium.sigma_t - medium.sigma_s * float(kernel.row_mass.max())
    if not margin > 0:
        raise ValueError(
            "nonpositive positivity margin sigma_t - sigma_s*max_m b_m = "
            f"{margin:.6g}; the scheme requires it strictly positive"
        )


@dataclass
class DirectionSystem:
    """Assembled system for one ordinate.

    ``scatter_test`` holds the volume test table the lagged scattering
    source is integrated against (basis values for WG/DODG, the
    streamline-diffusion test combination for DODSD).
    """

    m: int
    direction: np.ndarray
    matrix: sp.csr_matrix
    rhs_fixed: np.ndarray
    scheme: object
    mesh: object
    tables: object
    medium: Medium
    scatter_test: np.ndarray

    @property
    def n_dof(self):
        return self.matrix.shape[0]


class _BlockCOO:
    """Accumulates (cell, cell) dense blocks into global COO triplets."""

    def __init__(self, d):
        self.d = d
        self.rows, self.cols, self.vals = [], [], []

    def add(self, test_cells, trial_cells, block):
        d = self.d
        test_cells = np.atleast_1d(np.asarray(test_cells))
        trial_cells = np.atleast_1d(np.asarray(trial_cells))
        self.rows.append(np.add.outer(test_cells * d, np.repeat(np.arange(d), d)).ravel())
        self.cols.append(np.add.outer(trial_cells * d, np.tile(np.arange(d), d)).ravel())
        block = np.asarray(block).reshape(-1, d * d)
        self.vals.append(np.broadcast_to(block, (len(test_cells), d * d)).ravel())

    def tocsr(self, n):
        A = sp.coo_matrix(
            (np.concatenate(self.vals), (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(n, n),
        )
        return A.tocsr()


def _edge_groups(mesh):
    """Interior edges split by orientation, boundary edges by domain side."""
    first_side = mesh.edge_sides[:, 0]
    interior = mesh.boundary_side < 0
    int_v = np.nonzero(interior & (first_side == 1))[0]
    int_h = np.nonzero(interior & (first_side == 3))[0]
    bdy = [np.nonzero(mesh.boundary_side == b)[0] for b in range(4)]
    return ((int_v, 1, 0), (int_h, 3, 2)), bdy


def _mass_blocks(tables, mesh, sigma_t):
    """sigma_t mass contribution: one shared block or per-cell blocks."""
    h = mesh.h
    w = tables.quad.vol_weights
    if callable(sigma_t):
        pts = mesh.cell_origins[:, None, :] + h * tables.quad.vol_points[None, :, :]
        sv = np.asarray(sigma_t(pts[:, :, 0], pts[:, :, 1]), dtype=float)
        return h * h * np.einsum("cq,qi,qj->cij", w * sv, tables.V, tables.V)
    return float(sigma_t) * h * h * tables.M


def _rhs_volume(mesh, tables, test_table, f, theta):
    h = mesh.h
    pts = mesh.cell_origins[:, None, :] + h * tables.quad.vol_points[None, :, :]
    fv = np.asarray(f(pts[:, :, 0], pts[:, :, 1], theta), dtype=float)
    if fv.shape != pts.shape[:2]:
        fv = np.broadcast_to(fv, pts.shape[:2])
    return h * h * ((tables.quad.vol_weights[None, :] * fv) @ test_table)


def _rhs_inflow_data(mesh, tables, quad_edges, side, cells, sn, u_in, theta):
    """- h * s.n * <u_in, trace> on one inflow boundary side (s.n < 0)."""
    h = mesh.h
    t = tables.quad.edge_points
    ref = _edge_points(side, t)
    pts = mesh.cell_origins[cells][:, None, :] + h * ref[None, :, :]
    g = np.asarray(u_in(pts[:, :, 0], pts[:, :, 1], theta), dtype=float)
    if g.shape != pts.shape[:2]:
        g = np.broadcast_to(g, pts.shape[:2])
    return -h * sn * ((tables.quad.edge_weights[None, :] * g) @ tables.trace[side])


def assemble_direction(scheme, mesh, tables, quad, kernel, medium, m, f=None, u_in=None):
    """Assemble the sparse system for ordinate m under a scheme.

    ``f(x, y, theta)`` and ``u_in(x, y, theta)`` are vectorized callables
    for the volume source and the prescribed inflow intensity; omitted
    terms contribute zero.

    The scattering term stays out of the matrix (lagged source); the
    positivity margin sigma_t - sigma_s*max b_m must be positive.
    """
    _check_margin(kernel, medium)
    s = quad.vectors[m]
    theta = quad.nodes[m].theta
    sets = classify_edges(mesh, s)
    s = sets.direction  # snapped copy
    h = mesh.h
    d = tables.dof
    C = mesh.n_cells
    cells = np.arange(C)
    acc = _BlockCOO(d)
    int_groups, bdy_groups = _edge_groups(mesh)
    w = tables.quad.vol_weights

    if isinstance(scheme, DODSD):
        sd = s[0] * tables.DX + s[1] * tables.DY
        test_table = tables.V + scheme.c * sd
        # (s.grad u + sigma_t u, v + delta s.grad v)_T
        base = h * (test_table.T @ (w[:, None] * sd))
        if callable(medium.sigma_t):
            pts = mesh.cell_origins[:, None, :] + h * tables.quad.vol_points[None, :, :]
            sv = np.asarray(medium.sigma_t(pts[:, :, 0], pts[:, :, 1]), dtype=float)
            base = base + h * h * np.einsum("cq,qi,qj->cij", w * sv, test_table, tables.V)
        else:
            base = base + float(medium.sigma_t) * h * h * (test_table.T @ (w[:, None] * tables.V))
        acc.add(cells, cells, base)
        # inflow-edge jump <[u], v |s.n|> from the downwind cell
        for g, s1, s2 in int_groups:
            sn = sets.side_sn[s1]
            if sn == 0.0:
                continue
            c1, c2 = mesh.edge_cells[g, 0], mesh.edge_cells[g, 1]
            dnw_cell, dnw_side, upw_cell = (c2, s2, c1) if sn > 0 else (c1, s1, c2)
            acc.add(dnw_cell, dnw_cell, abs(sn) * h * tables.E_self[dnw_side])
            acc.add(dnw_cell, upw_cell, -abs(sn) * h * tables.E_pair[dnw_side])
        for b in range(4):
            sn = sets.side_sn[b]
            if sn < 0:
                bc = mesh.edge_cells[bdy_groups[b], 0]
                acc.add(bc, bc, abs(sn) * h * tables.E_self[b])
    else:
        test_table = tables.V
        base = -h * (s[0] * tables.GX + s[1] * tables.GY)
        acc.add(cells, cells, base + _mass_blocks(tables, mesh, medium.sigma_t))

        if isinstance(scheme, WG):
            for g, s1, s2 in int_groups:
                sn = sets.side_sn[s1]
                c1, c2 = mesh.edge_cells[g, 0], mesh.edge_cells[g, 1]
                # <{u}, s.n v> from both incident cells
                acc.add(c1, c1, 0.5 * h * sn * tables.E_self[s1])
                acc.add(c1, c2, 0.5 * h * sn * tables.E_pair[s1])
                acc.add(c2, c2, -0.5 * h * sn * tables.E_self[s2])
                acc.add(c2, c1, -0.5 * h * sn * tables.E_pair[s2])
                # stabilizer from the outflow cell: (s.n/4) <[u], [v]>
                if sn != 0.0:
                    kappa = 0.25 * h * abs(sn)
                    acc.add(c1, c1, kappa * tables.E_self[s1])
                    acc.add(c1, c2, -kappa * tables.E_pair[s1])
                    acc.add(c2, c1, -kappa * tables.E_pair[s2])
                    acc.add(c2, c2, kappa * tables.E_self[s2])
            for b in range(4):
                sn = sets.side_sn[b]
                if sn == 0.0:
                    continue
                bc = mesh.edge_cells[bdy_groups[b], 0]
                acc.add(bc, bc, h * sn * tables.E_self[b])  # <{u}, s.n v>, {u} = u
                if sn < 0:  # weak inflow boundary term -<s.n u, v>
                    sign = 1.0 if _hooks.flip_inflow_sign else -1.0
                    acc.add(bc, bc, sign * h * sn * tables.E_self[b])
        elif isinstance(scheme, DODG):
            for g, s1, s2 in int_groups:
                sn = sets.side_sn[s1]
                c1, c2 = mesh.edge_cells[g, 0], mesh.edge_cells[g, 1]
                if sn > 0:  # upwind cell is c1
                    acc.add(c1, c1, h * sn * tables.E_self[s1])
                    acc.add(c2, c1, -h * sn * tables.E_pair[s2])
                elif sn < 0:  # upwind cell is c2
                    acc.add(c1, c2, h * sn * tables.E_pair[s1])
                    acc.add(c2, c2, -h * sn * tables.E_self[s2])
                cp = scheme.c_p * h
                acc.add(c1, c1, cp * tables.E_self[s1])
                acc.add(c1, c2, -cp * tables.E_pair[s1])
                acc.add(c2, c1, -cp * tables.E_pair[s2])
                acc.add(c2, c2, cp * tables.E_self[s2])
            for b in range(4):
                sn = sets.side_sn[b]
                if sn > 0:  # outflow boundary: u_hat is the interior trace
                    bc = mesh.edge_cells[bdy_groups[b], 0]
                    acc.add(bc, bc, h * sn * tables.E_self[b])
        else:
            raise TypeError(f"unknown scheme {scheme!r}")

    rhs = np.zeros((C, d))
    if f is not None:
        rhs += _rhs_volume(mesh, tables, test_table, f, theta)
    if u_in is not None:
        for b in range(4):
            sn = sets.side_sn[b]
            if sn < 0:
                bc = mesh.edge_cells[bdy_groups[b], 0]
                rhs[bc] += _rhs_inflow_data(mesh, tables, quad, b, bc, sn, u_in, theta)

    A = acc.tocsr(C * d)
    return DirectionSystem(
        m, s, A, rhs.ravel(), scheme, mesh, tables, medium, test_table
    )


def _scatter_map(system):
    """(dof, dof) map from kernel-contracted coefficients to one
    ordinate's scattering right side: sigma_s h^2 V^T W test."""
    tables = system.tables
    w = tables.quad.vol_weights
    return (system.medium.sigma_s * system.mesh.h**2) * (
        tables.V.T @ (w[:, None] * system.scatter_test)
    )


def scattering_row(system, kernel, quad, field):
    """Lagged scattering right side sigma_s (K_d u, test)_T of one
    ordinate, shape (C, dof), from the (L, C, dof) iterate."""
    krow = kernel.matrix[system.m] * quad.weights
    return np.tensordot(krow, field, axes=1) @ _scatter_map(system)


def scattering_source(systems, kernel, quad, field):
    """Lagged scattering right sides sigma_s (K_d u, test)_T for all
    ordinates, from the current iterate.

    ``field`` has shape (L, C, dof); returns the same shape.  The kernel
    is contracted on the broken-polynomial coefficients, and the result
    is mapped to each system's test table through the (dof, dof) matrix
    sigma_s h^2 V^T W test, so no quadrature-point array is formed.
    """
    coeffs = np.tensordot(kernel.matrix * quad.weights[None, :], field, axes=1)
    return np.stack([coeffs[s.m] @ _scatter_map(s) for s in systems])


def _field_edge_terms(mesh, tables, coeffs_u, coeffs_v, sets):
    """Per-direction edge sums used by norms and the bilinear evaluator.

    Returns (interior jump integral sum_e int |s.n| [u][v],
             boundary integral sum_e int |s.n| u v,
             signed boundary integral sum_e int (s.n) u v on inflow part).
    """
    h = mesh.h
    we = tables.quad.edge_weights
    int_groups, bdy_groups = _edge_groups(mesh)
    jump = 0.0
    for g, s1, s2 in int_groups:
        sn = sets.side_sn[s1]
        if sn == 0.0 or len(g) == 0:
            continue
        c1, c2 = mesh.edge_cells[g, 0], mesh.edge_cells[g, 1]
        ju = coeffs_u[c1] @ tables.trace[s1].T - coeffs_u[c2] @ tables.trace[s2].T
        jv = coeffs_v[c1] @ tables.trace[s1].T - coeffs_v[c2] @ tables.trace[s2].T
        jump += abs(sn) * h * np.sum(we[None, :] * ju * jv)
    bdy_abs = 0.0
    bdy_inflow_signed = 0.0
    for b in range(4):
        sn = sets.side_sn[b]
        if sn == 0.0:
            continue
        bc = mesh.edge_cells[bdy_groups[b], 0]
        tu = coeffs_u[bc] @ tables.trace[b].T
        tv = coeffs_v[bc] @ tables.trace[b].T
        val = h * np.sum(we[None, :] * tu * tv)
        bdy_abs += abs(sn) * val
        if sn < 0:
            bdy_inflow_signed += sn * val
    return jump, bdy_abs, bdy_inflow_signed


def triple_norm(mesh, tables, quad, field):
    """Scheme norm: angularly weighted broken L2 plus edge-mismatch and
    boundary terms,

        |||v|||^2 = sum_m w_m [ sum_T (||v||_T^2
                    + || |s.n|^(1/2) (v - {v}) ||_dT^2)
                    + || |s.n|^(1/2) v ||_bdy^2 ].

    Interior edges collect (v - {v})^2 = ([v]/2)^2 from both sides.
    """
    field = np.asarray(field)
    h = mesh.h
    w = tables.quad.vol_weights
    vals = np.einsum("lcd,qd->lcq", field, tables.V)
    vol = h * h * np.einsum("q,lcq->l", w, vals**2)
    total = 0.0
    for m in range(len(quad)):
        sets = classify_edges(mesh, quad.vectors[m])
        jump, bdy, _ = _field_edge_terms(mesh, tables, field[m], field[m], sets)
        total += quad.weights[m] * (vol[m] + 0.5 * jump + bdy)
    return float(np.sqrt(total))


def l2_dom_norm(mesh, tables, quad, field):
    """Angularly weighted broken L2 norm (volume terms only)."""
    field = np.asarray(field)
    vol = mesh.h**2 * np.einsum("lcd,de,lce->l", field, tables.M, field, optimize=True)
    return float(np.sqrt(np.sum(quad.weights * vol)))


def eval_bilinear(scheme, mesh, tables, quad, kernel, medium, u, v):
    """Matrix-free value of the full angular-weighted WG bilinear form.

    Includes convection, total-cross-section mass, the scattering
    coupling, the weak inflow boundary term, and the stabilizer.  Only
    the WG scheme is supported here; the comparators are exercised via
    their assembled matrices.
    """
    if not isinstance(scheme, WG):
        raise ValueError("matrix-free evaluation is provided for the WG scheme only")
    u = np.asarray(u)
    v = np.asarray(v)
    h = mesh.h
    w = tables.quad.vol_weights
    uis = np.einsum("lcd,qd->lcq", u, tables.V)
    vis = np.einsum("lcd,qd->lcq", v, tables.V)
    sigma_t = medium.sigma_t
    if callable(sigma_t):
        pts = mesh.cell_origins[:, None, :] + h * tables.quad.vol_points[None, :, :]
        st = np.asarray(sigma_t(pts[:, :, 0], pts[:, :, 1]), dtype=float)[None, :, :]
    else:
        st = float(sigma_t)
    mass = h * h * np.einsum("q,lcq->l", w, (st * uis) * vis)
    ku = np.einsum("ml,lcq->mcq", kernel.matrix * quad.weights[None, :], uis)
    scatter = h * h * medium.sigma_s * np.einsum("q,lcq->l", w, ku * vis)

    total = 0.0
    sign = 1.0 if _hooks.flip_inflow_sign else -1.0
    int_groups, bdy_groups = _edge_groups(mesh)
    for m in range(len(quad)):
        s = quad.vectors[m]
        sets = classify_edges(mesh, s)
        s = sets.direction
        # -(u, s.grad v) per cell
        sgv = np.einsum("cd,qd->cq", v[m], s[0] * tables.DX + s[1] * tables.DY)
        conv = -h * np.sum(w[None, :] * uis[m] * sgv)
        # <{u}, s.n v> over cell boundaries
        edge = 0.0
        for g, s1, s2 in int_groups:
            sn = sets.side_sn[s1]
            if sn == 0.0:
                continue
            c1, c2 = mesh.edge_cells[g, 0], mesh.edge_cells[g, 1]
            we = tables.quad.edge_weights
            u1 = u[m][c1] @ tables.trace[s1].T
            u2 = u[m][c2] @ tables.trace[s2].T
            v1 = v[m][c1] @ tables.trace[s1].T
            v2 = v[m][c2] @ tables.trace[s2].T
            avg = 0.5 * (u1 + u2)
            edge += sn * h * np.sum(we[None, :] * avg * (v1 - v2))
        jump, _, bdy_in = _field_edge_terms(mesh, tables, u[m], v[m], sets)
        for b in range(4):
            sn = sets.side_sn[b]
            if sn == 0.0:
                continue
            bc = mesh.edge_cells[bdy_groups[b], 0]
            we = tables.quad.edge_weights
            tu = u[m][bc] @ tables.trace[b].T
            tv = v[m][bc] @ tables.trace[b].T
            edge += sn * h * np.sum(we[None, :] * tu * tv)
        a_st = 0.25 * jump
        total += quad.weights[m] * (conv + edge + a_st + sign * bdy_in + mass[m]) - quad.weights[
            m
        ] * scatter[m]
    return float(total)


def export_matrix_coo(system, target):
    """Write the assembled matrix as 'row col value' text lines."""
    A = system.matrix.tocoo()
    own = isinstance(target, (str, bytes))
    stream = open(target, "w") if own else target
    try:
        stream.write(f"# {A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for r, c, x in zip(A.row, A.col, A.data):
            stream.write(f"{r} {c} {x:.17g}\n")
    finally:
        if own:
            stream.close()

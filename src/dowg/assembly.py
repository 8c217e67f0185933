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

Every term is a sum over cell sides, and on the uniform grid a cell's
blocks depend only on which of its four sides have a neighbour, so each
ordinate's system is assembled on the grid's five-point block stencil
(each cell's blocks for its bottom, left, own, right and top neighbour)
once per cell class: the scheme's volume block, then its terms on the
interior sides, its jump term and its boundary-side terms, each added
into the slot across its side.  With a constant sigma_t the classes are
the cells of a 3 x 3 class grid (first, interior and last column and
row); a callable sigma_t makes each cell its own class.  The stencil is
emitted block-row-wise as the CSR system matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _hooks
from .angular import apply_scatter
from .elements import _edge_points, _sample
from .mesh import SIDE_NORMALS

__all__ = [
    "WG",
    "DODG",
    "DODSD",
    "Medium",
    "DirectionSystem",
    "assemble_direction",
    "scattering_source",
    "triple_norm",
    "l2_dom_norm",
    "eval_bilinear",
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
        if not 0 < self.c_p < np.inf:
            raise ValueError(f"penalty c_p must be positive and finite, got {self.c_p}")


@dataclass(frozen=True)
class DODSD:
    """Streamline diffusion with delta = c*h, c > 0."""

    c: float = 1.0
    name = "dodsd"

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise ValueError(
                f"stabilization multiplier c must be positive and finite, got {self.c}"
            )


@dataclass(frozen=True)
class Medium:
    """Constant cross-sections; sigma_t may be a callable for testing."""

    sigma_t: object = 2.0
    sigma_s: float = 0.5


def _check_margin(kernel, medium):
    if callable(medium.sigma_t):
        return  # variable-coefficient path: caller's responsibility
    margin = medium.sigma_t - medium.sigma_s * float(kernel.row_mass.max())
    if not 0 < margin < np.inf:
        raise ValueError(
            "positivity margin sigma_t - sigma_s*max_m b_m = "
            f"{margin:.6g}; the scheme requires it positive and finite"
        )


@dataclass
class DirectionSystem:
    """One ordinate's system: its right side, and what assembles its matrix.

    ``matrix`` is the system as CSR on the five-point block stencil; every
    block an assembly term wrote is stored in full, even where the terms
    cancel.  It is assembled afresh on each access and not cached, so a
    solve holds only what its per-ordinate solver keeps: ``stencil()``
    assembles the blocks once per cell class, and ``matrix`` gathers
    them into every cell's block row.
    ``direction`` is the quadrature's own vector s_m, which every term
    meets only through its side products ``SIDE_NORMALS @ direction``.
    ``scatter_test`` holds the volume test table the lagged scattering
    source is integrated against (basis values for WG/DODG, the
    streamline-diffusion test combination for DODSD).  ``inflow_sign``
    is the sign of WG's weak inflow term -<s.n u, v>, fixed when the
    system is built (+1 only under the ``flip_inflow_sign`` fault hook).
    """

    m: int
    direction: np.ndarray
    rhs_fixed: np.ndarray
    scheme: object
    mesh: object
    tables: object
    medium: Medium
    scatter_test: np.ndarray
    inflow_sign: float = -1.0

    @property
    def n_dof(self):
        return self.mesh.n_cells * self.tables.dof

    @property
    def matrix(self):
        return self.stencil().tocsr()

    def stencil(self):
        """The system's blocks on the five-point stencil, one block row
        per cell class, assembled afresh."""
        return _assemble_stencil(self)


class _BlockStencil:
    """Dense (cell, cell) blocks on an n x n grid's five-point stencil,
    held once per cell class.

    Per test cell there are the d x d blocks for its bottom, left, own,
    right and top neighbour (cell offsets -n, -1, 0, 1, n, in column
    order; ``_SLOT`` names the slot across each cell side).  Cells whose
    blocks are equal share a class: ``cls`` maps each of the n*n cells
    to its class, one of the m*m cells of the class grid (see
    ``_class_grid``).  ``blocks`` and ``touched`` are per class; cell
    c's blocks are ``blocks[cls[c]]``.  A written block stays in the
    pattern even if it sums to 0."""

    def __init__(self, n, d, m, cls):
        self.d = d
        self.cls = cls
        self.offsets = np.array([-n, -1, 0, 1, n])
        self.blocks = np.zeros((m * m, 5, d, d))
        self.touched = np.zeros((m * m, 5), dtype=bool)

    def add(self, classes, slot, block):
        self.blocks[classes, slot] += block
        self.touched[classes, slot] = True

    def tocsr(self, blocks=None):
        """The stencil as a CSR matrix over the n*n cells, with ``blocks``
        (per class and slot, by default the stencil's own) gathered into
        every cell's block row."""
        blocks = self.blocks if blocks is None else blocks
        C, d = len(self.cls), self.d
        touched = self.touched[self.cls]
        cells, slots = np.nonzero(touched)
        indptr = np.concatenate(([0], np.cumsum(touched.sum(axis=1))))
        return sp.bsr_matrix(
            (blocks[self.cls[cells], slots], cells + self.offsets[slots], indptr),
            shape=(C * d, C * d),
        ).tocsr()


# stencil slot of the neighbour across cell side 0..3 (left, right,
# bottom, top), and the order the interior sides' terms are added in
# (right, left, top, bottom), which fixes the rounding of each block sum
_SLOT = (1, 3, 0, 4)
_INTERIOR_ORDER = (1, 0, 3, 2)


def _class_grid(mesh, sigma_t):
    """The side m of the class grid a stencil on ``mesh`` is assembled
    on, and each cell's class: the cell of that grid that stands for it.

    With constant sigma_t a cell's blocks depend only on which domain
    sides it touches, so a 3 x 3 class grid stands for the whole mesh:
    class column 0 is the first column of cells, 1 the interior ones and
    2 the last, and likewise for rows (n = 2 has only the four corner
    classes).  A callable sigma_t makes every cell its own class.
    """
    if callable(sigma_t):
        return mesh.n, np.arange(mesh.n_cells)
    idx = np.arange(mesh.n)
    side = (idx > 0).astype(np.intp) + (idx == mesh.n - 1)
    return 3, (3 * side[:, None] + side[None, :]).ravel()


def _empty_stencil(system):
    """An empty stencil on the system's class grid, and which of the
    sides 0..3 of each class has a neighbour, shape (m*m, 4)."""
    mesh = system.mesh
    m, cls = _class_grid(mesh, system.medium.sigma_t)
    i, j = np.arange(m * m) % m, np.arange(m * m) // m
    inner = np.column_stack([i > 0, i < m - 1, j > 0, j < m - 1])
    return _BlockStencil(mesh.n, system.tables.dof, m, cls), inner


def _mass_blocks(tables, mesh, sigma_t, test):
    """sigma_t mass (sigma_t u, test): one shared block or per-cell blocks."""
    h = mesh.h
    w = tables.quad.vol_weights
    if callable(sigma_t):
        sv = _sample(sigma_t, *mesh.points(tables.quad.vol_points))
        return h * h * np.einsum("cq,qi,qj->cij", w * sv, test, tables.V)
    return float(sigma_t) * h * h * (test.T @ (w[:, None] * tables.V))


def assemble_direction(scheme, mesh, tables, quad, kernel, medium, m, f=None, u_in=None):
    """Build the system for ordinate m under a scheme.

    ``f(x, y, theta)`` and ``u_in(x, y, theta)`` are vectorized callables
    for the volume source and the prescribed inflow intensity; omitted
    terms contribute zero.  The right side is integrated here; the matrix
    is assembled on demand (``DirectionSystem.stencil`` and ``matrix``).

    The scattering term stays out of the matrix (lagged source); the
    positivity margin sigma_t - sigma_s*max b_m must be positive and finite.
    """
    _check_margin(kernel, medium)
    if not isinstance(scheme, (WG, DODG, DODSD)):
        raise TypeError(f"unknown scheme {scheme!r}")
    theta, s = quad.thetas[m], quad.vectors[m]
    d = tables.dof
    C = mesh.n_cells
    if isinstance(scheme, DODSD):
        test_table = tables.V + scheme.c * (s[0] * tables.DX + s[1] * tables.DY)
    else:
        test_table = tables.V

    h, q = mesh.h, tables.quad
    rhs = np.zeros((C, d))
    if f is not None:
        fv = _sample(f, *mesh.points(q.vol_points), theta)
        rhs += h * h * ((q.vol_weights * fv) @ test_table)
    if u_in is not None:
        # - h s.n <u_in, v> on each inflow boundary side (s.n < 0)
        sn = SIDE_NORMALS @ s
        for b in range(4):
            if sn[b] < 0:
                bc = mesh.boundary_cells(b)
                g = _sample(u_in, *mesh.points(_edge_points(b, q.edge_points), bc), theta)
                rhs[bc] += -h * sn[b] * ((q.edge_weights * g) @ tables.trace[b])

    inflow_sign = 1.0 if _hooks.flip_inflow_sign else -1.0
    return DirectionSystem(
        m, s, rhs.ravel(), scheme, mesh, tables, medium, test_table, inflow_sign
    )


def _assemble_stencil(system):
    """The block stencil of one ordinate's system matrix on its class grid:
    the scheme's volume block, then its terms on the interior sides (right,
    left, top, bottom), its jump term on the same sides, and its terms on
    the boundary sides 0..3, each a list of ``_add_sides`` terms."""
    scheme, tables, medium = system.scheme, system.tables, system.medium
    st, inner = _empty_stencil(system)
    s, h = system.direction, system.mesh.h
    sn = SIDE_NORMALS @ s
    w = tables.quad.vol_weights
    test_table = system.scatter_test

    if isinstance(scheme, DODSD):
        # (s.grad u + sigma_t u, v + delta s.grad v)_T
        volume = h * (test_table.T @ (w[:, None] * (s[0] * tables.DX + s[1] * tables.DY)))
        # inflow-side jump <[u], v |s.n|> on the downwind cell, and the
        # inflow boundary
        interior = [(b, abs(sn[b]) * h, -abs(sn[b]) * h) for b in _INTERIOR_ORDER if sn[b] < 0]
        boundary = [(b, abs(sn[b]) * h, None) for b in range(4) if sn[b] < 0]
    else:
        volume = -h * (s[0] * tables.GX + s[1] * tables.GY)
        if isinstance(scheme, WG):
            # <{u}, s.n v> and the stabilizer (|s.n|/4) <[u], [v]>; on the
            # boundary {u} = u, plus the weak inflow term -<s.n u, v>
            interior = [(b, 0.5 * h * sn[b], 0.5 * h * sn[b]) for b in _INTERIOR_ORDER]
            interior += _jump(0.25 * np.abs(sn) * h)
            boundary = []
            for b in range(4):
                if sn[b] != 0.0:
                    boundary.append((b, h * sn[b], None))
                if sn[b] < 0:
                    boundary.append((b, system.inflow_sign * h * sn[b], None))
        else:
            # upwind trace u_hat: the cell's own on outflow sides, the
            # neighbour's on inflow sides; then the jump penalty
            interior = [
                (b, h * sn[b], None) if sn[b] > 0 else (b, None, h * sn[b])
                for b in _INTERIOR_ORDER if sn[b] != 0.0
            ]
            interior += _jump(np.full(4, scheme.c_p * h))
            boundary = [(b, h * sn[b], None) for b in range(4) if sn[b] > 0]

    st.add(slice(None), 2, volume + _mass_blocks(tables, system.mesh, medium.sigma_t, test_table))
    _add_sides(st, inner, tables, interior)
    _add_sides(st, ~inner, tables, boundary)
    return st


def _add_sides(st, on, tables, terms):
    """For each (b, own, pair) in order: own * E_self[b] into the own slot
    and pair * E_pair[b] into the slot across side b, of every class with
    ``on[:, b]``; a coefficient None adds nothing."""
    for b, own, pair in terms:
        if own is not None:
            st.add(on[:, b], 2, own * tables.E_self[b])
        if pair is not None:
            st.add(on[:, b], _SLOT[b], pair * tables.E_pair[b])


def _jump(kappa):
    """Interior-side terms of the jump kappa <[u], [v]>, kappa per side."""
    return [(b, kappa[b], -kappa[b]) for b in _INTERIOR_ORDER]


def _sweep_shift(system):
    """What the wavefront sweep adds to the system before it takes the
    diagonal and upwind blocks: for WG its stabilizer once more, on a
    block stencil, since central flux plus (|s.n|/2) <[u], [v]> is the
    penalty-free upwind operator and the iteration then only corrects
    the stabilizer; None for DODG and DODSD, whose sweep takes the
    system's own blocks.  Its cell classes are the system stencil's."""
    if not isinstance(system.scheme, WG):
        return None
    st, inner = _empty_stencil(system)
    sn = SIDE_NORMALS @ system.direction
    _add_sides(st, inner, system.tables, _jump(0.25 * np.abs(sn) * system.mesh.h))
    return st


def _scatter_map(system):
    """(dof, dof) map from kernel-contracted coefficients to one
    ordinate's scattering right side: sigma_s h^2 V^T W test."""
    tables = system.tables
    w = tables.quad.vol_weights
    return (system.medium.sigma_s * system.mesh.h**2) * (
        tables.V.T @ (w[:, None] * system.scatter_test)
    )


def scattering_source(systems, kernel, quad, field):
    """Lagged scattering right sides sigma_s (K_d u, test)_T for all
    ordinates, from the current iterate.

    ``field`` has shape (L, C, dof); returns the same shape.  The kernel
    is applied (``apply_scatter``) to the broken-polynomial coefficients,
    and the result is mapped to each system's test table through the
    (dof, dof) matrix sigma_s h^2 V^T W test, so no quadrature-point
    array is formed.
    """
    coeffs = apply_scatter(kernel, quad, field)
    return np.stack([coeffs[s.m] @ _scatter_map(s) for s in systems])


def _face_traces(mesh, tables, coeffs):
    """The traces of a broken field ``coeffs`` (C, dof) at the edge
    quadrature points, each (faces, q_e): per interior face group
    ``(side, own, across)``, from the cells whose ``side`` the faces are
    and from their neighbours across it; and the boundary sides' traces
    (``_side_traces``)."""
    interior = [
        (s1, coeffs[c1] @ tables.trace[s1].T, coeffs[c2] @ tables.trace[s2].T)
        for s1, s2, c1, c2 in mesh.interior_faces()
    ]
    return interior, _side_traces(mesh, tables, coeffs)


def _side_traces(mesh, tables, coeffs):
    """Per domain side 0..3 the traces of its cells, each (n, q_e)."""
    return [coeffs[mesh.boundary_cells(b)] @ tables.trace[b].T for b in range(4)]


def _jump_sum(kappa, we, faces_u, faces_v):
    """sum_e kappa[side] int_e [u][v] over the interior faces, from the
    ``_face_traces`` of u and v; kappa carries h, and sides with kappa 0
    are skipped."""
    return sum(
        kappa[side] * np.sum(we * (u1 - u2) * (v1 - v2))
        for (side, u1, u2), (_, v1, v2) in zip(faces_u, faces_v) if kappa[side] != 0.0
    )


def _boundary_sum(kappa, we, sides_u, sides_v):
    """sum_b kappa[b] int u v over domain side b, from the traces of u and
    v on each side; kappa carries h, and sides with kappa 0 are skipped."""
    return sum(
        kappa[b] * np.sum(we * (sides_u[b] * sides_v[b])) for b in range(4) if kappa[b] != 0.0
    )


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
    w, we = tables.quad.vol_weights, tables.quad.edge_weights
    vals = np.einsum("lcd,qd->lcq", field, tables.V)
    vol = h * h * np.einsum("q,lcq->l", w, vals**2)
    total = 0.0
    for m in range(len(quad)):
        kappa = np.abs(SIDE_NORMALS @ quad.vectors[m]) * h
        faces, sides = _face_traces(mesh, tables, field[m])
        jump = _jump_sum(kappa, we, faces, faces)
        total += quad.weights[m] * (vol[m] + 0.5 * jump + _boundary_sum(kappa, we, sides, sides))
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
    w, we = tables.quad.vol_weights, tables.quad.edge_weights
    uis = np.einsum("lcd,qd->lcq", u, tables.V)
    vis = np.einsum("lcd,qd->lcq", v, tables.V)
    sigma_t = medium.sigma_t
    if callable(sigma_t):
        st = _sample(sigma_t, *mesh.points(tables.quad.vol_points))
    else:
        st = float(sigma_t)
    mass = h * h * np.einsum("q,lcq->l", w, (st * uis) * vis)
    ku = np.einsum("ml,lcq->mcq", kernel.matrix * quad.weights[None, :], uis)
    scatter = h * h * medium.sigma_s * np.einsum("q,lcq->l", w, ku * vis)

    total = 0.0
    sign = 1.0 if _hooks.flip_inflow_sign else -1.0
    for m in range(len(quad)):
        s = quad.vectors[m]
        sn = SIDE_NORMALS @ s
        # -(u, s.grad v) per cell
        sgv = np.einsum("cd,qd->cq", v[m], s[0] * tables.DX + s[1] * tables.DY)
        conv = -h * np.sum(w[None, :] * uis[m] * sgv)
        faces_u, sides_u = _face_traces(mesh, tables, u[m])
        faces_v, sides_v = _face_traces(mesh, tables, v[m])
        # <{u}, s.n v> over interior faces, and the stabilizer
        # (|s.n|/4) <[u], [v]>
        edge = sum(
            sn[side] * h * np.sum(we * (0.5 * (u1 + u2)) * (v1 - v2))
            for (side, u1, u2), (_, v1, v2) in zip(faces_u, faces_v) if sn[side] != 0.0
        )
        a_st = 0.25 * _jump_sum(np.abs(sn) * h, we, faces_u, faces_v)
        # <u, s.n v> on the boundary, plus the weak inflow term -<s.n u, v>
        bdy = _boundary_sum(h * sn * np.where(sn < 0, 1.0 + sign, 1.0), we, sides_u, sides_v)
        total += quad.weights[m] * (conv + edge + bdy + a_st + mass[m] - scatter[m])
    return float(total)

"""Structured quadrilateral meshes on the unit square.

Level ``l`` partitions the unit square into ``n x n`` axis-aligned cells
with ``n = 2**l`` (level 1 is the 2x2 coarse grid).  All solver stages
share one mesh across ordinate directions; only the inflow/outflow edge
classification (``classify_edges``) depends on the direction.

Conventions
-----------
Cells are numbered row-major, ``cell = j*n + i`` with column ``i``
(x direction) and row ``j``.  Cell sides are numbered 0 = left,
1 = right, 2 = bottom, 3 = top.  Each edge records its incident cells;
interior edges list the left/bottom cell first, and the stored edge
normal is the outward normal of that first cell (always +x or +y).
Boundary edges list their single cell first with the outward domain
normal.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _hooks

__all__ = ["QuadMesh", "DirectionalEdgeSets", "build_mesh", "classify_edges"]

SIDE_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
OPPOSITE_SIDE = (1, 0, 3, 2)


@dataclass(frozen=True)
class QuadMesh:
    """Uniform n x n partition of the unit square.

    Attributes
    ----------
    level : int
    n : int
        Cells per side, ``2**level``.
    h : float
        Mesh width ``1/n``.
    edge_cells : ndarray, shape (E, 2)
        Incident cell indices; column 1 is -1 on boundary edges.
    edge_sides : ndarray, shape (E, 2)
        Side id of the edge within each incident cell (-1 where absent).
    edge_normals : ndarray, shape (E, 2)
        Outward unit normal of the first incident cell.
    cell_edges : ndarray, shape (C, 4)
        Edge index by cell and side.
    boundary_side : ndarray, shape (E,)
        Domain side (0..3) for boundary edges, -1 for interior.
    """

    level: int
    n: int
    h: float
    edge_cells: np.ndarray = field(repr=False)
    edge_sides: np.ndarray = field(repr=False)
    edge_normals: np.ndarray = field(repr=False)
    cell_edges: np.ndarray = field(repr=False)
    boundary_side: np.ndarray = field(repr=False)

    @property
    def n_cells(self):
        return self.n * self.n

    @property
    def n_edges(self):
        return self.edge_cells.shape[0]

    @property
    def boundary_edges(self):
        return np.nonzero(self.boundary_side >= 0)[0]

    @property
    def cell_origins(self):
        """Lower-left corner of every cell, shape (C, 2)."""
        idx = np.arange(self.n_cells)
        return self.h * np.column_stack([idx % self.n, idx // self.n]).astype(float)

    @property
    def cell_corners(self):
        """Corner coordinates per cell, shape (C, 4, 2), counterclockwise."""
        o = self.cell_origins
        h = self.h
        offsets = np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]])
        return o[:, None, :] + offsets[None, :, :]

    def dump(self, stream):
        """Write the cell corner list as plain text (debugging aid)."""
        stream.write(f"# level {self.level}, {self.n_cells} cells, h = {self.h!r}\n")
        for c, quad in enumerate(self.cell_corners):
            pts = " ".join(f"({x:.6f},{y:.6f})" for x, y in quad)
            stream.write(f"cell {c}: {pts}\n")


def build_mesh(level):
    """Build the uniform mesh at a refinement level in 1..10."""
    level = int(level)
    if not 1 <= level <= 10:
        raise ValueError(f"refinement level must be in 1..10, got {level}")
    n = 2**level
    h = 1.0 / n
    n_cells = n * n
    n_vert = (n + 1) * n  # vertical edges: x = i*h, strip j
    n_edges = 2 * n_vert

    edge_cells = np.full((n_edges, 2), -1, dtype=int)
    edge_sides = np.full((n_edges, 2), -1, dtype=int)
    edge_normals = np.zeros((n_edges, 2))
    boundary_side = np.full(n_edges, -1, dtype=int)
    cell_edges = np.full((n_cells, 4), -1, dtype=int)

    i, j = np.meshgrid(np.arange(n + 1), np.arange(n), indexing="ij")
    i, j = i.ravel(), j.ravel()

    # vertical edges, id = i*n + j
    e = i * n + j
    left = (i > 0).nonzero()[0]
    right = (i < n).nonzero()[0]
    # first incident cell: the one to the left (or the right cell when on
    # the left domain boundary)
    first_is_left = i > 0
    fc = np.where(first_is_left, j * n + (i - 1), j * n + i)
    fs = np.where(first_is_left, 1, 0)
    edge_cells[e, 0] = fc
    edge_sides[e, 0] = fs
    edge_normals[e, 0] = np.where(first_is_left, 1.0, -1.0)
    interior = (i > 0) & (i < n)
    edge_cells[e[interior], 1] = (j * n + i)[interior]
    edge_sides[e[interior], 1] = 0
    boundary_side[e[i == 0]] = 0
    boundary_side[e[i == n]] = 1
    cell_edges[fc, fs] = e
    cell_edges[(j * n + i)[interior], 0] = e[interior]

    # horizontal edges, id = n_vert + j*n + i (y = j*h, column i)
    ih, jh = np.meshgrid(np.arange(n), np.arange(n + 1), indexing="ij")
    ih, jh = ih.ravel(), jh.ravel()
    e = n_vert + jh * n + ih
    first_is_below = jh > 0
    fc = np.where(first_is_below, (jh - 1) * n + ih, jh * n + ih)
    fs = np.where(first_is_below, 3, 2)
    edge_cells[e, 0] = fc
    edge_sides[e, 0] = fs
    edge_normals[e, 1] = np.where(first_is_below, 1.0, -1.0)
    interior = (jh > 0) & (jh < n)
    edge_cells[e[interior], 1] = (jh * n + ih)[interior]
    edge_sides[e[interior], 1] = 2
    boundary_side[e[jh == 0]] = 2
    boundary_side[e[jh == n]] = 3
    cell_edges[fc, fs] = e
    cell_edges[(jh * n + ih)[interior], 2] = e[interior]

    return QuadMesh(level, n, h, edge_cells, edge_sides, edge_normals, cell_edges, boundary_side)


@dataclass(frozen=True)
class DirectionalEdgeSets:
    """Inflow/outflow edge classification for one ordinate direction.

    The grid is uniform, so the per-cell partition reduces to a partition
    of the four side ids: side s is inflow for a cell when
    s_m . n_side < 0, outflow when >= 0 (ties are outflow).

    Attributes
    ----------
    direction : ndarray
        Unit vector s_m.
    side_sn : ndarray, shape (4,)
        s_m . n for the four cell sides (left, right, bottom, top).
    inflow_sides, outflow_sides : tuple of int
        Partition of side ids by the sign rule.
    inflow_boundary, outflow_boundary : ndarray
        Boundary edge indices with s.n < 0 resp. >= 0.
    sn_first : ndarray, shape (E,)
        s_m . n with n the stored first-cell outward normal, per edge.
    """

    direction: np.ndarray
    side_sn: np.ndarray
    inflow_sides: tuple
    outflow_sides: tuple
    inflow_boundary: np.ndarray
    outflow_boundary: np.ndarray
    sn_first: np.ndarray


def classify_edges(mesh, direction):
    """Classify mesh edges against a direction by the sign of s.n.

    Ties (s.n == 0, axis-aligned directions) count as outflow.  Boundary
    edges with s.n < 0 form the inflow boundary where prescribed external
    intensity enters.
    """
    s = np.asarray(getattr(direction, "unit_vector", direction), dtype=float)
    if s.shape != (2,):
        raise ValueError("direction must be a 2D unit vector")
    s = np.where(np.abs(s) < 1e-14, 0.0, s)  # rounding noise breaks the tie rule
    side_sn = SIDE_NORMALS @ s
    if _hooks.tie_break_inflow:
        inflow = side_sn <= 0.0
    else:
        inflow = side_sn < 0.0
    inflow_sides = tuple(np.nonzero(inflow)[0])
    outflow_sides = tuple(np.nonzero(~inflow)[0])

    bdy = mesh.boundary_edges
    bdy_sn = side_sn[mesh.boundary_side[bdy]]
    if _hooks.tie_break_inflow:
        mask = bdy_sn <= 0.0
    else:
        mask = bdy_sn < 0.0
    sn_first = mesh.edge_normals @ s
    return DirectionalEdgeSets(
        s, side_sn, inflow_sides, outflow_sides, bdy[mask], bdy[~mask], sn_first
    )

"""Structured quadrilateral meshes on the unit square.

Level ``l`` partitions the unit square into ``n x n`` axis-aligned cells
with ``n = 2**l`` (level 1 is the 2x2 coarse grid).  All solver stages
share one mesh across ordinate directions; a direction s meets the four
cell sides only through their s.n, ``SIDE_NORMALS @ s``.

Conventions
-----------
Cells are numbered row-major, ``cell = j*n + i`` with column ``i``
(x direction) and row ``j``.  Cell sides are numbered 0 = left,
1 = right, 2 = bottom, 3 = top, with outward normals ``SIDE_NORMALS``;
side s of a cell and side ``OPPOSITE_SIDE[s]`` of its neighbour across
it are the same face.  ``QuadMesh.neighbours[c, s]`` is that neighbour,
or -1 where side s lies on the domain boundary.  ``interior_faces``
names each interior face once, by the cell left of or below it and its
neighbour across side 1 or 3; ``boundary_cells(s)`` lists the cells
whose side s is on the domain boundary.  Both come grid line by grid
line (x = i h, then y = j h), in ascending order along each line; the
norms and the right sides sum in that order.  ``points(ref, cells)``
maps reference points of [0, 1]^2 into cells: cell c's lower-left
corner plus h times the point, as the physical x and y per cell and
point.  Assembly, projection and error measurement sample sigma_t,
sources, inflow data and exact solutions there.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuadMesh", "build_mesh"]

SIDE_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
OPPOSITE_SIDE = (1, 0, 3, 2)


@dataclass(frozen=True)
class QuadMesh:
    """Uniform n x n partition of the unit square, held as its
    neighbour table; faces, boundary cells and points are read from it.

    Attributes
    ----------
    n : int
        Cells per side, ``2**level`` for the level of ``build_mesh``.
    h : float
        Mesh width ``1/n``.
    neighbours : ndarray, shape (C, 4)
        The cell across each side 0..3, -1 on the domain boundary.
    """

    n: int
    h: float
    neighbours: np.ndarray = field(repr=False)

    @property
    def n_cells(self):
        return self.n * self.n

    def interior_faces(self):
        """Every interior face once, as ``(side, opposite, cells,
        neighbours)`` for the vertical faces (side 1 of the cells left of
        them), then the horizontal ones (side 3 of the cells below)."""
        cells = np.arange(self.n_cells).reshape(self.n, self.n)
        faces = []
        for side, lines in ((1, cells.T), (3, cells)):
            lines = lines.ravel()
            nbr = self.neighbours[lines, side]
            inner = nbr >= 0
            faces.append((side, OPPOSITE_SIDE[side], lines[inner], nbr[inner]))
        return faces

    def boundary_cells(self, side):
        """The cells whose ``side`` lies on the domain boundary, in
        ascending order along it."""
        return np.nonzero(self.neighbours[:, side] < 0)[0]

    def points(self, ref, cells=slice(None)):
        """Physical x and y of the reference points ``ref`` (shape (P, 2))
        in each of ``cells``, each of shape (cells, P)."""
        ref = np.asarray(ref)
        # the lower-left corners of the requested cells only
        idx = np.arange(self.n_cells)[cells, None]
        x = self.h * (idx % self.n).astype(float)
        y = self.h * (idx // self.n).astype(float)
        return x + self.h * ref[:, 0], y + self.h * ref[:, 1]


def build_mesh(level):
    """Build the uniform mesh at a refinement level in 1..10."""
    level = int(level)
    if not 1 <= level <= 10:
        raise ValueError(f"refinement level must be in 1..10, got {level}")
    n = 2**level
    cells = np.arange(n * n).reshape(n, n)  # [row j, column i]
    nbr = np.full((n, n, 4), -1, dtype=np.intp)
    nbr[:, 1:, 0] = cells[:, :-1]
    nbr[:, :-1, 1] = cells[:, 1:]
    nbr[1:, :, 2] = cells[:-1, :]
    nbr[:-1, :, 3] = cells[1:, :]
    return QuadMesh(n, 1.0 / n, nbr.reshape(n * n, 4))

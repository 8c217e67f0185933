"""Source iteration: one fused sweep-scattering loop over all ordinates.

The discrete ordinates are coupled only through scattering.  Each
ordinate's system splits as A_m = P_m + R_m, P_m the part it inverts and
R_m the remainder.  Starting from the zero field, or from a given start
field x0, each sweep forms g_m = b_m + S_m x - R_m x_m from the current
field (b_m the fixed right side, S_m x the lagged scattering source) and
sets x_m = P_m^{-1} g_m.  This is the transport-sweep form of Adams &
Larsen, "Fast iterative methods for discrete-ordinates particle
transport calculations", Prog. Nucl. Energy 40 (2002).  As P_m x_m is
the previous sweep's g_m (and P_m x0 before the first: 0 from zero,
formed with the pairs from a start field), the residual
b_m + S_m x - A_m x_m of the current field is g_m minus its previous
value, so it costs no product with A_m.  A positive margin
sigma_t - sigma_s*max b_m makes the map contract, and the ratio rho of
successive update norms (angularly weighted broken L2) and residuals
bounds the remaining iteration error by a multiple of rho/(1 - rho)
times the last update norm (``_bound``).
The loop stops when that bound and the coupled relative residual
||r|| / ||b + S x|| are both at most the tolerance; rho >= 1 means no
stop.  An update norm or residual that is not finite (the field
overflowed) ends the loop at once, uncertified.

Each ordinate is the pair (P_m^{-1}, R_m), R_m zero when P_m = A_m, and
all ordinates have as many unknowns, so one object built before the
first sweep holds the run's pairs and ``_fused_sweep`` applies it to all
at once: at desk scale ``_Rows``, block elimination of each A_m over the
grid rows, above that the wavefront ``_Sweep``.  The loop holds the
iterate and two buffers that swap roles every sweep (``_fused_sweep``),
so no field is allocated or copied per sweep.  A stock run imports no
scipy: only the stall fallback, ``_Exact``, builds CSR
(``assembly._filled``) and factors it with SuperLU.
The trapezoid rule's last ordinate, theta = 2 pi, repeats its first,
theta = 0: when its system, kernel row and column and right side equal
the first's bit for bit, the two are one direction (``_fold``).  The
whole loop, its pairs, buffers, scattering, norms and certification,
runs on the first L - 1 ordinates, the first weighted by both and
counted twice in the residual, and the last row of the field is filled
from the first at the end.
Ordering cells by upwind distance makes each transport matrix block
lower triangular up to a weak downwind remainder
(the DODG jump penalty; WG sweeps its matrix plus its own stabilizer,
the penalty-free upwind operator, and leaves the stabilizer as the
remainder), and the streamline-diffusion systems are exactly triangular
in that order (R_m = 0).  The sweep goes front by front over every
ordinate, the all-angle wavefront of Koch, Baker & Alcouffe (Trans. Am.
Nucl. Soc. 65, 1992), from each ordinate's D^{-1} and two upwind class
blocks, cut from its block stencil.  WG's R_m, minus its stabilizer, is
applied on the faces to all ordinates at once (``_Jumps``); every other
R_m is its two downwind blocks, applied on the grid to the ordinates
that share them (``_Downwind``, DODG's a run per flow quadrant), and A_m
is never formed.  A run with a remainder whose update norms stop
falling, while above roundoff, switches once, with a RuntimeWarning, to
exact pairs by sparse LU for every ordinate
(``IterationTrace.escalated``).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .angular import AngularQuadrature

# the benchmark's tracer (perfbench/tracing.py) patches these three names here
from .assembly import assemble_direction, l2_dom_norm, scattering_source  # noqa: F401
from .assembly import _INTERIOR, _SLOT, _filled, _sweep_shift
from .mesh import OPPOSITE_SIDE
from .reporting import _write_table

__all__ = [
    "SolverFailure",
    "SourceIterationConfig",
    "IterationTrace",
    "source_iteration",
]


class SolverFailure(RuntimeError):
    """Source iteration failed to certify its result; carries the final
    residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class SourceIterationConfig:
    """Stopping tolerance on both the iteration-error bound and the
    coupled relative residual, and the cap on the number of sweeps."""

    tol: float = 1e-3
    max_outer: int = 200

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"outer tolerance must be positive and finite, got {self.tol}")
        if self.max_outer < 1:
            raise ValueError(f"need at least one sweep, got {self.max_outer}")


@dataclass
class IterationTrace:
    """Per-sweep update norms, the convergence flag, the last
    iteration-error bound and coupled relative residual, and the number
    of ordinates the run escalated to sparse LU: 0, or all of them."""

    errs: list
    converged: bool
    bound: float = np.inf
    residual: float = np.inf
    escalated: int = 0

    @property
    def iterations(self):
        return len(self.errs)

    def to_csv(self, target):
        rows = []
        for i, e in enumerate(self.errs, start=1):
            rows.append([i, f"{e:.6g}"])
        _write_table(target, ["iteration", "err"], rows)


class _Sweep:
    """The wavefront sweep of every ordinate at once: each one's P^{-1}
    and the remainder R of its split A = P + R.

    Cells are ranked by upwind distance l = i' + j', the primed indices
    counted along the flow, so a cell's two upwind neighbours sit on front
    l - 1 (ties count left and bottom as upwind).  On the block stencil of
    A, plus for WG its stabilizer once more (``assembly._sweep_shift``),
    P = D + L takes each cell's own and upwind blocks and R = A - P the
    rest.  With the WG shift R is minus the shift, -(h/4)(|s_x| J_x +
    |s_y| J_y), which ``jumps`` (``_Jumps``) applies to every such
    ordinate on the faces; else R is A's blocks in the slots across the
    two downwind sides, which ``downwind`` (``_Downwind``) applies on the
    grid.  Each is None when no ordinate has such a remainder.

    The class grid makes P uniform: every class with an upwind neighbour
    holds the interior class's block there (checked bit for bit), a
    front's inner cells are interior and its two ends boundary cells.  So
    an ordinate keeps ``_upwind`` = [L_bottom^T; L_left^T], the interior
    D^{-1} (``_bulk``) and its ends' D^{-1} per distinct pair of end-cell
    classes (``_ends``, front l's pair ``_ends[_end_of[l]]``), all
    transposed for a right multiply.  The work array is (ordinates,
    n^2 + 2(2n - 1), d): per ordinate, front after front, the cells of
    front l in flow order between two pad rows, flow row j' at
    j' - lo_l + 1 (lo_l that of the first cell), so its bottom and left
    neighbours are rows j' - lo_{l-1} and j' - lo_{l-1} + 1 of front
    l - 1, two adjacent rows for one product with ``_upwind``.  As that
    depends only on the flow quadrant, an ordinate is moved in and out by
    one ``np.take`` with its quadrant's ``_in`` (pads read cell 0, then
    are zeroed) and ``_out``; each front takes z = (g - L z_upwind) D^{-1}
    of all ordinates on views built once on each of the loop's two
    ``bufs`` (``_fused_sweep``).  A start x0 has P x0 put in ``bufs[1]``.
    """

    def __init__(self, systems, start=None):
        n, d = systems[0].mesh.n, systems[0].tables.dof
        C, B, F = n * n, len(systems), 2 * n - 1
        idx, f, c = np.arange(n), np.arange(F), np.arange(C)
        # flow row j' of the first and last cell of each front
        ends = np.stack([np.maximum(f - n + 1, 0), np.minimum(f, n - 1)])
        # each front's rows, its cells and two pads, and its first row
        cols = ends[1] - ends[0] + 3
        first = np.concatenate([[0], np.cumsum(cols)[:-1]])
        # grid index -> index along the flow in quadrant q (x reversed by
        # bit 0, y by bit 1), each cell's work row and each row's cell
        flow = [[idx[::-1] if q >> s & 1 else idx for s in (0, 1)] for q in range(4)]
        self._out, self._in = np.empty((4, C), np.intp), np.zeros((4, cols.sum()), np.intp)
        for q, (fi, fj) in enumerate(flow):
            l = fi[c % n] + fj[c // n]
            self._out[q] = first[l] + fj[c // n] - ends[0, l] + 1
            self._in[q, self._out[q]] = c
        self._pads = np.concatenate([first, first + cols - 1])
        self._quadrant = [(s.direction[0] < 0) + 2 * (s.direction[1] < 0) for s in systems]
        self._upwind = upwind = np.empty((B, 2 * d, d))
        own = np.empty((B, 9, d, d))
        end_cls = np.empty((B, 2, F), dtype=np.intp)
        scales, down = np.zeros((B, 2)), np.zeros((B, 2, d, d))
        for b, system in enumerate(systems):
            sx, sy = system.direction
            acc = system.stencil()
            # the upwind sides (bottom or top, left or right), their
            # stencil slots, then own; every block below is per cell class
            sides = (2 if sy >= 0 else 3, 0 if sx >= 0 else 1)
            kept = [_SLOT[side] for side in sides] + [2]
            P = acc.blocks[:, kept]
            shift = _sweep_shift(system)
            if shift is not None:
                P += shift.blocks[:, kept]
            for j, side in enumerate(sides):
                if not np.array_equal(P[:, j], acc.inner[:, side, None, None] * P[_INTERIOR, j]):
                    raise RuntimeError(f"ordinate {b}: the classes' upwind blocks differ")
            upwind[b] = P[_INTERIOR, :2].transpose(0, 2, 1).reshape(2 * d, d)
            own[b] = P[:, 2]
            if shift is not None:
                # R = A - P = -shift, applied on the faces (``_Jumps``)
                scales[b] = 0.25 * system.mesh.h * np.abs(system.direction)
            else:
                # R = A - P, A's blocks in the two downwind slots
                for j, side in enumerate(OPPOSITE_SIDE[s] for s in sides):
                    block = acc.blocks[:, _SLOT[side]]
                    if not np.array_equal(block, acc.inner[:, side, None, None] * block[_INTERIOR]):
                        raise RuntimeError(f"ordinate {b}: the classes' downwind blocks differ")
                    down[b, j] = block[_INTERIOR].T
            fi, fj = flow[self._quadrant[b]]
            end_cls[b] = acc.cls[fj[ends] * n + fi[f - ends]]
        self.jumps = _Jumps(systems[0].tables, n, scales) if scales.any() else None
        self.downwind = _Downwind(n, self._quadrant, down) if down.any() else None
        # the fronts whose end cells have the same classes share one block
        # pair per ordinate: five distinct ones for n > 2
        keys, end_of = np.unique(end_cls.reshape(2 * B, F).T, axis=0, return_inverse=True)
        self._end_of, end_cls = end_of.ravel(), keys.T.reshape(B, 2, -1)
        dinv = np.linalg.inv(own)
        self._bulk = dinv[:, _INTERIOR].transpose(0, 2, 1).copy()
        self._ends = _front_ends(dinv, end_cls)
        self._C, self._d = C, d
        self.bufs = [np.zeros((B * cols.sum(), d)) for _ in range(2)]
        self._g = [buf[:B * C].reshape(B, C, d) for buf in self.bufs]
        # one ordinate's solved rows; the fronts' products
        self._x, t = np.empty((C, d)), np.empty((B, n, d))
        self._fronts = [[], []]
        for fronts, buf in zip(self._fronts, self.bufs):
            W = np.split(buf.reshape(B, -1, d), first[1:], axis=1)
            for l in range(F):
                cnt = cols[l] - 2
                z, acc = W[l][:, 1:-1], t[:, :cnt]
                win = None if l == 0 else _windows(W[l - 1][:, ends[0, l] - ends[0, l - 1]:], cnt)
                fronts.append((win, z, acc, (z[:, :1], z[:, -1:]), (acc[:, :1], acc[:, -1:]),
                               self._ends[self._end_of[l]]))
        if start is not None:
            self._lower(start, own, end_cls)

    def _pack(self, rows, j):
        """``bufs[j]`` as the work array, filled from ``rows`` (B, C, d)."""
        W = self.bufs[j].reshape(len(rows), -1, self._d)
        # every index is in range; "clip" lets take write ``out`` unbuffered
        for b, q in enumerate(self._quadrant):
            np.take(rows[b], self._in[q], axis=0, out=W[b], mode="clip")
        W[:, self._pads] = 0.0
        return W

    def _lower(self, start, own, end_cls):
        """Write (D + L) x0 of the start rows x0 into the first rows of
        ``bufs[1]``, formed on ``bufs[0]`` from the last front back, so
        each upwind front still holds x0: D by the interior and end
        blocks, plus the upwind products."""
        W = self._pack(start.reshape(len(own), self._C, -1), 0)
        D, own_ends = own[:, _INTERIOR].transpose(0, 2, 1), _front_ends(own, end_cls)
        for (win, z, _, z_ends, _, _), e in zip(self._fronts[0][::-1], self._end_of[::-1]):
            y = z @ D
            for y_end, z_end, end in zip((y[:, :1], y[:, -1:]), z_ends, own_ends[e]):
                y_end[...] = z_end @ end
            if win is not None:
                y += win @ self._upwind
            z[...] = y
        for b, q in enumerate(self._quadrant):
            np.take(W[b], self._out[q], axis=0, out=self._g[1][b], mode="clip")

    def solve(self, i):
        """Yield ``(b, x)`` per ordinate b, x = P^{-1} g as (C, d) until
        the next, g the first rows of ``bufs[i]``, ``bufs[1 - i]`` the
        work array."""
        W = self._pack(self._g[i], 1 - i)
        upwind, bulk = self._upwind, self._bulk
        for win, z, acc, z_ends, acc_ends, ends in self._fronts[1 - i]:
            if win is None:
                acc[...] = z
            else:
                np.matmul(win, upwind, out=acc)
                np.subtract(z, acc, out=acc)
            np.matmul(acc, bulk, out=z)
            for z_end, acc_end, end in zip(z_ends, acc_ends, ends):
                np.matmul(acc_end, end, out=z_end)
        for b, q in enumerate(self._quadrant):
            yield b, np.take(W[b], self._out[q], axis=0, out=self._x, mode="clip")


class _Rows:
    """The exact pairs at desk scale: P = A, applied by block elimination
    over the n grid rows, and R = 0; ``start`` and ``solve`` as for
    ``_Sweep``.  In natural order A is block tridiagonal over the rows:
    row j's cells' own, left and right blocks make T_j (nd x nd), their
    bottom and top ones the block diagonal Lo_j and Up_j.  The set-up
    forms T one row at a time from each ordinate's class stencil and
    keeps S_j^{-1}, S_0 = T_0 and S_j = T_j - Lo_j S_{j-1}^{-1} Up_{j-1};
    ``solve`` runs forward, y_j = S_j^{-1}(g_j - Lo_j y_{j-1}), then back,
    x_j = y_j - S_j^{-1} Up_j x_{j+1}, on the work array.  A singular S_j
    raises ``np.linalg.LinAlgError``."""

    jumps = downwind = None

    def __init__(self, systems, start=None):
        n, d = systems[0].mesh.n, systems[0].tables.dof
        B, w, i = len(systems), n * d, np.arange(n)
        self.bufs = [np.zeros((B * n * n, d)) for _ in range(2)]
        self._g = [buf.reshape(B, n, w) for buf in self.bufs]
        blocks = np.empty((B, 9, 5, d, d))
        for b, system in enumerate(systems):
            st = system.stencil()
            blocks[b] = st.blocks
        cls = st.cls.reshape(n, n)
        # each cell's bottom and top block, (ordinates, rows, cells, d, d)
        self._lo, self._up = (blocks[:, cls, slot] for slot in (0, 4))
        self._sinv = np.empty((B, n, w, w))
        x0 = None if start is None else start.reshape(B, n, w)
        # blocks so large that S^{-1} overflows leave it NaN rather than
        # raise, and the solve's NaN stops the loop uncertified
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                T = np.zeros((B, n, d, n, d))
                for slot, step in ((1, -1), (2, 0), (3, 1)):  # left, own, right
                    c = i[max(-step, 0):n - max(step, 0)]
                    T[:, c, :, c + step] = blocks[:, cls[j, c], slot].swapaxes(0, 1)
                T = T.reshape(B, w, w)
                if x0 is not None:  # row j of A x0
                    px0 = self._g[1][:, j]
                    np.matmul(T, x0[:, j, :, None], out=px0[..., None])
                    if j:
                        px0 += _cells(self._lo[:, j], x0[:, j - 1])
                    if j < n - 1:
                        px0 += _cells(self._up[:, j], x0[:, j + 1])
                if j:
                    # Lo_j S_{j-1}^{-1} Up_{j-1}, d rows, then d columns at a time
                    Z = self._lo[:, j] @ self._sinv[:, j - 1].reshape(B, n, d, w)
                    columns = T.reshape(B, w, n, d).transpose(0, 2, 1, 3)
                    columns -= Z.reshape(B, w, n, d).transpose(0, 2, 1, 3) @ self._up[:, j - 1]
                if np.isfinite(T).all():
                    T = np.linalg.inv(T)
                self._sinv[:, j] = T if np.isfinite(T).all() else np.nan

    def solve(self, i):
        """Yield ``(b, x)`` per ordinate b, x = A^{-1} g as (n, nd), with g
        as for ``_Sweep.solve``."""
        g, W = self._g[i], self._g[1 - i]
        sinv, lo, up = self._sinv, self._lo, self._up
        for j in range(W.shape[1]):
            t = g[:, j] - _cells(lo[:, j], W[:, j - 1]) if j else g[:, j]
            np.matmul(sinv[:, j], t[..., None], out=W[:, j, :, None])
        for j in range(W.shape[1] - 2, -1, -1):
            W[:, j] -= (sinv[:, j] @ _cells(up[:, j], W[:, j + 1])[..., None])[..., 0]
        yield from enumerate(W)


def _cells(blocks, x):
    """Each cell's block (ordinates, n, d, d) times its rows of x
    (ordinates, nd), as (ordinates, nd)."""
    B, n, d, _ = blocks.shape
    return (blocks @ x.reshape(B, n, d, 1)).reshape(B, n * d)


class _Exact:
    """The stall fallback's exact pairs: P = A, applied by sparse LU
    (COLAMD order) of each ordinate's A, and R = 0; ``start`` and
    ``solve`` as for ``_Sweep``, with P x0 = A x0, on ``bufs`` if given,
    else on two buffers of the iterate's size.  A singular A raises
    ``np.linalg.LinAlgError``."""

    jumps = downwind = None

    def __init__(self, systems, start=None, bufs=None):
        # imported here, not with the module: SuperLU and the LAPACK it
        # loads cost about 29 MB of RSS that only a stalled run uses
        import scipy.sparse.linalg as spla

        L, C, d = len(systems), systems[0].mesh.n_cells, systems[0].tables.dof
        self.bufs = bufs or [np.zeros((L * C, d)) for _ in range(2)]
        self._g = [buf[:L * C].reshape(L, -1) for buf in self.bufs]
        # the ordinates' stencils expand to CSR through one pattern dict
        patterns, self._solves = {}, []
        for m, system in enumerate(systems):
            st = system.stencil()
            A = _filled(patterns, st, st.blocks)
            try:
                lu = spla.splu(A.tocsc())
            except RuntimeError as err:  # SuperLU's "Factor is exactly singular"
                raise np.linalg.LinAlgError(str(err)) from err
            if start is not None:
                self._g[1][m] = A @ start[m * C:(m + 1) * C].ravel()
            self._solves.append(lu.solve)

    def solve(self, i):
        """Yield ``(m, x)`` per ordinate m, x = A^{-1} g as its C d
        values, with g as for ``_Sweep.solve``."""
        for m, solve in enumerate(self._solves):
            yield m, solve(self._g[i][m])


class _Jumps:
    """WG's sweep remainder R = -(h/4)(|s_x| J_x + |s_y| J_y) of every
    ordinate, applied on the faces: J_x and J_y are the jumps <[u], [v]>
    across the vertical and the horizontal interior faces, and ``scales``
    (ordinates, 2) holds each ordinate's h|s_x|/4 and h|s_y|/4 (0 for one
    without the shift).

    The basis is nodal, so on side b of a cell only the k + 1 dofs whose
    trace is not zero there (``tables.trace``) meet the face, and E_self[b]
    and E_pair[b] are one (k + 1) x (k + 1) edge mass between the two
    sides' face dofs; the set-up checks this bit for bit and raises
    ``RuntimeError`` if it fails.  So J x is, per face, the edge mass
    times the jump of the face values, added to the dofs on one side and
    subtracted on the other.  ``subtract`` takes the ordinates a few at a
    time, about ``_CHUNK`` values of x each, so that a chunk's rows and
    the two buffers stay in cache: per face node one strided subtract of
    the two sides' values into a node-major buffer, one product with the
    edge mass, the scale per ordinate, and per side and node one strided
    add into g.  The buffer holds a row per cell, the face to its right or
    above it; a cell at a row's end, or in an ordinate's top row, has no
    such face, and its row is zeroed.
    """

    def __init__(self, tables, n, scales):
        faces = [np.flatnonzero(tables.trace[b].any(axis=0)) for b in range(4)]
        self._mass = tables.E_self[1][np.ix_(faces[1], faces[1])]
        for b in range(4):
            pair = faces[OPPOSITE_SIDE[b]]
            for E, cols in ((tables.E_self[b], faces[b]), (tables.E_pair[b], pair)):
                face = np.zeros_like(E)
                if len(faces[b]) == len(cols) == len(self._mass):
                    face[np.ix_(faces[b], cols)] = self._mass
                if not np.array_equal(E, face):
                    raise RuntimeError(f"side {b}: the edge masses are not one block "
                                       "between the face dofs")
        # (first side, second side, cell offset across) of the vertical
        # and the horizontal faces
        self._axes = [(faces[1], faces[0], 1), (faces[3], faces[2], n)]
        self._n, self._C, self._scales = n, n * n, scales
        self._per = max(1, _CHUNK // (n * n * tables.dof))
        self._bufs = np.empty((2, len(self._mass), self._per * n * n))

    def subtract(self, x, g):
        """g -= R x, both rows of d over all ordinates, ordinate-major."""
        n, C, per = self._n, self._C, self._per
        for lo in range(0, len(self._scales), per):
            scales = self._scales[lo:lo + per]
            xs, gs = x[lo * C:(lo + len(scales)) * C], g[lo * C:(lo + len(scales)) * C]
            jump, y = self._bufs[:, :, :len(xs)]
            for (first, second, off), scale in zip(self._axes, scales.T):
                for i, (p, q) in enumerate(zip(first, second)):
                    np.subtract(xs[:-off, p], xs[off:, q], out=jump[i, :-off])
                if off == 1:
                    jump[:, n - 1::n] = 0.0
                else:
                    jump.reshape(len(jump), -1, C)[:, :, C - n:] = 0.0
                np.matmul(self._mass, jump, out=y)
                y3 = y.reshape(len(y), -1, C)
                y3 *= scale[:, None]
                for i, (p, q) in enumerate(zip(first, second)):
                    np.add(gs[:-off, p], y[i, :-off], out=gs[:-off, p])
                    np.subtract(gs[off:, q], y[i, :-off], out=gs[off:, q])


class _Downwind:
    """The remainder R = A - P of the ordinates swept without a shift:
    A's blocks in the slots across the two downwind sides (DODG's jump
    penalty -c_p h E_pair; 0 for DODSD), one block per side on the whole
    grid (checked by ``_Sweep``), given as ``blocks`` (ordinates, 2, d,
    d) transposed.  So R x is, per side, x shifted by n or 1 cells times
    that block, zeroed at a row's end cells across a left or right side.
    Neighbouring ordinates with the same flow quadrant and blocks form a
    run, which ``subtract`` takes about ``_CHUNK`` values at a time."""

    def __init__(self, n, quadrant, blocks):
        C, d = n * n, blocks.shape[-1]
        self._runs = []
        for b, q in enumerate(quadrant):
            key = (q, blocks[b].tobytes())
            if self._runs and self._runs[-1][0] == key:
                self._runs[-1][2] = b + 1
            elif blocks[b].any():
                # the top or bottom, then the right or left side: the cell
                # offset across it, and the cells without a neighbour there
                # that the shift would reach across a row's end
                sides = ((-n if q & 2 else n, None),
                         (-1, slice(0, None, n)) if q & 1 else (1, slice(n - 1, None, n)))
                self._runs.append([key, b, b + 1, [(off, ends, block) for (off, ends), block
                                                   in zip(sides, blocks[b]) if block.any()]])
        self._C, self._per = C, max(1, _CHUNK // (C * d))
        self._buf = np.empty((self._per * C, d))

    def subtract(self, x, g):
        """g -= R x, both rows of d over all ordinates, ordinate-major."""
        C, per = self._C, self._per
        for _, lo, hi, sides in self._runs:
            for a in range(lo, hi, per):
                xs, gs = (v[a * C:min(a + per, hi) * C].reshape(-1, C, v.shape[1]) for v in (x, g))
                y = self._buf[:len(xs) * C].reshape(xs.shape)
                for off, ends, block in sides:
                    # the cells with a neighbour off cells on, and those neighbours
                    to = slice(max(-off, 0), C - max(off, 0))
                    at = slice(max(off, 0), C + min(off, 0))
                    np.matmul(xs[:, at], block, out=y[:, to])
                    if ends is not None:
                        y[:, ends] = 0.0
                    np.subtract(gs[:, to], y[:, to], out=gs[:, to])


# ``_Jumps`` and ``_Downwind`` take as many ordinates at a time as have
# about this many values of x together (512 KiB)
_CHUNK = 2**16


def _front_ends(blocks, end_cls):
    """The class blocks (ordinates, classes, d, d) of each front's two end
    cells, (fronts, 2, ordinates, d, d), transposed for a right multiply."""
    b = np.arange(len(blocks))[:, None, None]
    return blocks[b, end_cls].transpose(2, 1, 0, 4, 3).copy()


def _windows(slab, count):
    """Read-only view (..., count, 2d) of a work-array slab (..., columns,
    d): window c is columns c and c + 1 side by side, the bottom and left
    neighbours of column c + 1 on the next front (not ``as_strided``,
    whose views each keep about 1 kB alive)."""
    *outer, _, d = slab.shape
    owner = slab if slab.base is None else slab.base
    win = np.ndarray((*outer, count, 2 * d), slab.dtype, owner,
                     slab.ctypes.data - owner.ctypes.data, slab.strides)
    win.flags.writeable = False
    return win


# a run whose ordinates have at most this many unknowns each takes the
# exact pairs, a larger one the sweep
_EXACT_UP_TO = 600

# sweeps without a fall of the update norm after which the run gives up
# on the sweeps and switches to exact sparse LU
_STALL = 10

# an update norm at most this fraction of the field's norm is roundoff,
# whose noise does not fall, so it never counts as a stall
_ROUNDOFF = 256 * np.finfo(float).eps


def _bound(errs, residuals):
    """Iteration-error bound 2 rho/(1 - rho)*||last update||; infinite
    while rho is unknown or at least 1.

    rho/(1 - rho)*||update|| with rho the last update ratio is the
    contraction-mapping estimate, but the ratios rise as slower modes
    take over (WG's stabilizer remainder surfaces only once the
    scattering error has fallen below it), so the last ratio can
    under-estimate what is left: against tol-1e-13 solves of both cases,
    wg/dodg/dodsd, Q1/Q2, 1/h = 16 and 32, it fell short by up to 4.1x.
    The residual ratio sees such a mode a sweep or two earlier.  Taking
    rho as the larger of the last update and residual ratios, and
    doubling the estimate, kept the bound at least 1.4x above the true
    error at every sweep of those runs.
    """
    if errs[-1] == 0.0:
        return 0.0
    if len(errs) < 2 or not residuals[-2]:
        return np.inf
    rho = max(errs[-1] / errs[-2], residuals[-1] / residuals[-2])
    if rho >= 1.0:
        return np.inf
    return 2.0 * rho / (1.0 - rho) * errs[-1]


def _fused_sweep(systems, kernel, quad, pinv, x, i, folded):
    """One sweep of every ordinate from the iterate ``x``, rows of d: g =
    b + S x - R x (WG's on the faces, ``_Jumps``, the others on the grid,
    ``_Downwind``) is formed in the first rows of
    ``pinv.bufs[i]``, the next sweep's previous g, g_prev - g in those of
    the other, which then serves as the work array while P^{-1} g
    overwrites x ordinate by ordinate and each one's update norm is taken
    on the way.  Returns the residual's sums ||g - g_prev||^2 =
    ||b + S x - A x||^2 (as P x = g_prev) and ||b + S x||^2, which count
    the first ordinate twice if the run is ``folded`` (``_fold``), and
    the update's norm (``l2_dom_norm``)."""
    mesh, tables, B = systems[0].mesh, systems[0].tables, len(systems)
    g, g_prev = (buf[:len(x)].reshape(B, -1) for buf in (pinv.bufs[i], pinv.bufs[1 - i]))
    field = x.reshape(B, mesh.n_cells, -1)
    scattering_source(systems, kernel, quad, field, out=g.reshape(field.shape))
    for m, system in enumerate(systems):
        g[m] += system.rhs_fixed
    den = np.vdot(g, g) + (np.vdot(g[0], g[0]) if folded else 0)
    for R in (pinv.jumps, pinv.downwind):
        if R is not None:
            R.subtract(x, g.reshape(x.shape))
    np.subtract(g_prev, g, out=g_prev)
    num = np.vdot(g_prev, g_prev) + (np.vdot(g_prev[0], g_prev[0]) if folded else 0)
    vol = np.empty(B)
    for m, new in pinv.solve(i):
        xm, new = field[m], new.reshape(field[m].shape)
        np.subtract(new, xm, out=xm)  # the update, then the new iterate
        vol[m] = np.vdot(xm @ tables.M, xm)
        xm[...] = new
    return num, den, float(np.sqrt(np.sum(quad.weights * mesh.h**2 * vol)))


def _fold(systems, kernel, quad):
    """The run without the trapezoid rule's repeated endpoint.

    If the last ordinate repeats the first, its direction vector, scheme,
    medium and inflow sign, its kernel row and column and its right side
    all equal bit for bit (theta = 2 pi and theta = 0), the run is the
    first L - 1 ordinates, the first weighted by both; else it is the
    given run.  Returns ``(reps, group, systems, kernel, quad)``: the
    run's ordinates, each given ordinate's row in the run, and the run's
    systems, kernel and quadrature.
    """
    K, first, last = kernel.matrix, systems[0], systems[-1]
    reps = group = np.arange(len(systems))
    if not (len(systems) > 1 and first.direction.tobytes() == last.direction.tobytes()
            and (first.scheme, first.medium, first.inflow_sign)
            == (last.scheme, last.medium, last.inflow_sign)
            and np.array_equal(K[0], K[-1]) and np.array_equal(K[:, 0], K[:, -1])
            and np.array_equal(first.rhs_fixed, last.rhs_fixed)):
        return reps, group, systems, kernel, quad
    reps, group = reps[:-1], np.append(reps[:-1], 0)
    folded = AngularQuadrature(quad.thetas[reps], np.bincount(group, weights=quad.weights),
                               quad.vectors[reps])
    kernel = replace(kernel, matrix=K[np.ix_(reps, reps)], row_mass=kernel.row_mass[reps])
    return reps, group, [systems[r] for r in reps], kernel, folded


def source_iteration(systems, kernel, quad, cfg=None, certify=None, start=None):
    """Run the fused sweep-scattering loop over all direction systems.

    Returns ``(field, trace)`` with ``field`` of shape (L, C, dof).  A
    last ordinate that repeats the first (``_fold``), as the trapezoid
    rule's theta = 2 pi repeats theta = 0, rides on the first, and its
    row of the field is filled from the first's once, at the end.  It
    starts from zero, or from ``start`` (float64, shape (L, C, dof)):
    that array is the returned field, filled once at the end, and each
    ordinate's P x0 is formed with its pair, so the first residual is
    that of ``start`` and the stop is the same as from zero.  It stops
    once the iteration-error bound and the coupled relative residual are
    both at most ``cfg.tol``.  If ``certify`` is given, ``certify(field,
    quad)`` maps the loop's field over its ordinates and their quadrature
    to a target for the bound; while the bound is above it, the loop
    resumes with the target as its tolerance.
    Running out of ``cfg.max_outer`` sweeps, or an update norm or
    residual that is not finite, is flagged in the trace rather than
    raised; the partial field is still returned.  The trace counts every
    ordinate, a repeated last one too, in ``escalated``.
    """
    cfg = cfg or SourceIterationConfig()
    if len(systems) != len(quad):
        raise ValueError("one system per quadrature ordinate is required")
    L, C, d = len(systems), systems[0].mesh.n_cells, systems[0].tables.dof
    if start is not None and (start.shape != (L, C, d) or start.dtype != np.float64):
        raise ValueError(f"start field must be float64 of shape {(L, C, d)}, "
                         f"got {start.dtype} of shape {start.shape}")
    reps, group, systems, kernel, quad = _fold(systems, kernel, quad)
    field, trace = _loop(systems, kernel, quad, cfg, certify, start, reps, group)
    if start is not None or len(reps) < L:
        # the loop's other buffers are freed by now
        field = np.take(field, group, axis=0, out=start, mode="clip")
    return field, trace


def _loop(systems, kernel, quad, cfg, certify, start, reps, group):
    """``source_iteration`` on the folded run (``_fold``), from the
    run's rows of ``start`` if given; returns the loop's own field and
    the trace.  The residual and the escalation count every ordinate,
    the first twice if the run folded the last onto it (L > B)."""
    mesh, tables = systems[0].mesh, systems[0].tables
    L, B, C, d = len(group), len(systems), mesh.n_cells, tables.dof

    # the iterate as rows of d; g and the previous g are in the pairs'
    # two buffers, g in pinv.bufs[i], and swap every sweep
    x = np.zeros((B * C, d))
    field = x.reshape(B, C, d)
    if start is not None:
        np.take(start, reps, axis=0, out=field, mode="clip")
    pinv = (_Rows if systems[0].n_dof <= _EXACT_UP_TO else _Sweep)(
        systems, None if start is None else x)
    i, errs, residuals = 0, [], []
    tol = cfg.tol
    converged, escalated = False, 0
    bound = residual = np.inf
    while len(errs) < cfg.max_outer:
        num, den, err = _fused_sweep(systems, kernel, quad, pinv, x, i, L > B)
        i = 1 - i
        residual = float(np.sqrt(num / den)) if num else 0.0
        residuals.append(residual)
        errs.append(err)
        bound = _bound(errs, residuals)
        if not np.isfinite(errs[-1] + residual):
            break  # the field overflowed: stop uncertified
        if bound <= tol and residual <= tol:
            target = tol if certify is None else certify(field, quad)
            if bound <= target:
                converged = True
                break
            tol = target
        elif (
            # after the switch no ordinate has a remainder: it happens once
            (pinv.jumps is not None or pinv.downwind is not None)
            and len(errs) > _STALL and errs[-1] >= errs[-1 - _STALL]
            and errs[-1] > _ROUNDOFF * l2_dom_norm(mesh, tables, quad, field)
        ):
            warnings.warn(
                f"update norm {errs[-1]:.3e} has not fallen in {_STALL} "
                f"sweeps; switching {L} of {L} ordinates to sparse LU",
                RuntimeWarning, stacklevel=3,
            )
            # the previous g becomes A x, as the exact pairs take P = A,
            # in the same two buffers, of which nothing else is kept
            pinv, i = _Exact(systems, x, pinv.bufs), 0
            escalated = L
    return field, IterationTrace(errs, converged, bound, residual, escalated)

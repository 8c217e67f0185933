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

Each ordinate is the pair (P_m^{-1}, R_m), built once before the first
sweep (``_pairs``), with R_m None when P_m = A_m.  At desk scale that is
the exact pair, sparse LU of A_m (``_exact``).  Above that it is the
wavefront sweep (``_SweepSolve``): ordering cells by upwind distance
makes each transport matrix block lower triangular up to a weak
downwind remainder (the DODG jump penalty; WG sweeps its matrix plus its
own stabilizer, the penalty-free upwind operator, and leaves the
stabilizer as the remainder), and the streamline-diffusion systems are
exactly triangular in that order (R_m = 0).  A sweep ordinate holds
D^{-1} per cell class, the unit lower triangular M = D^{-1}(D + L) and
R_m, cut straight from the block stencil; the assembled A_m is never
formed.
The stencil holds one block row per cell class (at most nine on the
uniform grid), so the set-up works on class blocks and fills M and R
into sparsity patterns that the ordinates of a run share.  A
run whose update norms stop falling, while still above roundoff,
switches once, with a RuntimeWarning, to the exact pair for every
ordinate with a remainder, and counts them in
``IterationTrace.escalated``.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

# the benchmark's tracer (perfbench/tracing.py) patches these three names here
from .assembly import assemble_direction, l2_dom_norm, scattering_source  # noqa: F401
from .assembly import _sweep_shift
from .reporting import _with_stream

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
    of ordinates the run escalated from the sweep to sparse LU."""

    errs: list
    converged: bool
    bound: float = np.inf
    residual: float = np.inf
    escalated: int = 0

    @property
    def iterations(self):
        return len(self.errs)

    def to_csv(self, target):
        def write(stream):
            stream.write("iteration,err\n")
            for i, e in enumerate(self.errs, start=1):
                stream.write(f"{i},{e:.6g}\n")

        _with_stream(target, write)


@functools.lru_cache(maxsize=4)
def _empty_csc(n):
    """An n x n CSC matrix with no entries: the U of ``_unit_lower_solve``."""
    return sp.csc_matrix((n, n))


def _unit_lower_solve(M, b):
    """z with M z = b, for M unit lower triangular in CSC with its unit
    diagonal stored and int32 indices.

    This is the SuperLU ``gstrs`` call that ``spsolve_triangular`` ends
    in, made on M's own arrays with a cached empty U, without that
    wrapper's per-call O(N) ``setdiag`` and new U.
    """
    n = M.shape[0]
    U = _empty_csc(n)
    z, info = _superlu.gstrs(
        "N", n, M.nnz, M.data, M.indices, M.indptr,
        n, 0, U.data, U.indices, U.indptr, b,
    )
    if info:
        raise np.linalg.LinAlgError("singular triangular sweep matrix")
    return z


def _pattern(acc, nonzero, rank=None):
    """(indices, indptr, take) of the matrix that class blocks on the
    stencil ``acc`` expand to, less the entries ``nonzero`` marks 0 in
    their class: CSR in natural order, or with ``rank`` CSC with cell c
    renumbered rank[c].  Its data is ``np.take(blocks, take)`` of the
    class blocks.

    The conversion runs on 1 + each entry's position in the class blocks
    (0 where it is 0) in place of the values.  Its result is canonical
    (sorted, no duplicates, no zeros), as the values' own conversion is,
    so it has their pattern and order.  The index arrays are made
    read-only, since several ordinates' matrices share them.
    """
    ids = np.arange(1, nonzero.size + 1, dtype=np.intc).reshape(nonzero.shape)
    A = acc.tocsr(ids * nonzero)
    A.eliminate_zeros()
    if rank is not None:
        A = A.tocoo()
        dof = (rank[:, None] * acc.d + np.arange(acc.d)).ravel()
        A = sp.csc_matrix((A.data, (dof[A.row], dof[A.col])), shape=A.shape)
    indices, indptr = A.indices.astype(np.intc), A.indptr.astype(np.intc)
    indices.flags.writeable = indptr.flags.writeable = False
    return indices, indptr, A.data.astype(np.intp) - 1


def _filled(patterns, acc, values, front=None):
    """``values``, class blocks on the stencil ``acc``, as the matrix they
    expand to without its zero entries: CSR in natural order, or CSC in
    the front order ``patterns[front]``.  Its pattern is computed once
    per key in ``patterns`` and shared by every matrix with that key."""
    nonzero = values != 0
    key = (front, len(acc.cls), nonzero.shape, nonzero.tobytes())
    if key not in patterns:
        rank = None if front is None else patterns[front][1]
        patterns[key] = _pattern(acc, nonzero, rank)
    indices, indptr, take = patterns[key]
    size = len(acc.cls) * acc.d
    kind = sp.csr_matrix if front is None else sp.csc_matrix
    return kind((np.take(values, take), indices, indptr), shape=(size, size))


class _SweepSolve:
    """Wavefront sweep for one ordinate: P^{-1} and the remainder R of
    the split A = P + R.

    Cells are ranked by upwind distance l = i' + j' with the primed
    indices counted along the flow, so of a cell's four edge neighbours
    the two upwind ones sit on the previous front and the two downwind
    ones on the next (ties count left and bottom as upwind).  On the
    block stencil of A, plus for WG its stabilizer once more
    (``assembly._sweep_shift``), P = D + L takes each cell's own and
    upwind blocks, and R = A - P is the rest: for WG the downwind blocks
    and minus the stabilizer's own and upwind blocks, for DODG the
    downwind jump-penalty blocks, for DODSD nothing.

    The ordinate holds three things, built straight from the stencil
    slots: D^{-1} per cell class; ``M`` = D^{-1}(D + L), unit lower
    triangular once the cells are renumbered front by front, as CSC with
    its unit diagonal stored; and ``R`` as CSR in natural order, None
    when it is 0.  D^{-1} is ``_bulk``, the block of the class that
    covers the most cells, transposed for a right multiply, and
    ``_edge_dinv``, the blocks of the other cells, at the front
    positions ``_edge``: with a constant sigma_t those are the 4n - 4
    boundary cells, with a callable one all cells but one.
    ``_forward`` applies P^{-1} as one matrix product with ``_bulk``,
    the edge cells' own scaling over it and one triangular solve with M
    (``_unit_lower_solve``), O(nnz) in time and memory; with ``R`` it is
    the ordinate's pair.  Given ``start``, one ordinate's start field x0
    as a flat array, the set-up overwrites it with P x0 = D (M x0), from
    the class blocks of D while they are in hand, so that neither D nor A
    is kept or assembled.

    The stencil and the WG shift hold one block row per cell class (nine
    with a constant sigma_t, ``assembly._class_grid``), so the set-up
    works on class-sized data: per class it inverts one diagonal block
    and forms at most two D^{-1} L blocks, and it fills M and R by one
    gather each into a sparsity pattern.  ``patterns`` is a dict the
    caller keeps for one run: a pattern is computed once per key (the
    grid, for M the quadrant, and the nonzero entries of the class
    blocks, which are 0 outside the touched slots), and the ordinates
    with that key share its read-only ``indices`` and ``indptr``, as
    those of a quadrant share its front order and ``_edge``.  Every
    array equals, bit for bit, what one ordinate's per-cell blocks
    convert to on their own.
    """

    def __init__(self, system, patterns, start=None):
        n, d = system.mesh.n, system.tables.dof
        sx, sy = system.direction
        front = (n, bool(sx >= 0), bool(sy >= 0))
        if front not in patterns:
            idx = np.arange(n)
            ip = idx if sx >= 0 else idx[::-1]
            jp = idx if sy >= 0 else idx[::-1]
            # renumber the cells front by front: new index rank[c], old order[p]
            order = np.argsort((jp[:, None] + ip[None, :]).ravel(), kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(n * n)
            order.flags.writeable = rank.flags.writeable = False
            patterns[front] = order, rank
        order, rank = patterns[front]

        # stencil slots (bottom, left, own, right, top): the upwind two,
        # then own; every block below is per cell class
        acc = system.stencil()
        upwind = [0 if sy >= 0 else 4, 1 if sx >= 0 else 3]
        kept = upwind + [2]
        P = acc.blocks[:, kept]
        shift = _sweep_shift(system)
        if shift is not None:
            P += shift.blocks[:, kept]
        dinv = np.linalg.inv(P[:, 2])

        # M on the stencil: the identity, then D^{-1} L in the upwind slots
        lower = np.zeros_like(acc.blocks)
        lower[:, 2] = np.eye(d)
        for j, slot in enumerate(upwind):
            t = np.nonzero(acc.touched[:, slot])[0]
            lower[t, slot] = dinv[t] @ P[t, j]
        # R = A - P: in the own and upwind slots minus the shift, or 0
        acc.blocks[:, kept] -= P
        # D^{-1} per class: the bulk class's block for one right multiply,
        # and the blocks of the other cells at their front positions; the
        # grid and the class count fix the cell -> class map
        key = (front, len(dinv))
        if key not in patterns:
            cls = acc.cls[order]
            bulk = np.argmax(np.bincount(cls))
            edge = np.nonzero(cls != bulk)[0]
            edge.flags.writeable = False
            patterns[key] = bulk, edge
        bulk, edge = patterns[key]
        self.d = d
        self.M = _filled(patterns, acc, lower, front)
        self.R = _filled(patterns, acc, acc.blocks) if acc.blocks.any() else None
        self._bulk = dinv[bulk].T.copy()
        self._edge = edge
        self._edge_dinv = dinv[acc.cls[order[edge]]]
        self._order = order
        self._rank = rank
        if start is not None:
            D = P[:, 2]
            z = (self.M @ start.reshape(-1, d)[order].ravel()).reshape(-1, d)
            start[:] = _by_class(z, D[bulk].T, edge, D[acc.cls[order[edge]]])[rank].ravel()

    def _forward(self, g):
        """Apply (D + L)^{-1}: scale by D^{-1}, then solve with the unit
        lower triangular M in front order."""
        d = self.d
        g = np.reshape(g, (-1, d))[self._order]
        y = _by_class(g, self._bulk, self._edge, self._edge_dinv)
        z = _unit_lower_solve(self.M, y.ravel())
        return z.reshape(-1, d)[self._rank].ravel()


def _by_class(v, bulk, edge, blocks):
    """Each cell's block of ``v`` (one row per cell, in front order) times
    its class block: ``bulk`` (transposed, for a right multiply) for every
    cell, then ``blocks`` in place of it at the front positions ``edge``."""
    y = v @ bulk
    y[edge] = np.einsum("cij,cj->ci", blocks, v[edge])
    return y


# ordinates with at most this many unknowns are solved exactly, the
# larger ones swept
_EXACT_UP_TO = 600

# sweeps without a fall of the update norm after which the run gives up
# on the sweeps and switches to exact sparse LU
_STALL = 10

# an update norm at most this fraction of the field's norm is roundoff,
# whose noise does not fall, so it never counts as a stall
_ROUNDOFF = 256 * np.finfo(float).eps


def _exact(system, x=None):
    """The exact pair of the system's matrix A: sparse LU's solve (COLAMD
    order) as P^{-1}, and R = None (P = A).  Given ``x``, one ordinate's
    field as a flat array, it is overwritten with A x.  A singular A
    raises ``np.linalg.LinAlgError``."""
    A = system.matrix
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as err:  # SuperLU's "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(err)) from err
    if x is not None:
        x[:] = A @ x
    return lu.solve, None


def _pairs(systems, start=None):
    """Each ordinate's (P^{-1}, R): exact up to ``_EXACT_UP_TO``
    unknowns, the wavefront sweep above.

    ``start``, if given, holds a start field x0 as (L, C*dof) rows; row m
    is overwritten with P_m x0[m], from the matrix the exact pair factors
    (P = A) or from the sweep's class blocks.
    """
    pairs = []
    # the sweeps' sparsity patterns, shared by the ordinates of this run
    patterns = {}
    for m, s in enumerate(systems):
        x0 = None if start is None else start[m]
        if s.n_dof <= _EXACT_UP_TO:
            pairs.append(_exact(s, x0))
        else:
            sw = _SweepSolve(s, patterns, x0)
            pairs.append((sw._forward, sw.R))
    return pairs


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


def source_iteration(systems, kernel, quad, cfg=None, certify=None, start=None):
    """Run the fused sweep-scattering loop over all direction systems.

    Returns ``(field, trace)`` with ``field`` of shape (L, C, dof).  The
    loop starts from zero, or from ``start`` (shape (L, C, dof)): that
    array becomes the iterate and is overwritten, and each ordinate's
    P x0 is formed with its pair, so the first residual is that of
    ``start`` and the stop is the same as from zero.  It stops once the
    iteration-error bound and the coupled relative residual are both at
    most ``cfg.tol``.  If
    ``certify`` is given, it maps that field to a target for the bound;
    while the bound is above it, the loop resumes with the target as its
    tolerance.  Running out of ``cfg.max_outer`` sweeps, or an update
    norm or residual that is not finite, is flagged in the trace rather
    than raised; the partial field is still returned.
    """
    cfg = cfg or SourceIterationConfig()
    sys0 = systems[0]
    mesh, tables = sys0.mesh, sys0.tables
    L = len(systems)
    C = mesh.n_cells
    d = tables.dof
    if L != len(quad):
        raise ValueError("one system per quadrature ordinate is required")

    # g of the previous sweep, which P x solves for the current field
    if start is None:
        pairs = _pairs(systems)
        field, g_prev = np.zeros((L, C, d)), np.zeros((L, C * d))
    else:
        if start.shape != (L, C, d):
            raise ValueError(f"start field must have shape {(L, C, d)}, got {start.shape}")
        field, g_prev = start, start.reshape(L, C * d).copy()
        pairs = _pairs(systems, g_prev)
    errs, residuals = [], []
    tol = cfg.tol
    converged = switched = False
    escalated = 0
    bound = residual = np.inf
    while len(errs) < cfg.max_outer:
        # each ordinate's update overwrites the scattering row it came from
        update = scattering_source(systems, kernel, quad, field)
        num = den = 0.0
        for m, (s, (solve, R)) in enumerate(zip(systems, pairs)):
            rhs = s.rhs_fixed + update[m].ravel()
            g = rhs if R is None else rhs - R @ field[m].ravel()
            r = g - g_prev[m]  # = rhs - A x, as P x = g_prev
            num += r @ r
            den += rhs @ rhs
            g_prev[m] = g
            x = solve(g).reshape(C, d)
            update[m] = x - field[m]
            field[m] = x
        residual = float(np.sqrt(num / den)) if num else 0.0
        residuals.append(residual)
        errs.append(l2_dom_norm(mesh, tables, quad, update))
        bound = _bound(errs, residuals)
        if not np.isfinite(errs[-1] + residual):
            break  # the field overflowed: stop uncertified
        if bound <= tol and residual <= tol:
            target = tol if certify is None else certify(field)
            if bound <= target:
                converged = True
                break
            tol = target
        elif (
            not switched and len(errs) > _STALL and errs[-1] >= errs[-1 - _STALL]
            and errs[-1] > _ROUNDOFF * l2_dom_norm(mesh, tables, quad, field)
        ):
            switched = True
            inexact = [m for m, (_, R) in enumerate(pairs) if R is not None]
            if inexact:
                warnings.warn(
                    f"update norm {errs[-1]:.3e} has not fallen in {_STALL} "
                    f"sweeps; switching {len(inexact)} of {L} ordinates to "
                    "sparse LU", RuntimeWarning, stacklevel=2,
                )
                for m in inexact:
                    g_prev[m] = field[m].ravel()
                    pairs[m] = _exact(systems[m], g_prev[m])
                escalated = len(inexact)
    return field, IterationTrace(errs, converged, bound, residual, escalated)

"""Source iteration: one fused sweep-scattering loop over all ordinates.

The discrete ordinates are coupled only through scattering.  Each
ordinate's system splits as A_m = P_m + R_m, P_m the part it inverts and
R_m the remainder.  Starting from the zero field, each sweep forms
g_m = b_m + S_m x - R_m x_m from the current field (b_m the fixed right
side, S_m x the lagged scattering source) and sets x_m = P_m^{-1} g_m.
This is the transport-sweep form of Adams & Larsen, "Fast iterative
methods for discrete-ordinates particle transport calculations", Prog.
Nucl. Energy 40 (2002).  As P_m x_m is the previous sweep's g_m (and
g = 0 before the first), the residual b_m + S_m x - A_m x_m of the
current field is g_m minus its previous value, so it costs no product
with A_m.  A positive margin sigma_t - sigma_s*max b_m makes the map
contract, and the ratio rho of successive update norms (angularly
weighted broken L2) and residuals bounds the remaining iteration error
by a multiple of rho/(1 - rho) times the last update norm (``_bound``).
The loop stops when that bound and the coupled relative residual
||r|| / ||b + S x|| are both at most the tolerance; rho >= 1 means no
stop.

Each ordinate's split is set up on the first sweep and kept.  At desk
scale P_m = A_m, factored by dense LU.  Above that it is the wavefront
sweep (``_SweepSolve``): ordering cells by upwind distance makes each
transport matrix block lower triangular up to a weak downwind remainder
(the DODG jump penalty; WG sweeps its matrix plus its own stabilizer,
the penalty-free upwind operator, and leaves the stabilizer as the
remainder), and the streamline-diffusion systems are exactly triangular
in that order (R_m = 0).  A sweep ordinate holds D^{-1}, the unit lower
triangular M = D^{-1}(D + L) and R_m, cut straight from the block
stencil; the assembled A_m is never formed.  A run whose update norms
stop falling switches once, with a RuntimeWarning, to exact sparse LU
(P_m = A_m) for every ordinate with a remainder, and counts them in
``IterationTrace.escalated``.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
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
        if not self.tol > 0:
            raise ValueError("outer tolerance must be positive")
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
    slots: ``dinv``, the cell blocks of D^{-1} in front order; ``M`` =
    D^{-1}(D + L), unit lower triangular once the cells are renumbered
    front by front, as CSC with its unit diagonal stored; and ``R`` as
    CSR in natural order, None when it is 0 (``exact``).  ``_forward``
    applies P^{-1} as a D^{-1} scaling and one triangular solve with M
    (``_unit_lower_solve``), O(nnz) in time and memory.
    """

    def __init__(self, system):
        mesh = system.mesh
        n, C, d = mesh.n, mesh.n_cells, system.tables.dof
        sx, sy = system.direction
        idx = np.arange(n)
        ip = idx if sx >= 0 else idx[::-1]
        jp = idx if sy >= 0 else idx[::-1]
        front = (jp[:, None] + ip[None, :]).ravel()  # cell index is j*n + i
        # renumber the cells front by front: new index rank[c], old order[p]
        order = np.argsort(front, kind="stable")
        rank = np.empty(C, dtype=np.intp)
        rank[order] = np.arange(C)

        # stencil slots (bottom, left, own, right, top): the upwind two, then own
        acc = system.stencil()
        upwind = [0 if sy >= 0 else 4, 1 if sx >= 0 else 3]
        kept = upwind + [2]
        P = acc.blocks[:, kept]
        shift = _sweep_shift(system)
        shifted = shift is not None
        if shifted:
            P += shift.blocks[:, kept]
            del shift
        dinv = np.linalg.inv(P[:, 2])

        # M in front order, built block-wise with its identity diagonal
        # blocks inline and kept as CSC, the layout gstrs solves with
        r, c, blocks = [rank], [rank], [np.broadcast_to(np.eye(d), (C, d, d))]
        for j, slot in enumerate(upwind):
            cells = np.nonzero(acc.touched[:, slot])[0]
            r.append(rank[cells])
            c.append(rank[cells + acc.offsets[slot]])
            blocks.append(dinv[cells] @ P[cells, j])
        r, c, blocks = np.concatenate(r), np.concatenate(c), np.concatenate(blocks)
        perm = np.lexsort((c, r))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=C))))
        M = sp.bsr_matrix((blocks[perm], c[perm], indptr), shape=(C * d, C * d)).tocsc()
        del blocks
        M.eliminate_zeros()
        M.sort_indices()
        M.indices = M.indices.astype(np.intc, copy=False)
        M.indptr = M.indptr.astype(np.intc, copy=False)

        # R = A - P on the stencil: the own and upwind slots drop out
        # unless the sweep shifted them
        if shifted:
            acc.blocks[:, kept] -= P
        else:
            acc.touched[:, kept] = False
        del P
        R = acc.tocsr()
        R.eliminate_zeros()
        self.d = d
        self.M = M
        self.R = R if R.nnz else None
        self.dinv = dinv[order]
        self._order = order
        self._rank = rank

    @property
    def exact(self):
        """True when P is the system matrix itself (R = 0)."""
        return self.R is None

    def _forward(self, g):
        """Apply (D + L)^{-1}: scale by D^{-1}, then solve with the unit
        lower triangular M in front order."""
        d = self.d
        y = np.einsum("cij,cj->ci", self.dinv, np.reshape(g, (-1, d))[self._order]).ravel()
        z = _unit_lower_solve(self.M, y)
        return z.reshape(-1, d)[self._rank].ravel()


class _CachedSolve:
    """One ordinate's split A = P + R, set up on first use and kept
    across sweeps: ``step`` applies P^{-1}, ``right_side`` forms
    g = rhs - R x.

    Dense LU of the lazily assembled system up to ``_DENSE_CACHED``
    unknowns (P = A, R = 0), the wavefront sweep above that, and exact
    sparse LU of the system after ``to_splu`` (P = A, R = 0).  Only the
    dense kind and the fallback assemble A, and neither keeps it.
    """

    # one factor is cached per ordinate, so dense LU stays at desk scale
    _DENSE_CACHED = 600

    def __init__(self, system):
        self.system = system
        self.kind = None
        self._fac = None

    def _ensure(self):
        if self.kind is not None:
            return
        s = self.system
        if s.n_dof <= self._DENSE_CACHED:
            self.kind = "dense"
            self._fac = sla.lu_factor(s.matrix.toarray())
            return
        self.kind = "sweep"
        self._fac = _SweepSolve(s)

    @property
    def exact(self):
        """True when P is the system matrix itself."""
        self._ensure()
        return self.kind != "sweep" or self._fac.exact

    def to_splu(self, x):
        """Switch to exact sparse LU; returns A x, the right side the
        current field solves under the new split."""
        A = self.system.matrix
        self.kind = "splu"
        self._fac = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        return A @ x

    def right_side(self, rhs, x):
        """g = rhs - R x."""
        self._ensure()
        if self.kind != "sweep" or self._fac.R is None:
            return rhs
        return rhs - self._fac.R @ x

    def step(self, g):
        """P^{-1} g."""
        self._ensure()
        if self.kind == "dense":
            return sla.lu_solve(self._fac, g)
        if self.kind == "sweep":
            return self._fac._forward(g)
        return self._fac.solve(g)


# sweeps without a fall of the update norm after which the run gives up
# on the sweeps and switches to exact sparse LU
_STALL = 10


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


def source_iteration(systems, kernel, quad, cfg=None, certify=None):
    """Run the fused sweep-scattering loop over all direction systems.

    Returns ``(field, trace)`` with ``field`` of shape (L, C, dof).  The
    loop starts from zero and stops once the iteration-error bound and
    the coupled relative residual are both at most ``cfg.tol``.  If
    ``certify`` is given, it maps that field to a target for the bound;
    while the bound is above it, the loop resumes with the target as its
    tolerance.  Running out of ``cfg.max_outer`` sweeps is flagged in the
    trace rather than raised; the partial field is still returned.
    """
    cfg = cfg or SourceIterationConfig()
    sys0 = systems[0]
    mesh, tables = sys0.mesh, sys0.tables
    L = len(systems)
    C = mesh.n_cells
    d = tables.dof
    if L != len(quad):
        raise ValueError("one system per quadrature ordinate is required")

    solvers = [_CachedSolve(s) for s in systems]
    field = np.zeros((L, C, d))
    # g of the previous sweep, which P x solves for the current field
    g_prev = np.zeros((L, C * d))
    errs, residuals = [], []
    tol = cfg.tol
    converged = switched = False
    escalated = 0
    bound = residual = np.inf
    while len(errs) < cfg.max_outer:
        # each ordinate's update overwrites the scattering row it came from
        update = scattering_source(systems, kernel, quad, field)
        num = den = 0.0
        for m, (s, solver) in enumerate(zip(systems, solvers)):
            rhs = s.rhs_fixed + update[m].ravel()
            g = solver.right_side(rhs, field[m].ravel())
            r = g - g_prev[m]  # = rhs - A x, as P x = g_prev
            num += r @ r
            den += rhs @ rhs
            g_prev[m] = g
            x = solver.step(g).reshape(C, d)
            update[m] = x - field[m]
            field[m] = x
        residual = float(np.sqrt(num / den)) if num else 0.0
        residuals.append(residual)
        errs.append(l2_dom_norm(mesh, tables, quad, update))
        bound = _bound(errs, residuals)
        if bound <= tol and residual <= tol:
            target = tol if certify is None else certify(field)
            if bound <= target:
                converged = True
                break
            tol = target
        elif not switched and len(errs) > _STALL and errs[-1] >= errs[-1 - _STALL]:
            switched = True
            inexact = [m for m, sv in enumerate(solvers) if not sv.exact]
            if inexact:
                warnings.warn(
                    f"update norm {errs[-1]:.3e} has not fallen in {_STALL} "
                    f"sweeps; switching {len(inexact)} of {L} ordinates to "
                    "sparse LU", RuntimeWarning, stacklevel=2,
                )
                for m in inexact:
                    g_prev[m] = solvers[m].to_splu(field[m].ravel())
                escalated = len(inexact)
    return field, IterationTrace(errs, converged, bound, residual, escalated)

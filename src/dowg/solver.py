"""Source iteration: one fused sweep-scattering loop over all ordinates.

The discrete ordinates are coupled only through scattering.  Starting
from the zero field, each sweep forms every ordinate's residual
r_m = b_m + S_m x - A_m x_m from the current field (b_m the fixed right
side, S_m x the lagged scattering source, A_m the ordinate's system) and
adds P_m^{-1} r_m.  This is the transport-sweep form of Adams & Larsen,
"Fast iterative methods for discrete-ordinates particle transport
calculations", Prog. Nucl. Energy 40 (2002).  A positive margin
sigma_t - sigma_s*max b_m makes the map contract, and the ratio rho of
successive update norms (angularly weighted broken L2) and residuals
bounds the remaining iteration error by a multiple of rho/(1 - rho)
times the last update norm (``_bound``).  The loop stops when that bound
and the coupled relative residual ||r|| / ||b + S x|| are both at most
the tolerance; rho >= 1 means no stop.

Each ordinate's P_m is set up on the first sweep and kept.  At desk
scale it is A_m, factored by dense LU.  Above that it is the block lower
part D + L of ``assembly.sweep_matrix`` in upwind order: ordering cells
by upwind distance makes each transport matrix block lower triangular
up to a weak downstream-pointing remainder (the DODG jump penalty; WG
sweeps its matrix plus its own stabilizer, the penalty-free upwind
operator, and leaves the stabilizer as the remainder).  With the cells
renumbered front by front, applying (D + L)^{-1} is a D^{-1} scaling
and one compiled sparse triangular solve with the unit lower triangular
D^{-1}(D + L).  The streamline-diffusion systems are exactly triangular
in that order, so their P_m is A_m.  A run whose update norms stop
falling switches once, with a RuntimeWarning, to exact sparse LU for
every ordinate whose P_m is not A_m.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the benchmark's tracer (perfbench/tracing.py) patches these three names here
from .assembly import assemble_direction, l2_dom_norm, scattering_source  # noqa: F401
from .assembly import sweep_matrix
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
    """Per-sweep update norms, the convergence flag, and the last
    iteration-error bound and coupled relative residual."""

    errs: list
    converged: bool
    bound: float = np.inf
    residual: float = np.inf

    @property
    def iterations(self):
        return len(self.errs)

    def to_csv(self, target):
        def write(stream):
            stream.write("iteration,err\n")
            for i, e in enumerate(self.errs, start=1):
                stream.write(f"{i},{e:.6g}\n")

        _with_stream(target, write)


class _SweepSolve:
    """Wavefront solve for one transport direction.

    Cells are ranked by upwind distance l = i' + j' with the primed
    indices counted along the flow; edge neighbours always sit in
    adjacent fronts.  The preconditioner (``assembly.sweep_matrix``: the
    matrix itself for DODG and DODSD; for WG, whose own lower part
    amplifies, the WG matrix plus its stabilizer) is split into diagonal
    cell blocks D plus the coupling L to the at most two upstream
    neighbours.  With the cells renumbered front by front, every
    coupling in L points to an earlier front, so M = D^{-1}(D + L) is
    unit lower triangular.  ``_forward`` applies P^{-1} = (D + L)^{-1} as
    a D^{-1} scaling and one compiled sparse triangular solve with M,
    O(nnz) in time and memory.  ``exact`` is true when P is the system
    matrix itself, with no downstream coupling left over.
    """

    def __init__(self, A, d, mesh, direction, precond=None):
        self.d = d
        n = mesh.n
        C = mesh.n_cells
        if A.shape[0] != C * d:
            raise ValueError("system size does not match mesh/block size")
        sx, sy = np.asarray(direction, dtype=float)
        idx = np.arange(n)
        ip = idx if sx >= 0 else idx[::-1]
        jp = idx if sy >= 0 else idx[::-1]
        front = (jp[:, None] + ip[None, :]).ravel()  # cell index is j*n + i

        P = sp.csr_matrix(A if precond is None else precond)
        if P.shape != A.shape:
            raise ValueError("preconditioner shape does not match the system")
        B = P.tobsr(blocksize=(d, d))
        rows = np.repeat(np.arange(C), np.diff(B.indptr))
        cols = B.indices
        diag = rows == cols
        if np.count_nonzero(diag) != C:
            raise ValueError("every cell needs a diagonal block")
        gap = front[cols] - front[rows]
        if np.any(gap[~diag] == 0):
            raise ValueError("same-front coupling breaks the triangular sweep")
        self.exact = (precond is None or precond is A) and not np.any(B.data[gap > 0])
        dinv = np.linalg.inv(B.data[diag][np.argsort(rows[diag])])
        # renumber the cells front by front: new index rank[c], old order[p]
        order = np.argsort(front, kind="stable")
        rank = np.empty(C, dtype=np.intp)
        rank[order] = np.arange(C)
        # M = D^{-1}(D + L) in front order, built block-wise with its
        # identity diagonal blocks inline (no scalar COO or setdiag pass,
        # which costs more peak memory) and kept as CSC, the layout
        # spsolve_triangular solves without a per-call transpose
        lower = np.nonzero(gap < 0)[0]
        r = np.concatenate((rank, rank[rows[lower]]))
        c = np.concatenate((rank, rank[cols[lower]]))
        blocks = np.concatenate(
            (np.broadcast_to(np.eye(d), (C, d, d)), dinv[rows[lower]] @ B.data[lower])
        )
        perm = np.lexsort((c, r))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=C))))
        M = sp.bsr_matrix((blocks[perm], c[perm], indptr), shape=P.shape).tocsc()
        M.eliminate_zeros()
        M.sort_indices()
        self._M = M
        self._dinv = dinv[order]
        self._order = order
        self._rank = rank

    def _forward(self, r):
        """Apply (D + L)^{-1}: scale by D^{-1}, then solve with the unit
        lower triangular M in front order."""
        d = self.d
        y = np.einsum(
            "cij,cj->ci", self._dinv, np.reshape(r, (-1, d))[self._order]
        ).ravel()
        z = spla.spsolve_triangular(
            self._M, y, lower=True, unit_diagonal=True,
            overwrite_A=True, overwrite_b=True,
        )
        return z.reshape(-1, d)[self._rank].ravel()


class _CachedSolve:
    """P^{-1} for one ordinate's system, set up on first use and kept
    across sweeps.

    Dense LU of the system up to ``_DENSE_CACHED`` unknowns, the
    wavefront sweep above that, and exact sparse LU after ``to_splu``.
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
        self._fac = _SweepSolve(
            s.matrix, s.tables.dof, s.mesh, s.direction, precond=sweep_matrix(s)
        )

    @property
    def exact(self):
        """True when P is the system matrix itself."""
        self._ensure()
        return self.kind != "sweep" or self._fac.exact

    def to_splu(self):
        self.kind = "splu"
        self._fac = spla.splu(self.system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")

    def step(self, r):
        """P^{-1} r."""
        self._ensure()
        if self.kind == "dense":
            return sla.lu_solve(self._fac, r)
        if self.kind == "sweep":
            return self._fac._forward(r)
        return self._fac.solve(r)


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
    errs, residuals = [], []
    tol = cfg.tol
    converged = switched = False
    bound = residual = np.inf
    while len(errs) < cfg.max_outer:
        # each ordinate's update overwrites the scattering row it came from
        update = scattering_source(systems, kernel, quad, field)
        num = den = 0.0
        for m, (s, solver) in enumerate(zip(systems, solvers)):
            rhs = s.rhs_fixed + update[m].ravel()
            r = rhs - s.matrix @ field[m].ravel()
            num += r @ r
            den += rhs @ rhs
            update[m] = solver.step(r).reshape(C, d)
        residual = float(np.sqrt(num / den)) if num else 0.0
        residuals.append(residual)
        errs.append(l2_dom_norm(mesh, tables, quad, update))
        field += update
        bound = _bound(errs, residuals)
        if bound <= tol and residual <= tol:
            target = tol if certify is None else certify(field)
            if bound <= target:
                converged = True
                break
            tol = target
        elif not switched and len(errs) > _STALL and errs[-1] >= errs[-1 - _STALL]:
            switched = True
            inexact = [sv for sv in solvers if not sv.exact]
            if inexact:
                warnings.warn(
                    f"update norm {errs[-1]:.3e} has not fallen in {_STALL} "
                    f"sweeps; switching {len(inexact)} of {L} ordinates to "
                    "sparse LU", RuntimeWarning, stacklevel=2,
                )
                for sv in inexact:
                    sv.to_splu()
    return field, IterationTrace(errs, converged, bound, residual)

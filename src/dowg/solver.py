"""Per-ordinate linear solves and the source-iteration outer loop.

The outer loop lags the scattering term: starting from the zero field,
each iteration evaluates the scattering source from the current iterate,
adds it to every direction's fixed right side, solves the (M+1)
independent systems, and measures the update in the angularly weighted
broken L2 norm.  The contraction factor is bounded by the scattering
ratio, so a positive margin sigma_t - sigma_s*max b_m guarantees
geometric convergence.

Each ordinate's solver is set up on its first solve and cached across
outer iterations.  It is one of two kinds, chosen by system size: dense
LU at desk scale, and a directional wavefront sweep above it.  Ordering
cells by upwind distance makes each transport matrix block lower
triangular up to a weak downstream-pointing remainder (quarter-weight
central-flux leakage, jump penalties), so a batched front-by-front
forward substitution is an O(nnz) preconditioner whose Richardson
iteration contracts geometrically; the streamline-diffusion systems
are exactly triangular in that order and solve in one sweep.  A sweep
that stalls raises SolverFailure, and that ordinate switches once, with
a RuntimeWarning, to exact sparse LU.
"""

import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DODG, assemble_direction, l2_dom_norm, scattering_source

__all__ = [
    "SolverFailure",
    "LinearSolveConfig",
    "SourceIterationConfig",
    "IterationTrace",
    "source_iteration",
]


class SolverFailure(RuntimeError):
    """Linear or outer iteration failed; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class LinearSolveConfig:
    """Per-ordinate linear solver settings.

    ``rtol`` is the relative residual the wavefront sweep iterates to;
    the dense and sparse LU solves are exact.
    """

    rtol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError(f"relative tolerance must be in (0, 1), got {self.rtol}")


@dataclass
class SourceIterationConfig:
    """Outer-loop settings: stopping tolerance on the update norm,
    iteration cap, and angle ordering (lagged "jacobi" is the default;
    "gauss-seidel" feeds already-updated ordinates into the scattering
    source within one sweep)."""

    tol: float = 1e-3
    max_outer: int = 200
    ordering: str = "jacobi"
    linear: LinearSolveConfig = field(default_factory=LinearSolveConfig)

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("outer tolerance must be positive")
        if self.ordering not in ("jacobi", "gauss-seidel"):
            raise ValueError(f"unknown angle ordering {self.ordering!r}")


@dataclass
class IterationTrace:
    """Per-outer-iteration update norms and the convergence flag."""

    errs: list
    converged: bool

    @property
    def iterations(self):
        return len(self.errs)

    def to_csv(self, target):
        own = isinstance(target, (str, bytes, os.PathLike))
        stream = open(target, "w") if own else target
        try:
            stream.write("iteration,err\n")
            for i, e in enumerate(self.errs, start=1):
                stream.write(f"{i},{e:.6g}\n")
        finally:
            if own:
                stream.close()


@dataclass(frozen=True)
class _UpwindDG(DODG):
    """Penalty-free upwind operator used as the sweep preconditioner.

    The central-flux system equals this matrix plus quarter-weight edge
    blocks, so its exact wavefront solve leaves only that weak remainder
    to the outer Richardson iteration.
    """

    c_p: float = 0.0

    def __post_init__(self):
        pass


class _SweepSolve:
    """Wavefront solve for one transport direction.

    Cells are ranked by upwind distance l = i' + j' with the primed
    indices counted along the flow; edge neighbours always sit in
    adjacent fronts.  The preconditioner (the matrix itself when it is
    block triangular in that order, the penalty-free upwind operator
    for the central-flux scheme whose own lower part amplifies) is
    split into diagonal cell blocks D plus the coupling L to the at
    most two upstream neighbours.  Forward substitution front by front
    applies (D + L)^{-1} in O(nnz) time and memory, and Richardson
    iteration mops up the remainder.  A solve still above tolerance
    after ``_MAX_SWEEPS`` sweeps raises SolverFailure with the relative
    residual it reached.
    """

    _MAX_SWEEPS = 100

    def __init__(self, A, cfg, d, mesh, direction, precond=None):
        self.A = sp.csr_matrix(A)
        self.cfg = cfg
        self.d = d
        n = mesh.n
        C = mesh.n_cells
        if self.A.shape[0] != C * d:
            raise ValueError("system size does not match mesh/block size")
        sx, sy = np.asarray(direction, dtype=float)
        idx = np.arange(n)
        ip = idx if sx >= 0 else idx[::-1]
        jp = idx if sy >= 0 else idx[::-1]
        front = (jp[:, None] + ip[None, :]).ravel()  # cell index is j*n + i
        nf = 2 * n - 1

        P = self.A if precond is None else sp.csr_matrix(precond)
        if P.shape != self.A.shape:
            raise ValueError("preconditioner shape does not match the system")
        B = P.tobsr(blocksize=(d, d))
        rows = np.repeat(np.arange(C), np.diff(B.indptr))
        cols = B.indices
        diag = rows == cols
        if np.count_nonzero(diag) != C:
            raise ValueError("every cell needs a diagonal block")
        gap = front[cols] - front[rows]
        if np.any(gap[~diag] == 0):
            raise ValueError("same-front coupling breaks the batched sweep")
        self._dinv = np.linalg.inv(B.data[diag][np.argsort(rows[diag])])
        lower = gap < 0
        key = front[rows[lower]]
        perm = np.argsort(key, kind="stable")
        self._lrows = rows[lower][perm]
        self._lcols = cols[lower][perm]
        self._ldata = B.data[lower][perm]
        self._lptr = np.concatenate(
            ([0], np.cumsum(np.bincount(key, minlength=nf)))
        )
        order = np.argsort(front, kind="stable")
        fptr = np.concatenate(([0], np.cumsum(np.bincount(front, minlength=nf))))
        self._fronts = [order[fptr[l] : fptr[l + 1]] for l in range(nf)]

    def _forward(self, r):
        """Apply (D + L)^{-1} by forward substitution over fronts."""
        d = self.d
        acc = np.array(r, dtype=float).reshape(-1, d)
        z = np.empty_like(acc)
        for l, cells in enumerate(self._fronts):
            lo, hi = self._lptr[l], self._lptr[l + 1]
            if hi > lo:
                take = self._ldata[lo:hi] @ z[self._lcols[lo:hi], :, None]
                np.subtract.at(acc, self._lrows[lo:hi], take[..., 0])
            z[cells] = np.einsum("cij,cj->ci", self._dinv[cells], acc[cells])
        return z.ravel()

    def solve(self, b, x0=None):
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return np.zeros_like(b, dtype=float)
        tol = self.cfg.rtol * nb
        x = np.array(x0, dtype=float) if x0 is not None else self._forward(b)
        for _ in range(self._MAX_SWEEPS):
            r = b - self.A @ x
            if np.linalg.norm(r) <= tol:
                return x
            x += self._forward(r)
        r = np.linalg.norm(b - self.A @ x) / nb
        raise SolverFailure(
            f"wavefront sweep stalled at relative residual {r:.3e} after "
            f"{self._MAX_SWEEPS} sweeps", r,
        )


class _CachedSolve:
    """Solver for one ordinate's system, set up on the first solve and
    cached across outer iterations.

    Dense LU up to ``_DENSE_CACHED`` unknowns, the wavefront sweep above
    that.  A sweep that stalls is replaced, once and with a
    RuntimeWarning, by exact sparse LU.
    """

    # one factor is cached per ordinate, so dense LU stays at desk scale
    _DENSE_CACHED = 600

    def __init__(self, system, cfg, quad, kernel):
        self.system = system
        self.cfg = cfg
        self.quad = quad
        self.kernel = kernel
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
        precond = None
        if s.scheme.name == "wg":
            # the central-flux matrix is not triangular-dominant in sweep
            # order; split its penalty-free upwind counterpart instead
            precond = assemble_direction(
                _UpwindDG(), s.mesh, s.tables, self.quad, self.kernel,
                s.medium, s.m,
            ).matrix
        self.kind = "sweep"
        self._fac = _SweepSolve(
            s.matrix, self.cfg, s.tables.dof, s.mesh, s.direction, precond=precond
        )

    def solve(self, b, x0=None):
        self._ensure()
        if self.kind == "dense":
            return sla.lu_solve(self._fac, b)
        if self.kind == "sweep":
            try:
                return self._fac.solve(b, x0=x0)
            except SolverFailure as err:
                s = self.system
                sx, sy = s.direction
                warnings.warn(
                    f"ordinate {s.m}, direction ({sx:.6g}, {sy:.6g}): {err}; "
                    "switching to sparse LU",
                    RuntimeWarning, stacklevel=2,
                )
                self.kind = "splu"
                self._fac = spla.splu(s.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        return self._fac.solve(b)


def source_iteration(systems, kernel, quad, cfg=None):
    """Run the lagged-scattering outer loop over all direction systems.

    Returns ``(field, trace)`` with ``field`` of shape (L, C, dof).  The
    loop starts from zero, stops when the update norm falls below
    ``cfg.tol``, and flags (rather than raises) outer non-convergence;
    the partial field is still returned.
    """
    cfg = cfg or SourceIterationConfig()
    sys0 = systems[0]
    mesh, tables = sys0.mesh, sys0.tables
    L = len(systems)
    C = mesh.n_cells
    d = tables.dof
    if L != len(quad):
        raise ValueError("one system per quadrature ordinate is required")

    solvers = [_CachedSolve(s, cfg.linear, quad, kernel) for s in systems]
    field = np.zeros((L, C, d))
    errs = []
    converged = False
    w_vol = tables.quad.vol_weights
    for it in range(cfg.max_outer):
        if cfg.ordering == "jacobi":
            if it == 0:
                sources = np.zeros((L, C, d))
            else:
                sources = scattering_source(systems, kernel, quad, field)
            sols = [
                solvers[k].solve(
                    systems[k].rhs_fixed + sources[k].ravel(),
                    x0=field[k].ravel() if it > 0 else None,
                )
                for k in range(L)
            ]
            new = np.stack(sols).reshape(L, C, d)
        else:
            # gauss-seidel in angle: row-by-row scattering from the
            # partially updated field
            new = field.copy()
            vals = np.einsum("lcd,qd->lcq", new, tables.V)
            h2 = mesh.h**2
            for k in range(L):
                srow = kernel.matrix[systems[k].m] * quad.weights
                S = np.einsum("l,lcq->cq", srow, vals)
                rhs_s = systems[k].medium.sigma_s * h2 * (
                    (w_vol[None, :] * S) @ systems[k].scatter_test
                )
                sol = solvers[k].solve(
                    systems[k].rhs_fixed + rhs_s.ravel(),
                    x0=field[k].ravel() if it > 0 else None,
                )
                new[k] = sol.reshape(C, d)
                vals[k] = new[k] @ tables.V.T
        err = l2_dom_norm(mesh, tables, quad, new - field)
        errs.append(err)
        field = new
        if err < cfg.tol:
            converged = True
            break
    return field, IterationTrace(errs, converged)

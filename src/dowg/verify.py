"""Manufactured solutions and the convergence/comparison drivers.

Two smooth cases on the unit square with constant cross sections:

* ``example1``: u = sin(pi x) sin(pi y), direction independent, forward
  peaked scattering.  With consistently normalized kernel rows the
  scattering operator reproduces u, so the source is the plain
  transport balance.
* ``example2``: u = exp(-x/2 - y/2) (1 + c cos theta) with the linearly
  anisotropic phase; the angular convolution has the closed form
  exp(-x/2 - y/2) (1 + (c/4) cos theta) and c = 1/(1 + 6 sigma_s)
  makes the pair consistent.

Errors are measured against the exact solution per ordinate with a
Gauss rule two degrees above the assembly rule, in both the angularly
weighted broken L2 norm (the tabulated quantity) and the triple norm
that adds edge-mismatch and boundary terms.
"""

import resource
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .angular import (
    HenyeyGreenstein,
    LinearAnisotropic,
    build_circle_trapezoid,
    build_scatter_kernel,
)
from .assembly import (
    DODG,
    DODSD,
    WG,
    Medium,
    _boundary_sum,
    _face_traces,
    _jump_sum,
    _side_traces,
    assemble_direction,
)
from .elements import (
    ElementQuadrature,
    ElementTables,
    LocalBasis,
    _edge_points,
    _prolong,
    _sample,
    project_field,
)
from .mesh import SIDE_NORMALS, build_mesh
from .reporting import _shared_levels
from .solver import SolverFailure, SourceIterationConfig, source_iteration

__all__ = [
    "ManufacturedCase",
    "ConvergenceReport",
    "AngularStudyReport",
    "CaseSolution",
    "build_case",
    "solve_case",
    "measure_error",
    "run_convergence",
    "run_comparison",
    "dominance_ratios",
    "run_angular_study",
]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, its angular convolution, the matching source,
    and the inflow data, all vectorized over (x, y, theta)."""

    name: str
    u: callable
    scatter_u: callable
    f: callable
    u_in: callable
    phase: object
    medium: Medium
    renormalize: bool = True


def build_case(name, sigma_t=2.0, sigma_s=0.5, eta=0.5):
    """Manufactured case by name; cross sections and the anisotropy
    factor are adjustable, the sources adapt.

    ``renormalize`` defaults to on so the discrete scattering operator
    reproduces the closed forms exactly (for the linearly anisotropic
    phase the row masses are already 1 and the toggle is moot).
    """
    st, ss = float(sigma_t), float(sigma_s)
    medium = Medium(st, ss)
    if name == "example1":

        def u(x, y, th):
            return np.sin(np.pi * x) * np.sin(np.pi * y) + 0.0 * th

        def f(x, y, th):
            adv = np.pi * (
                np.cos(th) * np.cos(np.pi * x) * np.sin(np.pi * y)
                + np.sin(th) * np.sin(np.pi * x) * np.cos(np.pi * y)
            )
            return adv + (st - ss) * np.sin(np.pi * x) * np.sin(np.pi * y)

        return ManufacturedCase(
            name, u, u, f, u, HenyeyGreenstein(eta), medium
        )
    if name == "example2":
        c = 1.0 / (1.0 + 6.0 * ss)

        def u(x, y, th):
            return np.exp(-0.5 * x - 0.5 * y) * (1.0 + c * np.cos(th))

        def ku(x, y, th):
            return np.exp(-0.5 * x - 0.5 * y) * (1.0 + 0.25 * c * np.cos(th))

        def f(x, y, th):
            e = np.exp(-0.5 * x - 0.5 * y)
            adv = -0.5 * (np.cos(th) + np.sin(th)) * e * (1.0 + c * np.cos(th))
            return adv + st * e * (1.0 + c * np.cos(th)) - ss * e * (
                1.0 + 0.25 * c * np.cos(th)
            )

        return ManufacturedCase(name, u, ku, f, u, LinearAnisotropic(), medium)
    raise ValueError(f"unknown manufactured case {name!r}")


@dataclass
class CaseSolution:
    """One solved configuration with everything needed to measure it."""

    case: ManufacturedCase
    scheme: object
    field: np.ndarray
    trace: object
    systems: list
    quad: object
    kernel: object
    mesh: object
    tables: ElementTables


@dataclass
class ConvergenceReport:
    """Per-level errors in the tabulated norm with empirical orders.

    ``rows`` holds (1/h, error, eoc) with eoc = log2 of the successive
    error ratio and None on the first row.  The tabulated error is the
    ordinate-weighted broken L2 norm; the energy-norm errors (volume
    plus |s.n|-weighted jump terms) ride along for diagnostics and
    converge one half order slower (k+1/2 versus k+1).
    """

    case: str
    scheme: str
    k: int
    M: int
    rows: list = dc_field(default_factory=list)
    triple_errors: list = dc_field(default_factory=list)
    walls: list = dc_field(default_factory=list)
    iterations: list = dc_field(default_factory=list)

    @property
    def inv_h(self):
        return [r[0] for r in self.rows]

    @property
    def errors(self):
        return [r[1] for r in self.rows]

    @property
    def eocs(self):
        return [r[2] for r in self.rows[1:]]


@dataclass
class AngularStudyReport:
    """Error versus the number of ordinates at a fixed spatial level.

    Both smooth cases are integrated exactly by the trapezoid rule once
    M exceeds the angular bandwidth, so the total error does not decay
    with M; it converges (from either side -- the ordinate set samples a
    direction-dependent spatial error profile) to the plateau given by
    the finest run.  The angular contribution is therefore measured as
    the distance to that plateau.
    """

    case: str
    scheme: str
    k: int
    level: int
    rows: list = dc_field(default_factory=list)  # (M, error)

    @property
    def errors(self):
        return [r[1] for r in self.rows]

    @property
    def contributions(self):
        """|error(M) - error(M_finest)|; zero for the last row."""
        errs = self.errors
        return [abs(e - errs[-1]) for e in errs]

    @property
    def monotone(self):
        """Angular contribution non-increasing in M (tiny slack for
        roundoff at the plateau)."""
        ref = max(self.errors)
        tol = 1e-12 * ref
        cons = self.contributions
        return all(b <= a + tol for a, b in zip(cons, cons[1:]))

    def plateaued(self, frac=0.02):
        """Last decrement small against the spatial error itself."""
        return self.contributions[-2] <= frac * self.errors[-1]


def _memory_budget():
    """Bytes a run may take: the address-space limit of the process if
    one is set, else MemAvailable from /proc/meminfo; None where neither
    is known."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        return soft
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_memory(k, level, M, budget=None):
    """Refuse, with ValueError and before anything is assembled, a run
    whose estimated storage is above ``budget`` bytes (by default
    ``_memory_budget()``).

    The estimate counts, per ordinate, what its sweep keeps: D^{-1}, the
    8-byte values of M and R (at most two blocks per cell each; over the
    three schemes, k = 1, 2 and every ordinate at 1/h = 32 and 64 they
    hold at most 1.23 and 1.73) and the right side.  D^{-1} counts one
    d x d block per cell, the bound for a callable sigma_t, which makes
    every cell its own class; with a constant sigma_t the sweep keeps
    4n - 3 blocks, so this term overcounts there, but sigma_t is not
    known before the kernel is built.  The index arrays of M and R are
    shared by the ordinates of one sparsity pattern, so they count once
    per pattern: at most eight for M and eight for R (four quadrants, on
    an axis or not, and never more than the ordinates), each with 4-byte
    indices and its indptr.  The set-up's scratch (the patterns' 8-byte gathers and one
    pattern's conversion, measured at most 68 bytes per block entry) is
    freed before the loop allocates five (L, C, dof) fields (the
    iterate, the previous right sides g, the update and the scattering
    source's temporaries), so the larger of the two counts.  A nested
    start (``run_convergence`` past its first level) allocates two of
    the five before the set-up: the prolonged start field, which is the
    iterate, and the g that its P x0 is formed into; so the set-up
    counts with those two.  The coarse field it was prolonged from, a
    quarter of one field, is freed before the level assembles.  With a
    constant sigma_t the class blocks the set-up works on are a few
    kilobytes and not counted.

    The dense (L, L) arrays of the scattering kernel come on top.  Its
    build, which runs before anything else is allocated, peaks at four
    of them (three for the linear and isotropic phases), measured with
    tracemalloc at M = 1000 and 2000; it keeps one, the kernel, and
    ``scattering_source`` forms one more on each sweep.
    """
    d = (k + 1) ** 2
    C = 4**level
    L = M + 1
    blocks, n = C * d * d, C * d
    sweep = 8 * blocks + 2 * 8 * 2 * blocks + 8 * n
    patterns = 2 * min(L, 8)
    shared = patterns * (4 * 2 * blocks + 4 * n)
    setup = patterns * 8 * 2 * blocks + 80 * blocks
    kernel = 8 * L * L
    field = 8 * L * n
    need = max(4 * kernel, L * sweep + shared + max(setup + 2 * field, 5 * field) + 2 * kernel)
    budget = _memory_budget() if budget is None else budget
    if budget is not None and need > budget:
        raise ValueError(
            f"Q{k} at level {level} with M = {M} needs about {need / 2**30:.1f} "
            "GiB of operators, fields and scattering kernel, above the "
            f"{budget / 2**30:.1f} GiB this process may use"
        )


def _build_tables(k):
    return ElementTables(LocalBasis(k), ElementQuadrature.build(k))


def _case_kernel(case, quad, renormalize):
    """The case (looked up if given by name) and its scattering kernel on
    ``quad``; ``renormalize`` None keeps the case's own setting."""
    if isinstance(case, str):
        case = build_case(case)
    ren = case.renormalize if renormalize is None else renormalize
    kernel = build_scatter_kernel(
        quad, case.phase, case.medium.sigma_t, case.medium.sigma_s, renormalize=ren
    )
    return case, kernel


def _assemble_all(case, scheme, mesh, tables, quad, kernel):
    return [
        assemble_direction(
            scheme, mesh, tables, quad, kernel, case.medium, m,
            f=case.f, u_in=case.u_in,
        )
        for m in range(len(quad))
    ]


def solve_case(case, scheme=None, k=1, level=3, M=20, cfg=None, renormalize=None):
    """Assemble and source-iterate one configuration.

    ``case`` is a name or a ManufacturedCase; ``cfg`` defaults to the
    production outer tolerance 1e-3.
    """
    scheme = scheme if scheme is not None else WG()
    _check_memory(k, level, M)
    quad = build_circle_trapezoid(M)
    case, kernel = _case_kernel(case, quad, renormalize)
    mesh = build_mesh(level)
    tables = _build_tables(k)
    systems = _assemble_all(case, scheme, mesh, tables, quad, kernel)
    field, trace = source_iteration(systems, kernel, quad, cfg)
    return CaseSolution(case, scheme, field, trace, systems, quad, kernel, mesh, tables)


def measure_error(field, case, mesh, tables, quad):
    """Both error norms of u - u_h against the case's exact solution.

    Volume terms use a (k+3)-point Gauss rule per axis (degree 2k+5,
    two above assembly).  Interior edge mismatch needs only the native
    edge rule ([u - u_h] = [u_h] for the smooth exact solutions here);
    boundary terms evaluate the exact trace on the finer edge rule.

    Returns (broken-L2 error, triple-norm error), both angularly
    weighted.
    """
    field = np.asarray(field)
    h = mesh.h
    k = tables.basis.k
    fine = ElementTables(tables.basis, ElementQuadrature.build(k, k + 3, k + 3))
    fq = fine.quad

    X, Y = mesh.points(fq.vol_points)
    # one ordinate at a time, so no (L, C, q) array is formed
    vol = np.empty(len(quad))
    for m, th in enumerate(quad.thetas):
        diff = field[m] @ fine.V.T - _sample(case.u, X, Y, th)
        vol[m] = h * h * np.sum(diff**2 @ fq.vol_weights)
    err_dom = float(np.sqrt(np.sum(quad.weights * vol)))

    edges = [
        mesh.points(_edge_points(b, fq.edge_points), mesh.boundary_cells(b))
        for b in range(4)
    ]
    total = 0.0
    for m, th in enumerate(quad.thetas):
        kappa = np.abs(SIDE_NORMALS @ quad.vectors[m]) * h
        faces, _ = _face_traces(mesh, tables, field[m])
        jump = _jump_sum(kappa, tables.quad.edge_weights, faces, faces)
        sides = _side_traces(mesh, fine, field[m])
        diff = [t - _sample(case.u, x, y, th) for t, (x, y) in zip(sides, edges)]
        bdy = _boundary_sum(kappa, fq.edge_weights, diff, diff)
        total += quad.weights[m] * (vol[m] + 0.5 * jump + bdy)
    return err_dom, float(np.sqrt(total))


def project_exact(case, mesh, tables, quad):
    """Elementwise L2 projection of the exact solution, per ordinate."""
    field = np.empty((len(quad), mesh.n_cells, tables.dof))
    for m, th in enumerate(quad.thetas):
        field[m] = project_field(mesh, tables, lambda x, y: case.u(x, y, th))
    return field


def _iterate(systems, kernel, quad, tol, where, measure, start=None):
    """``source_iteration`` for one table row, from zero or from
    ``start``; returns ``(field, trace, measure(field))``.

    With ``tol`` None the row is certified: the loop starts at the
    production tolerance and resumes until its iteration-error bound is
    at most 1% of the measured error.  A row that stops uncertified
    raises SolverFailure with ``where`` attached, so no unconverged row
    is tabulated.
    """
    measured = []

    def certify(field):
        measured.append(measure(field))
        return 0.01 * measured[-1][0]

    cfg = SourceIterationConfig(tol=1e-3 if tol is None else tol)
    field, trace = source_iteration(
        systems, kernel, quad, cfg, certify=certify if tol is None else None,
        start=start,
    )
    if not trace.converged:
        raise SolverFailure(
            f"{where}: source iteration stopped uncertified after "
            f"{trace.iterations} sweeps, iteration-error bound {trace.bound:.3e}, "
            f"relative residual {trace.residual:.3e}",
            trace.residual,
        )
    return field, trace, measured[-1] if measured else measure(field)


def run_convergence(case="example1", scheme=None, k=1, levels=range(3, 8), M=20,
                    tol=None, renormalize=None):
    """Refine through ``levels`` and tabulate errors and orders.

    With ``tol`` None every row is certified: its iteration-error bound
    is at most 1% of its measured error.  A fixed ``tol`` bounds the
    iteration error and the relative residual instead.  Levels whose
    source iteration stops uncertified raise SolverFailure with the
    offending level attached.

    The first level's source iteration starts from zero, and every later
    one from the previous level's field, prolonged exactly onto the finer
    mesh (once per level of a gap such as 3, 5): the classical nested
    iteration.  The stop and the certification are those of a zero
    start, so each row still carries at most its certified iteration
    error.
    """
    scheme = scheme if scheme is not None else WG()
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    _check_memory(k, max(levels, default=0), M)
    quad = build_circle_trapezoid(M)
    case, kernel = _case_kernel(case, quad, renormalize)
    tables = _build_tables(k)
    report = ConvergenceReport(case.name, scheme.name, k, M)
    prev = field = None
    for i, lv in enumerate(levels):
        mesh = build_mesh(lv)
        t0 = time.perf_counter()
        if field is not None:
            # the coarse field is freed here, before the level assembles
            field = _prolong(field, tables.basis, lv - levels[i - 1])
        systems = _assemble_all(case, scheme, mesh, tables, quad, kernel)
        field, trace, (err_dom, err_tri) = _iterate(
            systems, kernel, quad, tol, f"level {lv} (1/h = {mesh.n})",
            lambda f: measure_error(f, case, mesh, tables, quad), field,
        )
        wall = time.perf_counter() - t0
        eoc = None if prev is None else float(np.log2(prev / err_dom))
        prev = err_dom
        report.rows.append((mesh.n, err_dom, eoc))
        report.triple_errors.append(err_tri)
        report.walls.append(wall)
        report.iterations.append(trace.iterations)
    return report


def run_comparison(case="example2", k=1, levels=range(3, 7), M=20, c_p=0.1,
                   sd_c=1.0, tol=None, renormalize=None):
    """Same study for the three schemes; returns reports keyed by name."""
    schemes = (WG(), DODG(c_p=c_p), DODSD(c=sd_c))
    return {
        s.name: run_convergence(
            case, scheme=s, k=k, levels=levels, M=M, tol=tol,
            renormalize=renormalize,
        )
        for s in schemes
    }


def dominance_ratios(reports):
    """Per-level ratio of the first scheme's error to the best competing
    one; the recorded closeness metric for scheme comparisons."""
    names, _ = _shared_levels(reports)
    lead, rest = names[0], names[1:]
    return [
        e / min(reports[n].errors[i] for n in rest)
        for i, e in enumerate(reports[lead].errors)
    ]


def run_angular_study(case="example2", scheme=None, k=2, level=5,
                      Ms=(4, 8, 16, 32), tol=1e-9, renormalize=None):
    """Error versus ordinate count at a fixed spatial level.

    Uses a tight tolerance by default so the angular variation is not
    masked by iteration noise (``tol`` None certifies every row, as in
    ``run_convergence``); both smooth cases are integrated exactly by
    the trapezoid rule once M exceeds the angular bandwidth, so the
    curve plateaus at the spatial error rather than decaying at a rate.
    A source iteration that stops uncertified raises SolverFailure with
    the offending M attached.
    """
    scheme = scheme if scheme is not None else WG()
    Ms = list(Ms)
    if not Ms or any(b <= a for a, b in zip(Ms, Ms[1:])):
        raise ValueError("ordinate counts must be given and strictly increasing")
    _check_memory(k, level, Ms[-1])
    mesh = build_mesh(level)
    tables = _build_tables(k)
    rows = []
    for M in Ms:
        quad = build_circle_trapezoid(M)
        case, kernel = _case_kernel(case, quad, renormalize)
        systems = _assemble_all(case, scheme, mesh, tables, quad, kernel)
        _, _, (err_dom, _) = _iterate(
            systems, kernel, quad, tol, f"M = {M}",
            lambda f: measure_error(f, case, mesh, tables, quad),
        )
        rows.append((M, err_dom))
    return AngularStudyReport(case.name, scheme.name, k, level, rows)

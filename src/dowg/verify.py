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

Each case function is a ``Separable`` sum of angular times spatial factors,
and the drivers sample each spatial factor once per run and combine the
samples per ordinate; ``assemble_direction`` still takes any callable.

Errors are measured against the exact solution per ordinate with a
Gauss rule two degrees above the assembly rule, in both the angularly
weighted broken L2 norm (the tabulated quantity) and the triple norm
that adds edge-mismatch and boundary terms.
"""

import operator
import resource
import time
import weakref
from dataclasses import dataclass, field as dc_field
from functools import reduce

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
    _add_inflow,
    _side_points,
    assemble_direction,
)
from .elements import (
    ElementQuadrature,
    ElementTables,
    LocalBasis,
    _prolong,
    _sample,
    project_field,
)
from .mesh import SIDE_NORMALS, build_mesh
from .reporting import _shared_levels
from .solver import _EXACT_UP_TO, SolverFailure, SourceIterationConfig, source_iteration

__all__ = [
    "ManufacturedCase",
    "Separable",
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
class Separable:
    """sum_j a_j(theta) g_j(x, y) from ``terms``, its (a_j, g_j) pairs of
    angular and spatial factors; called like a vectorized f(x, y, theta)."""

    terms: tuple

    def __call__(self, x, y, th):
        return reduce(operator.add, (a(th) * g(x, y) for a, g in self.terms))

    def sampled(self, sample):
        """theta -> sum_j a_j(theta) sample(g_j), each sample(g_j) taken here, once."""
        parts = [(a, sample(g)) for a, g in self.terms]
        return lambda th: reduce(operator.add, (a(th) * G for a, G in parts))


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, its angular convolution, the matching source,
    and the inflow data, each a ``Separable`` over (x, y, theta), and
    whether its kernel's rows are divided by their mass (``_case_kernel``)."""

    name: str
    u: Separable
    scatter_u: Separable
    f: Separable
    u_in: Separable
    phase: object
    medium: Medium
    renormalize: bool = True


def build_case(name, sigma_t=2.0, sigma_s=0.5, eta=0.5):
    """Manufactured case by name; cross sections and the anisotropy
    factor are adjustable, the sources adapt.

    Each case's ``renormalize`` is on, so that the discrete scattering
    operator reproduces the closed-form convolution and the tabulated
    error is the discretization's alone (for the linearly anisotropic
    phase the row masses are already 1, so it changes nothing).
    """
    st, ss = float(sigma_t), float(sigma_s)
    medium = Medium(st, ss)
    if name == "example1":
        pi = np.pi
        sines = (np.ones_like, lambda x, y: np.sin(pi * x) * np.sin(pi * y))
        u = Separable((sines,))
        f = Separable((
            (np.cos, lambda x, y: pi * np.cos(pi * x) * np.sin(pi * y)),
            (np.sin, lambda x, y: pi * np.sin(pi * x) * np.cos(pi * y)),
            (lambda th: (st - ss) * np.ones_like(th), sines[1]),
        ))
        return ManufacturedCase(name, u, u, f, u, HenyeyGreenstein(eta), medium)
    if name == "example2":
        c = 1.0 / (1.0 + 6.0 * ss)

        def e(x, y):
            return np.exp(-0.5 * x - 0.5 * y)

        def f(th):
            return (st - 0.5 * (np.cos(th) + np.sin(th))) * (1.0 + c * np.cos(th)) - ss * (
                1.0 + 0.25 * c * np.cos(th)
            )

        u = Separable(((lambda th: 1.0 + c * np.cos(th), e),))
        ku = Separable(((lambda th: 1.0 + 0.25 * c * np.cos(th), e),))
        return ManufacturedCase(name, u, ku, Separable(((f, e),)), u, LinearAnisotropic(), medium)
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
        """Last decrement small against the spatial error itself; False
        for a study of one count, which has no decrement."""
        cons = self.contributions
        return len(cons) > 1 and cons[-2] <= frac * self.errors[-1]


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

    The estimate counts, for each of the L = M + 1 ordinates (the loop
    solves the rule's last, theta = 2 pi, with its first, which leaves
    one of margin), D^{-1} and two operators of at most two d x d blocks
    per cell and the right side, and at desk scale (C d at most
    ``solver._EXACT_UP_TO``) the row pairs' S^{-1}, n (n d)^2 values on
    an n x n grid, and the scratch of five of its rows while they are
    formed, with the index arrays of at most sixteen sparsity patterns
    and the larger of the set-up's scratch plus two fields and five
    fields, and the test ``TestCheckMemory.test_bounds_the_traced_peak``
    checks that it stays above the traced peak of every scheme's run,
    from zero and nested.

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
    if n <= _EXACT_UP_TO:
        rows = 2**level
        sweep += 8 * (rows + 5) * (rows * d) ** 2
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


def _case_kernel(case, quad):
    """The case (looked up if given by name) and its scattering kernel on
    ``quad``, normalized as the case says."""
    if isinstance(case, str):
        case = build_case(case)
    kernel = build_scatter_kernel(
        quad, case.phase, case.medium.sigma_t, case.medium.sigma_s,
        renormalize=case.renormalize,
    )
    return case, kernel


def _assemble_all(case, scheme, mesh, tables, quad, kernel):
    """Every ordinate's system, its right side combined from the spatial
    factors of the source (pre-weighted by h^2 w) and inflow data, sampled here once.

    A last ordinate whose direction vector is the first's bit for bit
    shares the first's right side, so the loop solves the direction once
    (``source_iteration``): the trapezoid rule's theta = 2 pi takes the
    right side of theta = 0."""
    q = tables.quad
    X, Y = mesh.points(q.vol_points)
    f = case.f.sampled(lambda g: mesh.h**2 * q.vol_weights * _sample(g, X, Y))
    u_in = [case.u_in.sampled(lambda g: _sample(g, x, y)) for x, y in _side_points(mesh, q)]
    systems = []
    for m, th in enumerate(quad.thetas):
        system = assemble_direction(scheme, mesh, tables, quad, kernel, case.medium, m)
        if 0 < m == len(quad) - 1 and quad.vectors[m].tobytes() == quad.vectors[0].tobytes():
            system.rhs_fixed = systems[0].rhs_fixed
        else:
            rhs = system.rhs_fixed.reshape(mesh.n_cells, tables.dof)
            rhs += f(th) @ system.scatter_test
            _add_inflow(rhs, mesh, tables, system.direction, lambda b: u_in[b](th))
        systems.append(system)
    return systems


def solve_case(case, scheme=None, k=1, level=3, M=20, cfg=None):
    """Assemble and source-iterate one configuration.

    ``case`` is a name or a ManufacturedCase; ``cfg`` defaults to the
    production outer tolerance 1e-3.
    """
    scheme = scheme if scheme is not None else WG()
    _check_memory(k, level, M)
    quad = build_circle_trapezoid(M)
    case, kernel = _case_kernel(case, quad)
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
    err_dom, finish = _errors(field, case, mesh, tables, quad)
    return err_dom, finish()


# each run's tables and the finer ones its errors are measured with
_FINE = weakref.WeakKeyDictionary()


def _fine_tables(tables):
    """The tables of ``tables``' basis on the (k+3)-point Gauss rule per
    axis that errors are measured with, built once per ``tables``, so once
    per run."""
    if tables not in _FINE:
        k = tables.basis.k
        _FINE[tables] = ElementTables(tables.basis, ElementQuadrature.build(k, k + 3, k + 3))
    return _FINE[tables]


def _errors(field, case, mesh, tables, quad):
    """``measure_error`` in two steps: the broken-L2 error now, and a
    function that finishes the triple-norm error from the same volume
    terms, for as long as ``field`` is left as it is.  ``field`` has one
    row per ordinate of ``quad``."""
    field = np.asarray(field)
    h = mesh.h
    fine = _fine_tables(tables)
    fq = fine.quad

    X, Y = mesh.points(fq.vol_points)
    u = case.u.sampled(lambda g: _sample(g, X, Y))
    # one ordinate at a time into one (C, q) buffer, so no (L, C, q) array is formed
    diff = np.empty(X.shape)
    vol = np.empty(len(quad))
    for m, th in enumerate(quad.thetas):
        np.matmul(field[m], fine.V.T, out=diff)
        diff -= u(th)
        np.square(diff, out=diff)
        vol[m] = h * h * np.sum(diff @ fq.vol_weights)
    err_dom = float(np.sqrt(np.sum(quad.weights * vol)))

    def triple():
        edges = [case.u.sampled(lambda g: _sample(g, x, y)) for x, y in _side_points(mesh, fq)]
        faces = mesh.interior_faces()
        sides = [mesh.boundary_cells(b) for b in range(4)]
        we, fwe = tables.quad.edge_weights, fq.edge_weights
        total = 0.0
        for m, th in enumerate(quad.thetas):
            kappa = np.abs(SIDE_NORMALS @ quad.vectors[m]) * h
            coeffs = field[m]
            # the mismatch [u_h] on the interior faces (the exact u is
            # continuous) and u_h - u on the boundary, weighted and summed
            # in the arithmetic order of ``_jump_sum`` and ``_boundary_sum``
            # (bit for bit their sums), written out as through the helpers
            # this finish took 1.5-2.5x as long (29.8-33.6 against 13.3 ms
            # at example2 Q1 1/h = 128); sides with kappa 0 add nothing
            jump = 0.0
            for s1, s2, c1, c2 in faces:
                if kappa[s1] != 0.0:
                    jmp = np.take(coeffs, c1, axis=0) @ tables.trace[s1].T
                    jmp -= np.take(coeffs, c2, axis=0) @ tables.trace[s2].T
                    jump += kappa[s1] * np.sum(we * jmp * jmp)
            bdy = 0.0
            for b, (cells, u_b) in enumerate(zip(sides, edges)):
                if kappa[b] != 0.0:
                    diff = np.take(coeffs, cells, axis=0) @ fine.trace[b].T
                    diff -= u_b(th)
                    np.square(diff, out=diff)
                    bdy += kappa[b] * np.sum(fwe * diff)
            total += quad.weights[m] * (vol[m] + 0.5 * jump + bdy)
        return float(np.sqrt(total))

    return err_dom, triple


def project_exact(case, mesh, tables, quad):
    """Elementwise L2 projection of the exact solution, per ordinate:
    each spatial factor of u is projected once."""
    u = case.u.sampled(lambda g: project_field(mesh, tables, g))
    return np.stack([u(th) for th in quad.thetas])


def _iterate(systems, kernel, quad, tol, where, errors, start=None):
    """``source_iteration`` for one table row, from zero or from
    ``start``; returns ``(field, trace, errors(field, quad))``,
    ``errors(field, quad)`` as ``_errors`` with a field and its quadrature.

    With ``tol`` None the row is certified: the loop starts at the
    production tolerance and resumes until its iteration-error bound is
    at most 1% of its L2 error, measured on the loop's own field over the
    distinct directions and their quadrature; the loop stops right after
    the call that certifies it, so that call's errors are returned.  A
    row that stops uncertified raises SolverFailure with ``where``, so
    none is tabulated.
    """
    measured = []

    def certify(field, quad):
        measured[:] = [errors(field, quad)]
        return 0.01 * measured[0][0]

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
    return field, trace, measured[0] if measured else errors(field, quad)


def run_convergence(case="example1", scheme=None, k=1, levels=range(3, 8), M=20,
                    tol=None):
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
    case, kernel = _case_kernel(case, quad)
    tables = _build_tables(k)
    report = ConvergenceReport(case.name, scheme.name, k, M)
    prev = field = None
    for i, lv in enumerate(levels):
        mesh = build_mesh(lv)
        t0 = time.perf_counter()
        if field is not None:
            # the coarse field is freed here, before the level assembles
            field = _prolong(field, tables.basis, lv - levels[i - 1])
        # the systems die with the loop, before the next level assembles
        field, trace, (err_dom, triple) = _iterate(
            _assemble_all(case, scheme, mesh, tables, quad, kernel),
            kernel, quad, tol, f"level {lv} (1/h = {mesh.n})",
            lambda f, q: _errors(f, case, mesh, tables, q), field,
        )
        wall = time.perf_counter() - t0
        eoc = None if prev is None else float(np.log2(prev / err_dom))
        prev = err_dom
        report.rows.append((mesh.n, err_dom, eoc))
        report.triple_errors.append(triple())
        del triple  # it holds the loop's own field: free that before the next level
        report.walls.append(wall)
        report.iterations.append(trace.iterations)
    return report


def run_comparison(case="example2", k=1, levels=range(3, 7), M=20, c_p=0.1,
                   sd_c=1.0, tol=None):
    """Same study for the three schemes; returns reports keyed by name."""
    schemes = (WG(), DODG(c_p=c_p), DODSD(c=sd_c))
    return {
        s.name: run_convergence(case, scheme=s, k=k, levels=levels, M=M, tol=tol)
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
                      Ms=(4, 8, 16, 32), tol=1e-9):
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
        case, kernel = _case_kernel(case, quad)
        err_dom = _iterate(
            _assemble_all(case, scheme, mesh, tables, quad, kernel), kernel, quad, tol, f"M = {M}",
            lambda f, q: _errors(f, case, mesh, tables, q),
        )[2][0]
        rows.append((M, err_dom))
    return AngularStudyReport(case.name, scheme.name, k, level, rows)

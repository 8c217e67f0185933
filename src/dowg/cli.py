"""Command-line front end: configuration parsing, study execution, and
table/plot emission.

Commands
--------
solve          single-level solve of a manufactured case, error summary
convergence    refine through levels, tabulate error and observed order
compare        same study for the three schemes side by side
angular-study  error versus ordinate count at a fixed level
selftest       fast invariant suite (quadrature, weak operators,
               coercivity sample, constant-solution residuals)

Option precedence is flags over config-file entries over defaults; the
defaults are the standard test configuration (sigma_t = 2, sigma_s = 1/2,
eta = 0.5, M = 20, c_p = 0.1, c = 1).  Exit codes: 0 success, 1 selftest
failure, 2 usage, 3 validation, 4 solver failure, 5 I/O.  A warning a
run raises (the sparse-LU fallback) is printed as one line,
``warning: <message>``, on stderr, unless a filter makes it an error.
"""

import argparse
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .angular import (
    Isotropic,
    LinearAnisotropic,
    build_circle_trapezoid,
    build_scatter_kernel,
    normalization_residual,
)
from .assembly import (
    DODG,
    DODSD,
    WG,
    Medium,
    assemble_direction,
    eval_bilinear,
    scattering_source,
    triple_norm,
)
from .elements import (
    PkBasis,
    project_field,
    weak_convection_blocks,
    weak_gradient,
)
from .mesh import build_mesh
from .reporting import (
    _write_table,
    write_angular_csv,
    write_angular_markdown,
    write_angular_svg,
    write_comparison_csv,
    write_comparison_markdown,
    write_convergence_csv,
    write_convergence_markdown,
    write_convergence_svg,
    write_trace_svg,
)
from .solver import SolverFailure, SourceIterationConfig
from .verify import (
    _build_tables,
    build_case,
    dominance_ratios,
    measure_error,
    run_angular_study,
    run_comparison,
    run_convergence,
    solve_case,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_IO = 5

_COMMANDS = ("solve", "convergence", "compare", "angular-study", "selftest")
_FORMATS = ("csv", "md", "svg")


class UsageError(Exception):
    pass


class ValidationError(Exception):
    pass


@dataclass
class RunConfig:
    """Fully resolved run parameters for one CLI invocation."""

    command: str
    case: str
    scheme: str
    order: int
    levels: list
    directions: list
    sigma_t: float
    sigma_s: float
    eta: float
    tol: float  # None -> 1e-9 (solve, angular-study), certified rows (convergence, compare)
    cp: float
    sd_c: float
    out: str
    formats: tuple


def _parse_levels(text):
    """'3-7' (inclusive range), '3,4,5', or a single integer."""
    text = str(text).strip()
    if "-" in text[1:]:
        lo, hi = text.split("-", 1) if not text.startswith("-") else (None, None)
        if lo is None:
            raise ValueError(f"bad level range: {text!r}")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _parse_int_list(text):
    return [int(t) for t in str(text).split(",") if t.strip() != ""]


def _parse_formats(text):
    fmts = tuple(t.strip() for t in str(text).split(",") if t.strip() != "")
    for f in fmts:
        if f not in _FORMATS:
            raise ValueError(f"unknown format {f!r} (choose from {_FORMATS})")
        if fmts.count(f) > 1:
            raise ValueError(f"format {f!r} given more than once")
    if not fmts:
        raise ValueError("no output format given")
    return fmts


# name: (converter from text, default, help text, argparse keywords); the
# flag is --name with '-' for '_', and the config-file key is the name itself
_OPTIONS = {
    "case": (str, "example1", "manufactured case", {"choices": ("example1", "example2")}),
    "scheme": (str, "wg", "scheme (compare runs all three)",
               {"choices": ("wg", "dodg", "dodsd")}),
    "order": (int, 1, "element order k (1 or 2)", {}),
    "levels": (_parse_levels, "3-7", "'3-7', '3,5,7', or a single level, each in 1..10", {}),
    "directions": (_parse_int_list, "20", "ordinate count M (comma list for angular-study)",
                   {}),
    "sigma_t": (float, 2.0, "total cross section, > 0", {}),
    "sigma_s": (float, 0.5, "scattering cross section, 0 <= sigma_s < sigma_t", {}),
    "eta": (float, 0.5, "Henyey-Greenstein anisotropy of example1, in (-1, 1)", {}),
    "tol": (lambda t: None if str(t).lower() in ("none", "auto") else float(t), None,
            "bound on the iteration error and the relative residual "
            "('auto' = 1e-9 for solve and angular-study, certified rows for "
            "convergence and compare)", {}),
    "cp": (float, 0.1, "upwind jump penalty c_p", {}),
    "sd_c": (float, 1.0, "streamline parameter multiplier (delta = c h)", {}),
    "out": (str, ".", "output directory", {}),
    "format": (_parse_formats, "csv,md,svg", "comma list from csv, md, svg", {}),
}

# per-command defaults that differ from the table above
_COMMAND_DEFAULTS = {
    "solve": {"levels": "3"},
    "compare": {"levels": "3-6"},
    "angular-study": {"order": 2, "levels": "5", "directions": "4,8,16,32",
                      "tol": "1e-9"},
}


def _read_config_file(path):
    """Flat `key = value` file; '#' comments; unknown keys rejected."""
    entries = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from err
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{ln}: unknown key {key!r}")
        entries[key] = value
    return entries


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dowg",
        description="Discrete-ordinate weak Galerkin studies for the 2D "
        "radiative transfer equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="flat key = value config file")
        for name, (convert, default, text, kwargs) in _OPTIONS.items():
            # argparse converts the numeric flags itself, so a bad one
            # exits 2 with argparse's message; its default stays None, so
            # that a file entry can fill an absent flag
            numeric = convert if convert in (int, float) else None
            default = _COMMAND_DEFAULTS.get(command, {}).get(name, default)
            shown = "auto" if default is None else str(default)
            p.add_argument("--" + name.replace("_", "-"), type=numeric,
                           help=f"{text} (default: {shown})", **kwargs)
    return parser


def parse_config(argv):
    """argv -> RunConfig; flags beat config-file entries beat defaults."""
    ns = build_parser().parse_args(argv)
    file_entries = _read_config_file(ns.config) if ns.config else {}
    command_defaults = _COMMAND_DEFAULTS.get(ns.command, {})
    resolved = {}
    for name, (convert, default, _, _) in _OPTIONS.items():
        value = getattr(ns, name)
        if value is None:
            value = file_entries.get(name, command_defaults.get(name, default))
        if isinstance(value, str):
            try:
                value = convert(value)
            except (ValueError, TypeError) as err:
                raise UsageError(f"bad value for {name}: {err}") from err
        resolved[name] = value
    resolved["formats"] = resolved.pop("format")  # RunConfig names it in the plural
    cfg = RunConfig(command=ns.command, **resolved)
    _validate(cfg)
    return cfg


def _validate(cfg):
    floats = {name: getattr(cfg, name)
              for name in ("sigma_t", "sigma_s", "eta", "tol", "cp", "sd_c")}
    checks = [
        *((value is None or np.isfinite(value),
           f"{name.replace('_', '-')} must be finite, got {value}")
          for name, value in floats.items()),
        (cfg.case in ("example1", "example2"), f"unknown case {cfg.case!r}"),
        (cfg.scheme in ("wg", "dodg", "dodsd"), f"unknown scheme {cfg.scheme!r}"),
        (cfg.order in (1, 2), f"order must be 1 or 2, got {cfg.order}"),
        (len(cfg.levels) > 0, "no levels given"),
        (all(1 <= lv <= 10 for lv in cfg.levels),
         f"levels must lie in 1..10, got {cfg.levels}"),
        (all(b > a for a, b in zip(cfg.levels, cfg.levels[1:])),
         f"levels must be strictly increasing, got {cfg.levels}"),
        (all(m >= 2 for m in cfg.directions),
         f"need at least 2 ordinates, got {cfg.directions}"),
        (all(b > a for a, b in zip(cfg.directions, cfg.directions[1:])),
         "direction counts must be strictly increasing"),
        (cfg.sigma_t > 0, f"sigma_t must be positive, got {cfg.sigma_t}"),
        (0 <= cfg.sigma_s < cfg.sigma_t,
         f"need 0 <= sigma_s < sigma_t, got {cfg.sigma_s}, {cfg.sigma_t}"),
        (-1.0 < cfg.eta < 1.0, f"eta must lie in (-1, 1), got {cfg.eta}"),
        (cfg.tol is None or cfg.tol > 0, "tol must be positive"),
        (cfg.cp > 0, f"cp must be positive, got {cfg.cp}"),
        (cfg.sd_c > 0, f"sd-c must be positive, got {cfg.sd_c}"),
    ]
    if cfg.command in ("solve", "angular-study") and len(cfg.levels) != 1:
        checks.append((False, f"{cfg.command} takes a single level"))
    if cfg.command != "angular-study" and len(cfg.directions) != 1:
        checks.append((False, f"{cfg.command} takes a single ordinate count"))
    if cfg.command == "angular-study" and len(cfg.directions) < 2:
        checks.append((False, "angular-study needs at least two ordinate counts"))
    for ok, msg in checks:
        if not ok:
            raise ValidationError(msg)


# -- execution --------------------------------------------------------------


def _scheme(cfg):
    if cfg.scheme == "wg":
        return WG()
    if cfg.scheme == "dodg":
        return DODG(c_p=cfg.cp)
    return DODSD(c=cfg.sd_c)


def _case(cfg):
    return build_case(cfg.case, sigma_t=cfg.sigma_t, sigma_s=cfg.sigma_s,
                      eta=cfg.eta)


def _emit(cfg, writers, scheme=None):
    """writers: {'csv': fn(path), 'md': fn, 'svg': fn}; writes each
    chosen format, then names the files it wrote."""
    os.makedirs(cfg.out, exist_ok=True)
    name = f"{cfg.command}_{cfg.case}_{scheme or cfg.scheme}_Q{cfg.order}"
    paths = [os.path.join(cfg.out, f"{name}.{fmt}") for fmt in cfg.formats]
    for fmt, path in zip(cfg.formats, paths):
        writers[fmt](path)
    for path in paths:
        print(f"wrote {path}")


def _cmd_solve(cfg):
    case = _case(cfg)
    it_cfg = SourceIterationConfig(tol=cfg.tol if cfg.tol is not None else 1e-9)
    sol = solve_case(case, scheme=_scheme(cfg), k=cfg.order,
                     level=cfg.levels[0], M=cfg.directions[0], cfg=it_cfg)
    # the loop's own stop test: a field that overflowed is not measured
    if np.isfinite(sol.trace.errs[-1] + sol.trace.residual):
        err_dom, err_tri = measure_error(sol.field, case, sol.mesh, sol.tables,
                                         sol.quad)
    else:
        err_dom = err_tri = np.nan
    n = sol.mesh.n
    print(f"{cfg.case} {cfg.scheme} Q{cfg.order} 1/h={n} M={cfg.directions[0]}: "
          f"error {err_dom:.4e} (energy {err_tri:.4e}), "
          f"{sol.trace.iterations} sweeps, "
          f"converged={sol.trace.converged}")

    # perfbench/worker.py reads the rows by name; "outer iterations" counts sweeps
    rows = [["---", "---:"], ["error", f"{err_dom:.4e}"], ["energy error", f"{err_tri:.4e}"],
            ["outer iterations", sol.trace.iterations], ["converged", sol.trace.converged]]
    title = (f"Case {cfg.case}, scheme {cfg.scheme}, Q{cfg.order}, 1/h = {n}, "
             f"M = {cfg.directions[0]}")
    _emit(cfg, {
        "csv": sol.trace.to_csv,
        "md": lambda p: _write_table(p, ["quantity", "value"], rows, title),
        "svg": lambda p: write_trace_svg(sol.trace, p),
    })
    if not sol.trace.converged:
        print(f"solver failure: source iteration stopped uncertified after "
              f"{sol.trace.iterations} sweeps, iteration-error bound "
              f"{sol.trace.bound:.3e}, relative residual {sol.trace.residual:.3e}",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_convergence(cfg):
    rep = run_convergence(
        _case(cfg), scheme=_scheme(cfg), k=cfg.order, levels=cfg.levels,
        M=cfg.directions[0], tol=cfg.tol,
    )
    write_convergence_markdown(rep, sys.stdout)
    _emit(cfg, {
        "csv": lambda p: write_convergence_csv(rep, p),
        "md": lambda p: write_convergence_markdown(rep, p),
        "svg": lambda p: write_convergence_svg(rep, p),
    })
    return EXIT_OK


def _cmd_compare(cfg):
    reps = run_comparison(
        _case(cfg), k=cfg.order, levels=cfg.levels, M=cfg.directions[0],
        c_p=cfg.cp, sd_c=cfg.sd_c, tol=cfg.tol,
    )
    write_comparison_markdown(reps, sys.stdout)
    ratios = dominance_ratios(reps)
    print("wg error over best competitor, per level: "
          + " ".join(f"{r:.3f}" for r in ratios))
    _emit(cfg, {
        "csv": lambda p: write_comparison_csv(reps, p),
        "md": lambda p: write_comparison_markdown(reps, p),
        "svg": lambda p: write_convergence_svg(list(reps.values()), p),
    }, scheme="all")
    return EXIT_OK


def _cmd_angular(cfg):
    rep = run_angular_study(
        _case(cfg), scheme=_scheme(cfg), k=cfg.order, level=cfg.levels[0],
        Ms=cfg.directions, tol=cfg.tol if cfg.tol is not None else 1e-9,
    )
    write_angular_markdown(rep, sys.stdout)
    print(f"angular contribution monotone: {rep.monotone}; "
          f"plateaued: {rep.plateaued()}")
    _emit(cfg, {
        "csv": lambda p: write_angular_csv(rep, p),
        "md": lambda p: write_angular_markdown(rep, p),
        "svg": lambda p: write_angular_svg(rep, p),
    })
    return EXIT_OK


# -- selftest ---------------------------------------------------------------


def _check_quadrature():
    quad = build_circle_trapezoid(20)
    if abs(quad.weights.sum() - 2 * np.pi) > 1e-13:
        return f"trapezoid weights sum to {quad.weights.sum()!r}, not 2 pi"
    for phase in (Isotropic(), LinearAnisotropic()):
        kernel = build_scatter_kernel(quad, phase, 2.0, 0.5, renormalize=False)
        res = normalization_residual(kernel).max()
        if res > 1e-12:
            return f"{type(phase).__name__} normalization residual {res:.2e}"
    kernel = build_scatter_kernel(quad, Isotropic(), 2.0, 0.5)
    if abs(kernel.positivity_margin - 1.5) > 1e-12:
        return (f"isotropic positivity margin {kernel.positivity_margin!r}, "
                f"expected 1.5")
    return None


def _check_weak_operators():
    mesh = build_mesh(2)
    for k in (1, 2):
        tables = _build_tables(k)
        # global linear fields have exact constant weak gradients
        coeffs = project_field(mesh, tables, lambda x, y: 2 * x - 3 * y + 1)
        pk = PkBasis(k)
        probe = pk.eval(np.array([[0.3, 0.8], [0.7, 0.2]]))
        for cell in range(mesh.n_cells):
            g = weak_gradient(mesh, tables, coeffs, cell)
            gx, gy = probe @ g[0], probe @ g[1]
            if np.abs(gx - 2.0).max() > 1e-12 or np.abs(gy + 3.0).max() > 1e-12:
                return f"weak gradient of a global linear wrong on cell {cell}"
        # total convection of constants vanishes (integration by parts)
        s = np.array([np.cos(0.6), np.sin(0.6)])
        ones = np.ones(tables.dof)
        for cell in range(mesh.n_cells):
            blk, nbr = weak_convection_blocks(
                tables, mesh.h, s, tuple(np.nonzero(mesh.neighbours[cell] < 0)[0]))
            total = ones @ (blk @ ones) + sum(ones @ (B @ ones)
                                              for B in nbr.values())
            if abs(total) > 1e-13:
                return f"constant-field convection {total:.2e} on cell {cell}"
    return None


def _check_coercivity():
    quad = build_circle_trapezoid(8)
    kernel = build_scatter_kernel(quad, Isotropic(), 2.0, 0.5)
    med = Medium(2.0, 0.5)
    rng = np.random.default_rng(2024)
    for level in (2, 3):
        mesh = build_mesh(level)
        for k in (1, 2):
            tables = _build_tables(k)
            shape = (len(quad), mesh.n_cells, tables.dof)
            for _ in range(25):
                v = rng.standard_normal(shape)
                a_vv = eval_bilinear(WG(), mesh, tables, quad, kernel, med, v, v)
                tri = triple_norm(mesh, tables, quad, v)
                floor = 0.5 * tri**2
                if a_vv < floor - 1e-10 * max(1.0, floor):
                    return (f"A(v, v) = {a_vv:.6e} below coercivity floor "
                            f"{floor:.6e} (level {level}, Q{k})")
    return None


def _check_constant_solutions():
    c0 = 0.75
    quad = build_circle_trapezoid(8)
    kernel = build_scatter_kernel(quad, Isotropic(), 2.0, 0.5)
    med = Medium(2.0, 0.5)
    mesh = build_mesh(2)

    def f(x, y, th):
        return 1.5 * c0

    def u_in(x, y, th):
        return c0

    for scheme in (WG(), DODG(), DODSD()):
        for k in (1, 2):
            tables = _build_tables(k)
            systems = [
                assemble_direction(scheme, mesh, tables, quad, kernel, med, m,
                                   f=f, u_in=u_in)
                for m in range(len(quad))
            ]
            coeffs = project_field(mesh, tables, lambda x, y: c0)
            field = np.repeat(coeffs[None], len(quad), axis=0)
            src = scattering_source(systems, kernel, quad, field)
            for m in range(len(quad)):
                res = systems[m].matrix @ field[m].ravel()
                res -= systems[m].rhs_fixed + src[m].ravel()
                if np.abs(res).max() > 1e-12:
                    return (f"constant-solution residual {np.abs(res).max():.2e} "
                            f"for {scheme.name} Q{k} ordinate {m}")
    return None


_SELFTEST_CHECKS = (
    ("angular quadrature and kernel", _check_quadrature),
    ("weak-operator identities", _check_weak_operators),
    ("coercivity sample", _check_coercivity),
    ("constant-solution residuals", _check_constant_solutions),
)


def selftest(stream=None):
    """Run the fast invariant suite; returns the number of failures."""
    stream = stream if stream is not None else sys.stdout
    failures = 0
    t0 = time.perf_counter()
    for name, check in _SELFTEST_CHECKS:
        detail = check()
        if detail is None:
            stream.write(f"ok   {name}\n")
        else:
            failures += 1
            stream.write(f"FAIL {name}: {detail}\n")
    wall = time.perf_counter() - t0
    stream.write(
        f"{len(_SELFTEST_CHECKS) - failures} of {len(_SELFTEST_CHECKS)} "
        f"checks passed in {wall:.1f}s\n"
    )
    return failures


def _cmd_selftest(cfg):
    return EXIT_SELFTEST if selftest() else EXIT_OK


_RUNNERS = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "compare": _cmd_compare,
    "angular-study": _cmd_angular,
    "selftest": _cmd_selftest,
}


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    try:
        cfg = parse_config(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return _RUNNERS[cfg.command](cfg)
    except (ValidationError, ValueError) as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverFailure as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

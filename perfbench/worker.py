"""One round of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --out DIR [--trace]
                                [--setup-only] [--smoke] [--fault NAME]

A round times the set-up (importing dowg and building the case,
quadrature, kernel, meshes and element tables through the public API),
then runs the real `dowg` command in-process through ``dowg.cli.main``
and times it as ``wall_s``.  Both times are given in seconds at the
reference speed of the host (see ``_reference_seconds``); the raw
wall-clock seconds are kept beside them.  Peak RSS is read right after
the command, before the checks allocate anything.  The checks then read
back the command's own output files and compare them with the
independent properties of ``accuracy.py``.

``--fault`` exists for the benchmark's test: ``early-stop`` runs the
command at outer tolerance 1e-2 while the checks still expect the
workload's tolerance, ``flip-inflow-sign`` runs it under the program's
``flip_inflow_sign`` fault hook.  Both must be flagged.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

from workloads import M, WORKLOADS  # noqa: E402

FAULTS = ("early-stop", "flip-inflow-sign")

# Reference speed.  The host's speed drifts by up to 1.7x over tens of
# seconds (other tenants share its cores), and the drift, not the
# program, dominated raw wall times.  A probe timed every few ms inside
# the timed code (traced or not) follows that drift, so a time is
# reported as its raw seconds, less the probes' own time, scaled by the
# probe's reference time over its mean time: the seconds the work would
# have taken at the speed at which the probe takes its reference time
# (about its time on the tuning host when quiet).  The mean, not the
# median, because a time sums the slow and the fast stretches alike; it
# is trimmed by PROBE_TRIM at each end against a probe that an interrupt
# lengthened.
#
# The command's probe is a run of tiny numpy products, dispatch-bound
# like dowg's per-cell numpy calls.  In repeated WG solves at 1/h = 32,
# DODSD solves at 1/h = 64 and example2 Q2 comparisons at 1/h = 4..16,
# the command's time grew as the 0.98th, 0.80th and 0.98th power of this
# probe's time, against the 1.43rd, 1.29th and 1.40th power of a
# pure-Python loop's, so scaling by it leaves the least of the drift.
# Set-up runs before numpy is imported, so it keeps the pure-Python loop.
COMMAND_PROBE_S = 0.05
SETUP_PROBE_S = 0.01   # set-up takes tenths of a second
PROBE_MIN = 20
PROBE_TRIM = 0.1
PYTHON_PROBE_REFERENCE_S = 3.0e-4
NUMPY_PROBE_REFERENCE_S = 2.0e-4


def _setup(workload, smoke):
    """Import dowg and build what the command builds before assembling."""
    import dowg

    levels = workload.smoke_levels if smoke else workload.levels
    case = dowg.build_case(workload.case)
    quad = dowg.build_circle_trapezoid(M)
    dowg.build_scatter_kernel(quad, case.phase, case.medium.sigma_t,
                              case.medium.sigma_s, renormalize=case.renormalize)
    for level in levels:
        dowg.build_mesh(level)
    dowg.ElementTables(dowg.LocalBasis(workload.k),
                       dowg.ElementQuadrature.build(workload.k))
    return dowg


def _python_probe():
    """The set-up's speed probe: a fixed pure-Python loop, timed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(5000):
        s += i * i
    return time.perf_counter() - t0


def _numpy_probe():
    """The command's speed probe: 100 products of an 8x8 matrix and a
    vector, timed."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    v = np.ones(8)

    def probe():
        t0 = time.perf_counter()
        for _ in range(100):
            a @ v + 1.0
        return time.perf_counter() - t0

    return probe


class _Speed:
    """The host's speed while some code runs, read by the probe.

    ``clock()`` is ``time.perf_counter()`` less the time the probes took
    so far, so a time or span read with it leaves them out.
    """

    def __init__(self, probe, reference_s):
        self.probe = probe
        self.reference_s = reference_s
        self.samples = []
        self.spent = 0.0

    def clock(self):
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        t = self.probe()
        self.samples.append(t)
        self.spent += t

    @contextlib.contextmanager
    def sampling(self, interval):
        """Time the probe every ``interval`` s of the enclosed code; the
        SIGALRM handler runs between two bytecodes of the main thread, so
        the probe sees the machine's speed of that moment."""
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self):
        """Factor from seconds of ``clock()`` to reference seconds; with
        too few samples, probes right after make up the rest."""
        samples = self.samples + [self.probe() for _ in range(PROBE_MIN - len(self.samples))]
        samples.sort()
        cut = int(PROBE_TRIM * len(samples))
        return self.reference_s / statistics.fmean(samples[cut:len(samples) - cut])


def _reference_seconds(speed, interval, fn, *args):
    """Run ``fn(*args)`` with the probe every ``interval`` s; return
    (result, raw seconds, seconds at the reference speed, scale)."""
    with speed.sampling(interval):
        t0, c0 = time.perf_counter(), speed.clock()
        result = fn(*args)
        raw, own = time.perf_counter() - t0, speed.clock() - c0
    scale = speed.scale()
    return result, raw, own * scale, scale


def _run_command(workload, out, smoke, trace, fault):
    """Run the command; returns (exit code, raw wall s, reference wall s,
    scale, peak RSS MB, captured solve, tracer or None)."""
    import dowg._hooks
    import dowg.cli

    argv = workload.argv(out, smoke)
    if fault == "early-stop":
        argv += ["--tol", "1e-2"]
    captured = []
    solve_case = dowg.cli.solve_case

    def capture(*args, **kwargs):
        captured.append(solve_case(*args, **kwargs))
        return captured[-1]

    speed = _Speed(_numpy_probe(), NUMPY_PROBE_REFERENCE_S)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(speed.clock)

    def command():
        if tracer is None:
            return dowg.cli.main(argv)
        return tracer.span("command", dowg.cli.main, argv)

    dowg.cli.solve_case = capture
    if tracer is not None:
        tracer.install()
    injected = (dowg._hooks.inject("flip_inflow_sign") if fault == "flip-inflow-sign"
                else contextlib.nullcontext())
    try:
        with injected, contextlib.redirect_stdout(io.StringIO()):
            rc, raw, wall, scale = _reference_seconds(speed, COMMAND_PROBE_S, command)
    finally:
        if tracer is not None:
            tracer.uninstall()
        dowg.cli.solve_case = solve_case
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rc, raw, wall, scale, peak, captured[-1] if captured else None, tracer


def _read_svg(path):
    with open(path) as fh:
        head = fh.read(200)
    if "<svg" not in head:
        raise ValueError(f"{path} is not an SVG document")


def _solve_operations(workload, out, level, solution):
    """One operation: the solve's reported error and its residual."""
    import dowg.assembly
    from accuracy import best_approximation_error, discrete_residual, row_failures

    base = os.path.join(out, f"solve_{workload.case}_{workload.schemes[0]}_Q{workload.k}")
    table = {}
    with open(base + ".md") as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2:
                table[cells[0]] = cells[1]
    with open(base + ".csv") as fh:
        trace_rows = list(csv.DictReader(fh))
    _read_svg(base + ".svg")
    error = float(table["error"])
    outer = int(table["outer iterations"])
    if len(trace_rows) != outer:
        raise ValueError(f"trace CSV has {len(trace_rows)} rows, table says {outer}")
    best = best_approximation_error(workload.case, workload.k, level, M)
    reasons = row_failures(error, best, workload.k)
    if table["converged"] != "True":
        reasons.append("the command reports no convergence")
    residual = discrete_residual(solution.systems, solution.kernel, solution.quad,
                                 solution.field, dowg.assembly.scattering_source)
    if not residual <= workload.nominal_tol:
        reasons.append(f"relative residual {residual:.3e} above the outer "
                       f"tolerance {workload.nominal_tol:g}")
    return [{"label": f"{workload.schemes[0]} 1/h={2**level}", "error": error,
             "best": best, "ratio": error / best, "order": None,
             "residual": residual, "outer_iterations": outer,
             "known_fault": False, "failures": reasons}]


def _compare_operations(workload, out, levels):
    """One operation per table row and scheme."""
    from accuracy import best_approximation_error, row_failures

    base = os.path.join(out, f"compare_{workload.case}_all_Q{workload.k}")
    with open(base + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(base + ".md") as fh:
        cells = [[c.strip() for c in line.strip().strip("|").split("|")]
                 for line in fh if line.startswith("|")]
    md_rows = [c for c in cells if c[0].isdigit()]
    _read_svg(base + ".svg")
    inv_h = [2**lv for lv in levels]
    if [int(r["inv_h"]) for r in rows] != inv_h or len(md_rows) != len(rows):
        raise ValueError(f"table rows do not match the levels {levels}")
    ops = []
    for level, row, md in zip(levels, rows, md_rows):
        best = best_approximation_error(workload.case, workload.k, level, M)
        for i, scheme in enumerate(workload.schemes):
            error = float(row[f"{scheme}_error"])
            if abs(float(md[1 + 2 * i]) - error) > 1e-4 * error:
                raise ValueError(f"markdown and CSV disagree on {scheme} 1/h={2**level}")
            order = float(row[f"{scheme}_eoc"]) if row[f"{scheme}_eoc"] else None
            ops.append({
                "label": f"{scheme} 1/h={2**level}", "error": error, "best": best,
                "ratio": error / best, "order": order,
                "known_fault": workload.known_fault and level != levels[0],
                "failures": row_failures(error, best, workload.k, order),
            })
    return ops


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--fault", choices=FAULTS)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    dowg, setup_raw, setup_s, _ = _reference_seconds(
        _Speed(_python_probe, PYTHON_PROBE_REFERENCE_S), SETUP_PROBE_S,
        _setup, workload, args.smoke)
    if os.path.dirname(os.path.dirname(os.path.abspath(dowg.__file__))) != SRC:
        raise SystemExit(f"dowg imported from {dowg.__file__}, not from {SRC}")
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw}
    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        rc, raw, wall, scale, peak, solution, tracer = _run_command(
            workload, args.out, args.smoke, args.trace, args.fault)
        if rc != 0:
            raise SystemExit(f"dowg {workload.command} exited with {rc}")
        levels = workload.smoke_levels if args.smoke else workload.levels
        if workload.command == "solve":
            ops = _solve_operations(workload, args.out, levels[0], solution)
        else:
            ops = _compare_operations(workload, args.out, levels)
        result.update(wall_s=wall, wall_raw_s=raw, peak_rss_mb=peak, operations=ops)
        if tracer is not None:
            result["layers"], result["modules"] = tracer.summary(scale)
            result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

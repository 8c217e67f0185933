"""Spans around calls into `dowg`, recorded from the benchmark's side.

The tracer replaces a function by a timing wrapper under the name its
caller looks it up by (``dowg.verify.assemble_direction`` is what the
study drivers call, ``dowg.solver.assemble_direction`` what the solver
calls for its preconditioner), so the program itself carries no
instrumentation.  Spans stay in memory as (name, start, end, parent)
and are written out once the round ends.

Times in the summary are scaled to the host's reference speed, like the
untraced ``wall_s`` (see worker.py), so ``trace.wall_s`` minus an
untraced ``wall_s`` is the tracing overhead.  The round's own estimate
of it, ``trace.overhead_s``, is its span count times the cost of one
span around a call that does nothing.
"""

import time

import dowg.cli
import dowg.solver
import dowg.verify

# (module, attribute, span name); the span name is the metric prefix
CALL_SITES = (
    (dowg.verify, "build_scatter_kernel", "angular.kernel"),
    (dowg.verify, "build_mesh", "mesh.build"),
    (dowg.verify, "ElementTables", "elements.tables"),
    (dowg.verify, "assemble_direction", "assembly.assemble"),
    (dowg.verify, "source_iteration", "solver.iterate"),
    (dowg.solver, "assemble_direction", "solver.precond_assemble"),
    (dowg.solver, "scattering_source", "assembly.scatter"),
    (dowg.solver, "l2_dom_norm", "assembly.norm"),
    (dowg.cli, "measure_error", "verify.measure_error"),
    (dowg.verify, "measure_error", "verify.measure_error"),
    (dowg.solver.IterationTrace, "to_csv", "reporting.write"),
) + tuple(
    (dowg.cli, attr, "reporting.write")
    for attr in sorted(vars(dowg.cli)) if attr.startswith("write_")
)


class Tracer:
    """Records nested spans; ``notes`` keeps per-span facts such as the
    outer iterations a source iteration returned."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the worker's clock leaves its speed probes out
        self.spans = []     # [name, start, end, parent index]
        self.notes = {}     # span index -> dict
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[index][2] = self.clock()
            self._stack.pop()
        if name == "solver.iterate":
            self.notes[index] = {"ordinates": len(args[0]),
                                 "outer": result[1].iterations}
        return result

    def install(self):
        for owner, attr, name in CALL_SITES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    @staticmethod
    def span_cost(n=2000):
        """Seconds one span adds to the call it wraps."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            probe.span("probe", int)
        traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            int()
        return max(traced - (time.perf_counter() - t0), 0.0) / n

    def summary(self, scale=1.0):
        """Per-name totals, self times and call counts, plus the layer
        metrics of the round (see README.md for their meaning); times
        are multiplied by ``scale``."""
        total, own, calls = {}, {}, {}
        for name, start, end, parent in self.spans:
            d = (end - start) * scale
            total[name] = total.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                pname = self.spans[parent][0]
                own[pname] = own.get(pname, 0.0) - d
        outer = sum(n["outer"] for n in self.notes.values())
        ordinate_solves = sum(n["outer"] * n["ordinates"] for n in self.notes.values())
        solver_self = own.get("solver.iterate", 0.0)
        metrics = {
            "angular.kernel_s": total.get("angular.kernel", 0.0),
            "mesh.build_s": total.get("mesh.build", 0.0),
            "elements.tables_s": total.get("elements.tables", 0.0),
            "assembly.assemble_s": total.get("assembly.assemble", 0.0),
            "assembly.assemble_calls": calls.get("assembly.assemble", 0),
            "assembly.scatter_s": total.get("assembly.scatter", 0.0),
            "assembly.scatter_calls": calls.get("assembly.scatter", 0),
            "assembly.norm_s": total.get("assembly.norm", 0.0),
            "solver.precond_assemble_calls": calls.get("solver.precond_assemble", 0),
            "solver.iterate_s": total.get("solver.iterate", 0.0),
            "solver.self_s": solver_self,
            "solver.outer_iterations": outer,
            "solver.ordinate_solve_ms": 1e3 * solver_self / max(ordinate_solves, 1),
            "verify.measure_error_s": total.get("verify.measure_error", 0.0),
            "reporting.write_s": total.get("reporting.write", 0.0),
            "trace.wall_s": total.get("command", 0.0),
            "trace.untimed_s": own.get("command", 0.0),
            "trace.overhead_s": len(self.spans) * self.span_cost() * scale,
        }
        modules = {n: {"total_s": total[n], "self_s": own[n], "calls": calls[n]}
                   for n in total}
        return metrics, modules

# Inside the solver: the fused sweep-scattering loop.
#
# Each sweep forms every ordinate's residual with the current iterate's
# scattering source and corrects the ordinate by P^{-1} of it, where P
# is the ordinate's own matrix at this desk-scale size (block elimination
# over the grid rows), so a sweep is one source-iteration pass.  The contraction factor is roughly
# sigma_s b / sigma_t (b = kernel row mass), so the stock configuration
# sigma_t = 2, sigma_s = 1/2 shaves the update norm by ~4x per pass.
# The loop stops once an iteration-error bound built from the update
# ratios and the coupled relative residual are both below the tolerance.
#
# Run from the repository root:  python3 demos/solver_anatomy.py

import pathlib

import numpy as np

from dowg import build_case, solve_case, write_trace_svg
from dowg.solver import SourceIterationConfig

out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# -- pure absorption ------------------------------------------------------
#
# With sigma_s = 0 there is nothing to lag: the first pass is already
# the discrete solution and the second pass certifies a ~zero update.

case0 = build_case("example1", sigma_s=0.0)
sol0 = solve_case(case0, k=1, level=3, M=8)
print(f"sigma_s = 0: converged in {sol0.trace.iterations} sweeps")

# -- the stock configuration ----------------------------------------------

sol = solve_case("example1", k=1, level=3, M=20,
                 cfg=SourceIterationConfig(tol=1e-8))
errs = np.asarray(sol.trace.errs)
print(f"sigma_s = 1/2: {sol.trace.iterations} sweeps to 1e-8: iteration-error "
      f"bound {sol.trace.bound:.2e}, relative residual {sol.trace.residual:.2e}")
print("update norms :", np.array2string(errs, formatter={"float": "{:.2e}".format}))
print("ratios       :", np.array2string(errs[1:] / errs[:-1],
                                        formatter={"float": "{:.3f}".format}))

# The trapezoid ordinate set keeps theta = 0 and theta = 2 pi as two
# rows with the same direction and right side; the loop solves that
# direction once and fills the last row from the first, so they agree
# exactly.
gap = np.max(np.abs(sol.field[0] - sol.field[-1]))
print(f"duplicate endpoint ordinates agree to {gap:.2e}")

write_trace_svg(sol.trace, out / "iteration_trace.svg",
                title="source iteration, example1, Q1, h=1/8")
print(f"wrote {out / 'iteration_trace.svg'}")

# A manufactured-solution convergence study, end to end.
#
# The solver integrates the 2D radiative transfer equation
#
#     s . grad u + sigma_t u = sigma_s (K u) + f        on (0,1)^2,
#
# over a set of discrete directions s_m (trapezoid rule on the circle)
# with a weak Galerkin discretization in space and source iteration for
# the scattering coupling.  With a manufactured exact solution we can
# refine the mesh, measure errors, and read off the convergence order.
#
# Run from the repository root:  python3 demos/convergence_study.py
# Reports land in demos/output/.

import pathlib
import sys

import numpy as np

from dowg import (
    build_case,
    measure_error,
    run_convergence,
    solve_case,
    write_convergence_csv,
    write_convergence_markdown,
    write_convergence_svg,
)

out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# -- one solve, by hand ---------------------------------------------------
#
# "example1" is u = sin(pi x) sin(pi y), the same intensity in every
# direction, with forward-peaked (Henyey-Greenstein) scattering and the
# stock cross sections sigma_t = 2, sigma_s = 1/2.  Twenty ordinate
# panels; mesh level 3 means h = 1/8.

case = build_case("example1")
sol = solve_case(case, k=1, level=3, M=20)
print(f"sweeps: {sol.trace.iterations} "
      f"(converged={sol.trace.converged})")
print("update norms:", np.array2string(np.asarray(sol.trace.errs),
                                       formatter={"float": "{:.3e}".format}))

# the solution field is one coefficient block per (ordinate, cell)
print("field shape (ordinates, cells, local dof):", sol.field.shape)

err, err_energy = measure_error(sol.field, case, sol.mesh, sol.tables, sol.quad)
print(f"weighted L2 error {err:.4e}, energy-norm error {err_energy:.4e}")

# -- refine and tabulate --------------------------------------------------
#
# Halving h should shrink the L2 error by ~2^(k+1); the energy norm
# (which adds |s.n|-weighted trace mismatch) trails half an order
# behind.  Three levels are enough to see the orders settle; the test
# suite pushes the same study to 1/h = 128.

report = run_convergence("example1", k=1, levels=range(3, 6))
write_convergence_markdown(report, sys.stdout)
print("energy-norm errors:",
      np.array2string(np.asarray(report.triple_errors),
                      formatter={"float": "{:.3e}".format}))

# an eoc near 2 for Q1 is the expected k+1; try k=2 for third order
report2 = run_convergence("example1", k=2, levels=range(3, 6))
write_convergence_markdown(report2, sys.stdout)

# -- reports --------------------------------------------------------------

write_convergence_csv(report, out / "sine_case_q1.csv")
write_convergence_markdown(report, out / "sine_case_q1.md")
write_convergence_svg([report, report2], out / "sine_case_orders.svg",
                      title="sine case, Q1 vs Q2")
print(f"wrote {out / 'sine_case_q1.csv'}, .md, and {out / 'sine_case_orders.svg'}")

"""Discrete-ordinate weak Galerkin (DOWG) solver for the 2D radiative
transfer equation on the unit square.

The package combines a discrete-ordinate angular discretization (composite
trapezoid rule on the unit circle) with a weak Galerkin finite element
spatial discretization on uniform quadrilateral meshes.  Upwind
discontinuous Galerkin (DODG) and discontinuous streamline diffusion
(DODSD) schemes are included as comparators, together with a
manufactured-solution harness that measures errors and empirical
convergence orders.
"""

from .angular import (
    AngularQuadrature,
    HenyeyGreenstein,
    Isotropic,
    LinearAnisotropic,
    ScatterKernel,
    apply_scatter,
    build_circle_trapezoid,
    build_scatter_kernel,
    eval_phase,
    normalization_residual,
)
from .mesh import QuadMesh, build_mesh
from .elements import (
    ElementQuadrature,
    ElementTables,
    LocalBasis,
    project_field,
    weak_convection_blocks,
    weak_gradient,
)
from .assembly import (
    DODG,
    DODSD,
    WG,
    DirectionSystem,
    Medium,
    assemble_direction,
    eval_bilinear,
    l2_dom_norm,
    triple_norm,
)
from .solver import (
    IterationTrace,
    SolverFailure,
    SourceIterationConfig,
    source_iteration,
)
from .verify import (
    AngularStudyReport,
    ConvergenceReport,
    ManufacturedCase,
    build_case,
    dominance_ratios,
    measure_error,
    run_angular_study,
    run_comparison,
    run_convergence,
    solve_case,
)
from .reporting import (
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

__version__ = "0.1.0"

"""Angular quadratures, phase functions, and the discrete scattering kernel.

The transport solver discretizes the angular variable with a composite
trapezoid rule on the unit circle (``build_circle_trapezoid``).

The scattering integral is replaced by its quadrature discretization

    (K u)(x, s_m) = sum_l w_l Phi(s_m . s_l) u(x, s_l),

stored as a dense matrix over the ordinate set (``ScatterKernel``).  The
row masses b_m = sum_l w_l Phi(s_m . s_l) control solvability: source
iteration and coercivity both require the margin sigma_t - sigma_s * max_m
b_m to stay positive.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AngularQuadrature",
    "HenyeyGreenstein",
    "LinearAnisotropic",
    "Isotropic",
    "ScatterKernel",
    "build_circle_trapezoid",
    "eval_phase",
    "build_scatter_kernel",
    "apply_scatter",
    "normalization_residual",
]


@dataclass(frozen=True)
class AngularQuadrature:
    """Ordinate angles, weights and directions for the discrete-ordinate
    method, one row per ordinate.

    Attributes
    ----------
    thetas : ndarray, shape (L,)
        Angles in radians on [0, 2*pi].
    weights : ndarray, shape (L,)
        Strictly positive; sums to 2*pi.
    vectors : ndarray, shape (L, 2)
        Direction s_m = (cos theta_m, sin theta_m); unit length to rounding.
        A component that is zero in exact arithmetic (an axis-aligned
        ordinate) is stored as an exact 0.0, so s_m.n is exactly 0 on the
        cell sides parallel to s_m.
    """

    thetas: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray

    def __len__(self):
        return len(self.thetas)


def build_circle_trapezoid(M):
    """Composite trapezoid rule on the unit circle with M panels.

    Returns M+1 ordinates theta_m = m*h, m = 0..M, with the endpoint
    weights halved: w_0 = w_M = h/2 and w_m = h in the interior.
    theta_0 = 0 and theta_M = 2*pi carry the same direction vector, so
    the kernel rows and columns of the two are equal too.  The rule keeps
    both rows and their weights; source iteration checks the last against
    the first, solves the direction once with the summed weight h, and
    fills the last row of the field from the first (``solver._fold``).

    Parameters
    ----------
    M : int
        Number of panels, M >= 2.  The angular spacing is h = 2*pi/M.
    """
    M = int(M)
    if M < 2:
        raise ValueError(f"circle trapezoid rule needs M >= 2, got {M}")
    h = 2.0 * np.pi / M
    thetas = h * np.arange(M + 1)
    vectors = np.column_stack([np.cos(thetas), np.sin(thetas)])
    # snap rounding noise at axis-aligned angles to exact zeros, so s.n
    # is exactly 0 on the cell sides parallel to those ordinates
    vectors[np.abs(vectors) < 1e-14] = 0.0
    # pin the duplicated endpoint to the exact same vector as theta=0
    vectors[-1] = vectors[0]
    weights = np.full(M + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    return AngularQuadrature(thetas, weights, vectors)


@dataclass(frozen=True)
class HenyeyGreenstein:
    """Henyey-Greenstein phase function with anisotropy eta in (-1, 1).

    Phi(t) = (1 / (2 pi)) * (1 - eta^2) / (1 + eta^2 - 2 eta t)^{3/2}.

    This is the sphere's 3/2 exponent with the circle's 1/(2 pi), so its
    circle integral is not 1 (about 1.418 at eta = 0.5), which is why
    ``build_scatter_kernel`` exposes a ``renormalize`` switch.
    """

    eta: float

    def __post_init__(self):
        if not -1.0 < self.eta < 1.0:
            raise ValueError(f"anisotropy eta must lie in (-1, 1), got {self.eta}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        denom = 2.0 * np.pi * (1.0 + self.eta**2 - 2.0 * self.eta * t) ** 1.5
        return (1.0 - self.eta**2) / denom


@dataclass(frozen=True)
class LinearAnisotropic:
    """Phi(t) = (2 + t) / (4 pi); unit circle integral for any direction."""

    def __call__(self, t):
        return (2.0 + np.asarray(t, dtype=float)) / (4.0 * np.pi)


@dataclass(frozen=True)
class Isotropic:
    """Constant phase function 1/(2 pi), of unit circle integral."""

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), 1.0 / (2.0 * np.pi))


def eval_phase(phase, t):
    """Evaluate a phase function at cosine(s) t, enforcing t in [-1, 1].

    Values outside [-1, 1] by more than 1e-12 raise ValueError; smaller
    rounding overshoot is clamped.
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        bad = t[np.abs(t) > 1.0 + 1e-12]
        raise ValueError(f"phase cosine outside [-1, 1]: {bad.flat[0]}")
    t = np.clip(t, -1.0, 1.0)
    return phase(t)


@dataclass(frozen=True)
class ScatterKernel:
    """Discrete scattering kernel over an ordinate set.

    Attributes
    ----------
    matrix : ndarray, shape (L, L)
        Entry [m, l] = Phi(s_m . s_l) (after optional row renormalization).
    row_mass : ndarray, shape (L,)
        b_m = sum_l w_l Phi(s_m . s_l).
    sigma_t, sigma_s : float
        Total and scattering cross-sections, sigma_t > sigma_s >= 0.
    positivity_margin : float
        sigma_t - sigma_s * max_m b_m.  Must be positive for a solvable
        configuration; recorded here either way, callers decide.
    renormalized : bool
        True if each row was divided by its raw mass so b_m = 1.
    """

    matrix: np.ndarray
    row_mass: np.ndarray
    sigma_t: float
    sigma_s: float
    positivity_margin: float
    renormalized: bool = False


def build_scatter_kernel(quad, phase, sigma_t, sigma_s, renormalize=False):
    """Tabulate Phi(s_m . s_l) over a quadrature and record diagnostics.

    Parameters
    ----------
    quad : AngularQuadrature
    phase : callable
        Phase function Phi(t) for cosine t.
    sigma_t, sigma_s : float
        Cross-sections with sigma_t > sigma_s >= 0.
    renormalize : bool, optional
        Divide each row of the phase matrix by its raw row mass so that
        the discrete kernel preserves constants exactly (b_m = 1).
        Default False: the phase formula is used verbatim.
    """
    if not sigma_t > sigma_s >= 0.0:
        raise ValueError(
            f"need sigma_t > sigma_s >= 0, got sigma_t={sigma_t}, sigma_s={sigma_s}"
        )
    cosines = quad.vectors @ quad.vectors.T
    matrix = eval_phase(phase, cosines)
    row_mass = matrix @ quad.weights
    if renormalize:
        matrix = matrix / row_mass[:, None]
        row_mass = matrix @ quad.weights
    margin = sigma_t - sigma_s * float(row_mass.max())
    return ScatterKernel(matrix, row_mass, float(sigma_t), float(sigma_s), margin, renormalize)


def apply_scatter(kernel, quad, values, out=None):
    """Apply the discrete scattering operator at a point.

    out[m] = sum_l w_l * Phi[m, l] * values[l].  ``values`` may carry
    trailing axes (e.g. per-cell coefficient blocks); the ordinate axis
    must come first.  One matrix product of the weighted (L, L) kernel
    with the (L, -1) view of ``values`` forms the result, written into
    ``out`` (C-contiguous, the shape of ``values``) if given.
    """
    values = np.asarray(values, dtype=float)
    L = len(quad)
    if values.shape[0] != L:
        raise ValueError(f"expected {L} per-ordinate values, got {values.shape[0]}")
    if out is None:
        out = np.empty(values.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous, to be written through its (L, -1) view")
    np.matmul(kernel.matrix * quad.weights[None, :], values.reshape(L, -1), out=out.reshape(L, -1))
    return out


def normalization_residual(kernel):
    """Per-ordinate defect |1 - b_m| of the discrete kernel row masses."""
    return np.abs(1.0 - kernel.row_mass)

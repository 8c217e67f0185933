"""Independent accuracy properties the benchmark checks a run against.

Nothing here imports ``dowg.verify`` or ``dowg.elements``: the exact
solutions, the angular rule and the element projection are written out
again from their definitions, so a fault in the program's own error
measurement cannot hide itself.

The reference quantity is the best-approximation error: the per-cell
L2 projection of the exact solution onto broken Q_k, measured in the
same angularly weighted broken L2 norm the program tabulates,

    E_best^2 = sum_m w_m sum_T || u(., theta_m) - P_k u(., theta_m) ||_T^2.

Every discrete solution of a scheme is a broken Q_k field, so the
measured error is never below E_best; a consistent, stable scheme stays
within a fixed multiple of it.
"""

import numpy as np

# Properties, set from tight-tolerance solves (outer tol 1e-10 for the
# compare rows, 1e-9 for single solves): see README.md, "Reference values".
MAX_ERROR_RATIO = 4.0   # measured error / E_best; tight solves reach 2.61
ORDER_BAND = 0.3        # |observed order - (k + 1)|, tight orders 2.94-3.02
ROUNDING = 1e-4         # slack for errors read back from printed tables

SIGMA_S = 0.5  # stock scattering cross section; example2 depends on it


def exact_solution(case):
    """u(x, y, theta) of the stock manufactured cases."""
    if case == "example1":
        return lambda x, y, th: np.sin(np.pi * x) * np.sin(np.pi * y) + 0.0 * th
    if case == "example2":
        c = 1.0 / (1.0 + 6.0 * SIGMA_S)
        return lambda x, y, th: np.exp(-0.5 * x - 0.5 * y) * (1.0 + c * np.cos(th))
    raise ValueError(f"no exact solution for case {case!r}")


def trapezoid_ordinates(M):
    """Angles 2 pi m / M, m = 0..M, with halved end weights."""
    h = 2.0 * np.pi / M
    weights = np.full(M + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    return h * np.arange(M + 1), weights


def _orthonormal_legendre(k, t):
    """sqrt(2i+1) P_i(2t - 1), i = 0..k, orthonormal on [0, 1]; (len(t), k+1)."""
    cols = []
    for i in range(k + 1):
        coef = np.zeros(i + 1)
        coef[i] = 1.0
        cols.append(np.sqrt(2 * i + 1) * np.polynomial.legendre.legval(2 * t - 1, coef))
    return np.stack(cols, axis=-1)


def best_approximation_error(case, k, level, M):
    """Angularly weighted broken-L2 error of the per-cell L2 projection
    of the exact solution onto Q_k on the uniform 2^level grid."""
    u = exact_solution(case)
    n = 2**level
    h = 1.0 / n
    g, gw = np.polynomial.legendre.leggauss(k + 5)
    t, tw = 0.5 * (g + 1.0), 0.5 * gw
    P1 = _orthonormal_legendre(k, t)                       # (q, k+1)
    Psi = np.einsum("ai,bj->abij", P1, P1).reshape(len(t) ** 2, -1)
    W = np.outer(tw, tw).ravel()                           # x index slow
    X = (np.arange(n)[:, None] + t[None, :]) * h           # (cells per axis, q)
    XX = np.broadcast_to(X[:, None, :, None], (n, n, len(t), len(t))).reshape(n * n, -1)
    YY = np.broadcast_to(X[None, :, None, :], (n, n, len(t), len(t))).reshape(n * n, -1)
    thetas, weights = trapezoid_ordinates(M)
    total = 0.0
    for th, w in zip(thetas, weights):
        U = u(XX, YY, th)                                  # (cells, q*q)
        coef = U @ (W[:, None] * Psi)
        R = U - coef @ Psi.T
        total += w * h * h * float(np.sum(R * R * W[None, :]))
    return float(np.sqrt(total))


def row_failures(error, best, k, order=None):
    """Reasons one measured table row or solve violates the properties."""
    reasons = []
    if not error >= best * (1.0 - ROUNDING):
        reasons.append(f"error {error:.6g} below the best approximation {best:.6g}")
    if not error <= MAX_ERROR_RATIO * best:
        reasons.append(
            f"error {error:.6g} is {error / best:.2f}x the best approximation "
            f"(limit {MAX_ERROR_RATIO}x)"
        )
    if order is not None and not abs(order - (k + 1)) <= ORDER_BAND:
        reasons.append(f"order {order:.3f} outside {k + 1} +- {ORDER_BAND}")
    return reasons


def discrete_residual(systems, kernel, quad, field, scattering_source):
    """Relative residual ||A u - F - S(u)|| / ||F + S(u)|| of a returned
    field in the assembled per-ordinate equations, lagged scattering
    evaluated at the field itself."""
    src = scattering_source(systems, kernel, quad, field)
    num = den = 0.0
    for m, system in enumerate(systems):
        rhs = system.rhs_fixed + src[m].ravel()
        r = system.matrix @ field[m].ravel() - rhs
        num += float(r @ r)
        den += float(rhs @ rhs)
    return float(np.sqrt(num / den))

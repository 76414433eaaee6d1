"""scipy forms of three numerical routines the package computes without it.

The L-BFGS maximum-likelihood fit on the Cholesky parametrization
rho = T'T/tr(T'T), the chi-square survival function ``chdtrc`` and the
clipped-Gaussian tooth characteristic through the Faddeeva function
``wofz``.  Tests hold the exact qubit MLE, the finite chi-square series
and the quadrature tooth to them.  ``chdtrc`` is itself off by up to
about 1.2e-12 relative at several hundred dof far in the tail, so a
40-digit mpmath value settles where the two disagree by more.
"""

import cmath
import math

import mpmath
import numpy as np
from scipy.optimize import minimize
from scipy.special import chdtrc, wofz  # noqa: F401  (chdtrc is re-exported)

from lgi_echo.tomography import analyzer_probabilities, bloch_from_frequencies

# Bloch vectors n_k of the analyzers, in BASIS_LABELS order
_ANALYZERS = np.array(
    [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
)


def _factor_bloch(theta):
    """u and s with r = u/s the Bloch vector of T'T/tr(T'T), where
    T = [[t0, 0], [t2 + i t3, t1]] and s = tr(T'T)."""
    t0, t1, t2, t3 = theta
    u = np.array([2.0 * t1 * t2, 2.0 * t1 * t3, t0 * t0 + t2 * t2 + t3 * t3 - t1 * t1])
    return u, float(theta @ theta)


def _start_factor(r):
    """theta of the reverse-Cholesky factor T, T'T = (rho + eps I)/(1 + 2 eps)."""
    x, y, z = r
    eps = 1e-12
    norm = 1.0 + 2.0 * eps
    rho11 = (0.5 * (1.0 - z) + eps) / norm
    det = (0.25 * max(1.0 - (x * x + y * y + z * z), 0.0) + eps + eps * eps) / norm**2
    t1 = math.sqrt(rho11)
    return np.array([math.sqrt(det / rho11), t1, 0.5 * x / norm / t1, 0.5 * y / norm / t1])


def lbfgs_bloch(counts, shots, tol=1e-10, max_iter=10**4):
    """Bloch vector of the L-BFGS fit, started at the projected linear
    inversion and stopped when the log-likelihood gains less than tol."""
    counts = np.asarray(counts, dtype=np.float64)
    misses = shots - counts

    def objective(theta):
        u, scale = _factor_bloch(theta)
        p = np.clip(analyzer_probabilities(u / scale), 1e-14, 1.0 - 1e-14)
        ll = counts @ np.log(p) + misses @ np.log(1.0 - p)
        g = 0.5 * (counts / p - misses / (1.0 - p)) @ _ANALYZERS
        t0, t1, t2, t3 = theta
        du = 2.0 * np.array([[0.0, t2, t1, 0.0], [0.0, t3, 0.0, t1], [t0, -t1, t2, t3]])
        grad = (g @ du - 2.0 * (g @ u) / scale * theta) / scale
        return -ll, -grad

    r0, _ = bloch_from_frequencies(counts / shots)
    result = minimize(
        objective,
        _start_factor(r0),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": max_iter,
            "ftol": tol / max(1.0, 4.0 * shots),
            "gtol": 1e-12,
            "maxls": 50,
        },
    )
    u, scale = _factor_bloch(result.x)
    return u / scale


def chi2_survival_40_digits(dof, chi2):
    """P(X >= chi2) for X chi-square with dof degrees of freedom, to 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(chi2) / 2,
                                     mpmath.inf, regularized=True))


def tooth_characteristic(sigma, half_width, t):
    """E[cos(2 pi t eps)] of a Gaussian of standard deviation sigma clipped
    to [-a, a], a = half_width, through the Faddeeva function."""
    if sigma == 0.0:
        return 1.0
    omega = 2.0 * math.pi * t
    a = half_width
    z = complex(a, sigma * sigma * omega) / (sigma * math.sqrt(2.0))
    body = (math.exp(-0.5 * (sigma * omega) ** 2)
            - math.exp(-0.5 * (a / sigma) ** 2)
            * (cmath.exp(-1j * a * omega) * complex(wofz(1j * z))).real)
    return body + math.erfc(a / (sigma * math.sqrt(2.0))) * math.cos(omega * a)

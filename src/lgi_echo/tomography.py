"""Polarization tomography in the four analyzer bases H, V, H+iV, H+V.

These are the analyzer settings of James, Kwiat, Munro and White, PRA
64, 052312 (2001).  Analyzer k is a pure state with Bloch vector n_k,
so a state with Bloch vector r passes it with probability (1 + n_k.r)/2:
the H/V pair reads z, H+iV reads y and H+V reads x.

Reconstruction is offered two ways.  Linear inversion reads the Bloch
vector off the frequencies, r = (2 p_{H+V} - 1, 2 p_{H+iV} - 1,
p_H - p_V), and maps an unphysical |r| > 1 to r/|r|, which is exactly
the eigenvalue clip and renormalization of the 2x2 matrix.  Maximum
likelihood maximizes the per-basis binomial likelihood on the
Cholesky-factorized PSD parametrization rho = T'T/tr, iterated with a
gradient (L-BFGS) ascent started from the factor of the projected
linear inversion, so its likelihood can never fall below the linear
estimate.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._rng import STREAM_TOMOGRAPHY, stream
from .errors import DomainError, InvariantViolation
from .quantum import DensityMatrix, PolarState

BASIS_LABELS = ("H", "V", "H+iV", "H+V")

# Bloch vectors n_k of the analyzers, in BASIS_LABELS order
_ANALYZERS = np.array(
    [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
)

# linear inversion projects when the smaller eigenvalue (1 - |r|)/2 is
# below -1e-12, so noiseless data of a pure state is left as it is
_PROJECT_TOL = 2e-12


def default_bases():
    """The four analyzer states, in the fixed measurement order."""
    return (
        PolarState.h(),
        PolarState.v(),
        PolarState.hv_circular(),
        PolarState.hv_diagonal(),
    )


def analyzer_probabilities(r) -> np.ndarray:
    """Born probabilities (1 + n_k.r)/2 of the four analyzers.

    r holds Bloch vectors along its last axis, shape (..., 3); the result
    has shape (..., 4), clamped to [0, 1] against rounding.
    """
    return np.clip(0.5 * (1.0 + np.asarray(r) @ _ANALYZERS.T), 0.0, 1.0)


def bloch_from_frequencies(freqs):
    """Projected linear inversion of analyzer frequencies.

    freqs has shape (..., 4) in BASIS_LABELS order.  Returns the Bloch
    vectors, shape (..., 3), and a boolean array, shape (...), that is
    true where |r| exceeded 1 and r was scaled back onto the sphere.
    """
    f = np.asarray(freqs, dtype=np.float64)
    r = np.stack(
        [2.0 * f[..., 3] - 1.0, 2.0 * f[..., 2] - 1.0, f[..., 0] - f[..., 1]], axis=-1
    )
    length = np.sqrt(np.sum(r * r, axis=-1))
    projected = length > 1.0 + _PROJECT_TOL
    return r / np.where(projected, length, 1.0)[..., None], projected


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TomographyData:
    """Click counts from shots_per_basis analyzer passes per basis.

    counts follow BASIS_LABELS and may be non-integral only for
    exact-frequency (noiseless) datasets; simulated data is integral.
    """

    shots_per_basis: int
    counts: np.ndarray

    def __post_init__(self):
        if self.shots_per_basis < 1:
            raise InvariantViolation("shots_per_basis must be >= 1")
        c = np.asarray(self.counts, dtype=np.float64)
        if c.shape != (len(BASIS_LABELS),):
            raise InvariantViolation("need one count per basis")
        if np.any(c < 0.0) or np.any(c > self.shots_per_basis + 1e-9):
            raise InvariantViolation("counts must lie in [0, shots_per_basis]")
        object.__setattr__(self, "counts", c)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots_per_basis


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Output of mle_reconstruct.

    ll_path records the accepted-iterate log-likelihoods, which are
    non-decreasing by construction of the line search.
    """

    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    ll_path: tuple = ()

    def to_json(self) -> str:
        m = self.rho.elements
        return json.dumps(
            {
                "rho": [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m],
                "log_likelihood": self.log_likelihood,
                "iterations": self.iterations,
                "converged": self.converged,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate_tomography(rho_true: DensityMatrix, shots_per_basis: int,
                        seed: int, stream_index: int = 0) -> TomographyData:
    """Binomial sampling of the Born probabilities, one draw per basis.

    rho_true is interpreted in the HV basis.  Deterministic per seed.
    stream_index distinguishes repeated draws inside one run.
    """
    if shots_per_basis < 1:
        raise DomainError("shots_per_basis must be >= 1")
    rng = stream(seed, STREAM_TOMOGRAPHY, stream_index)
    probs = analyzer_probabilities(rho_true.bloch())
    return TomographyData(shots_per_basis,
                          rng.binomial(shots_per_basis, probs).astype(np.float64))


def exact_tomography(rho_true: DensityMatrix, shots_per_basis: int = 10**6) -> TomographyData:
    """Noiseless dataset: counts are the exact expected frequencies."""
    return TomographyData(shots_per_basis,
                          shots_per_basis * analyzer_probabilities(rho_true.bloch()))


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

def linear_inversion(data: TomographyData, with_flag: bool = False):
    """Stokes-parameter inversion of the four measured frequencies.

    z comes from the H/V pair (which also carries the normalization),
    x from H+V and y from H+iV.  A Bloch vector longer than 1 is scaled
    back onto the sphere, which is the truncation of the negative
    eigenvalue with renormalization; the boolean flag (second return
    value when with_flag) records whether that happened.
    """
    r, projected = bloch_from_frequencies(data.frequencies())
    rho = DensityMatrix.from_bloch(*r)
    return (rho, bool(projected)) if with_flag else rho


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

def log_likelihood(rho: DensityMatrix, data: TomographyData) -> float:
    """Binomial log-likelihood of rho for the dataset (constants dropped)."""
    p = np.clip(analyzer_probabilities(rho.bloch()), 1e-300, 1.0 - 1e-16)
    n = data.counts
    return float(n @ np.log(p) + (data.shots_per_basis - n) @ np.log(1.0 - p))


def _factor_bloch(theta):
    """u and s with r = u/s the Bloch vector of T'T/tr(T'T), where
    T = [[t0, 0], [t2 + i t3, t1]] and s = tr(T'T)."""
    t0, t1, t2, t3 = theta
    u = np.array([2.0 * t1 * t2, 2.0 * t1 * t3, t0 * t0 + t2 * t2 + t3 * t3 - t1 * t1])
    return u, float(theta @ theta)


def _start_factor(r) -> np.ndarray:
    """theta of the reverse-Cholesky factor T, T'T = (rho + eps I)/(1 + 2 eps).

    The eps shift keeps T invertible at a pure linear-inversion estimate.
    T'T = [[t0^2 + |c|^2, conj(c) t1], [c t1, t1^2]] with c = t2 + i t3,
    so t1 = sqrt(rho_11), c = rho_10/t1 and t0 = sqrt(det(rho)/rho_11).
    """
    x, y, z = r
    eps = 1e-12
    norm = 1.0 + 2.0 * eps
    rho11 = (0.5 * (1.0 - z) + eps) / norm
    det = (0.25 * max(1.0 - (x * x + y * y + z * z), 0.0) + eps + eps * eps) / norm**2
    t1 = math.sqrt(rho11)
    return np.array([math.sqrt(det / rho11), t1, 0.5 * x / norm / t1, 0.5 * y / norm / t1])


def mle_reconstruct(data: TomographyData, tol: float = 1e-10,
                    max_iter: int = 10**4) -> ReconstructionResult:
    """Maximum-likelihood state estimate on rho = T'T / tr(T'T).

    T is lower triangular with real diagonal (4 real parameters), so
    every iterate is PSD with unit trace by construction.  The gradient
    iteration starts at the projected linear inversion and stops when
    the log-likelihood improvement drops below tol.
    """
    if float(np.sum(data.counts)) < 4.0:
        raise DomainError("need at least 4 total counts across the bases")
    if tol <= 0.0 or max_iter < 1:
        raise DomainError("tol must be > 0 and max_iter >= 1")
    shots = data.shots_per_basis
    counts = data.counts
    misses = shots - counts

    def objective(theta):
        u, scale = _factor_bloch(theta)
        p = np.clip(analyzer_probabilities(u / scale), 1e-14, 1.0 - 1e-14)
        ll = counts @ np.log(p) + misses @ np.log(1.0 - p)
        # dLL/dr, then the chain rule through r = u / scale
        g = 0.5 * (counts / p - misses / (1.0 - p)) @ _ANALYZERS
        t0, t1, t2, t3 = theta
        du = 2.0 * np.array([[0.0, t2, t1, 0.0], [0.0, t3, 0.0, t1], [t0, -t1, t2, t3]])
        grad = (g @ du - 2.0 * (g @ u) / scale * theta) / scale
        return -ll, -grad

    li_rho = linear_inversion(data)
    theta0 = _start_factor(li_rho.bloch())

    ll_path = []

    def record(theta):
        ll_path.append(-objective(theta)[0])

    total_counts = 4.0 * shots
    result = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={
            "maxiter": max_iter,
            "ftol": tol / max(1.0, total_counts),
            "gtol": 1e-12,
            "maxls": 50,
        },
    )
    u, scale = _factor_bloch(result.x)
    rho = DensityMatrix.from_bloch(*(u / scale))
    final_ll = float(-result.fun)
    # a line-search abort at an already-optimal start reports failure;
    # a vanishing gradient is still convergence
    grad_small = float(np.max(np.abs(result.jac))) <= 1e-4 * math.sqrt(max(1.0, total_counts))
    converged = bool(result.success) or grad_small

    li_ll = log_likelihood(li_rho, data)
    if final_ll < li_ll - max(tol, 1e-9 * abs(li_ll)):
        raise InvariantViolation(
            "optimizer ended below the linear-inversion likelihood "
            f"({final_ll} < {li_ll})"
        )
    return ReconstructionResult(
        rho=rho,
        log_likelihood=final_ll,
        iterations=int(result.nit),
        converged=converged,
        ll_path=tuple(ll_path),
    )

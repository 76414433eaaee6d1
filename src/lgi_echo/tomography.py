"""Polarization tomography in the four analyzer bases H, V, H+iV, H+V.

Reconstruction is offered two ways: direct Stokes-parameter (linear)
inversion with eigenvalue projection, and maximum likelihood over the
physical state space.  The MLE maximizes the per-basis binomial
likelihood on a Cholesky-factorized PSD parametrization rho = T'T/tr,
iterated with a gradient (L-BFGS) ascent started from the projected
linear inversion, so its likelihood can never fall below the linear
estimate.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from ._rng import STREAM_TOMOGRAPHY, stream
from .errors import DomainError, InvariantViolation
from .quantum import DensityMatrix, PolarState, born_probability

BASIS_LABELS = ("H", "V", "H+iV", "H+V")

_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def default_bases():
    """The four analyzer states, in the fixed measurement order."""
    return (
        PolarState.h(),
        PolarState.v(),
        PolarState.hv_circular(),
        PolarState.hv_diagonal(),
    )


def _is_default_bases(bases) -> bool:
    for ours, canon in zip(bases, default_bases()):
        if abs(ours.overlap(canon)) ** 2 < 1.0 - 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TomographyData:
    """Click counts from shots_per_basis analyzer passes per basis.

    counts may be non-integral only for exact-frequency (noiseless)
    datasets; simulated data is integral.
    """

    shots_per_basis: int
    counts: np.ndarray
    bases: tuple = field(default_factory=default_bases)

    def __post_init__(self):
        if self.shots_per_basis < 1:
            raise InvariantViolation("shots_per_basis must be >= 1")
        c = np.asarray(self.counts, dtype=np.float64)
        if c.shape != (len(self.bases),):
            raise InvariantViolation("need one count per basis")
        if np.any(c < 0.0) or np.any(c > self.shots_per_basis + 1e-9):
            raise InvariantViolation("counts must lie in [0, shots_per_basis]")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "bases", tuple(self.bases))

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
    counts = np.array(
        [
            rng.binomial(shots_per_basis, born_probability(rho_true, b))
            for b in default_bases()
        ],
        dtype=np.float64,
    )
    return TomographyData(shots_per_basis, counts)


def exact_tomography(rho_true: DensityMatrix, shots_per_basis: int = 10**6) -> TomographyData:
    """Noiseless dataset: counts are the exact expected frequencies."""
    counts = np.array(
        [shots_per_basis * born_probability(rho_true, b) for b in default_bases()]
    )
    return TomographyData(shots_per_basis, counts)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

def linear_inversion(data: TomographyData, with_flag: bool = False):
    """Stokes-parameter inversion of the four measured frequencies.

    z comes from the H/V pair (which also carries the normalization),
    x from H+V and y from H+iV.  A non-PSD intermediate is projected by
    truncating negative eigenvalues and renormalizing; the boolean flag
    (second return value when with_flag) records whether that happened.
    """
    if not _is_default_bases(data.bases):
        raise DomainError("linear inversion requires the standard H,V,H+iV,H+V bases")
    p_h, p_v, p_circ, p_diag = data.frequencies()
    z = p_h - p_v
    x = 2.0 * p_diag - 1.0
    y = 2.0 * p_circ - 1.0
    raw = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128)
    eigs, vecs = np.linalg.eigh(raw)
    projected = bool(eigs[0] < -1e-12)
    if projected:
        eigs = np.clip(eigs, 0.0, None)
        eigs = eigs / eigs.sum()
        raw = (vecs * eigs) @ vecs.conj().T
    rho = DensityMatrix(raw)
    return (rho, projected) if with_flag else rho


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

def _projectors(bases):
    out = []
    for b in bases:
        v = b.amplitudes()
        out.append(np.outer(v, np.conj(v)))
    return out


def log_likelihood(rho: DensityMatrix, data: TomographyData) -> float:
    """Binomial log-likelihood of rho for the dataset (constants dropped)."""
    total = 0.0
    shots = data.shots_per_basis
    for proj_state, n in zip(data.bases, data.counts):
        p = born_probability(rho, proj_state)
        p = min(max(p, 1e-300), 1.0 - 1e-16)
        if n > 0:
            total += n * math.log(p)
        if shots - n > 0:
            total += (shots - n) * math.log(1.0 - p)
    return total


def _lower_cholesky_factor(rho_elements: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T'T = rho (reverse Cholesky)."""
    flipped = _SWAP @ rho_elements @ _SWAP
    lower = np.linalg.cholesky(flipped)
    return _SWAP @ lower.conj().T @ _SWAP


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
    projectors = _projectors(data.bases)
    eye = np.eye(2, dtype=np.complex128)

    def objective(theta):
        t_mat = np.array(
            [[theta[0], 0.0], [theta[2] + 1j * theta[3], theta[1]]], dtype=np.complex128
        )
        gram = t_mat.conj().T @ t_mat
        scale = float(np.real(np.trace(gram)))
        rho = gram / scale
        ll = 0.0
        accum = np.zeros((2, 2), dtype=np.complex128)
        for proj, n in zip(projectors, counts):
            p = float(np.real(np.trace(rho @ proj)))
            p = min(max(p, 1e-14), 1.0 - 1e-14)
            if n > 0:
                ll += n * math.log(p)
            if shots - n > 0:
                ll += (shots - n) * math.log(1.0 - p)
            accum += (n / p - (shots - n) / (1.0 - p)) * proj
        mu = float(np.real(np.trace(accum @ rho)))
        grad_t = t_mat @ accum - mu * t_mat
        grad = (
            np.array(
                [
                    2.0 * np.real(grad_t[0, 0]),
                    2.0 * np.real(grad_t[1, 1]),
                    2.0 * np.real(grad_t[1, 0]),
                    2.0 * np.imag(grad_t[1, 0]),
                ]
            )
            / scale
        )
        return -ll, -grad

    li_rho = linear_inversion(data) if _is_default_bases(data.bases) else DensityMatrix.maximally_mixed()
    start = li_rho.elements + 1e-12 * eye
    start /= np.real(np.trace(start))
    t0 = _lower_cholesky_factor(start)
    theta0 = np.array([np.real(t0[0, 0]), np.real(t0[1, 1]), np.real(t0[1, 0]), np.imag(t0[1, 0])])

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
    t_final = np.array(
        [[result.x[0], 0.0], [result.x[2] + 1j * result.x[3], result.x[1]]],
        dtype=np.complex128,
    )
    gram = t_final.conj().T @ t_final
    rho_elements = gram / np.real(np.trace(gram))
    # scrub rounding asymmetry before the invariant check
    rho_elements = 0.5 * (rho_elements + rho_elements.conj().T)
    rho = DensityMatrix(rho_elements)
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

"""Polarization tomography in the four analyzer bases H, V, H+iV, H+V.

These are the analyzer settings of James, Kwiat, Munro and White, PRA
64, 052312 (2001).  Analyzer k is a pure state with Bloch vector n_k,
so a state with Bloch vector r passes it with probability (1 + n_k.r)/2:
the H/V pair reads z, H+iV reads y and H+V reads x.

Reconstruction is offered two ways.  Linear inversion reads the Bloch
vector off the frequencies, r = (2 p_{H+V} - 1, 2 p_{H+iV} - 1,
p_H - p_V), and maps an unphysical |r| > 1 to r/|r|, which is exactly
the eigenvalue clip and renormalization of the 2x2 matrix.  Maximum
likelihood (Hradil, PRA 55, R1561, 1997) is exact: the likelihood is a
product of one binomial per Bloch axis, so the estimate is the linear
inversion if that lies in the Bloch ball, else the point of the sphere
where the Lagrange condition holds, found by a 1-D search.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import STREAM_TOMOGRAPHY, stream
from .errors import DomainError, InvariantViolation
from .quantum import DensityMatrix

BASIS_LABELS = ("H", "V", "H+iV", "H+V")

# Bloch vectors n_k of the analyzers, in BASIS_LABELS order
_ANALYZERS = np.array(
    [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
)

# linear inversion projects when the smaller eigenvalue (1 - |r|)/2 is
# below -1e-12, so noiseless data of a pure state is left as it is
_PROJECT_TOL = 2e-12

# the MLE search on the sphere stops when |r| is within 2 ulps of 1 or
# its bracket has closed to that relative width
_SPHERE_TOL = 4e-16
_MAX_ITER = 200


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

    iterations counts the steps of the search for the Lagrange
    multiplier on the sphere, 0 when the estimate lies inside the ball;
    converged is false only if that search ran out of steps.
    """

    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool

    def to_json(self) -> str:
        """Key-sorted JSON, indented by 2, with a final newline."""
        m = self.rho.elements
        return json.dumps(
            {
                "rho": [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m],
                "log_likelihood": self.log_likelihood,
                "iterations": self.iterations,
                "converged": self.converged,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"


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

def linear_inversion(data: TomographyData) -> DensityMatrix:
    """Stokes-parameter inversion of the four measured frequencies.

    z comes from the H/V pair (which also carries the normalization),
    x from H+V and y from H+iV.  A Bloch vector longer than 1 is scaled
    back onto the sphere, which is the truncation of the negative
    eigenvalue with renormalization; bloch_from_frequencies reports
    whether that happened.
    """
    r, _ = bloch_from_frequencies(data.frequencies())
    return DensityMatrix.from_bloch(*r)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

def log_likelihood(rho: DensityMatrix, data: TomographyData) -> float:
    """Binomial log-likelihood of rho for the dataset (constants dropped)."""
    p = np.clip(analyzer_probabilities(rho.bloch()), 1e-300, 1.0 - 1e-16)
    n = data.counts
    return float(n @ np.log(p) + (data.shots_per_basis - n) @ np.log(1.0 - p))


def _axis_root(a, b, lam: float) -> np.ndarray:
    """Per axis, the root in [-1, 1] of lam x^3 - (a + b + lam) x + (a - b).

    The cubic is positive at -1 and negative at 1 and always has three
    real roots; this is the middle one, in the trigonometric form
    -2 m sin(arcsin(c)/3), which stays accurate as lam -> 0.  lam > 0.
    """
    s = a + b + lam
    m = np.sqrt(s / (3.0 * lam))
    c = np.clip(-1.5 * (a - b) / s * np.sqrt(3.0 * lam / s), -1.0, 1.0)
    return -2.0 * m * np.sin(np.arcsin(c) / 3.0)


def mle_reconstruct(data: TomographyData) -> ReconstructionResult:
    """Maximum-likelihood state estimate over the Bloch ball.

    The likelihood separates into one binomial per Bloch axis, so its
    maximum over all of R^3 is the linear inversion (a - b)/(a + b).
    Inside the ball that is the estimate.  Outside, the estimate lies
    on the sphere, where a/(1 + x) - b/(1 - x) = lam x on each axis
    (the cubic of _axis_root) and |r(lam)| falls as lam grows; a
    Newton search on 1/|r(lam)| = 1, kept inside a bisection bracket,
    finds lam.  iterations counts its steps (0 inside the ball).
    """
    # log L = sum a log(1 + r) + b log(1 - r) over the axes x, y, z: H+V
    # and H+iV pass with (1 + x)/2 and (1 + y)/2, and the H and V passes
    # are 2 shots draws of z, n_H + shots - n_V of them towards +z
    n_h, n_v, n_circ, n_diag = data.counts
    shots = data.shots_per_basis
    a = np.array([n_diag, n_circ, n_h + shots - n_v])
    b = np.array([shots - n_diag, shots - n_circ, shots - n_h + n_v])
    r = (a - b) / (a + b)
    norm = float(np.linalg.norm(r))
    iterations = 0
    converged = norm <= 1.0
    if not converged:
        # at the optimum lam = sum x (a/(1 + x) - b/(1 - x)) <= sum max(a, b)/2
        lam, lo, hi = 0.0, 0.0, 0.5 * float(np.sum(np.maximum(a, b)))
        while not converged and iterations < _MAX_ITER:
            # dx/dlam from the cubic, then a Newton step on 1/|r| - 1; the
            # denominator vanishes only at a double root (an axis with no
            # counts on one side leaving its pole), and then the step bisects
            with np.errstate(divide="ignore", invalid="ignore"):
                dx = r * (1.0 - r * r) / (3.0 * lam * r * r - a - b - lam)
            slope = -float(r @ dx) / norm**3
            step = lam - (1.0 / norm - 1.0) / slope if 0.0 < slope < math.inf else hi
            lam = step if lo < step < hi else 0.5 * (lo + hi)
            r = _axis_root(a, b, lam)
            norm = float(np.linalg.norm(r))
            iterations += 1
            lo, hi = (lam, hi) if norm > 1.0 else (lo, lam)
            converged = abs(norm - 1.0) <= _SPHERE_TOL or hi - lo <= _SPHERE_TOL * hi
        r = r / norm
    rho = DensityMatrix.from_bloch(*r)
    return ReconstructionResult(
        rho=rho,
        log_likelihood=log_likelihood(rho, data),
        iterations=iterations,
        converged=converged,
    )

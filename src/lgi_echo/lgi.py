"""Two-state collective-excitation dynamics and Leggett-Garg machinery.

A photon stored jointly in two memories detuned by ``delta`` oscillates
between the symmetric |D> and antisymmetric |A> superposition at the
beat frequency: phi(t) = 2*pi*delta*t + phi0.  Projective D/A
measurements on this evolution give the two-time correlators

    K(0,t) = 2 Q_ii(0,t) - 1 = cos(2*pi*delta*t)

and the stationary Leggett-Garg combinations

    K_minus = K(0,2t) - 2 K(0,t),    K_plus = K(0,2t) + 2 K(0,t),

which every macrorealistic theory bounds below by -1 while quantum
mechanics reaches -1.5.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvariantViolation
from .quantum import DensityMatrix

TWO_PI = 2.0 * math.pi

STATE_LABELS = ("D", "A")

LGI_CSV_HEADER = (
    "t_ns,k_t,k_2t,k_minus,k_plus,sigma_minus,sigma_plus,"
    "viol_sig_minus,viol_sig_plus"
)

# stationary points of the closed forms, in units of 2*pi*delta*t
_THETA_STAR = {"minus": math.pi / 3.0, "plus": 2.0 * math.pi / 3.0}

_GRID_POINTS = 10**4


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcitationState:
    """Delocalized excitation shared by two memories.

    detuning is the beat frequency between the memories in Hz; phase0
    is the preparation phase (wrapped into [0, 2pi)).
    """

    detuning: float
    phase0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.detuning):
            raise InvariantViolation(f"detuning must be finite, got {self.detuning}")
        if not math.isfinite(self.phase0):
            raise InvariantViolation(f"phase0 must be finite, got {self.phase0}")
        wrapped = math.fmod(self.phase0, TWO_PI)
        if wrapped < 0.0:
            wrapped += TWO_PI
        object.__setattr__(self, "phase0", wrapped)


@dataclass(frozen=True)
class LgiReport:
    """K functionals at probe time t together with their uncertainties.

    violation_sigma_* is (-1 - k)/sigma, positive when the classical
    bound is violated; None when sigma is zero (noiseless evaluation).
    """

    t: float
    k_t: float
    k_2t: float
    k_minus: float
    k_plus: float
    sigma_minus: float = 0.0
    sigma_plus: float = 0.0
    violation_sigma_minus: Optional[float] = None
    violation_sigma_plus: Optional[float] = None
    # True when a zero-count boundary forced a Wilson-interval sigma
    sigma_boundary_adjusted: bool = False

    def __post_init__(self):
        for name in ("k_t", "k_2t"):
            v = getattr(self, name)
            if not -1.0 - 1e-9 <= v <= 1.0 + 1e-9:
                raise InvariantViolation(f"{name}={v} outside [-1, 1]")
        if abs(self.k_minus - (self.k_2t - 2.0 * self.k_t)) > 1e-9:
            raise InvariantViolation("k_minus must equal k_2t - 2*k_t")
        if abs(self.k_plus - (self.k_2t + 2.0 * self.k_t)) > 1e-9:
            raise InvariantViolation("k_plus must equal k_2t + 2*k_t")
        for name in ("k_minus", "k_plus"):
            v = getattr(self, name)
            if not -3.0 - 1e-9 <= v <= 3.0 + 1e-9:
                raise InvariantViolation(f"{name}={v} outside [-3, 3]")
        if self.sigma_minus < 0.0 or self.sigma_plus < 0.0:
            raise InvariantViolation("sigma fields must be >= 0")

    @classmethod
    def from_correlations(cls, t, k_t, k_2t, sigma_k_t=0.0, sigma_k_2t=0.0,
                          sigma_boundary_adjusted=False):
        """Assemble a report from the two correlators and their errors.

        The K combinations share the same counts, so their variances add
        as sigma^2 = sigma_k_2t^2 + 4 sigma_k_t^2 for both signs.
        """
        k_minus = k_2t - 2.0 * k_t
        k_plus = k_2t + 2.0 * k_t
        sigma = math.sqrt(sigma_k_2t**2 + 4.0 * sigma_k_t**2)
        if sigma > 0.0:
            viol_minus = violation_sigma(k_minus, sigma)
            viol_plus = violation_sigma(k_plus, sigma)
        else:
            viol_minus = viol_plus = None
        return cls(t, k_t, k_2t, k_minus, k_plus, sigma, sigma,
                   viol_minus, viol_plus, sigma_boundary_adjusted)

    def to_csv_row(self) -> str:
        viol_m = self.violation_sigma_minus
        viol_p = self.violation_sigma_plus
        fields = [
            f"{self.t * 1e9:.6f}",
            f"{self.k_t:.9f}",
            f"{self.k_2t:.9f}",
            f"{self.k_minus:.9f}",
            f"{self.k_plus:.9f}",
            f"{self.sigma_minus:.9f}",
            f"{self.sigma_plus:.9f}",
            "nan" if viol_m is None else f"{viol_m:.6f}",
            "nan" if viol_p is None else f"{viol_p:.6f}",
        ]
        return ",".join(fields)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def state_at(ex: ExcitationState, t: float) -> DensityMatrix:
    """Eq.-of-motion state cos(phi/2)|D> - i sin(phi/2)|A> at time t.

    In the H/V frame, where |D> is +x and |A> is -x, this is the pure
    state of Bloch vector (cos phi, sin phi, 0): the V amplitude runs
    ahead of the H amplitude by phi, the polarization the two memories
    re-emit after storing the excitation for t.
    """
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"t must be >= 0, got {t}")
    phi = TWO_PI * ex.detuning * t + ex.phase0
    return DensityMatrix.from_bloch(math.cos(phi), math.sin(phi), 0.0)


def conditional_probability(ex: ExcitationState, i: str, j: str,
                            t1: float, t2: float) -> float:
    """Q_ij(t1, t2): probability of finding j at t2 after projecting
    onto i at t1.

    The projection resets the relative phase, so the result depends only
    on tau = t2 - t1: cos^2(pi delta tau) for i = j, sin^2 otherwise.
    """
    if i not in STATE_LABELS or j not in STATE_LABELS:
        raise DomainError(f"state labels must be in {STATE_LABELS}, got {i!r}, {j!r}")
    if t2 < t1:
        raise DomainError(f"t2 must be >= t1, got t1={t1}, t2={t2}")
    half_phi = math.pi * ex.detuning * (t2 - t1)
    same = math.cos(half_phi) ** 2
    return same if i == j else 1.0 - same


def autocorrelation(ex: ExcitationState, t: float) -> float:
    """K(0,t) = 2 Q_ii(0,t) - 1 = cos(2 pi delta t)."""
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"t must be >= 0, got {t}")
    return 2.0 * conditional_probability(ex, "D", "D", 0.0, t) - 1.0


def k_functionals(ex: ExcitationState, t: float) -> LgiReport:
    """Noiseless K_minus and K_plus at probe time t (sigma fields zero)."""
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"t must be >= 0, got {t}")
    k_t = autocorrelation(ex, t)
    k_2t = autocorrelation(ex, 2.0 * t)
    return LgiReport.from_correlations(t, k_t, k_2t)


def k_minimum(which: str, delta: float):
    """(t_star, k_star) minimizing the chosen K functional over (0, 1/delta).

    Analytic: K_minus bottoms out at 2*pi*delta*t = pi/3 and K_plus at
    2*pi/3, both at the quantum bound -1.5.  A 10^4-point grid scan
    cross-checks the closed form against convention slips.
    """
    if which not in _THETA_STAR:
        raise DomainError(f"which must be 'minus' or 'plus', got {which!r}")
    if delta <= 0.0 or not math.isfinite(delta):
        raise DomainError(f"delta must be positive, got {delta}")
    theta_star = _THETA_STAR[which]
    t_star = theta_star / (TWO_PI * delta)
    sign = -1.0 if which == "minus" else 1.0
    k_star = math.cos(2.0 * theta_star) + sign * 2.0 * math.cos(theta_star)

    theta = np.linspace(0.0, TWO_PI, _GRID_POINTS, endpoint=False)[1:]
    k_grid = np.cos(2.0 * theta) + sign * 2.0 * np.cos(theta)
    idx = int(np.argmin(k_grid))
    grid_spacing = TWO_PI / _GRID_POINTS
    # curvature at the minimum is 3, so the grid value sits within
    # 1.5 * spacing^2 of the true minimum
    if k_grid[idx] < k_star - 1e-12 or k_grid[idx] > k_star + 2.0 * grid_spacing**2:
        raise InvariantViolation("grid scan disagrees with the analytic minimum")
    if min(abs(theta[idx] - theta_star), TWO_PI - abs(theta[idx] - theta_star)) > grid_spacing:
        raise InvariantViolation("grid argmin disagrees with the analytic t_star")
    return t_star, k_star


def violation_sigma(k: float, sigma: float) -> float:
    """Standard deviations by which k undercuts the classical bound -1."""
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be positive, got {sigma}")
    return (-1.0 - k) / sigma


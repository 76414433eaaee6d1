"""Stationarity checks behind the two-time correlation analysis.

Two assumptions make the dichotomic K functionals meaningful: the
conditional probabilities Q_ij(t, t+tau) must depend on tau only
(time-translation invariance), and the evolution must be Markovian
(monotonically shrinking trace distance).  This module provides the
counting-statistics estimators and hypothesis tests for both, plus the
assembly of noisy LGI reports with propagated error bars.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, InvariantViolation
from ._rng import stream, STREAM_BOOTSTRAP, STREAM_COUNTS
from .lgi import ExcitationState, LgiReport, conditional_probability
from .quantum import Channel, DensityMatrix, apply_channel, trace_distance
from .tomography import (
    analyzer_probabilities,
    bloch_from_frequencies,
    mle_reconstruct,
    simulate_tomography,
)

# Families plotted in the invariance scan: (initial, final, tau).
# Two of them sit exactly on a probability boundary (Q = 0 or 1 at
# tau = 100 ns for delta = 5 MHz), which is intentional: the test must
# cope with zero-variance rows.
DEFAULT_FAMILIES = (
    ("D", "A", 100e-9),
    ("D", "D", 33.3e-9),
    ("A", "A", 66.7e-9),
    ("A", "A", 100e-9),
)


# ---------------------------------------------------------------------------
# counting estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountPair:
    """Click counts for one projective outcome and its complement."""

    n_target: int
    n_complement: int

    def __post_init__(self):
        for name in ("n_target", "n_complement"):
            v = getattr(self, name)
            if int(v) != v or v < 0:
                raise InvariantViolation(f"{name} must be a non-negative integer, got {v}")

    @property
    def total(self) -> int:
        return self.n_target + self.n_complement


def estimate_q(counts: CountPair) -> Tuple[float, float]:
    """Point estimate and binomial sigma of a conditional probability.

    q_hat = n_t / (n_t + n_c), sigma = sqrt(n_t * n_c / total^3).
    sigma is the raw propagated value and is 0.0 at the boundaries;
    see k_with_sigma for the Wilson substitution used downstream.
    """
    total = counts.total
    if total < 1:
        raise DomainError("cannot estimate a probability from zero counts")
    q_hat = counts.n_target / total
    sigma = math.sqrt(counts.n_target * counts.n_complement / total**3)
    return q_hat, sigma


def wilson_half_width(n_success: int, total: int, z: float = 1.0) -> float:
    """Half-width of the Wilson score interval at z standard scores.

    Stays strictly positive at the n_success = 0 or total boundaries,
    unlike the naive binomial sigma.
    """
    if total < 1:
        raise DomainError("wilson_half_width needs total >= 1")
    if not 0 <= n_success <= total:
        raise DomainError(f"n_success={n_success} outside [0, {total}]")
    q = n_success / total
    denom = 1.0 + z**2 / total
    return (z * math.sqrt(q * (1.0 - q) / total + z**2 / (4.0 * total**2))) / denom


def k_with_sigma(counts_t: CountPair, counts_2t: CountPair,
                 t: float = float("nan")) -> LgiReport:
    """Assemble a noisy LGI report from click counts at t and 2t.

    K = 2 q_hat - 1 per time, sigma_K = 2 sigma_q.  When a count pair
    sits on the boundary (sigma_q = 0) the Wilson half-width replaces
    it so the report never claims infinite significance; the flag
    sigma_boundary_adjusted records the substitution.
    """
    q_t, s_t = estimate_q(counts_t)
    q_2t, s_2t = estimate_q(counts_2t)
    adjusted = False
    if s_t == 0.0:
        s_t = wilson_half_width(counts_t.n_target, counts_t.total)
        adjusted = True
    if s_2t == 0.0:
        s_2t = wilson_half_width(counts_2t.n_target, counts_2t.total)
        adjusted = True
    return LgiReport.from_correlations(
        t,
        k_t=2.0 * q_t - 1.0,
        k_2t=2.0 * q_2t - 1.0,
        sigma_k_t=2.0 * s_t,
        sigma_k_2t=2.0 * s_2t,
        sigma_boundary_adjusted=adjusted,
    )


# ---------------------------------------------------------------------------
# time-translation invariance
# ---------------------------------------------------------------------------

def _log_poisson_term(a: float, h: float) -> float:
    """log(h^a e^-h / Gamma(a + 1)) for a >= 0 and h > 0.

    From a = 10 on, -a D(h/a) - log(2 pi a)/2 - S(a) with D(u) = u - 1 -
    log u and S the Stirling series of lgamma(a + 1): a log h, h and
    lgamma(a + 1) reach thousands at large dof and chi2, and their plain
    difference loses about 1e-12 relative to rounding.
    """
    if a < 10.0:
        return a * math.log(h) - h - math.lgamma(a + 1.0)
    d = (h - a) / a
    deviance = d - (math.log1p(d) if d > -0.5 else math.log(h) - math.log(a))
    inv = 1.0 / (a * a)
    stirling = (1 / 12 - inv * (1 / 360 - inv * (1 / 1260 - inv * (1 / 1680 - inv / 1188)))) / a
    return -a * deviance - 0.5 * math.log(2.0 * math.pi * a) - stirling


def chi2_survival(dof: int, chi2: float) -> float:
    """P(X >= chi2) for X chi-square with an integer dof >= 1.

    With h = chi2/2 this is the finite sum e^-h sum_{j < dof/2} h^j/j!
    for even dof, and erfc(sqrt h) + e^-h sum_{j < (dof-1)/2}
    h^(j+1/2)/Gamma(j + 3/2) for odd dof, summed relative to its largest
    term in log space so that nothing under- or overflows early.
    """
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    h = 0.5 * chi2
    if h <= 0.0:
        return 1.0
    odd = dof % 2
    logs = [_log_poisson_term(j + 0.5 * odd, h) for j in range(dof // 2)]
    top = max(logs, default=0.0)
    tail = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    return min(1.0, (math.erfc(math.sqrt(h)) if odd else 0.0) + tail)


@dataclass(frozen=True)
class InvarianceReport:
    """Chi-square homogeneity test of Q_hat across probe times.

    grid holds (t, tau) pairs row-major (family-major), estimates and
    sigmas the matching per-point values.  dof counts (points - 1) per
    family, summed over families.
    """

    grid: Tuple[Tuple[float, float], ...]
    estimates: Tuple[float, ...]
    sigmas: Tuple[float, ...]
    chi2: float
    dof: int
    p_value: float
    alpha: float
    passed: bool

    def __post_init__(self):
        if not (len(self.grid) == len(self.estimates) == len(self.sigmas)):
            raise InvariantViolation("grid, estimates and sigmas must align")
        if self.chi2 < 0.0:
            raise InvariantViolation(f"chi2 must be >= 0, got {self.chi2}")
        if not 0.0 <= self.p_value <= 1.0:
            raise InvariantViolation(f"p_value={self.p_value} outside [0, 1]")
        if self.passed != (self.p_value >= self.alpha):
            raise InvariantViolation("passed must equal (p_value >= alpha)")


def simulate_q_grid(ex: ExcitationState, families, ts,
                    counts_per_point: int, seed: int):
    """Binomial click counts for each (family, probe time) grid point.

    families is a sequence of (i, j, tau) label triples; the returned
    arrays have shape (len(families), len(ts)).  Deterministic per seed.
    """
    if counts_per_point < 1:
        raise DomainError("counts_per_point must be >= 1")
    ts = np.asarray(ts, dtype=np.float64)
    rng = stream(seed, STREAM_COUNTS)
    n_target = np.empty((len(families), ts.size), dtype=np.int64)
    for k, (i, j, tau) in enumerate(families):
        q_row = np.array(
            [conditional_probability(ex, i, j, t, t + tau) for t in ts]
        )
        n_target[k] = rng.binomial(counts_per_point, q_row)
    n_complement = counts_per_point - n_target
    return n_target, n_complement


def invariance_test(taus, ts, n_target, n_complement,
                    alpha: float = 0.05) -> InvarianceReport:
    """Pooled-mean chi-square test of t-independence, one term per family.

    Under time-translation invariance every row of the count grid is a
    homogeneous binomial sample, so sum_t (q_hat - q_bar)^2 / var_t with
    the pooled q_bar is chi-square with (len(ts) - 1) dof per family.
    Zero-variance rows (pooled mean exactly 0 or 1) carry no information
    and contribute 0 to the statistic while keeping the nominal dof,
    which can only make the test conservative.
    """
    taus = np.asarray(taus, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    n_t = np.asarray(n_target, dtype=np.float64)
    n_c = np.asarray(n_complement, dtype=np.float64)
    if taus.ndim != 1 or taus.size < 1:
        raise DomainError("need at least one tau family")
    if ts.ndim != 1 or ts.size < 2:
        raise DomainError("need at least two probe times per family")
    if n_t.shape != (taus.size, ts.size) or n_c.shape != n_t.shape:
        raise DomainError(
            f"count grids must have shape {(taus.size, ts.size)}, "
            f"got {n_t.shape} and {n_c.shape}"
        )
    if np.any(n_t < 0) or np.any(n_c < 0):
        raise DomainError("counts must be non-negative")
    totals = n_t + n_c
    if np.any(totals < 1):
        raise DomainError("every grid point needs at least one count")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")

    q_hat = n_t / totals
    sigma = np.sqrt(n_t * n_c / totals**3)
    chi2 = 0.0
    for k in range(taus.size):
        q_bar = n_t[k].sum() / totals[k].sum()
        if 0.0 < q_bar < 1.0:
            var = q_bar * (1.0 - q_bar) / totals[k]
            chi2 += float(np.sum((q_hat[k] - q_bar) ** 2 / var))
    dof = int(taus.size * (ts.size - 1))
    p_value = chi2_survival(dof, chi2)
    grid = tuple((float(t), float(tau)) for tau in taus for t in ts)
    return InvarianceReport(
        grid=grid,
        estimates=tuple(float(v) for v in q_hat.ravel()),
        sigmas=tuple(float(v) for v in sigma.ravel()),
        chi2=float(chi2),
        dof=dof,
        p_value=p_value,
        alpha=alpha,
        passed=bool(p_value >= alpha),
    )


# ---------------------------------------------------------------------------
# Markovianity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    """Trace-distance monotonicity verdict over a time sequence."""

    times: Tuple[float, ...]
    distances: Tuple[float, ...]
    max_increase: float
    threshold: float
    passed: bool
    sigmas: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.times) != len(self.distances):
            raise InvariantViolation("times and distances must align")
        if self.sigmas is not None and len(self.sigmas) != len(self.times):
            raise InvariantViolation("sigmas must align with times")
        for d in self.distances:
            if not -1e-9 <= d <= 1.0 + 1e-9:
                raise InvariantViolation(f"trace distance {d} outside [0, 1]")
        if self.threshold < 0.0:
            raise InvariantViolation("threshold must be >= 0")
        if self.passed != (self.max_increase <= self.threshold):
            raise InvariantViolation("passed must equal (max_increase <= threshold)")


def default_state_pair() -> Tuple[DensityMatrix, DensityMatrix]:
    """The antipodal H+V / H-V pair, which starts at trace distance 1."""
    return DensityMatrix.from_bloch(1.0, 0.0, 0.0), DensityMatrix.from_bloch(-1.0, 0.0, 0.0)


def monotonicity_check(times, distances, threshold: float = 1e-12,
                       sigmas=None) -> MonotonicityReport:
    """Pure bookkeeping: largest step increase of a distance sequence."""
    times = tuple(float(t) for t in times)
    distances = tuple(float(d) for d in distances)
    if len(times) < 2:
        raise DomainError("need at least two time points")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing")
    max_increase = max(b - a for a, b in zip(distances, distances[1:]))
    return MonotonicityReport(
        times=times,
        distances=distances,
        max_increase=float(max_increase),
        threshold=float(threshold),
        passed=bool(max_increase <= threshold),
        sigmas=None if sigmas is None else tuple(float(s) for s in sigmas),
    )


def _bootstrap_distance_sigmas(rhos_a, rhos_b, shots: int, seed: int,
                               n_reps: int) -> Tuple[float, ...]:
    """Parametric-bootstrap sigma of the reconstructed trace distance.

    Replicate counts are redrawn from the fitted states and inverted with
    the fast projected linear inversion; the MLE point estimate and the
    replicate spread agree to the relevant accuracy at these shot counts.
    All counts come from one draw of shape (reps, times, 2 states, 4
    bases), whose C order is replicate by replicate, then time by time.
    """
    fitted = np.array([[a.bloch(), b.bloch()] for a, b in zip(rhos_a, rhos_b)])
    probs = analyzer_probabilities(fitted)
    rng = stream(seed, STREAM_BOOTSTRAP)
    counts = rng.binomial(shots, probs, size=(n_reps,) + probs.shape)
    r, _ = bloch_from_frequencies(counts / shots)
    diff = r[:, :, 0] - r[:, :, 1]
    distances = 0.5 * np.sqrt(np.sum(diff * diff, axis=-1))
    return tuple(float(s) for s in distances.std(axis=0, ddof=1))


def markovianity_test(state_a: DensityMatrix, state_b: DensityMatrix,
                      channel: Channel, times, use_tomography: bool = False,
                      shots: int = 10**5, seed: int = 0,
                      n_bootstrap: int = 48) -> MonotonicityReport:
    """Trace-distance contractivity check between two evolving states.

    Exact mode propagates the channel analytically and demands
    monotonicity to within 1e-12.  Tomographic mode reconstructs both
    states from simulated counts at every time, so the threshold is
    3x the worst-case step sigma from a parametric bootstrap: the claim
    is monotone decrease within error bars, not of the noise itself.
    """
    times = tuple(float(t) for t in times)
    if len(times) < 3:
        raise DomainError("need at least three time points")
    if use_tomography and n_bootstrap < 2:
        raise DomainError(
            f"n_bootstrap={n_bootstrap}: the bootstrap sigma needs at least 2 replicates")
    if any(t < 0.0 for t in times):
        raise DomainError("times must be >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing")

    evolved_a = [apply_channel(channel, state_a, t) for t in times]
    evolved_b = [apply_channel(channel, state_b, t) for t in times]

    if not use_tomography:
        distances = [trace_distance(a, b) for a, b in zip(evolved_a, evolved_b)]
        return monotonicity_check(times, distances, threshold=1e-12)

    # stream 2k holds the counts of state a at time k, 2k + 1 those of b
    fitted_a = [mle_reconstruct(simulate_tomography(rho, shots, seed, 2 * k)).rho
                for k, rho in enumerate(evolved_a)]
    fitted_b = [mle_reconstruct(simulate_tomography(rho, shots, seed, 2 * k + 1)).rho
                for k, rho in enumerate(evolved_b)]
    distances = [trace_distance(a, b) for a, b in zip(fitted_a, fitted_b)]
    sigmas = _bootstrap_distance_sigmas(fitted_a, fitted_b, shots, seed, n_bootstrap)
    step_sigmas = [
        math.sqrt(s1**2 + s2**2) for s1, s2 in zip(sigmas, sigmas[1:])
    ]
    threshold = 3.0 * max(step_sigmas)
    return monotonicity_check(times, distances, threshold=threshold, sigmas=sigmas)

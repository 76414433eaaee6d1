"""Comb-structured atomic ensemble: spectrum sampling, Monte-Carlo
dipole-sum echo traces and the closed-form echo efficiency.

A memory prepared with absorption teeth at spacing ``periodicity_delta``
re-emits an absorbed photon as a collective echo at multiples of
1/periodicity_delta.  Two such combs, one per polarization and offset by
a relative detuning, imprint a linearly growing phase between the H and
V components of a stored photon; that phase is the excitation's beat,
``lgi.state_at``, which the rest of the package measures.

Frequencies are Hz and times are seconds everywhere in this module.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._rng import STREAM_ENSEMBLE, stream
from .errors import ConfigurationError, DomainError, InvariantViolation

# FWHM = 2 sqrt(2 ln 2) sigma for a Gaussian line
_SIGMA_TO_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))
_FWHM_TO_SIGMA = 1.0 / _SIGMA_TO_FWHM

# FWHM of the sinc^2 echo of a flat spectral envelope of width B is
# about 0.886/B, the echo width of the photon pipeline; half of it
# bounds "near a revival".
_ECHO_FWHM_FACTOR = 0.886

# Bins between exact restarts of the echo_trace phasor recurrence.  Each
# step multiplies in about one rounding error, so restarting every 256
# steps keeps a phasor's drift near 256 ulp (3e-14), well under the 1e-12
# of I(0) the trace is held to, at one complex exponential per atom per
# 256 bins.
_TRACE_SLICE = 256

# Gauss-Legendre rule on [-1, 1] for one panel of the tooth quadrature: 16
# nodes integrate a panel of at most one oscillation and two sigma to rounding
_PANEL_NODES, _PANEL_WEIGHTS = leggauss(16)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombSpec:
    """Parameters of one prepared comb.

    periodicity_delta: tooth spacing in Hz (echo at 1/periodicity_delta)
    tooth_fwhm: full width at half maximum of one Gaussian tooth, Hz
    bandwidth: flat spectral envelope width, Hz
    optical_depth: peak absorption depth of the teeth
    background_depth: residual absorption between teeth
    center_offset: rigid shift of the whole comb, Hz (-detuning/2 for
        the H comb of a memory; its V comb is the same comb shifted by
        the detuning)
    """

    periodicity_delta: float
    tooth_fwhm: float
    bandwidth: float
    optical_depth: float = 8.0
    background_depth: float = 0.05
    center_offset: float = 0.0

    def __post_init__(self):
        for name in ("periodicity_delta", "tooth_fwhm", "bandwidth", "optical_depth",
                     "background_depth", "center_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.periodicity_delta <= 0.0:
            raise ConfigurationError("periodicity_delta must be positive")
        if not 0.0 <= self.tooth_fwhm < self.periodicity_delta:
            raise ConfigurationError(
                "tooth_fwhm must satisfy 0 <= fwhm < periodicity_delta "
                f"(got {self.tooth_fwhm} vs {self.periodicity_delta})"
            )
        if self.bandwidth < self.periodicity_delta:
            raise ConfigurationError("bandwidth must be >= periodicity_delta")
        if not self.optical_depth > self.background_depth >= 0.0:
            raise ConfigurationError(
                "need optical_depth > background_depth >= 0, got "
                f"{self.optical_depth} and {self.background_depth}"
            )

    @property
    def m_max(self) -> int:
        """Index of the outermost teeth: the envelope holds the teeth
        m = -m_max .. m_max, a single one when m_max is 0."""
        return int(self.bandwidth / 2.0 // self.periodicity_delta)


@dataclass(frozen=True, eq=False)
class AtomEnsemble:
    """Monte-Carlo sample of the comb: one entry per contributing ion.

    weights are emission amplitudes c_j with the forward phase-matched
    spatial factor absorbed; sum of squared weights is 1 within 1e-9.
    """

    detunings: np.ndarray
    weights: np.ndarray
    tooth_indices: np.ndarray
    count: int

    def __post_init__(self):
        det = np.asarray(self.detunings, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        idx = np.asarray(self.tooth_indices, dtype=np.int64)
        if not (det.shape == w.shape == idx.shape == (self.count,)):
            raise InvariantViolation("ensemble arrays must all have length count")
        if np.any(w < 0.0):
            raise InvariantViolation("weights must be non-negative")
        total = float(np.sum(w * w))
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation(f"sum of squared weights is {total}, expected 1")
        object.__setattr__(self, "detunings", det)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tooth_indices", idx)


@dataclass(frozen=True, eq=False)
class EchoTrace:
    """Binned re-emission intensity, normalized to the t=0 bin.

    times are bin centers with uniform spacing bin_width.
    """

    times: np.ndarray
    intensity: np.ndarray
    bin_width: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        i = np.asarray(self.intensity, dtype=np.float64)
        if t.shape != i.shape or t.ndim != 1 or t.size < 2:
            raise InvariantViolation("times and intensity must be equal-length 1-D arrays")
        if np.any(i < 0.0):
            raise InvariantViolation("intensities must be non-negative")
        steps = np.diff(t)
        if np.any(steps <= 0.0) or np.max(np.abs(steps - self.bin_width)) > 1e-12 * max(
            1.0, abs(self.bin_width)
        ):
            raise InvariantViolation("times must increase uniformly by bin_width")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "intensity", i)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_ensemble(spec: CombSpec, n_atoms: int, seed: int) -> AtomEnsemble:
    """Draw ion detunings from the comb spectral density.

    Gaussian teeth of width tooth_fwhm at spacing periodicity_delta
    under a flat envelope of width bandwidth, shifted by center_offset.
    A fraction background_depth/(optical_depth + background_depth) of
    ions sits in the flat inter-tooth background.  Deterministic for a
    fixed (spec, seed).
    """
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    rng = stream(seed, STREAM_ENSEMBLE)
    delta = spec.periodicity_delta
    sigma = spec.tooth_fwhm * _FWHM_TO_SIGMA

    m = rng.integers(-spec.m_max, spec.m_max + 1, size=n_atoms)
    eps = rng.normal(0.0, sigma, size=n_atoms) if sigma > 0.0 else np.zeros(n_atoms)
    # keep every ion attributable to its tooth
    np.clip(eps, -delta / 2.0, delta / 2.0, out=eps)
    detunings = spec.center_offset + m * delta + eps

    bg_fraction = spec.background_depth / (spec.optical_depth + spec.background_depth)
    is_bg = rng.random(n_atoms) < bg_fraction
    bg_det = rng.uniform(-spec.bandwidth / 2.0, spec.bandwidth / 2.0, size=n_atoms)
    if np.any(is_bg):
        detunings = np.where(is_bg, spec.center_offset + bg_det, detunings)
        m = np.where(is_bg, np.rint(bg_det / delta).astype(np.int64), m)

    weights = np.full(n_atoms, 1.0 / math.sqrt(n_atoms))
    return AtomEnsemble(detunings, weights, m.astype(np.int64), n_atoms)


# ---------------------------------------------------------------------------
# echo emission
# ---------------------------------------------------------------------------

def echo_trace(ensemble: AtomEnsemble, t_max: float, bin_width: float) -> EchoTrace:
    """Collective re-emission intensity |sum_j w_j^2 exp(i2pi delta_j t)|^2.

    Evaluated at bin centers and normalized so the t=0 bin reads 1.  The
    centers are uniformly spaced, so each phasor exp(i2pi delta_j t)
    advances by the fixed factor exp(i2pi delta_j bin_width) from one bin
    to the next (the trigonometric recurrence of Press et al., Numerical
    Recipes, 3rd ed., 5.4); it is evaluated exactly again at the start of
    every _TRACE_SLICE bins.
    """
    if ensemble.count < 1:
        raise DomainError("cannot compute an echo from an empty ensemble")
    if bin_width <= 0.0:
        raise DomainError(f"bin_width must be positive, got {bin_width}")
    n_bins = int(round(t_max / bin_width))
    if n_bins < 2:
        raise DomainError(f"t_max={t_max} must cover at least two bins of {bin_width}")
    times = (np.arange(n_bins) + 0.5) * bin_width
    w_sq = ensemble.weights * ensemble.weights
    omega = 2.0 * np.pi * ensemble.detunings
    advance = np.exp(1j * omega * bin_width)

    intensity = np.empty(n_bins)
    for start in range(0, n_bins, _TRACE_SLICE):
        phasors = np.exp(1j * omega * times[start])
        # (re, im) pairs of the phasors, updated in place with them
        parts = phasors.view(np.float64).reshape(-1, 2)
        for k in range(start, min(start + _TRACE_SLICE, n_bins)):
            re, im = w_sq @ parts
            intensity[k] = re * re + im * im
            phasors *= advance

    intensity = intensity / intensity[0]
    return EchoTrace(times, intensity, bin_width)


def trace_peak(trace: EchoTrace, t_lo: float, t_hi: float):
    """(time, intensity) of the highest bin with center in [t_lo, t_hi]."""
    sel = (trace.times >= t_lo) & (trace.times <= t_hi)
    if not np.any(sel):
        raise DomainError("window contains no bins")
    idx = np.argmax(np.where(sel, trace.intensity, -np.inf))
    return float(trace.times[idx]), float(trace.intensity[idx])


def trace_fwhm(trace: EchoTrace, t_peak: float) -> float:
    """Full width at half maximum of the local peak nearest t_peak.

    Half-maximum crossings are located by linear interpolation between
    neighboring bins.
    """
    i0 = int(np.argmin(np.abs(trace.times - t_peak)))
    # climb to the local maximum
    while 0 < i0 < trace.times.size - 1:
        if trace.intensity[i0 + 1] > trace.intensity[i0]:
            i0 += 1
        elif trace.intensity[i0 - 1] > trace.intensity[i0]:
            i0 -= 1
        else:
            break
    half = trace.intensity[i0] / 2.0

    def cross(direction):
        j = i0
        while 0 <= j + direction < trace.times.size and trace.intensity[j + direction] > half:
            j += direction
        k = j + direction
        if k < 0 or k >= trace.times.size:
            raise DomainError("half-maximum crossing is outside the trace")
        y0, y1 = trace.intensity[j], trace.intensity[k]
        frac = (y0 - half) / (y0 - y1)
        return trace.times[j] + frac * (trace.times[k] - trace.times[j])

    return float(cross(+1) - cross(-1))


def _tooth_characteristic(sigma: float, half_width: float, t: float) -> float:
    """E[cos(2 pi t eps)] for the tooth offsets eps that sample_ensemble draws.

    eps is Gaussian with standard deviation sigma, clipped to [-a, a]
    with a = half_width: the clipped tails sit on the two edges, and
    each adds erfc(a/(sigma sqrt 2))/2 cos(omega a), omega = 2 pi t.
    The body, 2 int_0^c phi(eps/sigma) cos(omega eps) deps/sigma with
    c = min(a, 13 sigma), is Gauss-Legendre quadrature over equal panels
    at most one oscillation and two sigma wide, so it stays accurate far
    out on the decay, where only the edges remain.
    """
    if sigma == 0.0:
        return 1.0
    omega = 2.0 * math.pi * t
    c = min(half_width, 13.0 * sigma)  # the Gaussian is below 1e-36 past 13 sigma
    panels = max(1, math.ceil(c * t), math.ceil(0.5 * c / sigma))
    width = c / panels
    eps = (np.arange(panels)[:, None] + 0.5 * (_PANEL_NODES + 1.0)) * width
    integrand = np.exp(-0.5 * (eps / sigma) ** 2) * np.cos(omega * eps)
    body = width * float(np.sum(integrand @ _PANEL_WEIGHTS)) / (sigma * math.sqrt(2.0 * math.pi))
    return body + math.erfc(half_width / (sigma * math.sqrt(2.0))) * math.cos(omega * half_width)


def echo_efficiency(spec: CombSpec, storage_time: float,
                    prefactor: float = 0.15) -> float:
    """Retrieval efficiency at a comb revival.

    The comb-dephasing factor is |A(t)|^2, with A(t) the mean dipole
    amplitude of the ensemble sample_ensemble draws: a fraction
    f = background_depth/(optical_depth + background_depth) of ions flat
    over the bandwidth B, the rest in equally weighted teeth m = -m_max
    .. m_max, so that
    A(t) = (1 - f) C(t) <cos 2 pi m delta t>_m + f sinc(pi B t),
    where C is the characteristic function of the clipped Gaussian
    tooth.  An ideal zero-width-tooth comb without background has
    |A|^2 = 1 at every revival; at t = 1/delta Gaussian teeth give the
    exp(-7/F^2) dephasing factor of finesse F (Afzelius et al., PRA 79,
    052329, 2009).  The configurable prefactor absorbs optical depth
    and geometry.  If storage_time is not near a revival k/delta the
    near-zero off-peak value is still returned, with a warning.
    """
    if storage_time <= 0.0 or not math.isfinite(storage_time):
        raise DomainError(f"storage_time must be positive, got {storage_time}")
    if not 0.0 < prefactor <= 1.0:
        raise DomainError(f"prefactor must be in (0, 1], got {prefactor}")
    delta = spec.periodicity_delta
    k = round(storage_time * delta)
    half_echo = 0.5 * _ECHO_FWHM_FACTOR / spec.bandwidth
    if k < 1 or abs(storage_time - k / delta) > half_echo:
        warnings.warn(
            f"storage time {storage_time * 1e9:.2f} ns is not near a comb revival; "
            "returning the off-peak intensity",
            stacklevel=2,
        )
    m = np.arange(-spec.m_max, spec.m_max + 1)
    teeth = float(np.mean(np.cos(2.0 * math.pi * m * delta * storage_time)))
    tooth = _tooth_characteristic(spec.tooth_fwhm * _FWHM_TO_SIGMA, delta / 2.0,
                                  storage_time)
    x = math.pi * spec.bandwidth * storage_time
    bg_fraction = spec.background_depth / (spec.optical_depth + spec.background_depth)
    amplitude = (1.0 - bg_fraction) * tooth * teeth + bg_fraction * math.sin(x) / x
    return prefactor * min(max(amplitude * amplitude, 0.0), 1.0)


"""Closed-form predictions the benchmark checks the program's outputs against.

Everything here is derived from the physics the simulator models, not
from the simulator's code: the benchmark must be able to tell a wrong
result from a right one without trusting the program it measures.
Frequencies are Hz and times seconds throughout.
"""

import math

import numpy as np

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


# ---------------------------------------------------------------------------
# heralded photon counting
# ---------------------------------------------------------------------------

def thermal_herald_fraction(p):
    """Share of trials holding at least one pair for a thermal source of mean p.

    P(n) = p^n / (1+p)^(n+1), so P(n >= 1) = p / (1 + p).
    """
    return p / (1.0 + p)


def thermal_g2(p):
    """Heralded cross-correlation of a thermal pair source of mean p.

    The herald is a click detector, so a heralded trial carries
    E[n | n >= 1] = 1 + p signal photons against p in an unrelated
    trial; the ratio is 1 + 1/p.
    """
    return 1.0 + 1.0 / p


def expected_heralds(n_trials, pair_probability, heralding_efficiency,
                     dark_rate, period):
    """Mean herald count: real heralds plus herald-detector dark counts."""
    return n_trials * (pair_probability * heralding_efficiency + dark_rate * period)


def expected_background_entries(n_heralds, noise_periods, background_rate, period):
    """Histogram entries from flat readout background.

    Each herald opens noise_periods + 1 trial periods of delay, and a
    flat background of rate R lands R * period clicks in each of them.
    """
    return n_heralds * (noise_periods + 1) * background_rate * period


# ---------------------------------------------------------------------------
# Leggett-Garg envelope and stationarity grid
# ---------------------------------------------------------------------------

def k_plus(delta, t):
    """K+ = K(0,2t) + 2 K(0,t) with K(0,t) = cos(2 pi delta t)."""
    return math.cos(4.0 * math.pi * delta * t) + 2.0 * math.cos(2.0 * math.pi * delta * t)


def k_plus_sigma(delta, t, n):
    """Sampling sigma of K+ estimated from n binomial counts at t and at 2t."""
    q_t = conditional_q(True, delta, t)
    q_2t = conditional_q(True, delta, 2.0 * t)
    return 2.0 * math.sqrt(4.0 * q_t * (1.0 - q_t) / n + q_2t * (1.0 - q_2t) / n)


def conditional_q(same, delta, tau):
    """Q_ij(t, t+tau): cos^2(pi delta tau) for i == j, sin^2 otherwise."""
    if same:
        return math.cos(math.pi * delta * tau) ** 2
    return math.sin(math.pi * delta * tau) ** 2


# ---------------------------------------------------------------------------
# qubit states
# ---------------------------------------------------------------------------

def dephased_distance(gamma, t):
    """Trace distance of the (H+V, H-V) pair after dephasing at rate gamma."""
    return math.exp(-gamma * t)


def bloch_vector(rho):
    """(x, y, z) of a 2x2 density matrix in the HV basis."""
    rho = np.asarray(rho, dtype=np.complex128)
    return np.array([
        2.0 * rho[0, 1].real,
        -2.0 * rho[0, 1].imag,
        (rho[0, 0] - rho[1, 1]).real,
    ])


def qubit_trace_distance(rho_a, rho_b):
    """Half the Euclidean distance between the two Bloch vectors."""
    return 0.5 * float(np.linalg.norm(bloch_vector(rho_a) - bloch_vector(rho_b)))


def excitation_density_da(delta, t, phase0=0.0):
    """Density matrix, in the DA basis, of the excitation stored for time t.

    The excitation starts in |D> and beats at delta:
    cos(phi/2)|D> - i sin(phi/2)|A>, phi = 2 pi delta t + phase0.
    """
    phi = 2.0 * math.pi * delta * t + phase0
    v = np.array([math.cos(phi / 2.0), -1j * math.sin(phi / 2.0)])
    return np.outer(v, v.conj())


def excitation_density_hv(delta, t, phase0=0.0):
    """The same state in the HV basis, with |D> = (|H>+|V>)/sqrt(2) and
    |A> = (|H>-|V>)/sqrt(2)."""
    to_hv = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return to_hv @ excitation_density_da(delta, t, phase0) @ to_hv.T


# ---------------------------------------------------------------------------
# comb echo
# ---------------------------------------------------------------------------

def echo_amplitude(t, grating, tooth_fwhm, bandwidth, optical_depth,
                   background_depth):
    """Mean collective dipole amplitude of the comb ensemble at time t.

    Ions sit in 2*m_max+1 equally weighted Gaussian teeth, except a
    background fraction f spread flat over the bandwidth:
    A(t) = (1-f) exp(-2 pi^2 sigma^2 t^2) <cos 2 pi m grating t>_m
           + f sinc(pi bandwidth t).
    The rigid centre offset of the comb only adds a phase, which the
    intensity does not see.
    """
    m_max = int(bandwidth / 2.0 // grating)
    m = np.arange(-m_max, m_max + 1)
    teeth = float(np.mean(np.cos(2.0 * math.pi * m * grating * t)))
    sigma = tooth_fwhm * _FWHM_TO_SIGMA
    f = background_depth / (optical_depth + background_depth)
    x = math.pi * bandwidth * t
    sinc = math.sin(x) / x if x != 0.0 else 1.0
    return (1.0 - f) * math.exp(-2.0 * math.pi**2 * sigma**2 * t**2) * teeth + f * sinc


def echo_intensity(t, t_first, **comb):
    """|A(t)|^2 divided by its value at the first trace bin t_first."""
    return echo_amplitude(t, **comb) ** 2 / echo_amplitude(t_first, **comb) ** 2


def echo_intensity_sigma(t, t_first, n_atoms, **comb):
    """Ensemble standard deviation of echo_intensity for n_atoms ions.

    First-order (delta-method) spread of |A_hat|^2 with
    A_hat = mean_j exp(i 2 pi nu_j t): only the component along A
    matters, with variance (E[cos^2] - A^2)/n and
    E[cos^2] = (1 + A(2t))/2.  The fluctuation of the first-bin
    normaliser is second order near t_first and is left out.
    """
    a = echo_amplitude(t, **comb)
    var = max((1.0 + echo_amplitude(2.0 * t, **comb)) / 2.0 - a * a, 0.0) / n_atoms
    return 2.0 * abs(a) * math.sqrt(var) / echo_amplitude(t_first, **comb) ** 2

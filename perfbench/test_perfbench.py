"""Fast tests of the benchmark's own parts.

    python3 -m pytest perfbench/test_perfbench.py -q

The closed forms are compared with brute-force numerics that share no
code with them, and the tracer with synthetic calls on a fake clock.
"""

import math
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import closed_forms as cf  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

COMB = dict(grating=8e6, tooth_fwhm=2e6, bandwidth=100e6, optical_depth=8.0,
            background_depth=0.05)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def expm_hermitian(h, t):
    """exp(-i h t) by eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def thermal_pmf(p, n_max=2000):
    n = np.arange(n_max)
    return n, (p / (1 + p)) ** n / (1 + p)


# ---------------------------------------------------------------------------
# closed forms against brute force
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.002, 0.1, 0.5])
def test_thermal_forms_match_the_distribution(p):
    n, pmf = thermal_pmf(p)
    occupied = pmf[1:].sum()
    assert cf.thermal_herald_fraction(p) == pytest.approx(occupied, rel=1e-12)
    # click herald: photons per heralded trial over photons per trial
    per_herald = (n * pmf).sum() / occupied
    assert cf.thermal_g2(p) == pytest.approx(per_herald / (n * pmf).sum(), rel=1e-12)


def test_background_entries_match_a_counting_simulation():
    rng = np.random.default_rng(1)
    n_trials, period, rate, lags = 2_000_000, 400e-9, 5e4, 8
    heralds = np.unique(rng.integers(0, n_trials, 4000))
    clicks = rng.integers(0, n_trials, rng.poisson(n_trials * period * rate))
    mask = np.zeros(n_trials + lags + 1, dtype=np.int64)
    mask[heralds] = 1
    entries = sum(mask[np.maximum(clicks - m, 0)][clicks >= m].sum()
                  for m in range(lags + 1))
    mean = cf.expected_background_entries(heralds.size, lags, rate, period)
    assert abs(entries - mean) < 4 * math.sqrt(mean)


@pytest.mark.parametrize("t", [0.0, 7e-9, 62.5e-9, 100e-9, 183e-9])
def test_lgi_forms_match_two_level_evolution(t):
    delta = 5e6
    # D/A basis: H = pi delta sigma_x drives |D> -> cos|D> - i sin|A>
    h = math.pi * delta * SX
    d = np.array([1, 0], dtype=complex)
    a = np.array([0, 1], dtype=complex)

    def q(i, j, tau):
        return abs(j.conj() @ expm_hermitian(h, tau) @ i) ** 2

    k = [2 * q(d, d, s) - 1 for s in (t, 2 * t)]
    assert cf.k_plus(delta, t) == pytest.approx(k[1] + 2 * k[0], abs=1e-12)
    assert cf.conditional_q(True, delta, t) == pytest.approx(q(a, a, t), abs=1e-12)
    assert cf.conditional_q(False, delta, t) == pytest.approx(q(d, a, t), abs=1e-12)


@pytest.mark.parametrize("t", [4.17e-9, 62.5e-9, 129.2e-9])
def test_k_plus_sigma_matches_sampled_counts(t):
    delta, n = 5e6, 800
    rng = np.random.default_rng(4)
    q_t, q_2t = (math.cos(math.pi * delta * s) ** 2 for s in (t, 2 * t))
    k_hat = (2 * rng.binomial(n, q_2t, 200_000) / n - 1
             + 2 * (2 * rng.binomial(n, q_t, 200_000) / n - 1))
    assert cf.k_plus_sigma(delta, t, n) == pytest.approx(k_hat.std(), rel=0.01)


def test_dephased_distance_matches_integrated_master_equation():
    gamma, t_end, steps = 2e6, 200e-9, 4000
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)

    def rhs(rho):
        return 0.5 * gamma * (SZ @ rho @ SZ - rho)

    dt = t_end / steps
    for _ in range(steps):  # classical Runge-Kutta
        for rho in (plus, minus):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    dist = 0.5 * np.abs(np.linalg.eigvalsh(plus - minus)).sum()
    assert cf.dephased_distance(gamma, t_end) == pytest.approx(dist, rel=1e-9)


def test_qubit_trace_distance_matches_eigenvalues():
    rng = np.random.default_rng(2)
    for _ in range(20):
        states = []
        for _ in range(2):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            states.append(rho / np.trace(rho))
        expected = 0.5 * np.abs(np.linalg.eigvalsh(states[0] - states[1])).sum()
        assert cf.qubit_trace_distance(*states) == pytest.approx(expected, abs=1e-12)
        # the Bloch vector rebuilds the matrix
        r = cf.bloch_vector(states[0])
        rebuilt = 0.5 * (np.eye(2) + r[0] * SX + r[1] * SY + r[2] * SZ)
        assert np.allclose(rebuilt, states[0], atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 40e-9, 125e-9])
def test_excitation_density_matches_evolved_da_state(t):
    delta, phase0 = 5e6, 0.3
    phi = 2 * math.pi * delta * t + phase0
    psi_da = expm_hermitian(0.5 * SX, phi) @ np.array([1, 0], dtype=complex)
    assert np.allclose(cf.excitation_density_da(delta, t, phase0),
                       np.outer(psi_da, psi_da.conj()), atol=1e-12)
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    psi_hv = hadamard @ psi_da
    assert np.allclose(cf.excitation_density_hv(delta, t, phase0),
                       np.outer(psi_hv, psi_hv.conj()), atol=1e-12)


def comb_density_grid(n=400_001):
    """The comb's spectral density on a fine grid, built from its definition."""
    b, delta = COMB["bandwidth"], COMB["grating"]
    nu = np.linspace(-0.75 * b, 0.75 * b, n)
    sigma = COMB["tooth_fwhm"] / (2 * math.sqrt(2 * math.log(2)))
    teeth = np.zeros_like(nu)
    m_max = int(b / 2 // delta)
    for m in range(-m_max, m_max + 1):
        teeth += np.exp(-0.5 * ((nu - m * delta) / sigma) ** 2)
    flat = (np.abs(nu) <= b / 2).astype(float)
    f = COMB["background_depth"] / (COMB["optical_depth"] + COMB["background_depth"])
    density = (1 - f) * teeth / teeth.sum() + f * flat / flat.sum()
    return nu, density


@pytest.mark.parametrize("t", [1e-9, 40e-9, 125e-9, 250e-9])
def test_echo_amplitude_matches_spectral_quadrature(t):
    nu, density = comb_density_grid()
    amplitude = abs((density * np.exp(2j * math.pi * nu * t)).sum())
    assert abs(cf.echo_amplitude(t, **COMB)) == pytest.approx(amplitude, abs=2e-4)


def test_echo_intensity_sigma_matches_monte_carlo():
    rng = np.random.default_rng(3)
    nu, density = comb_density_grid(100_001)
    n_atoms, reps, t, t0 = 2000, 400, 125e-9, 1e-9
    draws = rng.choice(nu, size=(reps, n_atoms), p=density / density.sum())
    intensity = [abs(np.exp(2j * math.pi * d * t).mean()) ** 2
                 / abs(np.exp(2j * math.pi * d * t0).mean()) ** 2 for d in draws]
    assert np.mean(intensity) == pytest.approx(cf.echo_intensity(t, t0, **COMB), abs=0.01)
    assert np.std(intensity, ddof=1) == pytest.approx(
        cf.echo_intensity_sigma(t, t0, n_atoms, **COMB), rel=0.2)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_module")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    def broken():
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_of_nested_calls(fake_module):
    targets = [Target(fake_module.__name__, "outer", "outer",
                      lambda args, kwargs, result: {"items": result}),
               Target(fake_module.__name__, "inner", "inner")]
    tracer = Tracer(targets, clock=ticking_clock())
    with tracer:
        assert fake_module.outer(1) == 4
    # ticks: outer 0..5 around inner 1..2 and 3..4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, None), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    assert tracer.self_times() == [3.0, 1.0, 1.0]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0, "items": 4}
    assert summary["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_tracer_restores_every_function(fake_module):
    originals = {name: getattr(fake_module, name) for name in ("inner", "outer", "broken")}
    targets = [Target(fake_module.__name__, name, name) for name in originals]
    targets += [Target(fake_module.__name__, "removed_later", "gone"),
                Target("perfbench_no_such_module", "f", "gone")]
    tracer = Tracer(targets)
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(getattr(fake_module, n) is not f for n, f in originals.items())
            fake_module.broken()
    assert all(getattr(fake_module, n) is f for n, f in originals.items())
    assert tracer.absent == [f"{fake_module.__name__}.removed_later",
                             "perfbench_no_such_module.f"]
    # the failed call still closed its span
    assert [s.name for s in tracer.spans] == ["broken"]
    assert tracer.spans[0].end >= tracer.spans[0].start


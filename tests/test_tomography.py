"""Simulated four-basis measurements and state reconstruction."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qubit_oracle as oracle
import scipy_oracle
from lgi_echo.errors import InvariantViolation
from lgi_echo.lgi import ExcitationState, state_at
from lgi_echo.quantum import DensityMatrix, born_probability, trace_distance
from lgi_echo.tomography import (
    BASIS_LABELS,
    TomographyData,
    bloch_from_frequencies,
    exact_tomography,
    analyzer_probabilities,
    linear_inversion,
    log_likelihood,
    mle_reconstruct,
    simulate_tomography,
)


H = DensityMatrix.from_bloch(0.0, 0.0, 1.0)


def random_pure_rho(rng):
    v = rng.normal(size=4)
    return oracle.pure_state(complex(v[0], v[1]), complex(v[2], v[3]))


# ---------------------------------------------------------------------------
# data type and simulation
# ---------------------------------------------------------------------------

class TestTomographyData:
    def test_counts_bounded_by_shots(self):
        with pytest.raises(InvariantViolation):
            TomographyData(100, np.array([101.0, 0.0, 0.0, 0.0]))
        with pytest.raises(InvariantViolation):
            TomographyData(100, np.array([-1.0, 0.0, 0.0, 0.0]))


class TestSimulateTomography:
    def test_pure_h_state(self):
        data = simulate_tomography(H, 1000, seed=1)
        assert data.counts[0] == 1000  # H basis
        assert data.counts[1] == 0  # V basis

    def test_maximally_mixed_within_3_sigma(self):
        shots = 10**6
        data = simulate_tomography(DensityMatrix.from_bloch(0.0, 0.0, 0.0), shots, seed=2)
        sigma = np.sqrt(shots * 0.25)
        assert np.all(np.abs(data.counts - shots / 2) < 3 * sigma)

    def test_quarter_cycle_excitation_extremal_in_circular_basis(self):
        # phi = pi/2 state of the beat, mapped to the photon frame:
        # (|D> - i|A>)/sqrt(2) = ((1-i)|H> + (1+i)|V>)/2 has |<H+iV|psi>|^2 = 1
        ex = ExcitationState(detuning=5e6)
        s = state_at(ex, 50e-9)
        p_circ = born_probability(s, DensityMatrix.from_bloch(0.0, 1.0, 0.0))
        assert p_circ == pytest.approx(1.0, abs=1e-12)
        data = simulate_tomography(s, 10**4, seed=3)
        assert data.counts[2] == 10**4

    def test_determinism(self):
        rho = DensityMatrix.from_bloch(0.3, 0.2, -0.4)
        a = simulate_tomography(rho, 5000, seed=9)
        b = simulate_tomography(rho, 5000, seed=9)
        c = simulate_tomography(rho, 5000, seed=10)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

class TestLinearInversion:
    def test_exact_h_state(self):
        rho = linear_inversion(exact_tomography(H))
        assert trace_distance(rho, H) < 1e-12

    def test_exact_maximally_mixed(self):
        rho = linear_inversion(exact_tomography(DensityMatrix.from_bloch(0.0, 0.0, 0.0)))
        assert trace_distance(rho, DensityMatrix.from_bloch(0.0, 0.0, 0.0)) < 1e-12

    def test_exact_random_pure_states(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            target = random_pure_rho(rng)
            data = exact_tomography(target)
            rho = linear_inversion(data)
            assert trace_distance(rho, target) < 1e-10
            assert not bloch_from_frequencies(data.frequencies())[1]

    def test_projection_flagged_for_unphysical_counts(self):
        # all three Stokes components pushed to +1: |r| = sqrt(3) > 1
        data = TomographyData(100, np.array([100.0, 0.0, 100.0, 100.0]))
        rho = linear_inversion(data)
        assert bloch_from_frequencies(data.frequencies())[1]
        assert rho.eigenvalues()[0] >= -1e-12

    @settings(max_examples=500, deadline=None)
    @given(data=st.integers(1, 10**6).flatmap(lambda shots: st.tuples(
        st.just(shots), st.lists(st.integers(0, shots), min_size=4, max_size=4))))
    def test_matches_the_eigenvalue_clip(self, data):
        shots, counts = data
        measured = TomographyData(shots, np.array(counts))
        rho = linear_inversion(measured)
        _, projected = bloch_from_frequencies(measured.frequencies())
        expected, expected_projected = oracle.linear_inversion(np.array(counts) / shots)
        assert projected == expected_projected
        assert np.max(np.abs(rho.elements - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

class TestMleReconstruct:
    def test_noiseless_pure_states_recovered(self):
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(50):
            target = random_pure_rho(rng)
            res = mle_reconstruct(exact_tomography(target, 10**5))
            assert res.converged
            worst = max(worst, trace_distance(res.rho, target))
        assert worst <= 1e-6

    def test_agrees_with_linear_inversion_on_noiseless_data(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform() ** 0.5
            target = DensityMatrix.from_bloch(*v)
            data = exact_tomography(target, 10**5)
            li = linear_inversion(data)
            res = mle_reconstruct(data)
            assert trace_distance(res.rho, li) <= 1e-6

    def test_likelihood_at_least_linear_inversion(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            target = random_pure_rho(rng)
            data = simulate_tomography(target, 2000, seed=int(rng.integers(1 << 30)))
            res = mle_reconstruct(data)
            li = linear_inversion(data)
            assert res.log_likelihood >= log_likelihood(li, data) - 1e-6

    def test_psd_on_adversarial_counts(self):
        patterns = [
            [100.0, 0.0, 0.0, 0.0],
            [0.0, 100.0, 0.0, 0.0],
            [0.0, 0.0, 100.0, 0.0],
            [0.0, 0.0, 0.0, 100.0],
            [0.0, 4.0, 0.0, 0.0],
            [100.0, 0.0, 100.0, 100.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
        for counts in patterns:
            res = mle_reconstruct(TomographyData(100, np.array(counts)))
            assert res.rho.eigenvalues()[0] >= -1e-12
            assert abs(np.trace(res.rho.elements) - 1.0) < 1e-9

    def test_zero_count_basis_still_physical(self):
        data = TomographyData(1000, np.array([1000.0, 0.0, 500.0, 500.0]))
        res = mle_reconstruct(data)
        assert res.rho.eigenvalues()[0] >= -1e-12

    def test_error_scales_as_inverse_sqrt_shots(self):
        rng = np.random.default_rng(43)
        medians = []
        for shots in (10**3, 10**4, 10**5):
            dists = []
            for k in range(40):
                target = random_pure_rho(rng)
                data = simulate_tomography(target, shots, seed=1000 + k)
                dists.append(trace_distance(mle_reconstruct(data).rho, target))
            medians.append(np.median(dists))
        for i in (0, 1):
            ratio = medians[i] / medians[i + 1]
            assert np.sqrt(10) / 2 < ratio < 2 * np.sqrt(10)

    def test_json_export(self):
        res = mle_reconstruct(exact_tomography(H))
        doc = json.loads(res.to_json())
        assert doc["converged"] is True
        assert doc["rho"][0][0][0] == pytest.approx(1.0, abs=1e-6)
        assert doc["rho"][0][0][1] == pytest.approx(0.0, abs=1e-9)


def _ball_grid(n_directions=4000, n_radii=40):
    """Bloch vectors spread over the ball: a Fibonacci sphere of
    directions at evenly spaced radii, the outermost 1."""
    k = np.arange(n_directions) + 0.5
    z = 1.0 - 2.0 * k / n_directions
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    ring = np.sqrt(1.0 - z * z)
    directions = np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=-1)
    radii = np.linspace(1.0 / n_radii, 1.0, n_radii)
    return (radii[:, None, None] * directions).reshape(-1, 3)


_GRID_P = np.clip(analyzer_probabilities(_ball_grid()), 1e-300, 1.0 - 1e-16)
_GRID_LOG_P, _GRID_LOG_Q = np.log(_GRID_P), np.log(1.0 - _GRID_P)


@st.composite
def _sampled_data(draw):
    """Counts of a random state, pure (so often fitted on the sphere) or
    mixed, at 1e1-1e5 shots per basis."""
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    length = float(np.linalg.norm(v))
    if length < 1e-3:
        v, length = np.array([0.0, 0.0, 1.0]), 1.0
    radius = 1.0 if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    rho = DensityMatrix.from_bloch(*(v / length * radius))
    shots = int(round(10.0 ** draw(st.floats(1.0, 5.0))))
    return simulate_tomography(rho, shots, seed=draw(st.integers(0, 2**32)))


class TestMleAgainstTheOptimizer:
    """The closed-form MLE against the L-BFGS fit on rho = T'T/tr(T'T)."""

    @settings(max_examples=300, deadline=None)
    @given(data=_sampled_data())
    @example(data=TomographyData(75, np.array([75.0, 0.0, 40.0, 39.0])))
    def test_matches_lbfgs(self, data):
        res = mle_reconstruct(data)
        assert res.converged
        shots = data.shots_per_basis
        fitted = DensityMatrix.from_bloch(*scipy_oracle.lbfgs_bloch(data.counts, shots))
        ll_fitted = log_likelihood(fitted, data)
        assert res.log_likelihood >= ll_fitted - 1e-9 * abs(ll_fitted)
        # At its default tolerance the optimizer can stop up to 3e-6 short
        # where a basis saw no clicks (75 shots, counts 75/0/40/39: there the
        # closed form has the higher likelihood, by 2.8e-9); run longer, it
        # reaches the closed form.
        fitted = DensityMatrix.from_bloch(
            *scipy_oracle.lbfgs_bloch(data.counts, shots, tol=1e-13))
        assert trace_distance(res.rho, fitted) <= 1e-6

    def test_fits_on_the_sphere_are_covered(self):
        # pure states at 100 shots land outside the ball about half the time
        rng = np.random.default_rng(47)
        on_sphere = 0
        for k in range(40):
            data = simulate_tomography(random_pure_rho(rng), 100, seed=k)
            res = mle_reconstruct(data)
            if res.iterations:
                on_sphere += 1
                assert np.linalg.norm(res.rho.bloch()) == pytest.approx(1.0, abs=1e-15)
                fitted = DensityMatrix.from_bloch(
                    *scipy_oracle.lbfgs_bloch(data.counts, 100, tol=1e-13))
                assert trace_distance(res.rho, fitted) <= 1e-6
        assert on_sphere >= 10

    @settings(max_examples=200, deadline=None)
    @given(data=st.integers(1, 20).flatmap(lambda shots: st.tuples(
        st.just(shots), st.lists(st.integers(0, shots), min_size=4, max_size=4))))
    def test_any_counts_give_the_best_state_on_a_grid(self, data):
        # defined for any counts, however few: a state whose likelihood no
        # point of a dense grid over the ball beats
        shots, counts = data
        data = TomographyData(shots, np.array(counts, dtype=np.float64))
        res = mle_reconstruct(data)
        assert res.converged
        assert np.linalg.norm(res.rho.bloch()) <= 1.0 + 1e-15
        assert res.rho.eigenvalues()[0] >= -1e-15
        n = data.counts
        best = float(np.max(_GRID_LOG_P @ n + _GRID_LOG_Q @ (shots - n)))
        assert res.log_likelihood >= best - 1e-12 * abs(best)


def test_analyzer_probabilities_are_the_analyzer_projections():
    rng = np.random.default_rng(45)
    for _ in range(100):
        rho = random_pure_rho(rng)
        expected = oracle.born_probabilities(rho.elements)
        assert np.max(np.abs(analyzer_probabilities(rho.bloch()) - expected)) <= 1e-15


def test_default_bases_are_the_four_analyzers():
    axes = {"H": (0.0, 0.0, 1.0), "V": (0.0, 0.0, -1.0),
            "H+iV": (0.0, 1.0, 0.0), "H+V": (1.0, 0.0, 0.0)}
    for label, amplitudes in zip(BASIS_LABELS, oracle.default_bases()):
        state = oracle.pure_state(*amplitudes)
        analyzer = DensityMatrix.from_bloch(*axes[label])
        assert born_probability(state, analyzer) == pytest.approx(1.0, abs=1e-15)

"""Excitation dynamics, conditional probabilities and K functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgi_echo.errors import DomainError, InvariantViolation
from lgi_echo.lgi import (
    ExcitationState,
    LgiReport,
    autocorrelation,
    conditional_probability,
    k_functionals,
    k_minimum,
    state_at,
    violation_sigma,
)
from lgi_echo.quantum import DensityMatrix, born_probability

MHZ = 1e6
NS = 1e-9

EX5 = ExcitationState(detuning=5 * MHZ)
EX2 = ExcitationState(detuning=2 * MHZ)

# the analyzers of the delocalized modes: |D> is +x, |A> is -x
D = DensityMatrix.from_bloch(1.0, 0.0, 0.0)
A = DensityMatrix.from_bloch(-1.0, 0.0, 0.0)


def beat_unitary(delta, tau):
    """Independent oracle: the x-rotation propagator of the beat."""
    half = math.pi * delta * tau
    return np.array(
        [
            [math.cos(half), -1j * math.sin(half)],
            [-1j * math.sin(half), math.cos(half)],
        ]
    )


class TestExcitationState:
    def test_phase_wraps_into_range(self):
        assert ExcitationState(5 * MHZ, phase0=2 * math.pi).phase0 == pytest.approx(0.0)
        assert ExcitationState(5 * MHZ, phase0=-math.pi / 2).phase0 == pytest.approx(
            1.5 * math.pi
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(InvariantViolation):
            ExcitationState(float("nan"))
        with pytest.raises(InvariantViolation):
            ExcitationState(5 * MHZ, phase0=float("inf"))


class TestStateAt:
    def test_starts_in_d(self):
        s = state_at(EX5, 0.0)
        assert born_probability(s, D) == pytest.approx(1.0, abs=1e-15)

    def test_full_transfer_at_half_period(self):
        # phi = pi after 100 ns at 5 MHz
        s = state_at(EX5, 100 * NS)
        assert born_probability(s, A) == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition_at_quarter_period(self):
        s = state_at(EX5, 50 * NS)
        assert born_probability(s, D) == pytest.approx(0.5, abs=1e-12)
        assert born_probability(s, A) == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved_for_random_parameters(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            ex = ExcitationState(rng.uniform(-20 * MHZ, 20 * MHZ), rng.uniform(0, 2 * math.pi))
            s = state_at(ex, rng.uniform(0, 1e-6))
            assert abs(s.purity() - 1.0) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            state_at(EX5, -1 * NS)

    @settings(max_examples=300, deadline=None)
    @given(detuning=st.floats(-20 * MHZ, 20 * MHZ),
           phase0=st.floats(-4 * math.pi, 4 * math.pi),
           t=st.floats(0.0, 1e-6))
    def test_beat_phase_accumulates_from_the_preparation_phase(self, detuning, phase0, t):
        # P(D) = cos^2(phi/2) with phi = 2 pi delta t + phi0; A takes the rest
        s = state_at(ExcitationState(detuning, phase0), t)
        p_d = born_probability(s, D)
        assert p_d == pytest.approx(math.cos(math.pi * detuning * t + phase0 / 2) ** 2,
                                    abs=1e-12)
        assert born_probability(s, A) == pytest.approx(1.0 - p_d, abs=1e-15)
        at_zero = born_probability(state_at(ExcitationState(detuning), t), D)
        expected = conditional_probability(ExcitationState(detuning), "D", "D", 0.0, t)
        assert at_zero == pytest.approx(expected, abs=1e-12)


class TestConditionalProbability:
    def test_same_state_closed_form(self):
        q = conditional_probability(EX5, "D", "D", 0.0, 33.3 * NS)
        assert q == pytest.approx(math.cos(math.pi * 5 * MHZ * 33.3 * NS) ** 2, abs=1e-15)
        assert q == pytest.approx(0.750, abs=2e-3)

    def test_flip_probability_is_one_at_half_period(self):
        for t1 in np.linspace(0, 400 * NS, 9):
            q = conditional_probability(EX5, "D", "A", t1, t1 + 100 * NS)
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_aa_third_period(self):
        q = conditional_probability(EX5, "A", "A", 0.0, 66.7 * NS)
        assert q == pytest.approx(0.25, abs=2e-3)
        exact = conditional_probability(EX5, "A", "A", 0.0, 1.0 / (3 * 5 * MHZ))
        assert exact == pytest.approx(0.25, abs=1e-12)

    def test_matches_propagator_oracle(self):
        rng = np.random.default_rng(8)
        basis = {"D": np.array([1.0, 0.0]), "A": np.array([0.0, 1.0])}
        for _ in range(200):
            delta = rng.uniform(1 * MHZ, 10 * MHZ)
            tau = rng.uniform(0, 500 * NS)
            ex = ExcitationState(delta)
            u = beat_unitary(delta, tau)
            for i in ("D", "A"):
                for j in ("D", "A"):
                    expected = abs(basis[j] @ (u @ basis[i])) ** 2
                    got = conditional_probability(ex, i, j, 0.0, tau)
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_normalization_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            ex = ExcitationState(rng.uniform(0.1 * MHZ, 20 * MHZ))
            t1 = rng.uniform(0, 1e-6)
            t2 = t1 + rng.uniform(0, 1e-6)
            assert (
                conditional_probability(ex, "D", "D", t1, t2)
                + conditional_probability(ex, "D", "A", t1, t2)
            ) == 1.0
            assert (
                conditional_probability(ex, "A", "A", t1, t2)
                + conditional_probability(ex, "A", "D", t1, t2)
            ) == 1.0

    def test_time_translation_invariance(self):
        taus = (33.3 * NS, 66.7 * NS, 100 * NS)
        for tau in taus:
            ref = conditional_probability(EX5, "D", "D", 0.0, tau)
            for t in np.linspace(0, 400 * NS, 21):
                q = conditional_probability(EX5, "D", "D", t, t + tau)
                assert abs(q - ref) < 1e-12

    def test_reversed_times_rejected(self):
        with pytest.raises(DomainError):
            conditional_probability(EX5, "D", "D", 10 * NS, 5 * NS)

    def test_bad_labels_rejected(self):
        with pytest.raises(DomainError):
            conditional_probability(EX5, "H", "V", 0.0, 1 * NS)


class TestAutocorrelation:
    def test_unity_at_zero(self):
        assert autocorrelation(EX5, 0.0) == 1.0

    def test_examples(self):
        assert autocorrelation(EX5, 66.7 * NS) == pytest.approx(-0.5, abs=2e-3)
        assert autocorrelation(EX5, 100 * NS) == pytest.approx(-1.0, abs=1e-12)

    def test_equals_cosine(self):
        for t in np.linspace(0, 300 * NS, 31):
            expected = math.cos(2 * math.pi * 5 * MHZ * t)
            assert autocorrelation(EX5, t) == pytest.approx(expected, abs=1e-12)


class TestKFunctionals:
    def test_paper_probe_time(self):
        rep = k_functionals(EX5, 62.5 * NS)
        expected = math.cos(1.25 * math.pi) + 2 * math.cos(0.625 * math.pi)
        assert expected == pytest.approx(-1.4725, abs=1e-4)
        assert rep.k_plus == pytest.approx(expected, abs=1e-12)
        assert rep.sigma_minus == 0.0 and rep.sigma_plus == 0.0
        assert rep.violation_sigma_plus is None

    def test_low_detuning_minus_minimum(self):
        rep = k_functionals(EX2, 1.0 / (6 * 2 * MHZ))
        assert rep.k_minus == pytest.approx(-1.5, abs=1e-12)
        # the paper-style rounded probe time lands close to the bound
        rep_rounded = k_functionals(EX2, 83.3 * NS)
        assert rep_rounded.k_minus == pytest.approx(-1.5, abs=1e-3)

    def test_boundary_at_zero(self):
        rep = k_functionals(EX5, 0.0)
        assert rep.k_minus == pytest.approx(-1.0, abs=1e-15)
        assert rep.k_plus == pytest.approx(3.0, abs=1e-15)

    def test_consistency_with_autocorrelation(self):
        for t in np.linspace(0, 200 * NS, 41):
            rep = k_functionals(EX5, t)
            k1 = autocorrelation(EX5, t)
            k2 = autocorrelation(EX5, 2 * t)
            assert rep.k_minus == pytest.approx(k2 - 2 * k1, abs=1e-15)
            assert rep.k_plus == pytest.approx(k2 + 2 * k1, abs=1e-15)

    def test_quantum_bound_over_dense_grid(self):
        for delta in (2 * MHZ, 5 * MHZ, 13.7 * MHZ):
            ex = ExcitationState(delta)
            for t in np.linspace(0, 1.0 / delta, 2000):
                rep = k_functionals(ex, t)
                assert rep.k_minus >= -1.5 - 1e-12
                assert rep.k_plus >= -1.5 - 1e-12


class TestKMinimum:
    @pytest.mark.parametrize(
        "which,delta,t_star",
        [
            ("minus", 2 * MHZ, 1.0 / (12 * MHZ)),
            ("minus", 5 * MHZ, 1.0 / (30 * MHZ)),
            ("plus", 2 * MHZ, 1.0 / (6 * MHZ)),
            ("plus", 5 * MHZ, 1.0 / (15 * MHZ)),
        ],
    )
    def test_analytic_minimum(self, which, delta, t_star):
        t, k = k_minimum(which, delta)
        assert abs(k - (-1.5)) < 1e-9
        assert abs(t - t_star) < 1e-12

    def test_paper_times(self):
        t_minus, _ = k_minimum("minus", 2 * MHZ)
        assert t_minus == pytest.approx(83.33 * NS, abs=0.01 * NS)
        t_plus, _ = k_minimum("plus", 5 * MHZ)
        assert t_plus == pytest.approx(66.67 * NS, abs=0.01 * NS)

    def test_rescaling(self):
        t1, k1 = k_minimum("minus", 3 * MHZ)
        t2, k2 = k_minimum("minus", 6 * MHZ)
        assert t2 == pytest.approx(t1 / 2, rel=1e-12)
        assert k1 == k2

    def test_domain(self):
        with pytest.raises(DomainError):
            k_minimum("minus", 0.0)
        with pytest.raises(DomainError):
            k_minimum("both", 5 * MHZ)


class TestViolationSigma:
    def test_paper_value_rounds_to_six_point_nine(self):
        v = violation_sigma(-1.48, 0.07)
        assert v == pytest.approx(6.857, abs=1e-3)
        assert round(v, 1) == 6.9

    def test_boundary_and_sign(self):
        assert violation_sigma(-1.0, 0.3) == 0.0
        assert violation_sigma(-0.5, 0.1) == pytest.approx(-5.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            violation_sigma(-1.2, 0.0)


class TestLgiReport:
    def test_inconsistent_report_rejected(self):
        with pytest.raises(InvariantViolation):
            LgiReport(t=0.0, k_t=0.5, k_2t=0.5, k_minus=0.0, k_plus=1.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantViolation):
            LgiReport(t=0.0, k_t=1.5, k_2t=0.5, k_minus=-2.5, k_plus=3.5)

    def test_sigma_combination(self):
        rep = LgiReport.from_correlations(50 * NS, -0.3, -0.4, 0.01, 0.02)
        assert rep.sigma_minus == pytest.approx(math.sqrt(0.02**2 + 4 * 0.01**2))
        assert rep.violation_sigma_minus == pytest.approx(
            (-1 - rep.k_minus) / rep.sigma_minus
        )

"""Counting estimators, invariance chi-square and Markovianity checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qubit_oracle as oracle
import scipy_oracle
from lgi_echo.errors import DomainError, InvariantViolation
from lgi_echo.lgi import ExcitationState, conditional_probability, k_functionals
from lgi_echo.quantum import Channel, DensityMatrix, trace_distance
from lgi_echo.stationarity import (
    _bootstrap_distance_sigmas,
    DEFAULT_FAMILIES,
    chi2_survival,
    CountPair,
    InvarianceReport,
    MonotonicityReport,
    default_state_pair,
    estimate_q,
    invariance_test,
    k_with_sigma,
    markovianity_test,
    monotonicity_check,
    simulate_q_grid,
    wilson_half_width,
)
from lgi_echo.tomography import analyzer_probabilities

MHZ = 1e6
NS = 1e-9

EX5 = ExcitationState(detuning=5 * MHZ)

# Interior-probability families used wherever the chi-square statistic
# itself is under test; the defaults include boundary rows on purpose.
INTERIOR_FAMILIES = (
    ("D", "D", 33.3 * NS),
    ("A", "A", 66.7 * NS),
    ("D", "D", 50.0 * NS),
)

PROBE_TIMES = np.arange(10) * 20 * NS


# ---------------------------------------------------------------------------
# counting estimators
# ---------------------------------------------------------------------------

class TestEstimateQ:
    def test_count_pair_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            CountPair(-1, 5)
        with pytest.raises(InvariantViolation):
            CountPair(5, -1)

    @pytest.mark.parametrize(
        "n_t,n_c,q,sigma",
        [
            (50, 50, 0.5, 0.05),
            (100, 0, 1.0, 0.0),
            (0, 100, 0.0, 0.0),
            (750, 250, 0.75, 0.013693064),
        ],
    )
    def test_point_estimates(self, n_t, n_c, q, sigma):
        q_hat, s = estimate_q(CountPair(n_t, n_c))
        assert q_hat == pytest.approx(q, abs=1e-12)
        assert s == pytest.approx(sigma, abs=1e-9)

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError):
            estimate_q(CountPair(0, 0))

    @pytest.mark.parametrize("q_true,total", [(0.3, 100), (0.5, 400), (0.75, 1000)])
    def test_sigma_matches_bootstrap(self, q_true, total):
        # formula sigma vs the empirical spread of 10^4 replicates
        rng = np.random.default_rng(91)
        draws = rng.binomial(total, q_true, 10**4)
        q_hats = draws / total
        emp = q_hats.std(ddof=1)
        formula = math.sqrt(q_true * (1.0 - q_true) / total)
        assert emp == pytest.approx(formula, rel=0.05)
        # and the plug-in estimate at typical counts is close too
        _, s = estimate_q(CountPair(int(round(q_true * total)), total - int(round(q_true * total))))
        assert s == pytest.approx(formula, rel=0.05)


class TestWilson:
    def test_positive_at_boundary(self):
        assert wilson_half_width(0, 100) > 0.0
        assert wilson_half_width(100, 100) > 0.0
        assert wilson_half_width(100, 100) == pytest.approx(1.0 / 202.0, rel=1e-9)

    def test_interior_close_to_binomial_sigma(self):
        hw = wilson_half_width(500, 1000)
        assert hw == pytest.approx(math.sqrt(0.25 / 1000), rel=0.01)

    def test_z_scaling(self):
        assert wilson_half_width(500, 1000, z=2.0) == pytest.approx(
            2.0 * wilson_half_width(500, 1000, z=1.0), rel=0.01
        )

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            wilson_half_width(0, 0)
        with pytest.raises(DomainError):
            wilson_half_width(5, 4)


class TestKWithSigma:
    def test_exact_probability_inputs(self):
        # counts = rounded exact probabilities at (62.5 ns, 125 ns)
        q1 = conditional_probability(EX5, "D", "D", 0.0, 62.5 * NS)
        q2 = conditional_probability(EX5, "D", "D", 0.0, 125 * NS)
        n = 10**4
        rep = k_with_sigma(
            CountPair(round(n * q1), n - round(n * q1)),
            CountPair(round(n * q2), n - round(n * q2)),
            t=62.5 * NS,
        )
        assert rep.k_plus == pytest.approx(-1.4725, abs=3 * rep.sigma_plus)
        assert 0.015 <= rep.sigma_plus <= 0.03
        assert not rep.sigma_boundary_adjusted

    def test_sigma_matches_monte_carlo(self):
        # empirical std of the k_plus estimator over 10^4 replicates
        q1 = conditional_probability(EX5, "D", "D", 0.0, 62.5 * NS)
        q2 = conditional_probability(EX5, "D", "D", 0.0, 125 * NS)
        shots = 10**4
        rng = np.random.default_rng(17)
        n1 = rng.binomial(shots, q1, 10**4)
        n2 = rng.binomial(shots, q2, 10**4)
        k_plus = (2 * n2 / shots - 1) + 2 * (2 * n1 / shots - 1)
        rep = k_with_sigma(
            CountPair(round(shots * q1), shots - round(shots * q1)),
            CountPair(round(shots * q2), shots - round(shots * q2)),
        )
        assert k_plus.std(ddof=1) == pytest.approx(rep.sigma_plus, rel=0.05)

    def test_seven_sigma_case(self):
        # counts sized so k_plus ~ -1.48 with sigma_plus ~ 0.07
        rep = k_with_sigma(CountPair(202, 575), CountPair(186, 591))
        assert rep.k_plus == pytest.approx(-1.48, abs=0.01)
        assert rep.sigma_plus == pytest.approx(0.07, abs=0.002)
        assert round(rep.violation_sigma_plus, 1) == 6.9

    def test_boundary_counts_get_wilson_sigma(self):
        rep = k_with_sigma(CountPair(100, 0), CountPair(0, 100))
        assert rep.sigma_boundary_adjusted
        assert rep.sigma_plus > 0.0
        assert rep.violation_sigma_plus is not None

    @pytest.mark.parametrize("shots", [10**2, 10**4, 10**6])
    def test_converges_to_closed_form(self, shots):
        q1 = conditional_probability(EX5, "D", "D", 0.0, 62.5 * NS)
        q2 = conditional_probability(EX5, "D", "D", 0.0, 125 * NS)
        rep = k_with_sigma(
            CountPair(round(shots * q1), shots - round(shots * q1)),
            CountPair(round(shots * q2), shots - round(shots * q2)),
        )
        exact = k_functionals(EX5, 62.5 * NS)
        # rounding moves each q_hat by at most 0.5/shots
        assert rep.k_plus == pytest.approx(exact.k_plus, abs=4.0 / shots)
        assert rep.k_minus == pytest.approx(exact.k_minus, abs=4.0 / shots)

    def test_error_shrinks_as_root_n(self):
        q1 = conditional_probability(EX5, "D", "D", 0.0, 62.5 * NS)
        q2 = conditional_probability(EX5, "D", "D", 0.0, 125 * NS)
        true_k = k_functionals(EX5, 62.5 * NS).k_plus
        rng = np.random.default_rng(23)
        rms = []
        for shots in (10**2, 10**4, 10**6):
            n1 = rng.binomial(shots, q1, 300)
            n2 = rng.binomial(shots, q2, 300)
            k_plus = (2 * n2 / shots - 1) + 2 * (2 * n1 / shots - 1)
            rms.append(math.sqrt(np.mean((k_plus - true_k) ** 2)))
        # each factor-100 step in counts should shrink rms ~10x
        assert 5.0 < rms[0] / rms[1] < 20.0
        assert 5.0 < rms[1] / rms[2] < 20.0


# ---------------------------------------------------------------------------
# time-translation invariance
# ---------------------------------------------------------------------------

def _taus(families):
    return [f[2] for f in families]


class TestSimulateGrid:
    def test_shapes_and_determinism(self):
        nt, nc = simulate_q_grid(EX5, DEFAULT_FAMILIES, PROBE_TIMES, 500, seed=4)
        nt2, nc2 = simulate_q_grid(EX5, DEFAULT_FAMILIES, PROBE_TIMES, 500, seed=4)
        assert nt.shape == (4, 10) and nc.shape == (4, 10)
        assert np.array_equal(nt, nt2) and np.array_equal(nc, nc2)
        assert np.all(nt + nc == 500)

    def test_boundary_family_saturates(self):
        # Q_DA(t, t+100 ns) = 1 at delta = 5 MHz for every t
        nt, _ = simulate_q_grid(EX5, DEFAULT_FAMILIES, PROBE_TIMES, 500, seed=4)
        assert np.all(nt[0] == 500)

    def test_underlying_probabilities_t_independent(self):
        for i, j, tau in DEFAULT_FAMILIES:
            qs = [
                conditional_probability(EX5, i, j, t, t + tau)
                for t in PROBE_TIMES
            ]
            assert max(qs) - min(qs) <= 1e-12

    def test_counts_validated(self):
        with pytest.raises(DomainError):
            simulate_q_grid(EX5, DEFAULT_FAMILIES, PROBE_TIMES, 0, seed=4)


class TestInvarianceTest:
    def test_identical_estimates_pass(self):
        nt = np.full((3, 5), 200)
        nc = np.full((3, 5), 300)
        rep = invariance_test(_taus(INTERIOR_FAMILIES), np.arange(5) * 20 * NS, nt, nc)
        assert rep.chi2 == 0.0
        assert rep.p_value == 1.0
        assert rep.passed

    def test_noiseless_grid_passes_at_any_alpha(self):
        # exact expected counts: every row is constant, chi2 is exactly 0
        n = 10**4
        nt = np.array(
            [
                [
                    round(n * conditional_probability(EX5, i, j, t, t + tau))
                    for t in PROBE_TIMES
                ]
                for i, j, tau in DEFAULT_FAMILIES
            ]
        )
        rep = invariance_test(
            _taus(DEFAULT_FAMILIES), PROBE_TIMES, nt, n - nt, alpha=0.999
        )
        assert rep.chi2 == 0.0
        assert rep.passed

    def test_sampled_grid_passes(self):
        nt, nc = simulate_q_grid(EX5, DEFAULT_FAMILIES, PROBE_TIMES, 500, seed=11)
        rep = invariance_test(_taus(DEFAULT_FAMILIES), PROBE_TIMES, nt, nc)
        assert rep.passed
        assert rep.dof == 4 * (len(PROBE_TIMES) - 1)
        assert len(rep.grid) == 40

    def test_ten_sigma_shift_fails(self):
        nt, nc = simulate_q_grid(EX5, INTERIOR_FAMILIES, PROBE_TIMES, 400, seed=5)
        sigma = math.sqrt(nt[0][3] * nc[0][3] / 400**3)
        shift = int(round(10 * sigma * 400))
        nt = nt.copy()
        nt[0][3] = min(400, nt[0][3] + shift)
        nc = nc.copy()
        nc[0][3] = 400 - nt[0][3]
        rep = invariance_test(_taus(INTERIOR_FAMILIES), PROBE_TIMES, nt, nc, alpha=0.05)
        assert not rep.passed
        assert rep.p_value < 1e-6

    def test_calibrated_at_five_percent(self):
        # null rejection rate over 2000 replicate grids
        taus = _taus(INTERIOR_FAMILIES)
        rejections = 0
        for rep_seed in range(2000):
            nt, nc = simulate_q_grid(EX5, INTERIOR_FAMILIES, PROBE_TIMES, 400, seed=rep_seed)
            rep = invariance_test(taus, PROBE_TIMES, nt, nc, alpha=0.05)
            rejections += not rep.passed
        assert 0.03 <= rejections / 2000 <= 0.07

    def test_boundary_rows_contribute_nothing(self):
        nt, nc = simulate_q_grid(EX5, INTERIOR_FAMILIES, PROBE_TIMES, 400, seed=9)
        base = invariance_test(_taus(INTERIOR_FAMILIES), PROBE_TIMES, nt, nc)
        # append a saturated row: chi2 unchanged, dof inflated
        nt_aug = np.vstack([nt, np.full(PROBE_TIMES.size, 400)])
        nc_aug = np.vstack([nc, np.zeros(PROBE_TIMES.size, dtype=np.int64)])
        aug = invariance_test(
            _taus(INTERIOR_FAMILIES) + [100 * NS], PROBE_TIMES, nt_aug, nc_aug
        )
        assert aug.chi2 == pytest.approx(base.chi2, abs=1e-12)
        assert aug.dof == base.dof + (PROBE_TIMES.size - 1)
        assert aug.p_value >= base.p_value

    def test_degenerate_grids_rejected(self):
        nt = np.full((3, 1), 10)
        with pytest.raises(DomainError):
            invariance_test(_taus(INTERIOR_FAMILIES), [0.0], nt, nt)
        nt = np.full((3, 5), 10)
        with pytest.raises(DomainError):
            invariance_test(_taus(INTERIOR_FAMILIES), np.arange(5) * NS, nt, nt[:2])
        with pytest.raises(DomainError):
            invariance_test(
                _taus(INTERIOR_FAMILIES), np.arange(5) * NS, nt, nt, alpha=1.5
            )
        zeros = np.zeros((3, 5), dtype=np.int64)
        with pytest.raises(DomainError):
            invariance_test(_taus(INTERIOR_FAMILIES), np.arange(5) * NS, zeros, zeros)

    def test_report_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            InvarianceReport(
                grid=((0.0, 1e-9),),
                estimates=(0.5,),
                sigmas=(0.1,),
                chi2=1.0,
                dof=1,
                p_value=0.9,
                alpha=0.05,
                passed=False,
            )


class TestChi2Survival:
    @settings(max_examples=400, deadline=None)
    @given(dof=st.integers(1, 1000), chi2=st.floats(0.0, 3000.0))
    def test_matches_chdtrc(self, dof, chi2):
        expected = scipy_oracle.chdtrc(dof, chi2)
        assume(expected > 1e-300)
        p = chi2_survival(dof, chi2)
        if abs(p - expected) > 1e-12 * expected:
            # where chdtrc itself is off by more, the series must be
            # closer still to the 40-digit value
            exact = scipy_oracle.chi2_survival_40_digits(dof, chi2)
            assert abs(p - exact) <= 1e-13 * exact

    def test_chdtrc_error_region_is_settled_by_the_exact_value(self):
        # chdtrc is 1.2e-12 off here; the series is within 1e-14
        dof, chi2 = 968, 1497.599716654618
        exact = scipy_oracle.chi2_survival_40_digits(dof, chi2)
        assert abs(chi2_survival(dof, chi2) - exact) <= 1e-13 * exact

    def test_small_dof_closed_forms(self):
        for chi2 in (0.0, 0.5, 3.0, 40.0):
            assert chi2_survival(1, chi2) == math.erfc(math.sqrt(chi2 / 2.0))
            assert chi2_survival(2, chi2) == pytest.approx(math.exp(-chi2 / 2.0),
                                                           rel=1e-15)

    def test_bad_dof_rejected(self):
        with pytest.raises(DomainError):
            chi2_survival(0, 1.0)


# ---------------------------------------------------------------------------
# Markovianity
# ---------------------------------------------------------------------------

MARKOV_TIMES = [0.0, 50 * NS, 100 * NS, 150 * NS, 200 * NS]


class TestMonotonicityCheck:
    def test_injected_backflow_fails(self):
        rep = monotonicity_check([0.0, 1 * NS, 2 * NS], [1.0, 0.5, 0.7])
        assert not rep.passed
        assert rep.max_increase == pytest.approx(0.2, abs=1e-12)

    def test_decreasing_sequence_passes(self):
        rep = monotonicity_check([0.0, 1 * NS, 2 * NS], [1.0, 0.5, 0.2])
        assert rep.passed
        assert rep.max_increase < 0.0

    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            monotonicity_check([0.0, 0.0, 1 * NS], [1.0, 0.5, 0.2])

    def test_report_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            MonotonicityReport(
                times=(0.0, 1e-9),
                distances=(1.0, 0.5),
                max_increase=-0.5,
                threshold=1e-12,
                passed=False,
            )


class TestMarkovianityExact:
    def test_dephasing_gives_exponential_decay(self):
        pair = default_state_pair()
        gamma = 2e6
        rep = markovianity_test(*pair, Channel("dephasing", gamma), MARKOV_TIMES)
        assert rep.passed
        assert rep.sigmas is None
        for t, d in zip(rep.times, rep.distances):
            assert d == pytest.approx(math.exp(-gamma * t), abs=1e-12)
        assert all(b < a for a, b in zip(rep.distances, rep.distances[1:]))

    def test_identity_channel_stays_at_one(self):
        pair = default_state_pair()
        rep = markovianity_test(*pair, Channel("identity"), MARKOV_TIMES)
        assert rep.passed
        assert all(d == pytest.approx(1.0, abs=1e-12) for d in rep.distances)

    @pytest.mark.parametrize("gamma", [0.0, 1e3, 2e6, 5e7])
    def test_never_fails_for_any_rate(self, gamma):
        pair = default_state_pair()
        rep = markovianity_test(*pair, Channel("dephasing", gamma), MARKOV_TIMES)
        assert rep.passed

    def test_initial_distance_is_one(self):
        rho_plus, rho_minus = default_state_pair()
        assert trace_distance(rho_plus, rho_minus) == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_points(self):
        pair = default_state_pair()
        with pytest.raises(DomainError):
            markovianity_test(*pair, Channel("identity"), [0.0, 50 * NS])


class TestMarkovianityTomographic:
    def test_reconstruction_tracks_exact_decay(self):
        pair = default_state_pair()
        gamma = 2e6
        rep = markovianity_test(
            *pair, Channel("dephasing", gamma), MARKOV_TIMES,
            use_tomography=True, shots=10**5, seed=3,
        )
        assert rep.passed
        assert rep.sigmas is not None and len(rep.sigmas) == len(MARKOV_TIMES)
        assert rep.threshold > 0.0
        for t, d in zip(rep.times, rep.distances):
            assert d == pytest.approx(math.exp(-gamma * t), abs=0.02)

    def test_deterministic_per_seed(self):
        pair = default_state_pair()
        kwargs = dict(use_tomography=True, shots=10**4, seed=8)
        a = markovianity_test(*pair, Channel("dephasing", 2e6), MARKOV_TIMES, **kwargs)
        b = markovianity_test(*pair, Channel("dephasing", 2e6), MARKOV_TIMES, **kwargs)
        assert a.distances == b.distances
        assert a.sigmas == b.sigmas
        assert a.passed
        assert len(a.sigmas) == len(MARKOV_TIMES)

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_fewer_than_two_replicates_rejected(self, n_bootstrap):
        # one replicate has no spread: every sigma would be nan
        pair = default_state_pair()
        with pytest.raises(DomainError, match="n_bootstrap"):
            markovianity_test(*pair, Channel("dephasing", 2e6), MARKOV_TIMES,
                              use_tomography=True, shots=1000,
                              n_bootstrap=n_bootstrap)


_BLOCH = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
    lambda v: np.array(v) / max(1.0, float(np.linalg.norm(v))))


class TestBootstrapOracle:
    # The loop gets the closed-form analyzer probabilities: the projector
    # form rounds differently in the last bit (0.5000000000000001 for the
    # maximally mixed state through H+V), and numpy's binomial branches
    # on p > 0.5, so one ulp can change a draw.  The Born forms are held
    # to each other in test_tomography and test_quantum.
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(_BLOCH, _BLOCH), min_size=1, max_size=5),
           shots=st.integers(1, 10**5), seed=st.integers(0, 2**40),
           n_reps=st.integers(2, 12))
    def test_one_draw_equals_the_replicate_loop(self, pairs, shots, seed, n_reps):
        rhos_a = [DensityMatrix.from_bloch(*a) for a, _ in pairs]
        rhos_b = [DensityMatrix.from_bloch(*b) for _, b in pairs]
        sigmas = _bootstrap_distance_sigmas(rhos_a, rhos_b, shots, seed, n_reps)
        expected = oracle.bootstrap_sigmas(
            [analyzer_probabilities(a) for a, _ in pairs],
            [analyzer_probabilities(b) for _, b in pairs], shots, seed, n_reps)
        assert np.max(np.abs(np.array(sigmas) - expected)) <= 1e-12

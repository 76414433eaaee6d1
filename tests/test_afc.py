"""Comb sampling, echo emission and retrieval efficiency."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scipy_oracle
from dipole_oracle import dipole_intensity
from lgi_echo.afc import (
    _FWHM_TO_SIGMA,
    _TRACE_SLICE,
    _tooth_characteristic,
    AtomEnsemble,
    CombSpec,
    EchoTrace,
    echo_efficiency,
    echo_trace,
    sample_ensemble,
    trace_fwhm,
    trace_peak,
)
from lgi_echo.errors import ConfigurationError, DomainError, InvariantViolation

MHZ = 1e6
NS = 1e-9

PAPER_COMB = CombSpec(periodicity_delta=8 * MHZ, tooth_fwhm=2 * MHZ, bandwidth=100 * MHZ)


def gaussian_dephasing_intensity(fwhm, delta, k):
    """Closed-form echo intensity factor for Gaussian teeth.

    The k-th revival amplitude is the characteristic function of the
    tooth profile at t = k/delta; squared it is
    exp(-pi^2 k^2 / (2 ln 2 F^2)) with finesse F = delta/fwhm.
    """
    if fwhm == 0.0:
        return 1.0
    finesse = delta / fwhm
    return math.exp(-math.pi**2 * k**2 / (2.0 * math.log(2.0) * finesse**2))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

class TestCombSpec:
    def test_unresolvable_teeth_rejected(self):
        with pytest.raises(ConfigurationError):
            CombSpec(periodicity_delta=8 * MHZ, tooth_fwhm=9 * MHZ, bandwidth=100 * MHZ)

    def test_narrow_envelope_rejected(self):
        with pytest.raises(ConfigurationError):
            CombSpec(periodicity_delta=8 * MHZ, tooth_fwhm=2 * MHZ, bandwidth=4 * MHZ)

    def test_background_must_stay_below_depth(self):
        with pytest.raises(ConfigurationError):
            CombSpec(8 * MHZ, 2 * MHZ, 100 * MHZ, optical_depth=0.04, background_depth=0.05)

    @pytest.mark.parametrize("changes", [
        {"bandwidth": math.nan},
        {"center_offset": math.nan},
        {"center_offset": math.inf},
        {"center_offset": -math.inf},
        {"optical_depth": math.inf},
        {"background_depth": math.nan},
        {"tooth_fwhm": math.nan},
        {"periodicity_delta": math.inf, "bandwidth": math.inf},
    ])
    def test_non_finite_fields_rejected(self, changes):
        # each once constructed, or failed later with a raw numpy error
        with pytest.raises(ConfigurationError, match="must be finite"):
            dataclasses.replace(PAPER_COMB, **changes)

    def test_paper_comb_counts_13_teeth(self):
        # the 100 MHz envelope holds teeth at 0, +-8, ..., +-48 MHz
        ens = sample_ensemble(PAPER_COMB, 5000, seed=1)
        assert np.unique(ens.tooth_indices).tolist() == list(range(-6, 7))


# ---------------------------------------------------------------------------
# ensemble sampling
# ---------------------------------------------------------------------------

class TestSampleEnsemble:
    def test_determinism(self):
        a = sample_ensemble(PAPER_COMB, 5000, seed=1)
        b = sample_ensemble(PAPER_COMB, 5000, seed=1)
        assert np.array_equal(a.detunings, b.detunings)
        assert np.array_equal(a.tooth_indices, b.tooth_indices)
        c = sample_ensemble(PAPER_COMB, 5000, seed=2)
        assert not np.array_equal(a.detunings, c.detunings)

    def test_weight_normalization(self):
        ens = sample_ensemble(PAPER_COMB, 12345, seed=3)
        assert abs(np.sum(ens.weights**2) - 1.0) < 1e-9

    def test_comb_structure_visible_in_histogram(self):
        ens = sample_ensemble(PAPER_COMB, 10000, seed=1)
        counts, edges = np.histogram(
            ens.detunings, bins=np.arange(-52 * MHZ, 52.5 * MHZ, MHZ)
        )
        centers = 0.5 * (edges[:-1] + edges[1:])
        # occupied bins cluster on the teeth
        hot = centers[counts > 0.25 * counts.max()]
        clusters = np.split(hot, np.where(np.diff(hot) > 2 * MHZ)[0] + 1)
        assert len(clusters) >= 12
        cluster_centers = np.array([c.mean() for c in clusters])
        spacing = np.diff(cluster_centers)
        assert np.all(np.abs(spacing - 8 * MHZ) < 1.5 * MHZ)

    def test_degenerate_single_tooth(self):
        spec = CombSpec(periodicity_delta=8 * MHZ, tooth_fwhm=2 * MHZ, bandwidth=8 * MHZ,
                        background_depth=0.0)
        ens = sample_ensemble(spec, 2000, seed=4)
        assert np.all(ens.tooth_indices == ens.tooth_indices[0])

    def test_detunings_stay_attached_to_teeth(self):
        ens = sample_ensemble(PAPER_COMB, 20000, seed=9)
        centers = ens.tooth_indices * PAPER_COMB.periodicity_delta + PAPER_COMB.center_offset
        assert np.all(np.abs(ens.detunings - centers) <= PAPER_COMB.bandwidth / 2)

    def test_offset_shifts_spectrum(self):
        shifted = CombSpec(8 * MHZ, 2 * MHZ, 100 * MHZ, center_offset=5 * MHZ)
        a = sample_ensemble(PAPER_COMB, 3000, seed=6)
        b = sample_ensemble(shifted, 3000, seed=6)
        assert np.allclose(b.detunings - a.detunings, 5 * MHZ)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            sample_ensemble(PAPER_COMB, 0, seed=1)
        with pytest.raises(InvariantViolation):
            AtomEnsemble(np.zeros(3), np.ones(3), np.zeros(3, dtype=int), 3)


# ---------------------------------------------------------------------------
# echo trace
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trace():
    ens = sample_ensemble(PAPER_COMB, 10000, seed=1)
    return echo_trace(ens, t_max=300 * NS, bin_width=2 * NS)


class TestEchoTrace:
    def test_normalized_at_zero(self, trace):
        assert trace.intensity[0] == pytest.approx(1.0)

    def test_first_echo_in_125ns_bin(self, trace):
        t_pk, _ = trace_peak(trace, 50 * NS, 200 * NS)
        assert int(t_pk // (2 * NS)) == int(125 * NS // (2 * NS))

    def test_second_order_echo_smaller(self, trace):
        _, i1 = trace_peak(trace, 110 * NS, 140 * NS)
        t2, i2 = trace_peak(trace, 235 * NS, 265 * NS)
        assert abs(t2 - 250 * NS) <= 2 * NS
        assert 0 < i2 < i1

    def test_echo_fwhm_near_10ns(self, trace):
        width = trace_fwhm(trace, 125 * NS)
        assert 7 * NS <= width <= 13 * NS

    def test_single_tooth_never_revives(self):
        spec = CombSpec(8 * MHZ, 2 * MHZ, 8 * MHZ, background_depth=0.0)
        ens = sample_ensemble(spec, 20000, seed=2)
        tr = echo_trace(ens, t_max=500 * NS, bin_width=10 * NS)
        # free-induction decay: no structure beyond Monte-Carlo jitter
        assert np.all(np.diff(tr.intensity) < 0.02)
        assert tr.intensity[-1] < 0.05

    @settings(max_examples=20, deadline=None)
    @given(n_atoms=st.integers(1, 20000), bin_ns=st.floats(0.5, 10.0),
           n_bins=st.integers(2, 3 * _TRACE_SLICE + 1), seed=st.integers(0, 2**32))
    @example(n_atoms=1, bin_ns=10.0, n_bins=2 * _TRACE_SLICE + 1, seed=0)
    @example(n_atoms=20000, bin_ns=10.0, n_bins=3 * _TRACE_SLICE + 1, seed=3)
    @example(n_atoms=20000, bin_ns=0.5, n_bins=2 * _TRACE_SLICE + 2, seed=4)
    def test_recurrence_matches_dense_oracle(self, n_atoms, bin_ns, n_bins, seed):
        # the phasor recurrence against the direct cos/sin sum, across slice
        # restarts, with unequal weights so that each w_j^2 counts
        comb = sample_ensemble(PAPER_COMB, n_atoms, seed)
        w = np.random.default_rng(seed).random(n_atoms) + 0.1
        w /= math.sqrt(np.sum(w * w))
        ens = AtomEnsemble(comb.detunings, w, comb.tooth_indices, n_atoms)
        tr = echo_trace(ens, n_bins * bin_ns * NS, bin_ns * NS)
        assert tr.times.size == n_bins
        expect = dipole_intensity(ens.weights**2, ens.detunings, tr.times)
        assert np.max(np.abs(tr.intensity - expect / expect[0])) < 1e-12

    def test_empty_and_bad_bins_rejected(self):
        ens = sample_ensemble(PAPER_COMB, 10, seed=1)
        with pytest.raises(DomainError):
            echo_trace(ens, 100 * NS, 0.0)
        with pytest.raises(DomainError):
            echo_trace(ens, 1 * NS, 2 * NS)

    @settings(max_examples=50, deadline=None)
    @given(bin_ns=st.floats(0.5, 10.0), cover=st.floats(1.0, 1.499))
    @example(bin_ns=1.0, cover=1.2)
    @example(bin_ns=2.0, cover=1.0)
    def test_one_bin_rejected_as_domain_error(self, bin_ns, cover):
        # t_max in [bin_width, 1.5 bin_width) rounds to a single bin,
        # which is the caller's input at fault, not an internal invariant
        ens = sample_ensemble(PAPER_COMB, 10, seed=1)
        with pytest.raises(DomainError, match="at least two bins"):
            echo_trace(ens, cover * bin_ns * NS, bin_ns * NS)

    def test_convergence_in_atom_number(self):
        peaks = []
        for n in (1000, 10000, 100000):
            ens = sample_ensemble(PAPER_COMB, n, seed=11)
            tr = echo_trace(ens, 132 * NS, 2 * NS)
            peaks.append(trace_peak(tr, 115 * NS, 135 * NS)[1])
        assert abs(peaks[2] - peaks[1]) / peaks[2] < 0.05


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------

class TestEchoEfficiency:
    def test_ideal_comb_gives_prefactor(self):
        spec = CombSpec(8 * MHZ, 0.0, 100 * MHZ, background_depth=0.0)
        for k in (1, 2, 3):
            assert echo_efficiency(spec, k / (8 * MHZ), prefactor=0.15) == 0.15

    def test_second_echo_weaker(self):
        e1 = echo_efficiency(PAPER_COMB, 125 * NS)
        e2 = echo_efficiency(PAPER_COMB, 250 * NS)
        assert 0 < e2 < e1

    def test_matches_gaussian_dephasing_oracle(self):
        # frozen oracle values: F=8 -> 0.894723, F=4 -> 0.640848; the
        # clipped tails of the sampled teeth move F=4 by about 6e-6
        for fwhm, expected in ((1 * MHZ, 0.894723), (2 * MHZ, 0.640848)):
            spec = CombSpec(8 * MHZ, fwhm, 100 * MHZ, background_depth=0.0)
            assert expected == pytest.approx(
                gaussian_dephasing_intensity(fwhm, 8 * MHZ, 1), abs=1e-6
            )
            eff = echo_efficiency(spec, 125 * NS, prefactor=1.0)
            assert eff == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("fwhm", [0.0, 1 * MHZ, 2 * MHZ, 4 * MHZ, 6 * MHZ, 7.9 * MHZ])
    def test_matches_sampled_ensemble(self, fwhm):
        # The closed form is the mean over the ensemble sample_ensemble
        # draws.  With n iid unit phasors of mean A the sampled intensity
        # has expectation |A|^2 + (1 - |A|^2)/n, checked over independent
        # seeds at the first three revivals and off peak at 60 ns.
        spec = CombSpec(8 * MHZ, fwhm, 100 * MHZ, center_offset=-2.5 * MHZ)
        n, seeds = 20000, 32
        times = np.array([125 * NS, 250 * NS, 375 * NS, 60 * NS])
        sampled = np.array([
            dipole_intensity(ens.weights**2, ens.detunings, times)
            for ens in (sample_ensemble(spec, n, seed) for seed in range(seeds))
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            closed = np.array([echo_efficiency(spec, t, prefactor=1.0) for t in times])
        expected = closed + (1.0 - closed) / n
        sigma = sampled.std(axis=0, ddof=1) / math.sqrt(seeds)
        assert np.all(np.abs(sampled.mean(axis=0) - expected) <= 4.0 * sigma)

    def test_finite_far_out_on_the_tooth_decay(self):
        # sigma * omega from 42 to 2100, where exp(-sigma^2 omega^2/2) Re erf(z)
        # is NaN.  Far out only the ions clipped onto the tooth edges +-delta/2
        # still rephase, a share erfc(a / (sigma sqrt 2)) of the teeth.
        spec = CombSpec(8 * MHZ, 7.9 * MHZ, 100 * MHZ)
        sigma = 7.9 * MHZ / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        f = spec.background_depth / (spec.optical_depth + spec.background_depth)
        edges = ((1.0 - f) * math.erfc(4 * MHZ / (sigma * math.sqrt(2.0)))) ** 2
        for k in (16, 100, 800):
            t = k / (8 * MHZ)
            assert 2 * math.pi * t * sigma > 40.0
            eff = echo_efficiency(spec, t, prefactor=1.0)
            assert math.isfinite(eff)
            assert eff == pytest.approx(edges, rel=1e-2)

    @settings(max_examples=300, deadline=None)
    @given(fwhm=st.floats(0.1 * MHZ, 7.9 * MHZ), t=st.floats(0.0, 2000 * NS))
    def test_tooth_quadrature_matches_the_faddeeva_form(self, fwhm, t):
        sigma = fwhm * _FWHM_TO_SIGMA
        quadrature = _tooth_characteristic(sigma, 4 * MHZ, t)
        assert abs(quadrature - scipy_oracle.tooth_characteristic(sigma, 4 * MHZ, t)) <= 1e-10

    def test_doubling_tooth_width_reduces_efficiency(self):
        narrow = CombSpec(8 * MHZ, 1 * MHZ, 100 * MHZ)
        wide = CombSpec(8 * MHZ, 2 * MHZ, 100 * MHZ)
        assert echo_efficiency(wide, 125 * NS) < echo_efficiency(narrow, 125 * NS)

    def test_off_peak_warns_and_returns_small(self):
        with pytest.warns(UserWarning, match="not near a comb revival"):
            eff = echo_efficiency(PAPER_COMB, 60 * NS, prefactor=0.15)
        assert eff < 0.02

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            echo_efficiency(PAPER_COMB, -1 * NS)
        with pytest.raises(DomainError):
            echo_efficiency(PAPER_COMB, 125 * NS, prefactor=0.0)

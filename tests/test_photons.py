"""Source model, coincidence folding and g2 estimators."""

import dataclasses
import hashlib
import json
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fold_oracle import fold_coincidences
from pipeline_oracle import simulate_per_trial
from lgi_echo import photons
from lgi_echo._rng import STREAM_FATES, STREAM_LAYOUT, STREAM_PIPELINE, stream

from lgi_echo.errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    UndefinedEstimateError,
)
from lgi_echo.config import STORAGE_TIMES, PhysicsConfig, parse_config
from lgi_echo.photons import (
    _CHUNK,
    _chunk_trials,
    _fold,
    _heralds,
    _occupied,
    _unheralded_pairs,
    _windows,
    MAX_TRIALS,
    RETRIEVED_WINDOW,
    TRANSMITTED_WINDOW,
    ClickModel,
    CoincidenceHistogram,
    G2Result,
    MemoryConfig,
    SourceParams,
    g2_cross,
    heralded_autocorr_bound,
    paper_memory,
    paper_source,
    simulate_run,
    storage_histograms,
    storage_memories,
)
from lgi_echo.quantum import DensityMatrix

NS = 1e-9
PERIOD = 400e-9
BIN = 2e-9


def _flat_histogram(peak, offset, noise_periods=1):
    """Histogram with `peak` counts at zero lag and `offset` counts
    spread one count per satellite window."""
    n_bins = int(round((noise_periods + 1) * PERIOD / BIN))
    counts = np.zeros(n_bins, dtype=np.int64)
    counts[0] = peak
    per = offset // noise_periods
    for m in range(noise_periods):
        counts[int(round((PERIOD + m * PERIOD) / BIN))] = per
    return CoincidenceHistogram(
        bin_width=BIN,
        counts=counts,
        signal_window=(0.0, TRANSMITTED_WINDOW),
        period=PERIOD,
        noise_periods=noise_periods,
        n_heralds=1,
        n_trials=1,
    )


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestSourceParams:
    def test_paper_preset_is_valid(self):
        src = paper_source()
        assert src.statistics == "bernoulli"
        assert 0.0 < src.pair_probability < 0.1
        assert src.trial_period == PERIOD

    @pytest.mark.parametrize("kwargs", [
        {"pair_probability": -0.1},
        {"pair_probability": 1.5},
        {"heralding_efficiency": 2.0},
        {"transmission_signal": -1e-9},
        {"detector_efficiency": 1.0 + 1e-9},
        {"dark_rate": -1.0},
        {"background_rate": -1.0},
        {"trial_period": 0.0},
        {"heralding_efficiency": -0.1},
        {"trial_period": -PERIOD},
        {"statistics": "poisson"},
        {"pair_probability": -0.1, "statistics": "thermal"},
        {"pair_probability": math.inf, "statistics": "thermal"},
        {"pair_probability": math.nan, "statistics": "thermal"},
        {"trial_period": math.nan},
        {"trial_period": math.inf},
        {"dark_rate": math.nan},
        {"dark_rate": math.inf},
        {"background_rate": math.nan},
        {"background_rate": math.inf},
        # the pair-number ratio p/(1+p) rounds to 1
        {"pair_probability": 1e16, "statistics": "thermal"},
        {"pair_probability": 1e17, "statistics": "thermal"},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        base = {"pair_probability": 0.01}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            SourceParams(**base)

    def test_largest_thermal_mean_is_accepted(self):
        # 1e15 still has p/(1+p) < 1
        SourceParams(pair_probability=1e15, statistics="thermal")


class TestMemoryConfig:
    def test_paper_preset_is_valid(self):
        mem = paper_memory()
        assert mem.signal_order == 1
        assert mem.comb.periodicity_delta == pytest.approx(8e6)
        assert mem.comb.center_offset == pytest.approx(-PhysicsConfig().detuning / 2)

    def test_paper_working_point_is_written_once(self):
        # the configuration preset and paper_memory are one memory, and
        # paper_memory(t) is the preset reprogrammed as the sweep does it
        memory = PhysicsConfig().memory()
        assert memory == paper_memory()
        for t in STORAGE_TIMES:
            if t > 0.0:
                assert paper_memory(t) == storage_memories(memory, (t,))[0]

    def test_storage_time_off_the_comb_rejected(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(paper_memory(), storage_time=137 * NS)

    def test_storage_time_at_second_order_accepted(self):
        mem = dataclasses.replace(paper_memory(), storage_time=250 * NS)
        assert mem.signal_order == 2

    @pytest.mark.parametrize("kwargs", [
        {"photon_fwhm": 0.0},
        {"decay_time": -1.0},
        {"retrieval_prefactor": 0.0},
        {"retrieval_prefactor": 1.5},
        {"storage_time": -125 * NS},
        {"storage_time": math.nan},
        {"storage_time": math.inf},
        {"photon_fwhm": math.nan},
        {"photon_fwhm": math.inf},
        {"decay_time": math.nan},
        {"decay_time": math.inf},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(paper_memory(), **kwargs)


# ---------------------------------------------------------------------------
# histogram container
# ---------------------------------------------------------------------------

class TestCoincidenceHistogram:
    def test_negative_counts_rejected(self):
        with pytest.raises(InvariantViolation):
            _flat_histogram(-1, 1)

    @pytest.mark.parametrize("window", [
        (0.0, 0.0),
        (10 * NS, 5 * NS),
        # as long as a period: it would overlap its first offset window
        (0.0, PERIOD),
    ])
    def test_bad_signal_window_rejected(self, window):
        with pytest.raises(InvariantViolation, match="signal_window"):
            CoincidenceHistogram(
                bin_width=BIN, counts=np.zeros(400, dtype=np.int64),
                signal_window=window, period=PERIOD, noise_periods=1,
                n_heralds=0, n_trials=1,
            )

    def test_category_counts_must_sum_to_the_total(self):
        with pytest.raises(InvariantViolation, match="category_counts"):
            CoincidenceHistogram(
                bin_width=BIN, counts=np.zeros(400, dtype=np.int64),
                signal_window=(0.0, TRANSMITTED_WINDOW), period=PERIOD, noise_periods=1,
                n_heralds=0, n_trials=1, category_counts=(("x", 5),),
            )

    @pytest.mark.parametrize("storage_time", [0.0, 50 * NS, 50e-9, 125e-9, 250e-9])
    def test_g2_windows_cover_equal_bins(self, storage_time):
        # the signal window snaps once and the offsets move it by whole
        # periods, so no window gains or loses a bin to float rounding
        memory = paper_memory(storage_time) if storage_time else None
        hist = simulate_run(paper_source(), memory, None, 1000, seed=0)
        windows = hist.g2_windows()
        assert len(windows) == 1 + hist.noise_periods
        widths = {i1 - i0 for i0, i1 in windows}
        assert widths == {1 if memory is None else 5}
        step = round(PERIOD / BIN)
        assert [i0 for i0, _ in windows[1:]] == [
            windows[0][0] + m * step for m in range(1, hist.noise_periods + 1)]

    def test_category_sum_matches_total(self):
        src = SourceParams(pair_probability=0.01)
        hist = simulate_run(src, paper_memory(), None, 500_000, seed=2)
        assert sum(dict(hist.category_counts).values()) == hist.total()


# ---------------------------------------------------------------------------
# g2 estimator arithmetic
# ---------------------------------------------------------------------------

class TestG2Cross:
    def test_equal_windows_ratio(self):
        res = g2_cross(_flat_histogram(400, 100))
        assert res.g2 == pytest.approx(4.0)
        assert res.n_peak == 400
        assert res.n_offset == 100
        assert res.sigma == pytest.approx(4.0 * math.sqrt(1 / 400 + 1 / 100))

    def test_satellite_windows_pool(self):
        res = g2_cross(_flat_histogram(400, 800, noise_periods=8))
        assert res.n_offset == 800
        assert res.g2 == pytest.approx(4.0)

    def test_invariant_under_count_rescaling(self):
        a = g2_cross(_flat_histogram(400, 100))
        b = g2_cross(_flat_histogram(2000, 500))
        assert b.g2 == pytest.approx(a.g2)
        assert b.sigma < a.sigma

    def test_zero_peak_gives_zero(self):
        res = g2_cross(_flat_histogram(0, 100))
        assert res.g2 == 0.0
        assert res.sigma == 0.0

    def test_empty_offset_windows_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            g2_cross(_flat_histogram(400, 0))

    def test_negative_fields_rejected(self):
        with pytest.raises(InvariantViolation):
            G2Result(g2=-1.0, sigma=0.0, n_peak=0, n_offset=0)


class TestHeraldedBound:
    @pytest.mark.parametrize("g2_si, bound", [
        (14.3, 0.2797),
        (4.0, 1.0),
        (2.0, 2.0),
    ])
    def test_default_rule(self, g2_si, bound):
        assert heralded_autocorr_bound(g2_si) == pytest.approx(bound, abs=1e-4)

    def test_vanishes_for_strong_correlations(self):
        assert heralded_autocorr_bound(1e9) < 1e-8

    def test_monotone_decreasing(self):
        grid = [2.0, 4.0, 14.3, 54.7, 452.0]
        bounds = [heralded_autocorr_bound(x) for x in grid]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(DomainError):
            heralded_autocorr_bound(bad)


# ---------------------------------------------------------------------------
# simulated runs
# ---------------------------------------------------------------------------

def _ideal_memory():
    """Patch in a memory that passes nothing and retrieves everything in
    its first echo; no configuration describes one."""
    build = photons.click_model

    def ideal(source, memory):
        model = build(source, memory)
        eta = source.transmission_signal * source.detector_efficiency
        return dataclasses.replace(
            model, cum_probs=(0.0,) + (eta,) * (len(model.cum_probs) - 1))

    return mock.patch.object(photons, "click_model", ideal)


class TestSimulateRun:
    def test_silent_source_gives_empty_histogram(self):
        src = SourceParams(pair_probability=0.0)
        hist = simulate_run(src, None, None, 100_000, seed=1)
        assert hist.total() == 0
        assert hist.n_heralds == 0
        with pytest.raises(UndefinedEstimateError):
            g2_cross(hist)

    def test_transmitted_peak_sits_at_zero_lag(self):
        src = SourceParams(pair_probability=0.01)
        hist = simulate_run(src, None, None, 500_000, seed=11)
        assert int(np.argmax(hist.counts)) == 0
        assert hist.signal_window == (0.0, TRANSMITTED_WINDOW)

    def test_ideal_memory_puts_every_click_in_the_echo(self):
        # an ideal memory passes nothing and retrieves everything in the
        # first echo
        src = SourceParams(pair_probability=0.01)
        with _ideal_memory():
            hist = simulate_run(src, dataclasses.replace(paper_memory(), decay_time=0.0),
                                None, 1_000_000, seed=3)
        cats = dict(hist.category_counts)
        assert cats["transmitted"] == 0
        assert cats["dark"] == 0 and cats["background"] == 0
        assert cats["echo1"] == hist.total()
        first_period = int(hist.counts[:int(PERIOD / BIN)].sum())
        in_window = int(hist.counts[int(115 * NS / BIN):int(135 * NS / BIN)].sum())
        assert in_window >= 0.97 * first_period

    def test_paper_memory_peak_structure(self):
        src = SourceParams(pair_probability=0.01)
        hist = simulate_run(src, paper_memory(), None, 5_000_000, seed=4)
        counts = hist.counts.astype(float)

        def peak_and_fwhm(lo_ns, hi_ns):
            seg = counts[int(lo_ns * NS / BIN):int(hi_ns * NS / BIN)]
            peak = seg.max()
            above = np.nonzero(seg >= peak / 2.0)[0]
            return peak, (above[-1] - above[0] + 1) * BIN / NS

        p_tx, _ = peak_and_fwhm(0, 60)
        p_e1, w_e1 = peak_and_fwhm(100, 160)
        p_e2, _ = peak_and_fwhm(220, 280)
        # bandwidth mismatch: most photons pass straight through
        assert p_tx > p_e1 > p_e2 > 0
        assert 7.0 <= w_e1 <= 13.0
        assert hist.signal_window == (
            pytest.approx(125 * NS - RETRIEVED_WINDOW / 2),
            pytest.approx(125 * NS + RETRIEVED_WINDOW / 2),
        )

    def test_thermal_two_mode_oracle(self):
        src = SourceParams(pair_probability=0.01, statistics="thermal")
        res = g2_cross(simulate_run(src, None, None, 10_000_000, seed=7))
        assert res.g2 == pytest.approx(101.0, rel=0.10)

    def test_bernoulli_pairs_oracle(self):
        src = SourceParams(pair_probability=0.01)
        res = g2_cross(simulate_run(src, None, None, 10_000_000, seed=7))
        assert res.g2 == pytest.approx(100.0, rel=0.10)

    def test_g2_independent_of_chain_efficiency(self):
        # ratio estimator: losses scale peak and offsets alike
        base = SourceParams(pair_probability=0.01, heralding_efficiency=0.5)
        lossy = dataclasses.replace(base, transmission_signal=0.3,
                                    detector_efficiency=0.6)
        r1 = g2_cross(simulate_run(base, None, None, 5_000_000, seed=21))
        r2 = g2_cross(simulate_run(lossy, None, None, 5_000_000, seed=22))
        assert abs(r1.g2 - r2.g2) <= 3.0 * math.hypot(r1.sigma, r2.sigma)

    @pytest.mark.parametrize("kwargs", [
        {"duration_trials": 0},
        {"noise_periods": 0},
        {"workers": 0},
        {"run_index": 2048},
    ])
    def test_invalid_run_arguments_rejected(self, kwargs):
        args = {"duration_trials": 1000, "seed": 0}
        args.update(kwargs)
        with pytest.raises(DomainError):
            simulate_run(SourceParams(pair_probability=0.01), None, None, **args)

    def test_analyzer_rejected(self):
        # the signal arm has no polarizer; one passed in must not be ignored
        with pytest.raises(DomainError, match="analyzer"):
            simulate_run(SourceParams(pair_probability=0.01), None,
                         DensityMatrix.from_bloch(1.0, 0.0, 0.0), 1000, seed=0)


class TestDeterminism:
    def test_same_seed_same_histogram(self):
        src = paper_source()
        mem = paper_memory()
        a = simulate_run(src, mem, None, 2_000_000, seed=6)
        b = simulate_run(src, mem, None, 2_000_000, seed=6)
        assert np.array_equal(a.counts, b.counts)
        assert a.category_counts == b.category_counts

    def test_different_seed_differs(self):
        src = SourceParams(pair_probability=0.01)
        a = simulate_run(src, None, None, 1_000_000, seed=6)
        b = simulate_run(src, None, None, 1_000_000, seed=7)
        assert not np.array_equal(a.counts, b.counts)

    def test_run_index_decorrelates_repeats(self):
        src = SourceParams(pair_probability=0.01)
        a = simulate_run(src, None, None, 1_000_000, seed=6, run_index=0)
        b = simulate_run(src, None, None, 1_000_000, seed=6, run_index=1)
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_results(self, workers):
        src = paper_source()
        mem = paper_memory()
        a = simulate_run(src, mem, None, 3_000_000, seed=6, workers=1)
        b = simulate_run(src, mem, None, 3_000_000, seed=6, workers=workers)
        assert np.array_equal(a.counts, b.counts)
        assert a.category_counts == b.category_counts


# ---------------------------------------------------------------------------
# skip sampling and the herald fold
# ---------------------------------------------------------------------------

def _chi2_pvalue(observed, expected):
    """Pearson chi-square p-value; bins with expectation below 5 pooled
    into their neighbour."""
    obs, exp = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs.append(o_acc)
            exp.append(e_acc)
            o_acc = e_acc = 0.0
    obs[-1] += o_acc
    exp[-1] += e_acc
    obs, exp = np.array(obs), np.array(exp)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(chi2, obs.size - 1))


class TestSkipSampling:
    def test_occupancy_counts_are_binomial(self):
        size, q, n = 400, 0.03, 4000
        counts = np.array([_occupied(stream(11, STREAM_PIPELINE, k), size, q).size
                           for k in range(n)])
        ks = np.arange(counts.max() + 1)
        observed = np.bincount(counts, minlength=ks.size)
        expected = n * stats.binom.pmf(ks, size, q)
        expected[-1] += n * stats.binom.sf(ks[-1], size, q)
        assert _chi2_pvalue(observed, expected) > 1e-3

    def test_occupied_positions_are_uniform_and_sorted(self):
        size, q, n = 50, 0.2, 4000
        hits = np.zeros(size)
        for k in range(n):
            pos = _occupied(stream(12, STREAM_PIPELINE, k), size, q)
            assert np.all(np.diff(pos) > 0)
            assert pos.size == 0 or (pos[0] >= 0 and pos[-1] < size)
            hits[pos] += 1
        assert _chi2_pvalue(hits, np.full(size, n * q)) > 1e-3

    @pytest.mark.parametrize("q, expected", [(0.0, []), (1.0, list(range(7))),
                                             (1e-300, [])])
    def test_occupancy_extremes(self, q, expected):
        assert _occupied(stream(0, STREAM_PIPELINE), 7, q).tolist() == expected

    @staticmethod
    def _tail_source():
        # p = 2 and a weak herald: both conditional laws run well past 16
        # pairs, which would expose a cap on the multiplicity
        return SourceParams(pair_probability=2.0, heralding_efficiency=0.05,
                            statistics="thermal")

    def test_thermal_heralded_multiplicities(self):
        # P(n | heralded) = P(n) (1 - (1-eta)^n) / P(heralded), with
        # P(n) = (1 - r) r^n, r = p/(1+p), and P(heralded) = p eta/(1+p eta)
        src = self._tail_source()
        p, eta = src.pair_probability, src.heralding_efficiency
        r = p / (1.0 + p)
        mult = np.concatenate([
            _heralds(stream(5, STREAM_PIPELINE, c), src, 1 << 16)[1]
            for c in range(8)])
        ns = np.arange(1, 60)
        law = (1.0 - r) * r ** ns * (1.0 - (1.0 - eta) ** ns) * (1.0 + p * eta) / (p * eta)
        observed = np.bincount(np.minimum(mult, ns[-1]), minlength=ns[-1] + 1)[1:]
        expected = mult.size * law
        expected[-1] = mult.size - expected[:-1].sum()
        assert mult.min() >= 1
        assert _chi2_pvalue(observed, expected) > 1e-3
        assert np.count_nonzero(mult > 16) > 0

    def test_thermal_unheralded_multiplicities(self):
        # P(n | not heralded) = (1 - s) s^n with s = r (1 - eta), n >= 0
        src = self._tail_source()
        s = src.pair_probability / (1.0 + src.pair_probability) * (
            1.0 - src.heralding_efficiency)
        size, n = 1 << 14, 8
        mult = np.concatenate([
            _unheralded_pairs(stream(5, STREAM_FATES, c), src, size)[1]
            for c in range(n)])
        ns = np.arange(0, 50)
        observed = np.bincount(np.minimum(mult, ns[-1]), minlength=ns[-1] + 1)
        observed[0] = n * size - mult.size
        expected = n * size * (1.0 - s) * s ** ns
        expected[-1] = n * size * s ** ns[-1]
        assert mult.min() >= 1
        assert _chi2_pvalue(observed, expected) > 1e-3
        assert np.count_nonzero(mult > 16) > 0

    @pytest.mark.parametrize("statistics", ["bernoulli", "thermal"])
    def test_heralds_real_and_dark_at_the_per_trial_law(self, statistics):
        # heavy herald dark counts, dT = 0.4: a trial heralds for real
        # with probability q and through a dark count alone with
        # probability (1 - q)(1 - exp(-dT))
        src = SourceParams(pair_probability=0.05, heralding_efficiency=0.3,
                           dark_rate=1e6, statistics=statistics)
        size, n = 1 << 16, 8
        marks = np.concatenate([_heralds(stream(6, STREAM_PIPELINE, c), src, size)[2]
                                for c in range(n)])
        pe = src.pair_probability * src.heralding_efficiency
        q = pe if statistics == "bernoulli" else pe / (1.0 + pe)
        dark = (1.0 - q) * -math.expm1(-src.dark_rate * src.trial_period)
        observed = [n * size - marks.size, np.count_nonzero(marks == 1),
                    np.count_nonzero(marks == 2)]
        expected = n * size * np.array([1.0 - q - dark, dark, q])
        assert _chi2_pvalue(observed, expected) > 1e-3

    @settings(max_examples=200, deadline=None)
    @given(statistics=st.sampled_from(["bernoulli", "thermal"]),
           p=st.floats(0.0, 1.0), eta=st.floats(0.0, 1.0),
           dark_rate=st.sampled_from([0.0, 1e4, 1e6, 1e8]),
           size=st.integers(1, 2000), seed=st.integers(0, 2**32))
    def test_heralds_are_sorted_marked_and_paired(self, statistics, p, eta, dark_rate,
                                                 size, seed):
        src = SourceParams(pair_probability=p, heralding_efficiency=eta,
                           dark_rate=dark_rate, statistics=statistics)
        trials, pairs, marks = _heralds(stream(seed, STREAM_PIPELINE), src, size)
        assert trials.size == pairs.size == marks.size
        assert np.all(np.diff(trials) > 0)
        assert trials.size == 0 or (trials[0] >= 0 and trials[-1] < size)
        assert set(marks.tolist()) <= ({1, 2} if dark_rate else {2})
        # a real herald holds its pairs, a dark count alone none
        assert np.array_equal(pairs >= 1, marks == 2)
        assert np.all(pairs[marks == 1] == 0)

    def test_thermal_run_independent_of_workers(self):
        src = SourceParams(pair_probability=0.1, statistics="thermal")
        mem = paper_memory()
        runs = [simulate_run(src, mem, None, 3_000_000, seed=9, workers=w)
                for w in (1, 2, 8)]
        for other in runs[1:]:
            assert other.counts.tobytes() == runs[0].counts.tobytes()
            assert other.category_counts == runs[0].category_counts
            assert other.n_heralds == runs[0].n_heralds


def _noisy_source(statistics):
    # a weak herald, dark counts and background: every draw of the
    # pipeline shows in the histogram
    return SourceParams(pair_probability=0.02 if statistics == "bernoulli" else 0.05,
                        heralding_efficiency=0.3, transmission_signal=0.8,
                        detector_efficiency=0.9, dark_rate=2e4, background_rate=5e4,
                        statistics=statistics)


class TestHeraldFirst:
    @pytest.mark.parametrize("statistics", ["bernoulli", "thermal"])
    def test_means_match_the_per_trial_model(self, statistics):
        # 40 seeds a side; chunks of 4096 trials put herald windows
        # across chunk boundaries
        src, mem, n_trials, seeds = _noisy_source(statistics), paper_memory(), 100_000, 40
        with mock.patch.object(photons, "_chunk_trials", return_value=4096):
            fast = [simulate_run(src, mem, None, n_trials, seed=s) for s in range(seeds)]
        slow = [simulate_per_trial(src, mem, n_trials, seed=s) for s in range(seeds)]
        for name in ["heralds"] + [c for c, _ in fast[0].category_counts]:
            a, b = (np.array([r.n_heralds if name == "heralds"
                              else dict(r.category_counts)[name] for r in runs], float)
                    for runs in (fast, slow))
            sigma = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / seeds)
            assert abs(a.mean() - b.mean()) <= 4.0 * sigma, (name, a.mean(), b.mean(), sigma)
        # the echo categories hold enough counts to compare
        assert np.mean([dict(r.category_counts)["echo1"] for r in fast]) > 20

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 300), reach=st.integers(1, 12), data=st.data())
    def test_windows_are_the_herald_neighbourhoods(self, size, reach, data):
        heralds = np.array(sorted(data.draw(st.sets(st.integers(0, size - 1), max_size=40))),
                           dtype=np.int64)
        lengths, bounds, slots = _windows(heralds, reach, size)
        # piece 0 starts at trial 0 and slot reach, every other one at
        # its first herald and that herald's slot
        starts = np.concatenate(([0], heralds[bounds[1:-1]]))
        base = np.concatenate(([reach], slots[bounds[1:-1]]))
        assert bounds[0] == 0 and bounds[-1] == heralds.size
        assert np.all(np.diff(bounds[1:]) > 0) and np.all(lengths > 0)
        # the first reach trials can pair with heralds of earlier chunks
        dense = np.zeros(size, dtype=bool)
        dense[:reach] = True
        for h in heralds:
            dense[h:h + reach + 1] = True
        covered = np.zeros(size, dtype=int)
        for j, (a, n) in enumerate(zip(starts, lengths)):
            covered[a:a + n] += 1
            # each herald sits in its piece, one slot per trial
            mine = heralds[bounds[j]:bounds[j + 1]]
            assert np.all((a <= mine) & (mine < a + n))
            assert np.array_equal(slots[bounds[j]:bounds[j + 1]], base[j] + mine - a)
        assert np.array_equal(covered, dense)
        # reach empty slots before every piece
        assert np.array_equal(base, np.cumsum(lengths + reach) - lengths)
        # a group's draws land on the slots of its pieces
        ends = np.cumsum(lengths)
        on_pieces = np.concatenate([np.arange(b, b + n) for b, n in zip(base, lengths)])
        assert np.array_equal(photons._slots_at(np.arange(ends[-1]), ends, reach), on_pieces)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), statistics=st.sampled_from(["bernoulli", "thermal"]),
           noise_periods=st.integers(1, 12), data=st.data())
    def test_independent_of_workers_across_chunk_edges(self, seed, statistics,
                                                        noise_periods, data):
        # chunks down to one trial, some shorter than noise_periods
        chunk = data.draw(st.integers(1, 512))
        n_trials = data.draw(st.integers(1, min(20_000, 64 * chunk)))
        src = _noisy_source(statistics)
        with mock.patch.object(photons, "_chunk_trials", return_value=chunk):
            runs = [simulate_run(src, paper_memory(), None, n_trials, seed,
                                 noise_periods=noise_periods, workers=w)
                    for w in (1, 2, 8)]
        for other in runs[1:]:
            assert other.counts.tobytes() == runs[0].counts.tobytes()
            assert other.category_counts == runs[0].category_counts
            assert other.n_heralds == runs[0].n_heralds

    @pytest.mark.parametrize("chunk", [1, 3, 8, 64])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_every_lag_is_counted_once_across_chunk_edges(self, chunk, workers):
        # p = eta = 1 on a lossless chain without memory or noise: every
        # trial heralds and clicks once, so lag m pairs the N - m clicks
        # of trials m .. N-1 with the heralds m trials back
        src = SourceParams(pair_probability=1.0)
        n_trials, noise_periods = 200, 8
        with mock.patch.object(photons, "_chunk_trials", return_value=chunk):
            hist = simulate_run(src, None, None, n_trials, seed=4,
                                noise_periods=noise_periods, workers=workers)
        per_lag = hist.counts.reshape(noise_periods + 1, -1).sum(axis=1)
        assert per_lag.tolist() == [n_trials - m for m in range(noise_periods + 1)]
        assert hist.total() == ((noise_periods + 1) * n_trials
                                - noise_periods * (noise_periods + 1) // 2)
        assert hist.n_heralds == n_trials

    def test_echo_past_the_trial_period_lands_at_its_delay(self):
        # a 250 ns echo with a 200 ns trial period: an ideal memory puts
        # every click in echo 1, whose zero-lag entries sit around bin
        # 125; clipping click times into their own period would pile
        # them into bin 99
        src = SourceParams(pair_probability=0.01, trial_period=200 * NS)
        with _ideal_memory():
            hist = simulate_run(src, dataclasses.replace(paper_memory(250 * NS), decay_time=0.0),
                                None, 1_000_000, seed=3)
        cats = dict(hist.category_counts)
        assert cats["echo1"] == hist.total()
        first_periods = int(hist.counts[:200].sum())
        assert hist.counts[99] == 0 and first_periods > 5000
        assert int(hist.counts[115:135].sum()) >= 0.97 * first_periods


class TestChunkSizing:
    @pytest.mark.parametrize("source", [
        paper_source(),
        SourceParams(pair_probability=0.1, statistics="thermal"),
        SourceParams(pair_probability=1.0),
        SourceParams(pair_probability=0.0),
        _noisy_source("bernoulli"),
        _noisy_source("thermal"),
    ])
    @pytest.mark.parametrize("noise_periods", [1, 8, 40])
    def test_length_is_a_power_of_two_multiple_of_the_chunk(self, source, noise_periods):
        length = _chunk_trials(source, noise_periods)
        k = (length // _CHUNK).bit_length() - 1
        assert length == _CHUNK << k and _CHUNK <= length <= MAX_TRIALS

    def test_dense_and_paper_sources(self):
        # the p = 0.1 thermal source keeps chunks of 2^22 trials; the
        # paper source runs 2e8 trials as one chunk
        assert _chunk_trials(SourceParams(pair_probability=0.1, statistics="thermal"),
                             8) == 1 << 22
        assert _chunk_trials(paper_source(), 8) >= 200_000_000
        assert _chunk_trials(SourceParams(pair_probability=0.0), 8) == MAX_TRIALS

    @pytest.mark.parametrize("n_trials", [1, 5_000_000, 30_000_000])
    def test_length_ignores_workers_and_run_length(self, n_trials):
        # the chunks a run asks for depend on the run length only through
        # the cut at its end
        src = SourceParams(pair_probability=0.1, statistics="thermal", transmission_signal=0.0)
        length = _chunk_trials(src, 8)
        for workers in (1, 2, 8):
            sizes = []
            chunk = photons._simulate_chunk

            def spy(source, seed, index, size, reach, model, n_bins):
                sizes.append((index, size))
                return chunk(source, seed, index, size, reach, model, n_bins)

            with mock.patch.object(photons, "_simulate_chunk", spy):
                simulate_run(src, None, None, n_trials, seed=1, workers=workers)
            full, rest = divmod(n_trials, length)
            assert sorted(sizes) == [(c, length) for c in range(full)] + (
                [(full, rest)] if rest else [])

    @pytest.mark.parametrize("source", [
        {}, {"statistics": "thermal", "pair_probability": 0.1}])
    def test_longest_run_still_validates(self, source):
        doc = {"scenario": "g2_vs_storage", "defaults": "paper", "source": source,
               "statistics": {"trials": MAX_TRIALS}}
        assert parse_config(json.dumps(doc)).statistics.trials == MAX_TRIALS


# sha256 of a small fixed run, per STREAM_LAYOUT.  A change that moves an
# output byte at a fixed configuration document must bump STREAM_LAYOUT
# (the digest covers it) and add the new value here.
_PINNED_RUN = {
    3: "0dcd71db8320e06e0720013e1b1839e85b9204b70b5d11280fab39aae7b7e7d7",
    # layout 4 changed the qubit arithmetic only
    4: "0dcd71db8320e06e0720013e1b1839e85b9204b70b5d11280fab39aae7b7e7d7",
    # layout 5 moved the echo efficiencies in their last digits, which
    # moves no fate of this run
    5: "0dcd71db8320e06e0720013e1b1839e85b9204b70b5d11280fab39aae7b7e7d7",
    # layout 6 changed the echo trace sum only
    6: "0dcd71db8320e06e0720013e1b1839e85b9204b70b5d11280fab39aae7b7e7d7",
    # layout 7 changed the qubit type only
    7: "0dcd71db8320e06e0720013e1b1839e85b9204b70b5d11280fab39aae7b7e7d7",
    # layout 8 draws false heralds and noise clicks per chunk and fates
    # the first noise_periods trials of every chunk
    8: "632a41955faf3cb9aba90ce9b323b020cfb8f9fae0f790fdfbf4fbca3ba39eda",
    # layout 9 draws the herald dark counts with the real heralds and
    # leaves the noise click positions unsorted
    9: "efd073dcd54cf7903d0de7b3676fcd89ce92d0aeecdd7ae91ca4a4d956847bfa",
}


def _digest(hist):
    blob = hist.counts.astype("<i8").tobytes() + json.dumps(
        [hist.n_heralds, hist.category_counts]).encode()
    return hashlib.sha256(blob).hexdigest()


def test_stream_layout_pins_the_simulated_histogram():
    hist = simulate_run(_noisy_source("thermal"), paper_memory(), None, 300_000, seed=1)
    assert _digest(hist) == _PINNED_RUN[STREAM_LAYOUT]


def _run_at_chunk_edges():
    # 17-trial chunks on two workers: herald windows cross chunk edges
    src = SourceParams(pair_probability=0.3, heralding_efficiency=0.5, dark_rate=2e4,
                       background_rate=5e4, statistics="thermal")
    with mock.patch.object(photons, "_chunk_trials", return_value=17):
        return simulate_run(src, paper_memory(), None, 6_000, seed=5, workers=2)


# sha256 of runs outside the paper preset, per STREAM_LAYOUT, as
# _PINNED_RUN: they pin the fates, false heralds, chunk edges and fold
# that the preset run exercises only lightly.
_PINNED_RUNS = {
    8: {
        "dense thermal": "2ab96fe5df38a926ae08318c382f38f151cf1fe7c0ac67de3658640c05c6b341",
        "noisy bernoulli": "5cc49530b187d33e4424388d285bdea36738ec984c05228554d132393e0939c7",
        "paper point, 250 ns": "c6e93b6773780e0b6f3a84d160b0f7e7e14c7b12c40c3dac08c9f647169b8ef4",
        "17-trial chunks": "49f8921f9e858884aaf89cf49867ab6432982d960ec8ea2c8d554c568b3a38c3",
    },
    # a run with neither dark counts nor background draws as at layout 8
    9: {
        "dense thermal": "2ab96fe5df38a926ae08318c382f38f151cf1fe7c0ac67de3658640c05c6b341",
        "noisy bernoulli": "11a6cd042354cc5425286abebf38cbe02d786457ffba7be54a2224f5b1af429c",
        "paper point, 250 ns": "5da5f266e0e0714c3e78bdcbc94f359eeaf92b8cf905e0f5f8eea04679208c79",
        "17-trial chunks": "6665a6c8a591147a686934127720c862f4f3abc3fa81341fb502938b92f5664f",
    },
}

_PINNED_CASES = {
    # 5e6 trials cross one 2^22-trial chunk edge
    "dense thermal": lambda: simulate_run(
        SourceParams(pair_probability=0.1, statistics="thermal"), paper_memory(), None,
        5_000_000, seed=7),
    "noisy bernoulli": lambda: simulate_run(
        _noisy_source("bernoulli"), paper_memory(), None, 400_000, seed=2),
    "paper point, 250 ns": lambda: simulate_run(
        paper_source(), paper_memory(250 * NS), None, 20_000_000, seed=9),
    "17-trial chunks": _run_at_chunk_edges,
}


@pytest.mark.parametrize("name", sorted(_PINNED_CASES))
def test_stream_layout_pins_runs_outside_the_preset(name):
    assert _digest(_PINNED_CASES[name]()) == _PINNED_RUNS[STREAM_LAYOUT][name]


_EDGE_TIMES = st.sampled_from([1e-12, PERIOD * (1.0 - 1e-12), PERIOD, 2.5 * PERIOD])


@st.composite
def _fold_piece(draw):
    """Heralds and (trial, time, category) clicks of one piece of trials."""
    n_trials = draw(st.integers(1, 30))
    trial = st.integers(0, n_trials - 1)
    heralds = sorted(draw(st.sets(trial, max_size=n_trials)))
    # clicks at a piece's first trial look back into the padding; click
    # times run past one period: a late echo keeps its delay
    clicks = draw(st.lists(st.tuples(
        st.one_of(st.just(0), trial),
        st.one_of(_EDGE_TIMES, st.floats(1e-12, 3.0 * PERIOD)),
        st.integers(0, 2)), max_size=40))
    return n_trials, heralds, clicks


@st.composite
def _fold_case(draw):
    pieces = draw(st.lists(_fold_piece(), min_size=1, max_size=4))
    max_lag = draw(st.integers(1, 12))
    bin_width = draw(st.sampled_from([BIN, 1e-9, 7e-9]))
    # either mark, real or false, is a herald to the fold
    marks = draw(st.lists(st.sampled_from([1, 2]), min_size=sum(len(p[1]) for p in pieces),
                          max_size=sum(len(p[1]) for p in pieces)))
    return pieces, max_lag, bin_width, marks


def _clicks(clicks):
    return (np.array([c[0] for c in clicks], dtype=np.int64),
            np.array([c[1] for c in clicks], dtype=np.float64),
            np.array([c[2] for c in clicks], dtype=np.int64))


class TestHeraldFold:
    @settings(max_examples=300, deadline=None)
    @given(_fold_case())
    def test_matches_dense_oracle(self, case):
        # the pieces laid end to end, max_lag empty slots before each, as
        # _windows lays them out; the oracle folds each piece on its own
        pieces, max_lag, bin_width, marks = case
        n_bins = int(round((max_lag + 1) * PERIOD / bin_width))
        sizes = np.array([n for n, _, _ in pieces])
        base = np.cumsum(sizes + max_lag) - sizes
        mask = np.zeros(base[-1] + sizes[-1], dtype=np.uint8)
        mask[np.concatenate([b + np.array(h, dtype=np.int64)
                             for b, (_, h, _) in zip(base, pieces)])] = marks
        trials, times, cats = _clicks([(b + t, time, cat) for b, (_, _, clicks) in
                                       zip(base, pieces) for t, time, cat in clicks])
        got = _fold(trials, times, cats, mask, PERIOD, bin_width, n_bins, max_lag,
                    3).reshape(3, n_bins)
        want = np.zeros((3, n_bins), dtype=np.int64)
        for n_trials, heralds, clicks in pieces:
            dense = np.zeros(n_trials, dtype=np.uint8)
            dense[heralds] = 1
            trials, times, cats = _clicks(clicks)
            for c in range(3):
                sel = cats == c
                want[c] += fold_coincidences(trials[sel], times[sel], dense, PERIOD,
                                             bin_width, n_bins, max_lag)
        assert np.array_equal(got, want)

    def test_empty_inputs(self):
        none = np.empty(0, dtype=np.int64)
        one = np.array([3], dtype=np.int64)
        for slots, heralds in [(none, one), (none, none), (one, none)]:
            mask = np.zeros(4, dtype=np.uint8)
            mask[heralds] = 2
            got = _fold(slots, np.full(slots.size, 1e-9), slots * 0, mask,
                        PERIOD, BIN, 400, 1, 2)
            assert got.shape == (800,) and got.sum() == 0

    def test_out_of_range_delays_are_dropped(self):
        # a herald in slot 2; clicks in its slot and the next, with
        # delays before the first bin, in the first and the last bin, and
        # past the last bin
        mask = np.zeros(5, dtype=np.uint8)
        mask[2] = 1
        slots = np.array([2, 2, 3, 3, 3], dtype=np.int64)
        times = np.array([-1e-9, 1e-9, PERIOD - 1e-9, PERIOD + 1e-9, -PERIOD - 1e-9])
        got = _fold(slots, times, np.array([0, 1, 0, 1, 1]), mask, PERIOD, BIN, 400,
                    1, 2).reshape(2, 400)
        assert np.flatnonzero(got[0]).tolist() == [399]
        assert np.flatnonzero(got[1]).tolist() == [0]
        assert got.sum() == 2

    @pytest.mark.parametrize("n", [0, 1, 700, 1023, 1024, 5000])
    def test_flags_never_cached_by_numpy(self, n):
        # numpy caches freed blocks under 1 KiB; a mask must not be one
        flags = photons._flags(n)
        assert flags.size == n and flags.dtype == np.bool_
        assert flags.base is not None and flags.base.nbytes >= 1024

    def test_fresh_trials_exclude_only_real_heralds(self):
        # one piece of 6 trials in slots 2-7: a real herald in trial 1
        # (slot 3) with 2 pairs, a false herald alone in trial 3 (slot 5)
        reach, ends = 2, np.array([6])
        mask = np.zeros(8, dtype=np.uint8)
        mask[[3, 5]] = [2, 1]
        herald_pos, herald_pairs = np.array([3, 5]), np.array([2, 0])
        # draws given no herald land on both herald trials and on trial 4
        drawn = np.array([1, 3, 4]), np.array([5, 7, 1])
        with mock.patch.object(photons, "_unheralded_pairs", return_value=drawn):
            # every photon clicks, in the transmitted category
            pos, times, cats = photons._fate_chunk(
                np.random.default_rng(0), SourceParams(pair_probability=0.5), ends, reach,
                mask, herald_pos, herald_pairs,
                ClickModel(("transmitted", "dark", "background"), (1.0,), (0.0,), (1e-9,),
                           (0.0, TRANSMITTED_WINDOW)))
        # the real herald's trial keeps its own 2 pairs only; the false
        # herald's trial holds the 7 drawn for it, like any other trial
        assert pos.tolist() == [3, 3] + [5] * 7 + [6]
        assert np.all(cats == 0) and np.all(times > 0.0)

    @pytest.mark.parametrize("workers, most_held", [(1, 1), (2, 3)])
    def test_clicks_are_folded_as_chunks_are_fated(self, workers, most_held):
        # a chunk folds its clicks as it fates them and hands back only a
        # partial histogram, its last heralds and its first clicks, so its
        # herald arrays die with it: each worker holds one chunk, and at
        # most `workers` + 1 chunks are alive, the starting one included
        alive = []
        held = []
        heralded = photons._heralds

        def tracked(*args):
            held.append(1 + sum(ref() is not None for ref in alive))
            out = heralded(*args)
            alive.append(weakref.ref(out[0]))
            return out

        src = SourceParams(pair_probability=0.1, statistics="thermal")
        with mock.patch.object(photons, "_chunk_trials", return_value=4096), \
                mock.patch.object(photons, "_heralds", tracked):
            hist = simulate_run(src, paper_memory(), None, 200_000, seed=3,
                                workers=workers)
        assert len(held) == 49 and hist.total() > 0
        assert max(held) <= most_held

    def test_traced_peak_does_not_grow_with_trials(self):
        # one chunk per worker is resident: eight times the chunks of a
        # dense run leave the traced peak where it was
        src = SourceParams(pair_probability=0.1, statistics="thermal")
        peaks = []
        with mock.patch.object(photons, "_chunk_trials", return_value=1 << 16):
            for n_trials in (4 << 16, 32 << 16):
                tracemalloc.start()
                try:
                    simulate_run(src, paper_memory(), None, n_trials, seed=2)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0], peaks


# ---------------------------------------------------------------------------
# storage-time sweep
# ---------------------------------------------------------------------------

class TestG2VsStorage:
    def test_noiseless_sweep_is_flat(self):
        # without darks or background the estimator does not depend on
        # the retrieval efficiency, only on the pair statistics
        src = SourceParams(pair_probability=0.01)
        res = [g2_cross(h) for h in storage_histograms(
            src, paper_memory(), [50 * NS, 125 * NS], seed=8, duration_trials=20_000_000)]
        z = abs(res[0].g2 - res[1].g2) / math.hypot(res[0].sigma, res[1].sigma)
        assert z <= 3.0

    def test_paper_working_point_trend(self):
        src = paper_source()
        ts = [0.0, 50 * NS, 125 * NS, 250 * NS]
        res = [g2_cross(h) for h in storage_histograms(
            src, paper_memory(), ts, seed=5, duration_trials=200_000_000)]
        values = [r.g2 for r in res]
        assert all(v > 2.0 for v in values)
        assert values[0] == max(values)
        assert values[1] > values[3]

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            storage_histograms(paper_source(), paper_memory(), [-50 * NS],
                               seed=0, duration_trials=1000)

"""The two dense oracles: the comb dipole sum and the coincidence fold."""

import numpy as np

from dipole_oracle import dipole_intensity
from fold_oracle import fold_coincidences

PERIOD = 400e-9
BIN = 2e-9


def dipole_inputs(n_atoms, n_times, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(n_atoms)
    detunings = rng.normal(0.0, 50e6, n_atoms)
    times = np.sort(rng.random(n_times)) * 300e-9
    return weights, detunings, times


def fold_inputs(n_clicks, n_trials, seed):
    rng = np.random.default_rng(seed)
    trials = np.sort(rng.integers(0, n_trials, n_clicks))
    times = rng.random(n_clicks) * PERIOD
    heralds = (rng.random(n_trials) < 0.05).astype(np.uint8)
    return trials, times, heralds


# ---------------------------------------------------------------------------
# dipole_intensity (oracle)
# ---------------------------------------------------------------------------

class TestDipoleIntensity:
    def test_single_atom_constant(self):
        # one atom: |w^2 e^{i phi}|^2 = (w^2)^2 at every time
        out = dipole_intensity(np.array([0.7]), np.array([3e6]),
                               np.linspace(0, 1e-6, 11))
        assert np.allclose(out, 0.7 ** 2, rtol=1e-12)

    def test_two_atoms_beat(self):
        # equal weights, detunings +-d: I(t) = 4 w^4 cos^2(pi (2d) t)
        d = 4e6
        w = np.array([1.0, 1.0])
        times = np.linspace(0.0, 500e-9, 101)
        out = dipole_intensity(w, np.array([d, -d]), times)
        expect = 4.0 * np.cos(np.pi * 2 * d * times) ** 2
        assert np.allclose(out, expect, rtol=1e-9, atol=1e-12)

    def test_blocking_matches_direct(self):
        # force several blocks through the chunked path
        w, d, t = dipole_inputs(n_atoms=3000, n_times=3000, seed=1)
        phase = 2 * np.pi * np.outer(t, d)
        direct = (np.cos(phase) @ w) ** 2 + (np.sin(phase) @ w) ** 2
        assert np.allclose(dipole_intensity(w, d, t), direct, rtol=1e-9)


# ---------------------------------------------------------------------------
# fold_coincidences (oracle)
# ---------------------------------------------------------------------------

class TestFoldCoincidences:
    def test_zero_lag_needs_same_trial_herald(self):
        trials = np.array([0, 1, 2])
        times = np.array([1e-9, 1e-9, 1e-9])
        heralds = np.array([1, 0, 1], dtype=np.uint8)
        out = fold_coincidences(trials, times, heralds,
                                PERIOD, BIN, 10, 0)
        assert out[0] == 2 and out.sum() == 2

    def test_lagged_click_pairs_with_earlier_herald(self):
        # click in trial 3 at t=0, herald in trial 1: delay 2 * period
        trials = np.array([3])
        times = np.array([0.5e-9])
        heralds = np.array([0, 1, 0, 0], dtype=np.uint8)
        out = fold_coincidences(trials, times, heralds,
                                PERIOD, BIN, 2000, 8)
        assert out[400] == 1 and out.sum() == 1

    def test_out_of_range_bins_dropped(self):
        trials = np.array([2])
        times = np.array([0.5e-9])
        heralds = np.array([1, 1, 1], dtype=np.uint8)
        # lags 0,1,2 give delays at bins 0, 200, 400; only 300 bins kept
        out = fold_coincidences(trials, times, heralds,
                                PERIOD, BIN, 300, 8)
        assert out.sum() == 2

    def test_lag_cannot_reach_before_first_trial(self):
        trials = np.array([0])
        times = np.array([0.5e-9])
        heralds = np.array([1], dtype=np.uint8)
        out = fold_coincidences(trials, times, heralds,
                                PERIOD, BIN, 4000, 8)
        assert out.sum() == 1  # only the m=0 pairing exists

    def test_counts_conserved(self):
        trials, times, heralds = fold_inputs(20000, 5000, seed=3)
        lagged = heralds[np.maximum(trials[:, None]
                                    - np.arange(0, 9)[None, :], 0)]
        lagged[trials[:, None] < np.arange(0, 9)[None, :]] = 0
        expect = int(lagged.sum())
        n_bins = int((9 * PERIOD) / BIN) + 10
        out = fold_coincidences(trials, times, heralds,
                                PERIOD, BIN, n_bins, 8)
        assert out.sum() == expect

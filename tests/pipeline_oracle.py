"""Per-trial photon pipeline: the reference the herald-first sampling in
`lgi_echo.photons.simulate_run` is tested against.

It draws every trial of the run: a pair number per trial, a herald
draw per pair, a false herald per trial from the dark rate, a fate for
every signal photon, and dark and background clicks for every trial.
It then folds the clicks of each category with the dense fold of
`fold_oracle`.  Memory and time scale with the number of trials, so it
suits runs of about 1e5 trials; its statistics must match the
pipeline's, not its draws.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from fold_oracle import fold_coincidences
from lgi_echo.photons import BIN_WIDTH, click_model


@dataclass(frozen=True)
class OracleRun:
    n_heralds: int
    counts: np.ndarray
    category_counts: Tuple[Tuple[str, int], ...]


def simulate_per_trial(source, memory, n_trials, seed,
                       noise_periods=8) -> OracleRun:
    rng = np.random.default_rng(seed)
    period = source.trial_period
    p, eta = source.pair_probability, source.heralding_efficiency
    model = click_model(source, memory)
    labels = model.labels
    centers, sigmas = np.array(model.centers), np.array(model.sigmas)

    if source.statistics == "bernoulli":
        pairs = (rng.random(n_trials) < p).astype(np.int64)
    else:
        # P(n) = p^n / (1+p)^(n+1) on {0, 1, ...}
        pairs = rng.geometric(1.0 / (1.0 + p), n_trials) - 1
    pair_trials = np.repeat(np.arange(n_trials), pairs)
    herald = np.zeros(n_trials, dtype=np.uint8)
    herald[pair_trials[rng.random(pair_trials.size) < eta]] = 1
    herald[rng.poisson(source.dark_rate * period, n_trials) > 0] = 1

    cat = np.searchsorted(model.cum_probs, rng.random(pair_trials.size), side="right")
    clicked = cat < centers.size
    cat = cat[clicked]
    trials = [pair_trials[clicked]]
    # strictly positive, as the pipeline draws them; a click may fall
    # past its own period
    times = [np.maximum(rng.normal(centers[cat], sigmas[cat]), 1e-12)]
    cats = [cat]
    for k, rate in enumerate((source.dark_rate, source.background_rate)):
        n = rng.poisson(rate * period, n_trials)
        trials.append(np.repeat(np.arange(n_trials), n))
        times.append(rng.random(trials[-1].size) * period)
        cats.append(np.full(trials[-1].size, labels.index("dark") + k))
    trials, times, cats = (np.concatenate(a) for a in (trials, times, cats))

    n_bins = int(round((noise_periods + 1) * period / BIN_WIDTH))
    folded = [fold_coincidences(trials[cats == c], times[cats == c], herald,
                                period, BIN_WIDTH, n_bins, noise_periods)
              for c in range(len(labels))]
    return OracleRun(
        n_heralds=int(herald.sum()),
        counts=np.sum(folded, axis=0),
        category_counts=tuple((name, int(f.sum())) for name, f in zip(labels, folded)),
    )

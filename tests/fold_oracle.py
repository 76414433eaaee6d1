"""Dense coincidence fold: the reference the herald-driven fold in
`lgi_echo.photons` is tested against.

It walks every lag for every click over a dense per-trial herald mask,
so it costs O(clicks x lags) and needs a mask as long as the run; that
makes it too slow for the pipeline but obviously right.
"""

import numpy as np


def fold_coincidences(click_trials, click_times, heralds, period, bin_width,
                      n_bins, max_lag):
    """Histogram click-herald delays folded over trial boundaries.

    A click at in-trial time t in trial i coincides with the herald of
    trial i - m (m = 0 .. max_lag) at delay t + m * period.  Delays are
    binned as floor(delay / bin_width); out-of-range bins are dropped.

    Parameters
    ----------
    click_trials : (n_clicks,) int64 trial index of each click
    click_times : (n_clicks,) float64 in-trial detection time, seconds
    heralds : (n_trials,) uint8, 1 where the trial produced a herald
    period : float, trial repetition period in seconds
    bin_width : float, histogram bin width in seconds
    n_bins : int, number of bins starting at delay 0
    max_lag : int, how many earlier trials a click is paired with

    Returns
    -------
    (n_bins,) int64 counts.
    """
    click_trials = np.ascontiguousarray(click_trials, dtype=np.int64)
    click_times = np.ascontiguousarray(click_times, dtype=np.float64)
    heralds = np.ascontiguousarray(heralds, dtype=np.uint8)
    out = np.zeros(n_bins, dtype=np.int64)
    for m in range(max_lag + 1):
        if m == 0:
            sel = heralds[click_trials] != 0
        else:
            sel = (click_trials >= m) & (heralds[np.maximum(click_trials - m, 0)] != 0)
        if not np.any(sel):
            continue
        delay = click_times[sel] + m * period
        idx = np.floor(delay / bin_width).astype(np.int64)
        ok = (idx >= 0) & (idx < n_bins)
        out += np.bincount(idx[ok], minlength=n_bins).astype(np.int64)
    return out

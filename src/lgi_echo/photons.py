"""Heralded-photon source, memory round trip and coincidence analysis.

Simulates the full counting experiment: a pulsed pair source heralds
single photons, the signal photon is stored in the comb and retrieved
at an echo order, and detectors with dark counts and broadband readout
background produce timestamped clicks.  No polarizer sits in the
signal arm; the D/A projection of the stored excitation is modelled in
closed form by `lgi.conditional_probability`.  Coincidence histograms
fold the clicks against the heralds over neighbouring trial periods;
the cross-correlation g2 compares the zero-lag window with satellite
windows one or more periods away.

Trials are generated in chunks whose length follows from the source
alone, a power-of-two multiple of 2^17 trials sized so each chunk draws
about the same number of events, with one random stream per chunk, so
any worker partition of the trial range produces the same clicks.  The
pipeline works herald first, so its cost scales with heralds, not
trials.  A trial heralds once, through one of its pairs or a dark
count of the herald detector, so a chunk's stream first draws the gaps
between its heralded trials, which heralds are real and their pairs.
Only the trials up to noise_periods after a herald, whose clicks alone
can pair with one, then draw their other pairs and the photon fates,
and last the dark and background clicks.  These window pieces are laid
end to end, one slot per trial, with noise_periods empty slots before
each, and one herald mask over the chunk's layout stands in for
searches of the heralds: a real herald's slot drops the pairs drawn
there as unheralded, and the fold pairs each click with the heralds
marked up to noise_periods slots back.  So the mask grows with the
heralds, not with the trials.
Each chunk folds its clicks against its own heralds and hands back a
partial histogram; only the clicks of its first noise_periods trials
are paired with the heralds of the chunks before, so a run holds one
chunk per worker at a time.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .afc import _ECHO_FWHM_FACTOR, _SIGMA_TO_FWHM, CombSpec, echo_efficiency
from .errors import ConfigurationError, DomainError, InvariantViolation, UndefinedEstimateError
from ._rng import stream, STREAM_PIPELINE

# Fewest trials per generation chunk.  Fixed: chunk boundaries define
# the random streams, so changing this reshuffles every simulated run.
_CHUNK = 1 << 17

# Longest supported run: the chunk index fills the low 26 bits of each
# stream index, the run index the 6 bits above.  Chunks are never shorter
# than _CHUNK, so a run has at most 2^26 of them.
_CHUNK_BITS = 26
MAX_TRIALS = _CHUNK << _CHUNK_BITS
_RUNS = 1 << (32 - _CHUNK_BITS)

# Expected events (heralds, photons and noise clicks) a chunk may draw.
# Each chunk draws and folds all of its events at once, so this also
# bounds the temporaries.  A p = 0.1 thermal source draws about 0.15 per
# trial and gets chunks of 2^19 trials (about 2e4 window pieces each);
# the paper source, about 2.3e-4 per trial, gets chunks of 2^29 trials.
_CHUNK_EVENTS = 1 << 17

# Chunks handed to a worker pool at once: pool.map submits every call up
# front, about 2 KB each, or 128 GB held through a run of 2^26 chunks.
_POOL_SLICE = 64

# Bytes of the block a run allocates and frees, untouched, before its
# chunks.  glibc gives the free top of its heap back to the system once
# it exceeds twice the largest block it has unmapped (up to 32 MB).  A
# chunk frees its temporaries, about 40 bytes per expected event, all
# at once, so without such a block each dense chunk handed them back
# and faulted them in again: 6e4 page faults, a fifth of a 4e7-trial
# thermal run.
_HEAP_HINT = 64 * _CHUNK_EVENTS

# Coincidence window widths (transmitted pulse / retrieved echo).
TRANSMITTED_WINDOW = 2e-9
RETRIEVED_WINDOW = 10e-9

# Width of a click-herald delay histogram bin.
BIN_WIDTH = 2e-9

# FWHM of a signal photon's wave packet, unless a memory sets another.
PHOTON_FWHM = 5e-9

# Click models click_model keeps: a g2_vs_storage sweep needs four.
_CLICK_MODELS = 32


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceParams:
    """Pair source, transmission chain and detector parameters."""

    pair_probability: float
    heralding_efficiency: float = 1.0
    transmission_signal: float = 1.0
    detector_efficiency: float = 1.0
    dark_rate: float = 0.0
    background_rate: float = 0.0
    trial_period: float = 400e-9
    statistics: str = "bernoulli"

    def __post_init__(self):
        p = self.pair_probability
        if self.statistics == "thermal":
            # a thermal source's pair_probability is a mean pair number
            if not 0.0 <= p < math.inf:
                raise ConfigurationError(
                    f"pair_probability={p} must be finite and >= 0")
            # the pair-number ratio r = p/(1+p) must stay below 1
            if p / (1.0 + p) >= 1.0:
                raise ConfigurationError(
                    f"pair_probability={p} too large for a thermal source: "
                    "p/(1+p) rounds to 1")
        elif not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"pair_probability={p} outside [0, 1]")
        for name in ("heralding_efficiency", "transmission_signal",
                     "detector_efficiency"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name}={v} outside [0, 1]")
        for name in ("dark_rate", "background_rate"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if not 0.0 < self.trial_period < math.inf:
            raise ConfigurationError("trial_period must be positive and finite")
        if self.statistics not in ("bernoulli", "thermal"):
            raise ConfigurationError(
                f"statistics must be 'bernoulli' or 'thermal', got {self.statistics!r}"
            )


@dataclass(frozen=True)
class MemoryConfig:
    """Comb memory and the retrieval of a stored signal photon.

    comb is the comb pattern the H polarization sees, center_offset
    below the photon carrier; the V comb is the same pattern as far
    above it, so the two are 2 * |center_offset| apart.  decay_time adds
    an exp(-t/decay_time) factor to the retrieval efficiency standing in
    for slow dephasing processes the comb model does not resolve; 0
    disables it.
    """

    comb: CombSpec
    storage_time: float
    photon_fwhm: float = PHOTON_FWHM
    decay_time: float = 0.0
    retrieval_prefactor: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.storage_time < math.inf:
            raise ConfigurationError("storage_time must be positive and finite")
        delta = self.comb.periodicity_delta
        order = round(self.storage_time * delta)
        if order < 1 or abs(self.storage_time - order / delta) > 0.05 / delta:
            raise ConfigurationError(
                f"storage_time {self.storage_time} is not close to an echo "
                f"order of the {delta} Hz comb"
            )
        if not 0.0 < self.photon_fwhm < math.inf:
            raise ConfigurationError("photon_fwhm must be positive and finite")
        if not 0.0 <= self.decay_time < math.inf:
            raise ConfigurationError("decay_time must be finite and >= 0")
        if not 0.0 < self.retrieval_prefactor <= 1.0:
            raise ConfigurationError("retrieval_prefactor must be in (0, 1]")

    @property
    def signal_order(self) -> int:
        return round(self.storage_time * self.comb.periodicity_delta)


def paper_source() -> SourceParams:
    """Source and detection chain at the published working point."""
    return SourceParams(
        pair_probability=2e-3,
        heralding_efficiency=0.10,
        transmission_signal=0.23,
        detector_efficiency=0.35,
        dark_rate=50.0,
        background_rate=5e3,
        trial_period=400e-9,
    )


def paper_memory(storage_time: float = 125e-9) -> MemoryConfig:
    """Memory at the published working point, reprogrammed by
    storage_memories so its first echo order lands at storage_time.

    At 125 ns the grating period is 8 MHz with 2 MHz teeth.  The H comb
    sits 2.5 MHz below the photon carrier and the V comb 2.5 MHz above;
    no phase plate.
    """
    if storage_time <= 0.0:
        raise ConfigurationError("storage_time must be positive")
    memory = MemoryConfig(
        comb=CombSpec(
            periodicity_delta=8e6,
            tooth_fwhm=2e6,
            bandwidth=100e6,
            optical_depth=8.0,
            background_depth=0.05,
            center_offset=-2.5e6,
        ),
        storage_time=125e-9,
        decay_time=150e-9,
    )
    return storage_memories(memory, (storage_time,))[0]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Click-herald delay histogram folded over trial periods.

    Bin b covers delays [b, b+1) * bin_width; delays span the signal
    period plus noise_periods satellite periods.  The offset windows of
    g2 are the signal window moved by whole periods, so signal_window
    must be shorter than one period.  category_counts records how many
    histogram entries each click source contributed, so their sum
    equals the histogram total exactly.
    """

    bin_width: float
    counts: np.ndarray
    signal_window: Tuple[float, float]
    period: float
    noise_periods: int
    n_heralds: int
    n_trials: int
    category_counts: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or c.size < 1:
            raise InvariantViolation("counts must be a non-empty 1-D array")
        if np.any(c < 0):
            raise InvariantViolation("counts must be non-negative")
        if self.bin_width <= 0.0 or self.period <= 0.0:
            raise InvariantViolation("bin_width and period must be positive")
        if self.noise_periods < 1:
            raise InvariantViolation("noise_periods must be >= 1")
        lo, hi = self.signal_window
        if not 0.0 < hi - lo < self.period:
            raise InvariantViolation(
                "signal_window must have positive width shorter than one period")
        if self.n_heralds < 0 or self.n_trials < 1:
            raise InvariantViolation("n_heralds must be >= 0 and n_trials >= 1")
        if self.category_counts and sum(n for _, n in self.category_counts) != c.sum():
            raise InvariantViolation("category_counts must sum to the histogram total")
        object.__setattr__(self, "counts", c)

    def total(self) -> int:
        return int(self.counts.sum())

    def g2_windows(self) -> Tuple[Tuple[int, int], ...]:
        """Bin ranges [i0, i1) of the signal window and of its offset
        windows, before clipping to the histogram.

        The signal window's start snaps to the nearest bin edge and its
        width to a whole number of bins; offset window m (m = 1 ..
        noise_periods) is that bin range moved by m periods of
        round(period / bin_width) bins, so every window covers the same
        number of bins.
        """
        lo, hi = self.signal_window
        i0 = int(round(lo / self.bin_width))
        i1 = i0 + int(round((hi - lo) / self.bin_width))
        step = int(round(self.period / self.bin_width))
        return tuple((i0 + m * step, i1 + m * step) for m in range(self.noise_periods + 1))

    def _bin_sum(self, i0: int, i1: int) -> Tuple[int, int]:
        """(counts, bins) of the part of [i0, i1) inside the histogram."""
        i0, i1 = max(0, i0), min(self.counts.size, i1)
        if i1 <= i0:
            return 0, 0
        return int(self.counts[i0:i1].sum()), i1 - i0


@dataclass(frozen=True)
class G2Result:
    """Window-normalized cross-correlation between herald and signal."""

    g2: float
    sigma: float
    n_peak: int
    n_offset: int

    def __post_init__(self):
        if self.g2 < 0.0 or self.sigma < 0.0:
            raise InvariantViolation("g2 and sigma must be >= 0")
        if self.n_peak < 0 or self.n_offset < 0:
            raise InvariantViolation("window counts must be >= 0")


# ---------------------------------------------------------------------------
# derived physics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClickModel:
    """Where a signal photon's clicks land, and which delays g2 counts.

    labels name the click categories: the photon paths in order, then
    the dark and background clicks.  Per photon path, cum_probs holds
    the cumulative click probability, centers the mean delay and sigmas
    the delay spread.  signal_window is the click-herald delay range g2
    counts as signal.
    """

    labels: Tuple[str, ...]
    cum_probs: Tuple[float, ...]
    centers: Tuple[float, ...]
    sigmas: Tuple[float, ...]
    signal_window: Tuple[float, float]


@lru_cache(maxsize=_CLICK_MODELS)
def click_model(source: SourceParams, memory: Optional[MemoryConfig]) -> ClickModel:
    """The click model of a source and memory, cached, so that parse time
    and every run of the same pair share one.

    A photon leaves by one path: transmitted, at delay 0, with the
    comb's transmission (1 without a memory), or re-emitted at echo
    order k, at delay k/Delta with the echo efficiency.  The orders run
    from 1 to the highest that fits in a trial period, at most 3 but at
    least the signal order.  Every path then passes the transmission
    chain.  The signal window is the transmitted pulse without a
    memory, else the retrieved echo around storage_time.
    """
    if memory is None:
        paths = [("transmitted", 1.0, 0.0)]
        sigmas = [PHOTON_FWHM / _SIGMA_TO_FWHM]
        window = (0.0, TRANSMITTED_WINDOW)
    else:
        paths = [("transmitted", _comb_transmission(memory.comb), 0.0)]
        delta = memory.comb.periodicity_delta
        highest = max(min(3, int(math.floor(source.trial_period * delta))), memory.signal_order)
        for k in range(1, highest + 1):
            t_k = k / delta
            eff = echo_efficiency(memory.comb, t_k, prefactor=memory.retrieval_prefactor)
            if memory.decay_time > 0.0:
                eff *= math.exp(-t_k / memory.decay_time)
            paths.append((f"echo{k}", eff, t_k))
        sigma_in = memory.photon_fwhm / _SIGMA_TO_FWHM
        echo_fwhm = _ECHO_FWHM_FACTOR / memory.comb.bandwidth
        sigmas = [sigma_in] + [math.hypot(sigma_in, echo_fwhm / _SIGMA_TO_FWHM)] * highest
        half = RETRIEVED_WINDOW / 2.0
        window = (memory.storage_time - half, memory.storage_time + half)
    labels, probs, delays = zip(*paths)
    if sum(probs) > 1.0 + 1e-9:
        raise ConfigurationError(
            f"transmitted plus retrieved probability {sum(probs):.4g} exceeds 1"
        )

    eta_chain = source.transmission_signal * source.detector_efficiency
    return ClickModel(labels + ("dark", "background"),
                      tuple(np.cumsum(np.array(probs) * eta_chain).tolist()),
                      delays, tuple(sigmas), window)


def _comb_transmission(spec: CombSpec) -> float:
    """Spectral average of exp(-depth) over one grating period."""
    delta = spec.periodicity_delta
    omega = (np.arange(2048) + 0.5) / 2048.0 * delta - delta / 2.0
    # zero-width teeth absorb a measure-zero slice: depth stays 0
    depth = np.zeros_like(omega)
    if spec.tooth_fwhm > 0.0:
        sig = spec.tooth_fwhm / _SIGMA_TO_FWHM
        for m in range(-6, 7):
            depth += np.exp(-0.5 * ((omega - m * delta) / sig) ** 2)
    trans = np.exp(-spec.optical_depth * depth).mean()
    return float(trans * math.exp(-spec.background_depth))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _occupied(rng: np.random.Generator, size: int, q: float) -> np.ndarray:
    """Sorted positions in [0, size), each occupied with probability q.

    Skip sampling: the gaps between consecutive occupied positions are
    geometric with success q, so the cost scales with the number of
    occupied positions, not with size.
    """
    if q <= 0.0:
        return np.empty(0, dtype=np.int64)
    # one batch covers the chunk unless the count runs six sigma high
    mean = size * q
    batch = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    parts = []
    last = -1
    while last < size:
        gaps = rng.geometric(q, batch)
        # any gap past the chunk ends it; the cap keeps the sums finite
        np.minimum(gaps, size + 1, out=gaps)
        pos = np.cumsum(gaps, out=gaps)
        pos += last
        parts.append(pos)
        last = int(pos[-1])
    pos = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return pos[:np.searchsorted(pos, size)]


def _geometric0(rng: np.random.Generator, s: float, size: int) -> np.ndarray:
    """Draws of G(s): P(k) = (1 - s) s^k on {0, 1, ...}."""
    if s == 0.0:
        # a lossless herald or a silent source: nothing to draw
        return np.zeros(size, dtype=np.int64)
    return rng.geometric(1.0 - s, size) - 1


def _herald_probabilities(source: SourceParams) -> Tuple[float, float]:
    """Probabilities (real, any) that a trial heralds through one of its
    pairs, each heralding with probability eta, and that it heralds at all.

    A Bernoulli trial holds one pair, so real = p * eta; a thermal trial,
    P(n) = (1 - r) r^n with r = p/(1+p), gives real = p*eta/(1+p*eta).
    A herald detector dark count, independent of the pairs, heralds too.
    """
    p, eta = source.pair_probability, source.heralding_efficiency
    real = p * eta if source.statistics == "bernoulli" else p * eta / (1.0 + p * eta)
    # 1 - (1 - real) exp(-dT), exactly real without dark counts
    return real, real - (1.0 - real) * math.expm1(-source.dark_rate * source.trial_period)


def _heralds(rng: np.random.Generator, source: SourceParams, size: int):
    """Sorted trials in [0, size) that herald, the pairs each holds and
    its mask mark: 2 for a real herald, 1 for a dark count of the herald
    detector alone, which holds no pair of its own.

    A trial heralds with probability any (see _herald_probabilities) and
    a herald is real with probability real/any, drawn only when there are
    dark counts.  A real Bernoulli herald holds one pair.  Walking a real
    thermal herald's pairs in order, the unheralded pairs before the
    first heralded one number G(r(1-eta)) and, by memorylessness, those
    after it G(r).
    """
    p, eta = source.pair_probability, source.heralding_efficiency
    real, herald = _herald_probabilities(source)
    trials = _occupied(rng, size, herald)
    is_real = rng.random(trials.size) * herald < real if source.dark_rate > 0.0 else None
    n_real = trials.size if is_real is None else int(np.count_nonzero(is_real))
    if source.statistics == "bernoulli":
        pairs = np.ones(n_real, dtype=np.int64)
    else:
        r = p / (1.0 + p)
        pairs = 1 + _geometric0(rng, r * (1.0 - eta), n_real) + _geometric0(rng, r, n_real)
    if is_real is None:
        return trials, pairs, np.full(trials.size, 2, dtype=np.uint8)
    herald_pairs = np.zeros(trials.size, dtype=np.int64)
    herald_pairs[is_real] = pairs
    return trials, herald_pairs, 1 + is_real.view(np.uint8)


def _unheralded_pairs(rng: np.random.Generator, source: SourceParams, size: int):
    """Sorted trials in [0, size) that hold pairs given that none heralded,
    and the pairs each holds.

    Given no herald, a Bernoulli trial holds its pair with probability
    p(1-eta)/(1-p*eta); a thermal trial's pair number is geometric with
    ratio s = r(1-eta), so it holds pairs with probability s and then
    1 + G(s) of them.
    """
    p, eta = source.pair_probability, source.heralding_efficiency
    if source.statistics == "bernoulli":
        # p = eta = 1 heralds every trial
        q = p * (1.0 - eta) / (1.0 - p * eta) if p * eta < 1.0 else 0.0
        local = _occupied(rng, size, q)
        return local, np.ones(local.size, dtype=np.int64)
    s = p / (1.0 + p) * (1.0 - eta)
    local = _occupied(rng, size, s)
    return local, 1 + _geometric0(rng, s, local.size)


def _windows(heralds: np.ndarray, reach: int, size: int):
    """The trials of a chunk whose clicks can pair with a herald, as
    half-open pieces laid out end to end.

    Takes the union of the windows [h, h + reach] over the sorted,
    unique heralds and of the first reach trials, whose clicks can pair
    with the heralds of the chunks before, clipped to [0, size).  The
    layout gives each trial of a piece a slot and puts reach empty
    slots before every piece.  A herald's window never leaves its
    piece, so looking up to reach slots back from a slot of a piece
    finds exactly the heralds up to reach trials back.

    Returns (lengths, slots): the length of each piece, in trial order,
    and the slot of each herald.  Piece 0 starts at trial 0 and slot
    reach, and every later piece at a herald and its slot.
    """
    # the heralds before the chunk act as one at trial -1, in slot reach - 1
    steps = np.diff(heralds, prepend=(-reach, -1))
    # a piece opens at each herald past the window of the one before,
    # after the rest of that window and reach empty slots
    firsts = np.flatnonzero(steps > reach + 1)
    steps[firsts] = 2 * reach + 1
    slots = np.cumsum(steps, out=steps)
    # the first slot of each piece, then the one past the padding after
    # the last piece, which ends where the last window does, clipped to
    # the chunk
    last = heralds[-1] if heralds.size else -1
    base = np.empty(firsts.size + 2, dtype=np.int64)
    base[0] = reach
    np.take(slots, firsts, out=base[1:-1], mode="clip")
    base[-1] = slots[-1] + min(reach + 1, size - last) + reach
    lengths = np.diff(base)
    lengths -= reach
    return lengths, slots[1:]


def _slots_at(draws: np.ndarray, ends: np.ndarray, reach: int) -> np.ndarray:
    """Slot of each draw in [0, ends[-1]), the trials of a chunk's window
    pieces laid end to end, in the chunk's layout: piece j holds draws
    ends[j-1] .. ends[j] - 1 and follows j + 1 paddings of reach slots."""
    return draws + reach * (np.searchsorted(ends, draws, side="right") + 1)


def _flags(n: int, dtype=np.bool_) -> np.ndarray:
    """n uninitialised one-byte entries backed by at least 1 KiB: numpy
    caches freed blocks under 1 KiB for good, so masks of random length
    pinned new blocks between a run's large arrays and the heap crept."""
    return np.empty(max(n, 1024), dtype=dtype)[:n]


def _fate_chunk(rng: np.random.Generator, source: SourceParams, ends, reach: int, mask,
                herald_pos, herald_pairs, model: ClickModel):
    """Slot, category and click time of each click of the photons of a
    chunk's window pieces.

    The pieces hold ends[-1] trials (see _slots_at), and mask marks the
    heralds in the chunk's layout (see _heralds).  The heralds in
    slots herald_pos come with the pairs drawn with them; the other
    trials of the pieces draw theirs here, given that none heralded, and
    draws landing on a real herald's trial are dropped.  A click may
    fall past its own trial period: the fold bins its delay as is.
    """
    local, mult = _unheralded_pairs(rng, source, int(ends[-1]))
    pos = _slots_at(local, ends, reach)
    # mode="clip" (no index is out of range) keeps take from buffering
    held = np.take(mask, pos, out=_flags(pos.size, np.uint8), mode="clip")
    fresh = np.not_equal(held, 2, out=_flags(pos.size))
    photon_pos = np.repeat(np.concatenate((herald_pos, pos[fresh])),
                           np.concatenate((herald_pairs, mult[fresh])))
    u = rng.random(photon_pos.size)
    # index arrays, not boolean masks: a photon clicks about as often as
    # not, and boolean selection slows on such a mask
    clicked = np.flatnonzero(u < model.cum_probs[-1])
    u = u[clicked]
    # the category is the number of cumulative probabilities at or
    # below u, counted path by path rather than searched click by click
    cat = np.zeros(u.size, dtype=np.int64)
    above = _flags(u.size)
    for edge in model.cum_probs[:-1]:
        cat += np.greater_equal(u, edge, out=above)
    times = (rng.standard_normal(cat.size) * np.array(model.sigmas)[cat]
             + np.array(model.centers)[cat])
    # Strictly positive: mass pinned at exactly 0.0 would sit on a
    # histogram bin boundary and fold inconsistently across periods.
    np.maximum(times, 1e-12, out=times)
    return photon_pos[clicked], times, cat


def _fold(pos, times, cats, mask, period: float, bin_width: float,
          n_bins: int, max_lag: int, n_cats: int):
    """Flat (category, bin) counts of click-herald delays.

    pos places each click in a layout of one slot per trial, at least
    max_lag slots in, and mask is nonzero at the heralds' slots.  A
    click at in-trial time t pairs with every herald up to max_lag
    slots back; a herald m slots back gives the delay t + m * period,
    binned as floor(delay / bin_width), and out-of-range bins are
    dropped through a spill bin at each end of every category, not a
    mask of the hits (see _flags).  The caller lays the slots out so
    that those are exactly the heralds up to max_lag trials back (see
    _windows).  Returns n_cats * n_bins int64 counts, category-major.
    """
    lags = np.arange(max_lag + 1)
    # entry m * n + i of the lag-major gather is click i against the
    # slot m back, so the hits come lag by lag
    hit = np.flatnonzero(mask[pos - lags[:, None]])
    lag = np.repeat(lags, np.diff(np.searchsorted(hit, lags * pos.size), append=hit.size))
    click = hit - lag * pos.size
    delay = lag * period + times[click]
    delay /= bin_width
    # the floor, with bins -1 and n_bins spilling to the ends of each row
    idx = np.clip(np.floor(delay, out=delay), -1.0, n_bins, out=delay).astype(np.int64)
    idx += cats[click] * (n_bins + 2) + 1
    rows = np.bincount(idx, minlength=n_cats * (n_bins + 2)).reshape(n_cats, n_bins + 2)
    return rows[:, 1:-1].ravel()


def _noise_clicks(rng: np.random.Generator, source: SourceParams, ends: np.ndarray,
                  reach: int, first_cat: int):
    """Dark, then background, click parts inside a chunk's window
    pieces, at their slots in its layout (see _slots_at).

    No click outside the pieces pairs with a herald.
    """
    size = int(ends[-1])
    parts = []
    for k, rate in enumerate((source.dark_rate, source.background_rate)):
        n = rng.poisson(rate * source.trial_period * size)
        parts.append((_slots_at(rng.integers(0, size, n), ends, reach),
                      rng.random(n) * source.trial_period,
                      np.full(n, first_cat + k, dtype=np.int64)))
    return parts


def _chunk_trials(source: SourceParams, noise_periods: int) -> int:
    """Trials per chunk: the largest _CHUNK << k, up to MAX_TRIALS, whose
    expected events stay within _CHUNK_EVENTS.

    The events are the heralds, real and false, plus the photons and the
    dark and background clicks drawn in the trials up to noise_periods
    after a herald.  No chunk is shorter than _CHUNK, whatever the load.
    """
    p, period = source.pair_probability, source.trial_period
    herald = _herald_probabilities(source)[1]
    window = 1.0 - (1.0 - herald) ** (noise_periods + 1)
    per_trial = herald + window * (p + (source.dark_rate + source.background_rate) * period)
    length = _CHUNK
    while length < MAX_TRIALS and 2 * length * per_trial <= _CHUNK_EVENTS:
        length *= 2
    return length


def _simulate_chunk(source: SourceParams, seed: int, index: int, size: int, reach: int,
                    model: ClickModel, n_bins: int):
    """All the work of one chunk of size trials, in its own trial numbers.

    The chunk's one stream draws, in turn, its heralds, real ones and
    herald detector dark counts alike, and the pairs of the real ones;
    the other pairs and the photon fates; and the signal detector's dark
    and background clicks.  Its window pieces are laid out with reach
    empty slots before every piece, and one mask over that layout marks
    its heralds for both the fates and the fold.
    Returns the flat counts of its clicks paired with its heralds, its
    herald count, its heralds in the last reach trials, and its
    (positions, times, categories) clicks in the first reach trials,
    which can pair with heralds of earlier chunks; a click's position
    there is its trial plus reach.
    """
    rng = stream(seed, STREAM_PIPELINE, index)
    heralds, pairs, marks = _heralds(rng, source, size)
    lengths, slots = _windows(heralds, reach, size)
    # from here on the slots stand for the heralds
    n_heralds, tail = heralds.size, heralds[heralds >= size - reach]
    del heralds
    ends = np.cumsum(lengths)
    mask = np.zeros(ends[-1] + reach * ends.size, dtype=np.uint8)
    mask[slots] = marks
    parts = [_fate_chunk(rng, source, ends, reach, mask, slots, pairs, model)]
    parts += _noise_clicks(rng, source, ends, reach, model.labels.index("dark"))
    pos, times, cats = map(np.concatenate, zip(*parts))
    n_cats = len(model.labels)
    counts = _fold(pos, times, cats, mask, source.trial_period, BIN_WIDTH, n_bins, reach,
                   n_cats)
    # the first piece starts at trial 0 and slot reach
    first = np.less(pos, 2 * reach, out=_flags(pos.size))
    return counts, n_heralds, tail, pos[first], times[first], cats[first]


def simulate_run(source: SourceParams, memory: Optional[MemoryConfig],
                 analyzer: None, duration_trials: int,
                 seed: int, noise_periods: int = 8, workers: int = 1,
                 run_index: int = 0) -> CoincidenceHistogram:
    """End-to-end counting simulation of one configuration.

    memory=None sends every signal photon down the transmitted path.
    The histogram covers (noise_periods + 1) trial periods of
    click-herald delay in bins of BIN_WIDTH.

    analyzer must be None.  The signal arm has no polarizer; the slot
    stays so that callers passing None positionally ahead of
    duration_trials keep working, and anything else raises DomainError
    rather than being ignored.
    """
    if analyzer is not None:
        raise DomainError("simulate_run models no polarizer: analyzer must be None")
    if duration_trials < 1:
        raise DomainError("duration_trials must be >= 1")
    if duration_trials > MAX_TRIALS:
        raise DomainError(f"duration_trials must be <= {MAX_TRIALS}")
    if noise_periods < 1:
        raise DomainError("noise_periods must be >= 1")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if not 0 <= run_index < _RUNS:
        raise DomainError(f"run_index must be in [0, {_RUNS})")
    base_index = run_index << _CHUNK_BITS
    length = min(_chunk_trials(source, noise_periods), duration_trials)
    n_chunks = -(-duration_trials // length)
    period = source.trial_period
    model = click_model(source, memory)
    n_cats = len(model.labels)
    n_bins = int(round((noise_periods + 1) * period / BIN_WIDTH))

    def chunk(c):
        return _simulate_chunk(source, seed, base_index | c,
                               min(length, duration_trials - c * length), noise_periods,
                               model, n_bins)

    # dropped at once, on purpose: see _HEAP_HINT
    np.empty(_HEAP_HINT, dtype=np.uint8)
    folded = np.zeros(n_cats * n_bins, dtype=np.int64)
    n_heralds = 0
    # the heralds of the noise_periods trials before the chunk, in its
    # trial numbers; chunks may be shorter than noise_periods
    recent = np.empty(0, dtype=np.int64)
    mask = np.empty(2 * noise_periods, dtype=np.uint8)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        parts = (part for lo in range(0, n_chunks, _POOL_SLICE)
                 for part in run(chunk, range(lo, min(n_chunks, lo + _POOL_SLICE))))
        for c, (counts, n, tail, *head) in enumerate(parts):
            folded += counts
            # the chunk's first clicks sit at their trial plus noise_periods
            mask[:] = 0
            mask[recent + noise_periods] = 1
            folded += _fold(*head, mask, period, BIN_WIDTH, n_bins, noise_periods, n_cats)
            n_heralds += n
            size = min(length, duration_trials - c * length)
            recent = np.concatenate((recent[recent >= size - noise_periods], tail)) - size
    folded = folded.reshape(n_cats, n_bins)
    per_cat = [int(n) for n in folded.sum(axis=1)]
    total = folded.sum(axis=0)

    return CoincidenceHistogram(
        bin_width=BIN_WIDTH,
        counts=total,
        signal_window=model.signal_window,
        period=period,
        noise_periods=noise_periods,
        n_heralds=n_heralds,
        n_trials=duration_trials,
        category_counts=tuple(zip(model.labels, per_cat)),
    )


# ---------------------------------------------------------------------------
# correlation estimators
# ---------------------------------------------------------------------------

def g2_cross(hist: CoincidenceHistogram) -> G2Result:
    """Cross-correlation from the signal window vs satellite windows.

    g2 is the ratio of the count rates per bin in the signal window and
    in the offset windows of hist.g2_windows(), each normalized by the
    bins it actually counted.  The Poisson error is
    g2 * sqrt(1/n_peak + 1/n_offset).
    """
    peak, *offsets = hist.g2_windows()
    n_peak, peak_bins = hist._bin_sum(*peak)
    n_offset = offset_bins = 0
    for window in offsets:
        n, bins = hist._bin_sum(*window)
        n_offset += n
        offset_bins += bins
    if n_offset == 0:
        raise UndefinedEstimateError(
            "no counts in the offset windows; integrate more trials "
            "before estimating g2"
        )
    if n_peak == 0:
        return G2Result(0.0, 0.0, 0, int(n_offset))
    g2 = (n_peak / peak_bins) / (n_offset / offset_bins)
    sigma = g2 * math.sqrt(1.0 / n_peak + 1.0 / n_offset)
    return G2Result(float(g2), float(sigma), int(n_peak), int(n_offset))


def heralded_autocorr_bound(g2_si: float) -> float:
    """Upper bound 4/g2_si on the heralded signal autocorrelation.

    The rule is monotone decreasing and crosses 1 (the single-photon
    boundary) at g2_si = 4.
    """
    if not g2_si > 0.0:
        raise DomainError(f"g2_si must be positive, got {g2_si}")
    return float(4.0 / g2_si)


def storage_memories(memory: MemoryConfig,
                     storage_times: Sequence[float]) -> Tuple[Optional[MemoryConfig], ...]:
    """The memory each storage time programs.

    storage_time 0 means the transmitted (no memory) configuration,
    None; memory.storage_time keeps memory; any other time moves the
    first echo order to that delay by setting the grating period to 1/t
    at fixed finesse.
    """
    memories = []
    for t in storage_times:
        if t == 0.0:
            memories.append(None)
        elif t == memory.storage_time:
            memories.append(memory)
        else:
            if t <= 0.0:
                raise DomainError("storage times must be >= 0")
            scale = (1.0 / t) / memory.comb.periodicity_delta
            comb = replace(
                memory.comb,
                periodicity_delta=1.0 / t,
                tooth_fwhm=memory.comb.tooth_fwhm * scale,
            )
            memories.append(replace(memory, comb=comb, storage_time=t))
    return tuple(memories)


def storage_histograms(source: SourceParams, memory: MemoryConfig,
                       storage_times: Sequence[float], seed: int,
                       duration_trials: int,
                       workers: int = 1) -> Tuple[CoincidenceHistogram, ...]:
    """One coincidence histogram per storage time of storage_memories.

    Run i uses run_index i, so there are at most 64 storage times.  With
    several workers the runs go side by side, up to one per worker, and
    each splits its chunks over its share of the workers, so at most
    workers threads are busy.
    """
    if len(storage_times) > _RUNS:
        raise DomainError(f"at most {_RUNS} storage times, got {len(storage_times)}")
    memories = storage_memories(memory, storage_times)
    side_by_side = max(1, min(workers, len(memories)))

    def run(i):
        return simulate_run(source, memories[i], None, duration_trials, seed,
                            workers=workers // side_by_side, run_index=i)

    with (ThreadPoolExecutor(max_workers=side_by_side) if side_by_side > 1
          else nullcontext()) as pool:
        return tuple((map if pool is None else pool.map)(run, range(len(memories))))

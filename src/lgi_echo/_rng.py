"""Deterministic random-stream construction.

All stochastic code in the package draws from counter-based Philox
generators keyed by (seed, stream, index).  Streams separate unrelated
consumers (ensemble sampling, photon pipeline, tomography shots, ...)
so adding draws in one place never perturbs another.  The index slot is
used for work chunks: chunk boundaries are a property of the
configuration alone, never of the worker count, which is what makes
multi-worker runs byte-identical to single-worker runs.
"""

import numpy as np

from .errors import DomainError

# Stream identifiers.  Values are arbitrary but frozen: changing them
# changes every simulated data set.
STREAM_ENSEMBLE = 1
STREAM_PIPELINE = 2
STREAM_TOMOGRAPHY = 3
STREAM_COUNTS = 4
STREAM_BOOTSTRAP = 5
STREAM_FATES = 6
STREAM_NOISE = 7
STREAM_SCENARIO = 8

# Version of the simulated output: which draws each consumer takes from
# its streams, in what order, and the model that turns them into
# results.  The configuration digest covers it, so a digest never
# promises bytes from another version; bump it with any change of the
# output bytes at a fixed configuration document, whether a draw moved
# or the model changed.  Layout 1 drew one uniform per photon-source
# trial; layout 2 drew the geometric gaps between occupied trials;
# layout 3 draws the gaps between heralded trials, in chunks of 2^22
# trials, and pairs, fates and noise clicks only next to heralds;
# layout 4 takes the same draws and computes tomography and
# Markovianity on Bloch vectors instead of 2x2 matrices, which moves the
# last digits of their reconstructed states, distances and sigmas; layout 5
# (same draws) has a closed-form MLE, series p-values and quadrature echo efficiencies;
# layout 6 (same draws) sums the echo trace by phasor recurrence, which
# moves the last digits of the echo_trace metrics; layout 7 (same draws)
# holds every state as a Bloch vector in the H/V frame, which moves the
# last digits of the tomography_demo distance to the stored state;
# layout 8 sizes the chunks by expected events (2^22 trials or a
# power-of-two multiple), draws each chunk's false heralds and then its
# dark and background clicks from its own STREAM_NOISE stream, always
# fates the first noise_periods trials of a chunk, and no longer clips
# click times to their own trial period; layout 9 draws a chunk's herald
# detector dark counts on its STREAM_PIPELINE stream, in the same pass as
# its real heralds (every trial that heralds at all, then which of them
# are real), and no longer sorts the noise click positions.
STREAM_LAYOUT = 9

MAX_SEED = 2**63 - 1
_MAX_INDEX = 2**32 - 1


def stream(seed: int, stream_id: int, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for (seed, stream_id, index).

    The same triple always yields the same draw sequence, independent of
    any other stream that may have been consumed before.
    """
    if not 0 <= int(seed) <= MAX_SEED:
        raise DomainError(f"seed must be in [0, 2**63), got {seed}")
    if not 0 <= int(index) <= _MAX_INDEX:
        raise DomainError(f"stream index must fit in 32 bits, got {index}")
    key = np.array(
        [np.uint64(seed), (np.uint64(stream_id) << np.uint64(32)) | np.uint64(index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))

"""Dense collective dipole sum: the reference the phasor recurrence of
`lgi_echo.afc.echo_trace` is tested against.

It evaluates every atom's phase at every time as one (times x atoms)
cos/sin outer product, in blocks, so it costs two transcendental calls
per atom-time term; that makes it slower than the recurrence but
obviously right.
"""

import numpy as np

# Cap on the size of the (times x atoms) phase block materialized at
# once; keeps peak memory near 64 MB for double precision.
_BLOCK_ELEMENTS = 1 << 22


def dipole_intensity(weights_sq, detunings, times):
    """Squared magnitude of the collective dipole sum.

    I(t) = | sum_j w_j^2 exp(i 2 pi delta_j t) |^2

    Parameters
    ----------
    weights_sq : (n_atoms,) float64, per-atom absorption weights w_j^2
    detunings : (n_atoms,) float64, per-atom detunings in Hz
    times : (n_times,) float64, evaluation times in seconds

    Returns
    -------
    (n_times,) float64 intensity, unnormalized.
    """
    weights_sq = np.ascontiguousarray(weights_sq, dtype=np.float64)
    detunings = np.ascontiguousarray(detunings, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    n_atoms = detunings.shape[0]
    out = np.empty(times.shape[0], dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // max(n_atoms, 1))
    two_pi = 2.0 * np.pi
    for start in range(0, times.shape[0], step):
        t = times[start:start + step]
        phase = two_pi * np.outer(t, detunings)
        re = np.cos(phase) @ weights_sq
        im = np.sin(phase) @ weights_sq
        out[start:start + t.shape[0]] = re * re + im * im
    return out

"""Matrix oracle for the Bloch-vector qubit core.

The 2x2 density-matrix algebra that the closed forms of ``quantum``,
``tomography`` and ``stationarity`` replace: eigenvalue trace distance,
eigenvalue-clipped linear inversion, projector Born probabilities and
the per-replicate parametric-bootstrap loop.  Tests hold the closed
forms to it.
"""

import numpy as np

from lgi_echo._rng import STREAM_BOOTSTRAP, stream
from lgi_echo.quantum import DensityMatrix

_RT_HALF = 1.0 / np.sqrt(2.0)


def default_bases():
    """The amplitudes (on H, V) of the four analyzer states, in the
    measurement order of tomography.BASIS_LABELS."""
    return (
        np.array([1.0, 0.0], dtype=np.complex128),
        np.array([0.0, 1.0], dtype=np.complex128),
        np.array([_RT_HALF, 1j * _RT_HALF]),
        np.array([_RT_HALF, _RT_HALF], dtype=np.complex128),
    )


def pure_state(a0, a1):
    """The pure state of unnormalized amplitudes a0 on H and a1 on V."""
    norm = np.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    a0, a1 = complex(a0 / norm), complex(a1 / norm)
    cross = a0.conjugate() * a1
    return DensityMatrix.from_bloch(2.0 * cross.real, 2.0 * cross.imag,
                                    abs(a0) ** 2 - abs(a1) ** 2)


def matrix(r):
    """(I + r . sigma)/2."""
    x, y, z = r
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def trace_distance(m1, m2):
    """Half the sum of the absolute eigenvalues of m1 - m2."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(m1 - m2))))


def linear_inversion(freqs):
    """Stokes inversion of H, V, H+iV, H+V frequencies, then truncation of
    a negative eigenvalue and renormalization.  Returns (matrix, projected)."""
    p_h, p_v, p_circ, p_diag = freqs
    raw = matrix((2.0 * p_diag - 1.0, 2.0 * p_circ - 1.0, p_h - p_v))
    eigs, vecs = np.linalg.eigh(raw)
    projected = bool(eigs[0] < -1e-12)
    if projected:
        eigs = np.clip(eigs, 0.0, None)
        eigs = eigs / eigs.sum()
        raw = (vecs * eigs) @ vecs.conj().T
    return raw, projected


def born_probabilities(m):
    """<v|m|v> for each analyzer state v, clamped to [0, 1]."""
    out = []
    for v in default_bases():
        out.append(min(max(float(np.real(np.conj(v) @ m @ v)), 0.0), 1.0))
    return np.array(out)


def bootstrap_sigmas(probs_a, probs_b, shots, seed, n_reps):
    """Replicate by replicate, time by time: redraw both states' four
    counts from their analyzer probabilities, invert each and take the
    trace distance; the sigma per time is the replicates' standard
    deviation."""
    rng = stream(seed, STREAM_BOOTSTRAP)
    reps = np.empty((n_reps, len(probs_a)))
    for r in range(n_reps):
        for k in range(len(probs_a)):
            counts_a = rng.binomial(shots, probs_a[k]).astype(np.float64)
            counts_b = rng.binomial(shots, probs_b[k]).astype(np.float64)
            rho_a, _ = linear_inversion(counts_a / shots)
            rho_b, _ = linear_inversion(counts_b / shots)
            reps[r, k] = trace_distance(rho_a, rho_b)
    return reps.std(axis=0, ddof=1)

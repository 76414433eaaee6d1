"""Polarization qubits: density matrices, the Born rule and simple channels.

Every state here is a qubit, so a density matrix is held as its Bloch
vector and each operation on it is a closed form in that vector.

Conventions
-----------
Every state, pure or mixed, lives in one frame, the H/V frame of photon
polarization: H is +z, V is -z, (H+V)/sqrt(2) is +x and (H+iV)/sqrt(2)
is +y.  The two memories re-emit the delocalized excitation as such a
polarization, so its symmetric state |D> = (|H> + |V>)/sqrt(2) is +x
and its antisymmetric state |A> = (|H> - |V>)/sqrt(2) is -x.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

class DensityMatrix:
    """Qubit state, held as its Bloch vector r = (x, y, z).

    rho = (I + x sigma_x + y sigma_y + z sigma_z)/2: the eigenvalues are
    (1 -+ |r|)/2 and the purity is (1 + |r|^2)/2.  ``DensityMatrix(m)``
    takes a 2x2 matrix, hermitian and of unit trace within 1e-12.  Every
    state has |r| <= 1 + 2e-10, that is eigenvalues >= -1e-10.  The
    components are in the H/V frame of the module docstring.
    """

    __slots__ = ("_r",)

    def __init__(self, elements):
        m = np.asarray(elements, dtype=np.complex128)
        if m.shape != (2, 2):
            raise InvariantViolation(f"density matrix must be 2x2, got {m.shape}")
        if np.max(np.abs(m - np.conj(m.T))) > _HERM_TOL:
            raise InvariantViolation("density matrix is not hermitian within 1e-12")
        trace = np.real(m[0, 0] + m[1, 1])
        if abs(trace - 1.0) > _TRACE_TOL:
            raise InvariantViolation(f"density matrix trace {trace!r} deviates from 1")
        self._r = _checked_bloch(
            2.0 * np.real(m[0, 1]), -2.0 * np.imag(m[0, 1]), np.real(m[0, 0] - m[1, 1]))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "DensityMatrix":
        rho = object.__new__(cls)
        rho._r = _checked_bloch(x, y, z)
        return rho

    def __repr__(self) -> str:
        return "DensityMatrix.from_bloch({!r}, {!r}, {!r})".format(*self._r.tolist())

    # -- accessors ----------------------------------------------------------

    @property
    def elements(self) -> np.ndarray:
        """The matrix (I + r.sigma)/2, built on each access."""
        x, y, z = self._r
        return 0.5 * np.array(
            [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128
        )

    def bloch(self) -> np.ndarray:
        """(x, y, z) Bloch components: tr(rho sigma_k)."""
        return self._r.copy()

    def purity(self) -> float:
        return float(0.5 * (1.0 + self._r @ self._r))

    def eigenvalues(self) -> np.ndarray:
        length = math.sqrt(self._r @ self._r)
        return np.array([0.5 * (1.0 - length), 0.5 * (1.0 + length)])


def _checked_bloch(x, y, z) -> np.ndarray:
    r = np.array([x, y, z], dtype=np.float64)
    length = math.sqrt(r @ r)
    if not length <= 1.0 + 2.0 * _PSD_TOL:  # NaN fails too
        raise InvariantViolation(
            f"density matrix has negative eigenvalue {0.5 * (1.0 - length)!r}")
    return r


# ---------------------------------------------------------------------------
# measurement and distance
# ---------------------------------------------------------------------------

def born_probability(rho: DensityMatrix, projector: DensityMatrix) -> float:
    """Probability tr(rho P) that ``rho`` passes the analyzer that
    projects onto the pure state ``projector``.

    With n the projector's Bloch vector and r the state's it is
    (1 + n.r)/2, clamped to [0, 1] against floating-point underflow.
    """
    p = 0.5 * (1.0 + float(projector._r @ rho._r))
    return min(max(p, 0.0), 1.0)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """D(rho1, rho2) = |r1 - r2| / 2, half the Bloch-vector distance.

    A metric on states: 0 iff equal, symmetric, triangle inequality,
    and contractive under the channels in this module.
    """
    diff = rho1._r - rho2._r
    return 0.5 * math.sqrt(diff @ diff)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

_CHANNEL_KINDS = ("identity", "dephasing", "loss")


@dataclass(frozen=True)
class Channel:
    """Memoryless single-qubit channel applied for a duration.

    kind:
      identity   no-op
      dephasing  off-diagonals decay as exp(-rate * duration)
      loss       population leaks out at ``rate``; the conditional
                 (heralded) state is unchanged, only the survival
                 probability drops
    rate is in 1/seconds and must be >= 0.
    """

    kind: str
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _CHANNEL_KINDS:
            raise InvariantViolation(f"unknown channel kind {self.kind!r}")
        if not np.isfinite(self.rate) or self.rate < 0.0:
            raise InvariantViolation(f"channel rate must be finite and >= 0, got {self.rate}")


def apply_channel(channel: Channel, rho: DensityMatrix, duration: float) -> DensityMatrix:
    """Evolve ``rho`` under ``channel`` for ``duration`` seconds."""
    if duration < 0.0 or not np.isfinite(duration):
        raise DomainError(f"duration must be finite and >= 0, got {duration}")
    if channel.kind in ("identity", "loss"):
        return rho
    decay = math.exp(-channel.rate * duration)
    x, y, z = rho._r
    return DensityMatrix.from_bloch(decay * x, decay * y, z)


"""Two-level polarization states, density matrices and simple channels.

Every state here is a qubit, so a density matrix is held as its Bloch
vector and each operation on it is a closed form in that vector.

Conventions
-----------
Two bases are used throughout the package:

* ``HV``: horizontal / vertical photon polarization.  On the Bloch
  sphere H is +z, (H+V)/sqrt(2) is +x and (H+iV)/sqrt(2) is +y.
* ``DA``: the delocalized-excitation basis of the two-memory system,
  |D> = (|H> + |V>)/sqrt(2) stored symmetrically, |A> antisymmetrically.
  In its own Bloch sphere |D> is +z and |H> maps to +x.

The two bases are related by the (self-inverse) Hadamard rotation, so
``to_basis`` round-trips exactly up to floating point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation

BASES = ("HV", "DA")

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10

_SQRT_HALF = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# pure states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarState:
    """Normalized two-component pure state.

    amp0 and amp1 are the amplitudes on the first and second basis
    vector of ``basis`` (H/V or D/A).  Norm must be 1 within 1e-12.
    """

    amp0: complex
    amp1: complex
    basis: str = "HV"

    def __post_init__(self):
        if self.basis not in BASES:
            raise InvariantViolation(f"unknown basis {self.basis!r}, expected one of {BASES}")
        object.__setattr__(self, "amp0", complex(self.amp0))
        object.__setattr__(self, "amp1", complex(self.amp1))
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise InvariantViolation(f"state norm {norm!r} deviates from 1 beyond 1e-12")

    # -- constructors -------------------------------------------------------

    @classmethod
    def h(cls):
        return cls(1.0, 0.0, "HV")

    @classmethod
    def v(cls):
        return cls(0.0, 1.0, "HV")

    @classmethod
    def d(cls):
        return cls(1.0, 0.0, "DA")

    @classmethod
    def a(cls):
        return cls(0.0, 1.0, "DA")

    @classmethod
    def normalized(cls, amp0, amp1, basis="HV"):
        """Build a state from unnormalized amplitudes."""
        norm = np.sqrt(abs(amp0) ** 2 + abs(amp1) ** 2)
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return cls(amp0 / norm, amp1 / norm, basis)

    @classmethod
    def hv_diagonal(cls):
        """(|H> + |V>)/sqrt(2), the symmetric input state."""
        return cls(_SQRT_HALF, _SQRT_HALF, "HV")

    @classmethod
    def hv_circular(cls):
        """(|H> + i|V>)/sqrt(2)."""
        return cls(_SQRT_HALF, 1j * _SQRT_HALF, "HV")

    # -- operations ---------------------------------------------------------

    def amplitudes(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=np.complex128)

    def to_basis(self, basis: str) -> "PolarState":
        """Express the same physical state in another basis.

        HV <-> DA is the Hadamard map: |D> = (|H>+|V>)/sqrt(2),
        |A> = (|H>-|V>)/sqrt(2).
        """
        if basis not in BASES:
            raise DomainError(f"unknown basis {basis!r}")
        if basis == self.basis:
            return self
        a0 = (self.amp0 + self.amp1) * _SQRT_HALF
        a1 = (self.amp0 - self.amp1) * _SQRT_HALF
        return PolarState(a0, a1, basis)

    def orthogonal(self) -> "PolarState":
        """The unique (up to phase) state orthogonal to this one."""
        return PolarState(-np.conj(self.amp1), np.conj(self.amp0), self.basis)

    def overlap(self, other: "PolarState") -> complex:
        """<self|other>, converting bases when they differ."""
        o = other.to_basis(self.basis)
        return complex(np.conj(self.amp0) * o.amp0 + np.conj(self.amp1) * o.amp1)

    def density(self) -> "DensityMatrix":
        """Rank-one projector onto this state, in this state's basis."""
        cross = np.conj(self.amp0) * self.amp1
        return DensityMatrix.from_bloch(2.0 * cross.real, 2.0 * cross.imag,
                                        abs(self.amp0) ** 2 - abs(self.amp1) ** 2)


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

class DensityMatrix:
    """Qubit state, held as its Bloch vector r = (x, y, z).

    rho = (I + x sigma_x + y sigma_y + z sigma_z)/2: the eigenvalues are
    (1 -+ |r|)/2 and the purity is (1 + |r|^2)/2.  ``DensityMatrix(m)``
    takes a 2x2 matrix, hermitian and of unit trace within 1e-12.  Every
    state has |r| <= 1 + 2e-10, that is eigenvalues >= -1e-10.

    The state is basis-agnostic: it is interpreted in whatever basis
    the caller used to construct it, and operations that mix a
    DensityMatrix with a PolarState (born_probability) use the state's
    raw amplitudes, so both must refer to the same basis.
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
        r = math.sqrt(x * x + y * y + z * z)
        if r > 1.0 + 1e-9:
            raise DomainError(f"Bloch vector length {r} exceeds 1")
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

def born_probability(state, projector: PolarState) -> float:
    """Probability of projecting ``state`` onto ``projector``.

    ``state`` is a PolarState (any basis; converted automatically) or a
    DensityMatrix expressed in the projector's basis, for which the
    probability is (1 + n.r)/2 with n the projector's Bloch vector.
    Result is clamped to [0, 1] against floating-point underflow.
    """
    if isinstance(state, PolarState):
        amp = projector.overlap(state)
        p = abs(amp) ** 2
    elif isinstance(state, DensityMatrix):
        p = float(0.5 * (1.0 + projector.density()._r @ state._r))
    else:
        raise DomainError(f"cannot compute Born probability for {type(state).__name__}")
    return float(min(max(p, 0.0), 1.0))


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


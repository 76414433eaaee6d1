"""Density matrices, Born rule, trace distance, channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qubit_oracle as oracle
from lgi_echo.errors import DomainError, InvariantViolation
from lgi_echo.quantum import (
    Channel,
    DensityMatrix,
    apply_channel,
    born_probability,
    trace_distance,
)

H = DensityMatrix.from_bloch(0.0, 0.0, 1.0)
V = DensityMatrix.from_bloch(0.0, 0.0, -1.0)
D = DensityMatrix.from_bloch(1.0, 0.0, 0.0)


def random_amplitudes(rng):
    v = rng.normal(size=4)
    return complex(v[0], v[1]), complex(v[2], v[3])


def random_pure(rng):
    return oracle.pure_state(*random_amplitudes(rng))


def random_density(rng):
    # random point inside the Bloch ball
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform() ** (1 / 3)
    return DensityMatrix.from_bloch(*v)


def antipode(rho):
    return DensityMatrix.from_bloch(*-rho.bloch())


# ---------------------------------------------------------------------------
# Born rule
# ---------------------------------------------------------------------------

class TestBornProbability:
    def test_h_onto_d_is_half(self):
        assert born_probability(H, D) == pytest.approx(0.5, abs=1e-15)

    def test_excitation_state_example(self):
        # cos(phi/2)|D> - i sin(phi/2)|A> at phi = 2pi/3, written in H/V
        # with |D> = (|H> + |V>)/sqrt(2) and |A> = (|H> - |V>)/sqrt(2)
        c, s = math.cos(math.pi / 3), -1j * math.sin(math.pi / 3)
        state = oracle.pure_state(c + s, c - s)
        assert born_probability(state, D) == pytest.approx(0.25, abs=1e-12)

    def test_projector_completeness(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            s = random_pure(rng)
            proj = random_pure(rng)
            total = born_probability(s, proj) + born_probability(s, antipode(proj))
            assert abs(total - 1.0) < 1e-12

    def test_density_matrix_agrees_with_pure(self):
        # |<b|a>|^2 from the amplitudes
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = np.array(random_amplitudes(rng))
            b = np.array(random_amplitudes(rng))
            expected = abs(np.vdot(b, a)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)
            p = born_probability(oracle.pure_state(*a), oracle.pure_state(*b))
            assert abs(p - expected) < 1e-12

    def test_cross_basis_projection(self):
        # probabilities must not depend on the frame both parties are
        # written in: the Hadamard relabelling (x, y, z) -> (z, -y, x)
        # takes H/V components to D/A ones
        def hadamard(rho):
            x, y, z = rho.bloch()
            return DensityMatrix.from_bloch(z, -y, x)

        rng = np.random.default_rng(7)
        for _ in range(100):
            s = random_density(rng)
            proj = random_pure(rng)
            p1 = born_probability(s, proj)
            p2 = born_probability(hadamard(s), hadamard(proj))
            assert abs(p1 - p2) < 1e-12


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

class TestDensityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not hermitian
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.full((2, 2), np.nan))

    def test_psd_bound_is_the_eigenvalue_tolerance(self):
        # eigenvalue (1 - |r|)/2 >= -1e-10 is |r| <= 1 + 2e-10
        DensityMatrix(oracle.matrix((0.0, 0.0, 1.0 + 1.9e-10)))
        with pytest.raises(InvariantViolation):
            DensityMatrix(oracle.matrix((0.0, 0.0, 1.0 + 2.1e-10)))

    @pytest.mark.parametrize("length, ok", [
        (1.0 + 1.9e-10, True),
        (1.0 + 2.1e-10, False),
        (2.0, False),
        (math.nan, False),
    ])
    def test_from_bloch_length_check(self, length, ok):
        # one bound, the eigenvalue tolerance: |r| <= 1 + 2e-10
        if ok:
            assert DensityMatrix.from_bloch(0.0, length, 0.0).bloch()[1] == length
        else:
            with pytest.raises(InvariantViolation):
                DensityMatrix.from_bloch(0.0, length, 0.0)

    def test_bloch_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = random_density(rng)
            x, y, z = rho.bloch()
            rho2 = DensityMatrix.from_bloch(x, y, z)
            assert np.max(np.abs(rho.elements - rho2.elements)) < 1e-12

    def test_bloch_conventions(self):
        assert np.allclose(oracle.pure_state(1.0, 0.0).bloch(), [0, 0, 1])
        assert np.allclose(oracle.pure_state(0.0, 1.0).bloch(), [0, 0, -1])
        assert np.allclose(oracle.pure_state(1.0, 1j).bloch(), [0, 1, 0])
        # the symmetric mode |D> = H+V is +x, the antisymmetric |A> = H-V is -x
        assert np.allclose(oracle.pure_state(1.0, 1.0).bloch(), [1, 0, 0])
        assert np.allclose(oracle.pure_state(1.0, -1.0).bloch(), [-1, 0, 0])

    def test_purity(self):
        assert DensityMatrix.from_bloch(0.0, 0.0, 0.0).purity() == pytest.approx(0.5)
        assert V.purity() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

class TestTraceDistance:
    def test_orthogonal_pure_states_distance_one(self):
        d = trace_distance(H, V)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_distance_zero(self):
        rho = DensityMatrix.from_bloch(0.3, -0.2, 0.4)
        assert trace_distance(rho, rho) == 0.0

    def test_metric_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a, b, c = (random_density(rng) for _ in range(3))
            dab = trace_distance(a, b)
            dba = trace_distance(b, a)
            assert abs(dab - dba) < 1e-12
            assert dab >= 0.0
            assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-12
            # for qubits: half the euclidean Bloch distance
            euclid = 0.5 * np.linalg.norm(a.bloch() - b.bloch())
            assert dab == pytest.approx(euclid, abs=1e-10)

    def test_contractive_under_dephasing(self):
        rng = np.random.default_rng(29)
        ch = Channel("dephasing", rate=2e6)
        for _ in range(300):
            a, b = random_density(rng), random_density(rng)
            d0 = trace_distance(a, b)
            d1 = trace_distance(
                apply_channel(ch, a, 100e-9), apply_channel(ch, b, 100e-9)
            )
            assert d1 <= d0 + 1e-12


# ---------------------------------------------------------------------------
# Bloch core against the matrix oracle
# ---------------------------------------------------------------------------

# points of the closed Bloch ball, the sphere (pure states) included
BLOCH = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
    lambda v: np.array(v) / max(1.0, float(np.linalg.norm(v))))


class TestMatrixOracle:
    @settings(max_examples=300, deadline=None)
    @given(ra=BLOCH, rb=BLOCH)
    def test_trace_distance_is_the_eigenvalue_form(self, ra, rb):
        a, b = DensityMatrix.from_bloch(*ra), DensityMatrix.from_bloch(*rb)
        expected = oracle.trace_distance(oracle.matrix(ra), oracle.matrix(rb))
        assert abs(trace_distance(a, b) - expected) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(r=BLOCH)
    def test_matrix_round_trip_purity_and_eigenvalues(self, r):
        m = oracle.matrix(r)
        rho = DensityMatrix(m)
        assert np.max(np.abs(rho.bloch() - r)) <= 1e-15
        assert np.max(np.abs(rho.elements - m)) <= 1e-15
        assert abs(rho.purity() - np.real(np.trace(m @ m))) <= 1e-12
        assert np.max(np.abs(rho.eigenvalues() - np.linalg.eigvalsh(m))) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(r=BLOCH, amps=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda v: np.linalg.norm(v) > 1e-3))
    def test_born_probability_is_the_projector_trace(self, r, amps):
        v = np.array([complex(amps[0], amps[1]), complex(amps[2], amps[3])])
        proj = oracle.pure_state(*v)
        v = v / np.linalg.norm(v)
        expected = np.real(np.conj(v) @ oracle.matrix(r) @ v)
        p = born_probability(DensityMatrix.from_bloch(*r), proj)
        assert abs(p - expected) <= 1e-12


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

class TestChannels:
    def test_negative_duration_rejected(self):
        rho = DensityMatrix.from_bloch(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            apply_channel(Channel("dephasing", 1e6), rho, -1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvariantViolation):
            Channel("dephasing", -1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvariantViolation):
            Channel("amplitude-damping", 1.0)

    def test_dephasing_exponential_law(self):
        # H/V superposition pair: distance decays exactly as exp(-rate t)
        rate = 3.0e6
        ch = Channel("dephasing", rate)
        plus = oracle.pure_state(1.0, 1.0)
        minus = oracle.pure_state(1.0, -1.0)
        for t in np.linspace(0.0, 500e-9, 11):
            d = trace_distance(apply_channel(ch, plus, t), apply_channel(ch, minus, t))
            assert d == pytest.approx(np.exp(-rate * t), abs=1e-12)

    def test_identity_channel_is_noop(self):
        rho = DensityMatrix.from_bloch(0.2, 0.1, -0.5)
        out = apply_channel(Channel("identity"), rho, 1.0)
        assert np.array_equal(out.elements, rho.elements)

    def test_loss_survival(self):
        # the conditional state is untouched
        ch = Channel("loss", rate=1e6)
        rho = DensityMatrix.from_bloch(0.0, 0.4, 0.3)
        assert np.array_equal(apply_channel(ch, rho, 1e-6).elements, rho.elements)

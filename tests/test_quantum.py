"""States, density matrices, Born rule, trace distance, channels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qubit_oracle as oracle
from lgi_echo.errors import DomainError, InvariantViolation
from lgi_echo.quantum import (
    Channel,
    DensityMatrix,
    PolarState,
    apply_channel,
    born_probability,
    trace_distance,
)

RT2 = np.sqrt(2.0)


def random_pure(rng):
    v = rng.normal(size=4)
    a = complex(v[0], v[1])
    b = complex(v[2], v[3])
    return PolarState.normalized(a, b)


def random_density(rng):
    # random point inside the Bloch ball
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform() ** (1 / 3)
    return DensityMatrix.from_bloch(*v)


# ---------------------------------------------------------------------------
# pure states
# ---------------------------------------------------------------------------

class TestPolarState:
    def test_norm_enforced(self):
        with pytest.raises(InvariantViolation):
            PolarState(1.0, 1.0)

    def test_bad_basis_rejected(self):
        with pytest.raises(InvariantViolation):
            PolarState(1.0, 0.0, "XY")

    def test_basis_round_trip_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_pure(rng)
            back = s.to_basis("DA").to_basis("HV")
            assert abs(back.amp0 - s.amp0) < 1e-12
            assert abs(back.amp1 - s.amp1) < 1e-12

    def test_hadamard_relation(self):
        # |D> expressed in HV is (H+V)/sqrt(2)
        d_in_hv = PolarState.d().to_basis("HV")
        assert abs(d_in_hv.amp0 - 1 / RT2) < 1e-15
        assert abs(d_in_hv.amp1 - 1 / RT2) < 1e-15
        # and |H> expressed in DA is (D+A)/sqrt(2)
        h_in_da = PolarState.h().to_basis("DA")
        assert abs(h_in_da.amp0 - 1 / RT2) < 1e-15
        assert abs(h_in_da.amp1 - 1 / RT2) < 1e-15

    def test_orthogonal_state(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = random_pure(rng)
            assert abs(s.overlap(s.orthogonal())) < 1e-14

    def test_normalized_rejects_zero(self):
        with pytest.raises(DomainError):
            PolarState.normalized(0.0, 0.0)


# ---------------------------------------------------------------------------
# Born rule
# ---------------------------------------------------------------------------

class TestBornProbability:
    def test_h_onto_d_is_half(self):
        assert born_probability(PolarState.h(), PolarState.d()) == pytest.approx(0.5, abs=1e-15)

    def test_excitation_state_example(self):
        # cos(phi/2)|D> - i sin(phi/2)|A> at phi = 2pi/3 projected on D
        phi = 2 * np.pi / 3
        s = PolarState(np.cos(phi / 2), -1j * np.sin(phi / 2), "DA")
        assert born_probability(s, PolarState.d()) == pytest.approx(0.25, abs=1e-12)

    def test_projector_completeness(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            s = random_pure(rng)
            proj = random_pure(rng)
            total = born_probability(s, proj) + born_probability(s, proj.orthogonal())
            assert abs(total - 1.0) < 1e-12

    def test_density_matrix_agrees_with_pure(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = random_pure(rng)
            proj = random_pure(rng)
            p_state = born_probability(s, proj)
            p_rho = born_probability(s.density(), proj)
            assert abs(p_state - p_rho) < 1e-12

    def test_cross_basis_projection(self):
        # probabilities must not depend on the basis either party is written in
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = random_pure(rng)
            proj = random_pure(rng)
            p1 = born_probability(s, proj)
            p2 = born_probability(s.to_basis("DA"), proj.to_basis("DA"))
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

    def test_bloch_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = random_density(rng)
            x, y, z = rho.bloch()
            rho2 = DensityMatrix.from_bloch(x, y, z)
            assert np.max(np.abs(rho.elements - rho2.elements)) < 1e-12

    def test_bloch_conventions(self):
        assert np.allclose(PolarState.h().density().bloch(), [0, 0, 1])
        assert np.allclose(PolarState.hv_diagonal().density().bloch(), [1, 0, 0])
        assert np.allclose(PolarState.hv_circular().density().bloch(), [0, 1, 0])
        # in the DA basis the stored symmetric mode is +z and H is +x
        assert np.allclose(PolarState.d().density().bloch(), [0, 0, 1])
        assert np.allclose(PolarState.h().to_basis("DA").density().bloch(), [1, 0, 0])

    def test_purity(self):
        assert DensityMatrix.from_bloch(0.0, 0.0, 0.0).purity() == pytest.approx(0.5)
        assert PolarState.v().density().purity() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

class TestTraceDistance:
    def test_orthogonal_pure_states_distance_one(self):
        d = trace_distance(PolarState.h().density(), PolarState.v().density())
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
        proj = PolarState.normalized(complex(amps[0], amps[1]),
                                     complex(amps[2], amps[3]))
        v = proj.amplitudes()
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
        plus = PolarState.hv_diagonal().density()
        minus = PolarState.normalized(1.0, -1.0).density()
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

"""Qubit algebra tests.

Implementation routes are checked against independent oracles: the Pauli
weights against their closed scalar expansions in the amplitudes, the
fair-bit Bell measurement against a brute-force three-qubit collapse, and
the Pauli correction against explicit matrix products.
"""

import numpy as np
import pytest

from teleport_sr.channel import DetectionStats
from teleport_sr.qstate import (
    STATE_PRESETS,
    DensityMatrix,
    PauliWeights,
    QubitState,
    bell_measure,
    bob_mixed_state,
    corrected_state,
    fidelity_against,
    pauli_weights,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_state(rng) -> QubitState:
    raw = rng.normal(size=4)
    alpha = complex(raw[0], raw[1])
    beta = complex(raw[2], raw[3])
    return QubitState.normalized(alpha, beta)


def random_stats(rng) -> DetectionStats:
    a, b = sorted(rng.uniform(0, 1, 2))
    return DetectionStats(p00=b, p01=a)


def weights_oracle(state: QubitState):
    """Scalar expansion of the three squared Pauli overlaps."""
    a2 = abs(state.alpha) ** 2
    b2 = abs(state.beta) ** 2
    cross = (state.beta**2 * np.conj(state.alpha) ** 2).real
    qz = a2**2 - 2 * a2 * b2 + b2**2
    qx = 2 * (a2 * b2 + cross)
    qxz = 2 * (a2 * b2 - cross)
    return qx, qz, qxz


class TestQubitState:
    def test_presets_are_normalized(self):
        assert set(STATE_PRESETS) == {"zero", "one", "plus", "i-plus"}
        for state in STATE_PRESETS.values():
            assert abs(abs(state.alpha) ** 2 + abs(state.beta) ** 2 - 1) <= 1e-12

    def test_rejects_unnormalized(self):
        for alpha in (0.6, 1e200):  # 1e200 ** 2 overflows a float
            with pytest.raises(ValueError, match="not normalized"):
                QubitState(alpha, 0.7)

    def test_rejects_nan_amplitude(self):
        for alpha, beta in ((float("nan"), 1), (1, complex(0, float("nan")))):
            with pytest.raises(ValueError, match="not normalized"):
                QubitState(alpha, beta)

    @pytest.mark.parametrize("alpha, beta, field", [
        (True, False, "state.alpha"), (1.0, np.False_, "state.beta"),
        ("1", 0.0, "state.alpha"), (1.0, None, "state.beta"), ([1.0], 0.0, "state.alpha"),
    ])
    def test_rejects_booleans_and_non_numbers(self, alpha, beta, field):
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            QubitState(alpha, beta)

    def test_stores_complex_amplitudes(self):
        for alpha, beta in ((1, 0), (1.0, 0.0), (np.float32(1.0), np.complex64(0.0))):
            state = QubitState(alpha, beta)
            assert (type(state.alpha), type(state.beta)) == (complex, complex)
            assert state == QubitState(1.0, 0.0)
            assert hash(state) == hash(STATE_PRESETS["zero"])

    def test_normalized_constructor_rescales(self):
        # At 1e200 and 1e-200 the squares overflow or underflow to 0; the norm does not.
        for size in (1.0, 1e200, 1e-200):
            state = QubitState.normalized(3.0 * size, 4.0j * size)
            assert state.alpha == pytest.approx(0.6)
            assert state.beta == pytest.approx(0.8j)

    def test_rejects_an_amplitude_whose_modulus_overflows(self):
        huge = complex(1.7e308, 1.7e308)
        for make in (QubitState, QubitState.normalized):
            with pytest.raises(ValueError, match="^state.alpha has a modulus too large"):
                make(huge, 0)

    def test_normalized_rejects_a_boolean(self):
        with pytest.raises(ValueError, match="^state.alpha must be a number"):
            QubitState.normalized(True, 0)

    def test_normalized_rejects_a_non_number(self):
        with pytest.raises(ValueError, match="^state.alpha must be a number"):
            QubitState.normalized("1", 0)

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            QubitState.normalized(0, 0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown state preset"):
            QubitState.preset("minus")


class TestPauliWeights:
    def test_z_eigenstate(self):
        w = pauli_weights(QubitState(1, 0))
        assert (w.qx, w.qz, w.qxz) == (0.0, 1.0, 0.0)

    def test_y_eigenstate(self):
        w = pauli_weights(QubitState.preset("i-plus"))
        assert w.qxz == pytest.approx(1.0, abs=1e-12)
        assert w.qx == pytest.approx(0.0, abs=1e-12)
        assert w.qz == pytest.approx(0.0, abs=1e-12)

    def test_real_amplitudes_against_scalar_oracle(self):
        w = pauli_weights(QubitState(0.6, 0.8))
        assert w.qz == pytest.approx(0.0784, abs=1e-12)
        assert w.qx == pytest.approx(0.9216, abs=1e-12)
        assert w.qxz == pytest.approx(0.0, abs=1e-12)

    def test_random_states_against_scalar_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            state = random_state(rng)
            w = pauli_weights(state)
            qx, qz, qxz = weights_oracle(state)
            assert w.qx == pytest.approx(qx, abs=1e-12)
            assert w.qz == pytest.approx(qz, abs=1e-12)
            assert w.qxz == pytest.approx(qxz, abs=1e-12)

    def test_nonnegative_and_sum_to_one(self):
        rng = np.random.default_rng(72)
        for _ in range(10_000):
            w = pauli_weights(random_state(rng))
            assert min(w.qx, w.qz, w.qxz) >= -1e-12
            assert w.qx + w.qz + w.qxz == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PauliWeights(qx=-0.1, qz=0.6, qxz=0.5)
        with pytest.raises(ValueError, match="sum"):
            PauliWeights(qx=0.5, qz=0.4, qxz=0.2)


def bell_collapse(state: QubitState):
    """Brute-force three-qubit Bell measurement on (input, half-pair).

    Returns, per two-bit outcome, the collapse probability and the
    receiver's conditional state vector.
    """
    s2 = 1 / np.sqrt(2)
    pair = np.array([s2, 0, 0, s2], dtype=complex)
    joint = np.kron(state.vector, pair)  # order: input, sender half, receiver half
    bell_vectors = {
        (0, 0): np.array([s2, 0, 0, s2], dtype=complex),
        (0, 1): np.array([s2, 0, 0, -s2], dtype=complex),
        (1, 0): np.array([0, s2, s2, 0], dtype=complex),
        (1, 1): np.array([0, s2, -s2, 0], dtype=complex),
    }
    outcomes = {}
    for bits, vec in bell_vectors.items():
        projected = np.kron(np.outer(vec, vec.conj()), np.eye(2)) @ joint
        prob = float(np.vdot(projected, projected).real)
        receiver = np.kron(vec.conj(), np.eye(2)) @ projected
        outcomes[bits] = (prob, receiver / np.sqrt(prob))
    return outcomes


class TestBellMeasure:
    def test_replay_is_deterministic(self):
        a = bell_measure(np.random.default_rng(9), 50)
        b = bell_measure(np.random.default_rng(9), 50)
        np.testing.assert_array_equal(a, b)

    def test_pair_frequencies_and_independence(self):
        rng = np.random.default_rng(20)
        b1, b2 = bell_measure(rng, size=200_000)
        for s1 in (0, 1):
            for s2 in (0, 1):
                freq = np.mean((b1 == s1) & (b2 == s2))
                assert abs(freq - 0.25) < 0.004  # 4-sigma binomial band
        corr = np.corrcoef(b1, b2)[0, 1]
        assert abs(corr) < 0.009

    def test_batch_is_bellbits_of_bit_arrays(self):
        # One draw of a (2, n) bool array: s1 is row 0, s2 is row 1.  The
        # bits and the generator state after them are those of
        # integers(0, 2, (2, n), dtype=bool) for every bit generator, at
        # sizes that end mid-byte and mid-word, with a pending 32-bit half
        # (left by one uint32 draw) or without.
        generators = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                      np.random.Philox, np.random.SFC64)
        for bit_generator in generators:
            for n in (1, 3, 7, 16, 17, 31, 10**4, 12_345, 65_536):
                for pending in (False, True):
                    rng, ref = (np.random.Generator(bit_generator(21)) for _ in range(2))
                    if pending:
                        for g in (rng, ref):
                            g.integers(0, 2**32, dtype=np.uint32)
                    batch = bell_measure(rng, n)
                    assert batch.shape == (2, n) and batch.dtype == bool
                    np.testing.assert_array_equal(batch, ref.integers(0, 2, (2, n), dtype=bool))
                    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    def test_matches_full_state_vector_collapse(self):
        # The fair-bit shortcut must agree with the real measurement: every
        # outcome has probability 1/4 and leaves the receiver in the
        # corresponding Pauli rotation of the input state.
        rng = np.random.default_rng(22)
        states = [STATE_PRESETS["plus"], STATE_PRESETS["zero"]]
        states += [random_state(rng) for _ in range(20)]
        for state in states:
            for (s1, s2), (prob, receiver) in bell_collapse(state).items():
                assert prob == pytest.approx(0.25, abs=1e-12)
                expected = np.linalg.matrix_power(X, s1) @ np.linalg.matrix_power(Z, s2) @ state.vector
                assert abs(np.vdot(expected, receiver)) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestCorrectedState:
    def test_matching_bits_leave_state_alone(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = random_state(rng)
            bits = (int(rng.integers(2)), int(rng.integers(2)))
            out = corrected_state(state, bits, bits)
            assert out.overlap_sq(state) == pytest.approx(1.0, abs=1e-12)

    def test_bit_flip(self):
        out = corrected_state(QubitState(1, 0), (1, 0), (0, 0))
        assert out.overlap_sq(QubitState(0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_phase_flip_on_plus(self):
        plus = QubitState.preset("plus")
        minus = QubitState.normalized(1, -1)
        out = corrected_state(plus, (0, 1), (0, 0))
        assert out.overlap_sq(minus) == pytest.approx(1.0, abs=1e-12)
        assert out.overlap_sq(plus) == pytest.approx(0.0, abs=1e-12)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            state = random_state(rng)
            s = (int(rng.integers(2)), int(rng.integers(2)))
            y = (int(rng.integers(2)), int(rng.integers(2)))
            expected = (np.linalg.matrix_power(X, s[0] ^ y[0])
                        @ np.linalg.matrix_power(Z, s[1] ^ y[1]) @ state.vector)
            np.testing.assert_allclose(corrected_state(state, s, y).vector, expected, atol=1e-15)

    def test_double_application_is_identity_up_to_phase(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            state = random_state(rng)
            s = (int(rng.integers(2)), int(rng.integers(2)))
            y = (int(rng.integers(2)), int(rng.integers(2)))
            twice = corrected_state(corrected_state(state, s, y), s, y)
            assert twice.overlap_sq(state) == pytest.approx(1.0, abs=1e-12)


class TestBobMixedState:
    def test_uninformative_detection_gives_maximally_mixed(self):
        stats = DetectionStats(p00=0.5, p01=0.5)
        rng = np.random.default_rng(41)
        for _ in range(10):
            rho = bob_mixed_state(random_state(rng), stats)
            np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_perfect_detection_reproduces_input(self):
        stats = DetectionStats(p00=1.0, p01=0.0)
        rng = np.random.default_rng(42)
        for _ in range(10):
            state = random_state(rng)
            rho = bob_mixed_state(state, stats)
            v = state.vector
            np.testing.assert_allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-12)

    def test_output_is_valid_density_matrix(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            rho = bob_mixed_state(random_state(rng), random_stats(rng)).matrix
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_rejects_broken_conditionals(self):
        # Only a DetectionStats is accepted, and it derives each row from one
        # checked probability (test_channel), so broken rows never reach the sum.
        rows = {"p00": 0.9, "p01": 0.4, "p10": 0.3, "p11": 0.6}
        with pytest.raises(TypeError, match="DetectionStats"):
            bob_mixed_state(QubitState.preset("plus"), rows)


class TestFidelityAgainst:
    def test_pure_state_against_itself(self):
        state = QubitState.preset("i-plus")
        v = state.vector
        assert fidelity_against(state, DensityMatrix(np.outer(v, v.conj()))) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            assert fidelity_against(random_state(rng), np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_state(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            state = random_state(rng)
            perp = QubitState(-np.conj(state.beta), np.conj(state.alpha))
            p = perp.vector
            assert fidelity_against(state, np.outer(p, p.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            fidelity_against(QubitState(1, 0), np.array([[1, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("raw,problem", [
        (2 * np.eye(2), "trace"),
        ([[0.9, 0.9], [0.9, 0.1]], "negative eigenvalue"),
        (np.eye(3) / 3, "must be 2x2"),
    ])
    def test_rejects_a_raw_array_that_is_no_density_matrix(self, raw, problem):
        with pytest.raises(ValueError, match=problem):
            fidelity_against(QubitState.preset("plus"), raw)

    def test_leaves_a_raw_array_writable(self):
        raw = np.eye(2, dtype=complex) / 2
        fidelity_against(QubitState.preset("plus"), raw)
        raw[0, 0] = 1.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

"""Single-qubit state algebra: fidelity, Bloch coordinates, partial trace."""
import numpy as np
import pytest

from teleion.errors import DimensionMismatch, InvariantViolation
from teleion.qcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    DensityMatrix,
    PureState,
    bloch_vector,
    density_from_bloch,
    partial_trace,
    state_fidelity,
    trace_distance,
)

from oracles import haar_average_fidelity, random_cptp_qubit_channel, random_pure_state


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    assert np.allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X)
    assert np.allclose(PAULI_Z @ PAULI_X, 1j * PAULI_Y)
    for p in PAULIS:
        assert np.allclose(p @ p, PAULI_I)


def test_pure_state_requires_unit_norm():
    with pytest.raises(InvariantViolation):
        PureState(np.array([3.0, 4.0]))
    s = PureState(np.array([0.6, 0.8]))
    assert s.dim == 2


def test_density_matrix_validation():
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.array([[0.5, 0.0], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    rho = DensityMatrix.from_pure(np.array([1.0, 1.0]))  # from_pure normalizes
    assert np.isclose(rho.matrix[0, 1].real, 0.5)


def test_state_fidelity_pure_overlap():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    minus = PureState(np.array([1.0, -1.0]) / np.sqrt(2))
    rho = DensityMatrix.from_pure(plus)
    assert np.isclose(state_fidelity(rho, plus), 1.0)
    assert np.isclose(state_fidelity(rho, minus), 0.0, atol=1e-12)
    mixed = DensityMatrix(np.eye(2) / 2)
    assert np.isclose(state_fidelity(mixed, plus), 0.5)


def test_bloch_vector_frozen_orientation():
    # (|D> + i|S>)/sqrt(2) sits on the -y axis; this pins the axis conventions.
    psi = PureState(np.array([1j, 1.0]) / np.sqrt(2))
    r = bloch_vector(DensityMatrix.from_pure(psi))
    assert np.allclose(r, (0.0, -1.0, 0.0), atol=1e-12)
    assert np.allclose(bloch_vector(DensityMatrix(np.eye(2) / 2)), (0, 0, 0), atol=1e-12)


def test_density_from_bloch_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        rho = density_from_bloch(r)
        assert np.allclose(bloch_vector(rho), r, atol=1e-12)
    with pytest.raises(InvariantViolation):
        density_from_bloch((1.2, 0.0, 0.0))


def test_trace_distance_basics():
    z0 = DensityMatrix(np.diag([1.0, 0.0]))
    z1 = DensityMatrix(np.diag([0.0, 1.0]))
    assert np.isclose(trace_distance(z0, z1), 1.0)
    assert np.isclose(trace_distance(z0, z0), 0.0)
    with pytest.raises(DimensionMismatch):
        trace_distance(z0, DensityMatrix(np.eye(4) / 4))


def test_partial_trace_of_product_state():
    a = DensityMatrix.from_pure(np.array([1.0, 2.0]))
    b = DensityMatrix.from_pure(np.array([1.0, 1j]))
    joint = DensityMatrix(np.kron(a.matrix, b.matrix))
    assert np.allclose(partial_trace(joint, [2, 2], keep=[0]).matrix, a.matrix)
    assert np.allclose(partial_trace(joint, [2, 2], keep=[1]).matrix, b.matrix)


def test_partial_trace_bell_pair_is_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = DensityMatrix(np.outer(bell, bell.conj()))
    assert np.allclose(partial_trace(rho, [2, 2], keep=[0]).matrix, np.eye(2) / 2)


def test_random_pure_state_is_normalized_and_seeded():
    rng = np.random.default_rng(3)
    s1 = random_pure_state(rng)
    s2 = random_pure_state(np.random.default_rng(3))
    assert np.isclose(np.linalg.norm(s1.amplitudes), 1.0)
    assert np.allclose(s1.amplitudes, s2.amplitudes)


def test_random_cptp_channel_is_cptp():
    from teleion.tomography import tp_defect

    for seed in range(10):
        chi = random_cptp_qubit_channel(seed)
        w = np.linalg.eigvalsh(chi)
        assert w.min() >= -1e-10
        assert tp_defect(chi) <= 1e-9
    assert np.allclose(random_cptp_qubit_channel(4), random_cptp_qubit_channel(4))


def test_haar_average_fidelity_identity_channel():
    rng = np.random.default_rng(1)
    assert np.isclose(haar_average_fidelity(lambda rho: rho, rng, 500), 1.0)


def test_haar_average_fidelity_depolarizing():
    # E(rho) = (1-p) rho + p I/2 has average fidelity 1 - p/2.
    p = 0.4

    def chan(rho):
        return (1 - p) * rho + p * np.eye(2) / 2

    val = haar_average_fidelity(chan, np.random.default_rng(2), 4000)
    assert abs(val - (1 - p / 2)) < 0.01

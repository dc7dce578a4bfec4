"""Noise model: quasi-static detuning, amplitude errors, depolarizing."""
import math
from dataclasses import replace

import numpy as np
import pytest

from teleion.errors import ConfigError
from teleion.noise import (
    NoiseConfig,
    PulseDurations,
    ShotNoise,
    _site_paulis,
    depolarize_density_tensor,
    perturb_pulse,
    phase_exponent,
    release_phase,
    sample_pauli_index,
    sample_shot_noise,
)
from teleion.qcore import DensityMatrix
from teleion.trap import BlueSideband, Carrier, Detect, Hide, Wait, initialize

PI = math.pi


def test_pulse_durations_scale_with_area():
    pd = PulseDurations()
    assert pd.of(Carrier(0, PI, 0.0)) == 10.0
    assert pd.of(Carrier(0, 0.5 * PI, 0.0)) == 5.0
    assert pd.of(BlueSideband(0, PI, 0.0)) == 100.0
    assert pd.of(Hide(0, PI, 0.0)) == 10.0
    assert pd.of(Wait(123.0)) == 123.0
    assert pd.of(Detect(0, "x")) == 250.0


def test_noise_config_validation_and_noiseless_flag():
    assert NoiseConfig().is_noiseless
    assert not NoiseConfig(detuning_sigma_SD=1e-4).is_noiseless
    with pytest.raises(ConfigError):
        NoiseConfig(depolarizing_per_pulse=1.5)
    with pytest.raises(ConfigError):
        NoiseConfig(detection_error=-0.1)


def test_shot_noise_is_deterministic_in_seed_and_index():
    cfg = NoiseConfig(detuning_sigma_SD=0.01, amplitude_error_sigma=0.05)
    a = sample_shot_noise(cfg, 7, 3)
    b = sample_shot_noise(cfg, 7, 3)
    c = sample_shot_noise(cfg, 7, 4)
    assert np.allclose(a.detuning_SD, b.detuning_SD)
    assert np.allclose(a.amplitude_factors, b.amplitude_factors)
    assert not np.allclose(a.detuning_SD, c.detuning_SD)


def test_correlated_dephasing_shares_one_draw():
    cfg = NoiseConfig(detuning_sigma_SD=0.01)
    shot = sample_shot_noise(cfg, 1, 0)
    assert np.ptp(shot.detuning_SD) == 0.0
    uncorr = sample_shot_noise(
        NoiseConfig(detuning_sigma_SD=0.01, correlated_dephasing=False), 1, 0
    )
    assert np.ptp(uncorr.detuning_SD) > 0.0


def test_detuning_h_is_ratio_times_sd():
    cfg = NoiseConfig(detuning_sigma_SD=0.02, dephasing_ratio_H=2.0)
    shot = sample_shot_noise(cfg, 5, 9)
    assert np.allclose(shot.detuning_H, 2.0 * shot.detuning_SD)


def test_phase_exponent_level_structure():
    phi = phase_exponent(2, 2, np.array([0.1, 0.0]), np.array([0.2, 0.0]), 10.0)
    assert phi.shape == (3, 3, 2)
    assert phi[0, 0, 0] == 0.0          # S accrues nothing
    assert np.isclose(phi[1, 0, 0], 1.0)  # D on ion 1: 0.1 rad/us * 10 us
    assert np.isclose(phi[2, 0, 0], 2.0)  # H on ion 1
    assert np.isclose(phi[1, 1, 0], 1.0)  # ion 2 detunings are zero here


def test_released_phase_rotates_d_relative_to_s():
    reg = initialize(1, 2)
    from teleion.trap import apply_pulse

    reg = apply_pulse(reg, Carrier(0, 0.5 * PI, 1.5 * PI))  # (|S> + |D>)/sqrt2
    shot = ShotNoise(np.array([0.1]), np.array([0.2]), np.ones(35))
    later = replace(reg, elapsed_us=reg.elapsed_us + 10.0)  # 10 us of free evolution
    out, released = release_phase(later, np.zeros(1), shot, 0)
    t = out.tensor()
    ratio = t[1, 0] / t[0, 0]
    base = reg.tensor()[1, 0] / reg.tensor()[0, 0]
    assert np.isclose(ratio / base, np.exp(-1j * 1.0), atol=1e-12)
    assert out.elapsed_us == reg.elapsed_us + 10.0
    assert released.tolist() == [10.0]
    again, _ = release_phase(out, released, shot, 0)  # no time has passed since
    assert np.array_equal(again.psi, out.psi)


def test_perturb_pulse_scales_drive_area_only():
    shot = ShotNoise(np.zeros(3), np.zeros(3), np.full(35, 1.02))
    p = perturb_pulse(Carrier(0, PI, 0.3), shot, 4)
    assert np.isclose(p.theta, 1.02 * PI) and p.phi == 0.3
    w = perturb_pulse(Wait(10.0), shot, 4)
    assert isinstance(w, Wait) and w.duration_us == 10.0


def test_sample_pauli_index_partitions_unit_interval():
    p = 0.4
    assert sample_pauli_index(0.0, p) is None
    assert sample_pauli_index(1.0 - 0.75 * p - 1e-9, p) is None
    assert sample_pauli_index(1.0 - 0.75 * p + 1e-9, p) == 0
    assert sample_pauli_index(1.0 - 0.25 * p - 1e-9, p) == 1
    assert sample_pauli_index(1.0 - 1e-9, p) == 2


def test_depolarizing_channel_contracts_bloch_vector():
    # on the qubit subspace the channel sends r -> (1-p) r
    from teleion.qcore import bloch_vector

    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = DensityMatrix.from_pure(psi)
    out = DensityMatrix(depolarize_density_tensor(rho.matrix, 0, 0.3, site_dim=2))
    assert np.allclose(bloch_vector(out), 0.7 * bloch_vector(rho), atol=1e-12)


def test_depolarizing_leaves_hidden_level_alone():
    # population parked in H must not mix with the qubit subspace
    rho = np.zeros((3, 3), dtype=complex)
    rho[2, 2] = 1.0
    out = depolarize_density_tensor(rho, 0, 0.5)
    assert np.allclose(out, rho, atol=1e-14)


def test_depolarize_density_tensor_preserves_trace():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    rho_t = rho.reshape(3, 2, 3, 2)
    out = depolarize_density_tensor(rho_t, 0, 0.25)
    assert np.isclose(np.trace(out.reshape(6, 6)).real, 1.0, atol=1e-12)


def test_depolarize_density_tensor_matches_the_kraus_sum():
    # the fused site superoperator must equal (1-3p/4) rho + (p/4) sum_k s_k rho s_k^dag
    rng = np.random.default_rng(5)
    dims = (3, 3, 2)
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho_t = (m @ m.conj().T).reshape(dims + dims)
    p = 0.3
    for site, site_dim in enumerate(dims):
        expected = (1.0 - 0.75 * p) * rho_t
        for sig in _site_paulis(site_dim):
            branch = np.moveaxis(np.tensordot(sig, rho_t, axes=([1], [site])), 0, site)
            branch = np.moveaxis(
                np.tensordot(sig.conj(), branch, axes=([1], [site + 3])), 0, site + 3
            )
            expected = expected + 0.25 * p * branch
        out = depolarize_density_tensor(rho_t, site, p, site_dim=site_dim)
        assert np.abs(out - expected).max() <= 1e-13

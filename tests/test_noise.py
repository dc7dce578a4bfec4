"""Noise model: quasi-static detuning, amplitude errors, depolarizing."""
import math

import numpy as np
import pytest

from teleion.errors import ConfigError
from teleion.noise import (
    RUN_STREAM_TAG,
    SHOT_BLOCK,
    NoiseConfig,
    PulseDurations,
    ShotNoise,
    _site_paulis,
    depolarize_density_tensor,
    sample_pauli_index,
    sample_shot_noise,
)
from teleion.qcore import DensityMatrix
from teleion.trap import S, BlueSideband, Carrier, Detect, Hide, Wait, apply_pulse

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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls,name",
    [
        *((NoiseConfig, name) for name in (
            "detuning_sigma_SD", "detuning_bias_SD", "dephasing_ratio_H", "amplitude_error_sigma",
            "depolarizing_per_pulse", "detection_error",
        )),
        *((PulseDurations, name) for name in ("carrier_pi", "sideband_pi", "hide_pi", "detect")),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_noise_and_durations_refuse_non_finite_values(cls, name, value):
    # A library caller builds these directly, past the CLI's strict-JSON gate.
    with pytest.raises(ConfigError):
        cls(**{name: value})


def test_shot_noise_is_deterministic_in_seed_and_index():
    cfg = NoiseConfig(detuning_sigma_SD=0.01, amplitude_error_sigma=0.05)
    a = sample_shot_noise(cfg, 7, np.array([3]))
    b = sample_shot_noise(cfg, 7, np.array([3]))
    c = sample_shot_noise(cfg, 7, np.array([4]))
    assert np.allclose(a.detuning_SD, b.detuning_SD)
    assert np.allclose(a.amplitude_factors, b.amplitude_factors)
    assert not np.allclose(a.detuning_SD, c.detuning_SD)


def test_correlated_dephasing_shares_one_draw():
    cfg = NoiseConfig(detuning_sigma_SD=0.01)
    shot = sample_shot_noise(cfg, 1, np.array([0]))
    assert np.ptp(shot.detuning_SD) == 0.0
    uncorr = sample_shot_noise(
        NoiseConfig(detuning_sigma_SD=0.01, correlated_dephasing=False), 1, np.array([0])
    )
    assert np.ptp(uncorr.detuning_SD) > 0.0


def test_detuning_h_is_ratio_times_sd():
    cfg = NoiseConfig(detuning_sigma_SD=0.02, dephasing_ratio_H=2.0)
    shot = sample_shot_noise(cfg, 5, np.array([9]))
    assert np.allclose(shot.detuning_H, 2.0 * shot.detuning_SD)


def test_shot_streams_are_rows_of_their_blocks():
    # Shot i of a seed is row i % SHOT_BLOCK of the streams of block
    # i // SHOT_BLOCK, drawn in full: here across the first two boundaries,
    # with a seed past int64, drawn again by hand.
    assert SHOT_BLOCK == 64  # sampled per-shot artefacts rest on it
    cfg = NoiseConfig(detuning_sigma_SD=0.01, amplitude_error_sigma=0.05, correlated_dephasing=False)
    seed, shots, n_steps = 2**63 + 5, [62, 63, 64, 65, 127, 128], 35
    batch = sample_shot_noise(cfg, seed, np.array(shots))
    for k, i in enumerate(shots):
        block, row = divmod(i, SHOT_BLOCK)
        normal = np.random.default_rng([seed, block]).standard_normal((SHOT_BLOCK, 3 + n_steps))[row]
        rng = np.random.default_rng([seed, block, RUN_STREAM_TAG])
        depol_u, meas_u = rng.random((SHOT_BLOCK, n_steps))[row], rng.random((SHOT_BLOCK, n_steps, 2))[row]
        one = sample_shot_noise(cfg, seed, np.array([i]))
        for drawn, at in ((one, 0), (batch, k)):
            shot = ShotNoise(*(getattr(drawn, f)[at] for f in ShotNoise.__dataclass_fields__))
            assert np.array_equal(shot.detuning_SD, 0.01 * normal[:3])
            assert np.array_equal(shot.detuning_H, 2.0 * shot.detuning_SD)
            assert np.array_equal(shot.amplitude_factors, 1.0 + 0.05 * normal[3:])
            assert np.array_equal(shot.depol_u, depol_u)
            assert np.array_equal(shot.meas_u, meas_u)
    # any request order gives each shot the same rows
    order = [3, 0, 5, 2, 4, 1]
    shuffled = sample_shot_noise(cfg, seed, np.array(shots)[order])
    for f in ShotNoise.__dataclass_fields__:
        assert np.array_equal(getattr(shuffled, f), getattr(batch, f)[order]), f
    # the run stream is the same whether or not the noise stream is drawn
    quiet = sample_shot_noise(NoiseConfig(), seed, np.array(shots))
    assert np.array_equal(quiet.depol_u, batch.depol_u) and np.array_equal(quiet.meas_u, batch.meas_u)
    assert not np.any(quiet.detuning_SD) and np.all(quiet.amplitude_factors == 1.0)


@pytest.mark.parametrize("fock_cutoff", [3, 4])
@pytest.mark.parametrize("ion", range(3))
@pytest.mark.parametrize("kind", [Carrier, Hide, BlueSideband])
def test_a_phase_then_a_drive_is_the_folded_drive(kind, ion, fock_cutoff):
    # apply_pulse's `phase` is the per-level phase on the driven ion applied
    # first: folded into the rotations' upper columns and the idle levels.
    rng = np.random.default_rng(17)
    shots, dims = 6, (3, 3, 3, fock_cutoff)
    psi = rng.normal(size=(shots, *dims)) + 1j * rng.normal(size=(shots, *dims))
    psi /= np.linalg.norm(psi.reshape(shots, -1), axis=1).reshape(shots, 1, 1, 1, 1)
    phase = np.exp(-1j * rng.uniform(-PI, PI, (shots, 3)))
    phase[:, S] = 1.0
    pulse = kind(ion, rng.uniform(0, 2 * PI, shots), rng.uniform(-PI, PI, shots))
    phased = (psi.reshape(shots, 3**ion, 3, -1) * phase[:, None, :, None]).reshape(psi.shape)
    expected = apply_pulse(phased, pulse)
    assert np.abs(apply_pulse(psi, pulse, phase) - expected).max() <= 1e-14


def test_sample_pauli_index_partitions_unit_interval():
    p = 0.4
    u = np.array([0.0, 1.0 - 0.75 * p - 1e-9, 1.0 - 0.75 * p + 1e-9, 1.0 - 0.25 * p - 1e-9, 1.0 - 1e-9])
    assert sample_pauli_index(u, p).tolist() == [-1, -1, 0, 1, 2]


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

"""State and process tomography: counts, MLE, chi algebra, affine picture."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleion.errors import ConfigError, DimensionMismatch, InvariantViolation
from teleion.noise import NoiseConfig
from teleion.protocol import canonical_inputs
from teleion.qcore import (
    PAULIS,
    DensityMatrix,
    bloch_vector,
    density_from_bloch,
    random_cptp_qubit_channel,
    state_fidelity,
    trace_distance,
)
from teleion.tomography import (
    BASES,
    _HERM_BASIS,
    _TP_MAP,
    _TP_PINV,
    AffineMap,
    CountsTable,
    ProcessMatrix,
    affine_decompose,
    affine_from_json,
    affine_to_json,
    apply_chi,
    average_fidelity,
    avg_from_process_fidelity,
    basis_prerotation,
    bootstrap_process,
    bright_probabilities,
    channel_from_chi,
    chi_from_channel,
    chi_from_json,
    chi_ideal_identity,
    chi_to_json,
    counts_from_csv,
    counts_to_csv,
    ellipsoid_mesh,
    measurement_operators,
    mle_process,
    mle_state,
    pauli_transfer,
    process_fidelity,
    resolve_sampling,
    rho_from_json,
    rho_to_json,
    simulate_state_tomography,
    teleported_counts,
    tp_defect,
    _fit_chi,
    _physical_polish,
    _process_model,
)


def depolarizing_chi(p: float) -> np.ndarray:
    return np.diag([1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p]).astype(complex)


def exact_tables(chi, inputs):
    return [
        simulate_state_tomography(DensityMatrix(apply_chi(chi, r.matrix)))
        for r in inputs
    ]


FOUR_INPUTS = [
    density_from_bloch(v)
    for v in [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)]
]


# ---------------------------------------------------------------------------
# Measurement model

def test_bright_probability_follows_the_bloch_vector():
    for r in [(0, 0, 1), (0.3, -0.2, 0.4), (-1, 0, 0)]:
        p = bright_probabilities(density_from_bloch(r))
        assert p["Z"] == pytest.approx((1 + r[2]) / 2, abs=1e-12)
        assert p["X"] == pytest.approx((1 - r[0]) / 2, abs=1e-12)
        assert p["Y"] == pytest.approx((1 - r[1]) / 2, abs=1e-12)


def test_povm_elements_sum_to_identity():
    for b in BASES:
        pi_b, pi_d = measurement_operators(b)
        assert np.allclose(pi_b + pi_d, np.eye(2), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(pi_b)) >= -1e-12
    with pytest.raises(ConfigError):
        basis_prerotation("Q")


def test_canonical_inputs_give_the_expected_extremal_fractions():
    # psi1 = |S>: certain Bright in Z; psi4/psi6: certain outcomes in X
    t1 = simulate_state_tomography(DensityMatrix.from_pure(canonical_inputs()[0].ket()))
    assert t1.bright_fraction("Z") == pytest.approx(1.0, abs=1e-12)
    t4 = simulate_state_tomography(DensityMatrix.from_pure(canonical_inputs()[3].ket()))
    assert t4.bright_fraction("X") == pytest.approx(1.0, abs=1e-12)
    t6 = simulate_state_tomography(DensityMatrix.from_pure(canonical_inputs()[5].ket()))
    assert t6.bright_fraction("X") == pytest.approx(0.0, abs=1e-12)


def test_counts_table_validation():
    rows = [(b, o, 5.0) for b in BASES for o in ("Bright", "Dark")]
    CountsTable(tuple(rows), 10.0)
    with pytest.raises(ConfigError):
        CountsTable(tuple(reversed(rows)), 10.0)
    with pytest.raises(ConfigError):
        CountsTable(tuple(rows), 11.0)
    bad = list(rows)
    bad[0] = ("Z", "Bright", -1.0)
    bad[1] = ("Z", "Dark", 11.0)
    with pytest.raises(ConfigError):
        CountsTable(tuple(bad), 10.0)


def test_counts_csv_round_trip():
    rng = np.random.default_rng(2)
    table = simulate_state_tomography(density_from_bloch((0.2, 0.1, -0.5)), 500, rng)
    again = counts_from_csv(counts_to_csv(table))
    assert again == table
    with pytest.raises(ConfigError):
        counts_from_csv("wrong,header\n")


def test_sampled_tomography_needs_an_rng():
    with pytest.raises(ConfigError):
        simulate_state_tomography(density_from_bloch((0, 0, 1)), 100)


# ---------------------------------------------------------------------------
# State MLE

def test_mle_state_recovers_pure_states_from_exact_probabilities():
    for spec in canonical_inputs():
        rho = DensityMatrix.from_pure(spec.ket())
        est = mle_state(simulate_state_tomography(rho))
        assert state_fidelity(est, spec.pure()) >= 1.0 - 1e-6


def test_mle_state_recovers_a_mixed_state():
    rho = density_from_bloch((0.3, -0.4, 0.2))
    est, diag = mle_state(simulate_state_tomography(rho), return_diagnostics=True)
    assert trace_distance(est, rho) <= 1e-5
    assert diag.converged
    assert diag.iterations <= 10_000
    assert np.all(np.diff(diag.ll_history) >= -1e-9)  # accepted steps are monotone


def test_mle_state_from_finite_counts_is_close_and_physical():
    rng = np.random.default_rng(5)
    rho = density_from_bloch((0.6, 0.1, -0.3))
    est = mle_state(simulate_state_tomography(rho, 10_000, rng))
    assert trace_distance(est, rho) <= 0.05
    # DensityMatrix construction already enforces Hermitian/PSD/unit trace
    assert np.isclose(np.trace(est.matrix).real, 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# chi algebra

def test_identity_chi_acts_trivially():
    chi = chi_ideal_identity()
    rho = density_from_bloch((0.2, 0.5, -0.1)).matrix
    assert np.allclose(apply_chi(chi, rho), rho, atol=1e-12)
    assert tp_defect(chi) <= 1e-12
    assert process_fidelity(chi, chi_ideal_identity()) == pytest.approx(1.0)


def test_chi_from_channel_round_trips_a_unitary():
    alpha = 0.7
    u = math.cos(alpha / 2) * np.eye(2) - 1j * math.sin(alpha / 2) * PAULIS[3]
    chi = chi_from_channel(lambda r: u @ r @ u.conj().T)
    ProcessMatrix(chi)  # Hermitian, PSD, TP
    rho = density_from_bloch((1, 0, 0)).matrix
    assert np.allclose(apply_chi(chi, rho), u @ rho @ u.conj().T, atol=1e-12)
    fn = channel_from_chi(chi)
    assert np.allclose(fn(rho), u @ rho @ u.conj().T, atol=1e-12)


def test_process_matrix_validation():
    with pytest.raises(DimensionMismatch):
        ProcessMatrix(np.eye(3))
    bad = chi_ideal_identity()
    bad[0, 1] = 0.1  # breaks Hermiticity
    with pytest.raises(InvariantViolation):
        ProcessMatrix(bad)
    with pytest.raises(InvariantViolation):
        ProcessMatrix(0.5 * chi_ideal_identity())  # not TP
    with pytest.raises(InvariantViolation):
        ProcessMatrix(np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex))


def test_process_fidelity_warns_on_mixed_ideal():
    with pytest.warns(UserWarning):
        process_fidelity(chi_ideal_identity(), depolarizing_chi(0.5))


def test_depolarizing_fidelities_match_closed_forms():
    for p in (0.1, 0.3, 0.7):
        chi = depolarizing_chi(p)
        assert process_fidelity(chi, chi_ideal_identity()) == pytest.approx(
            1.0 - 0.75 * p, abs=1e-12
        )
        assert average_fidelity(chi) == pytest.approx(1.0 - 0.5 * p, abs=1e-12)
        assert avg_from_process_fidelity(1.0 - 0.75 * p) == pytest.approx(
            1.0 - 0.5 * p, abs=1e-12
        )
    with pytest.raises(ConfigError):
        avg_from_process_fidelity(1.2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_average_fidelity_matches_the_process_fidelity_relation(seed):
    # the six-axis average is computed from the channel action, the relation
    # from tr(chi_ideal chi); for any CPTP qubit channel they must agree
    chi = random_cptp_qubit_channel(seed)
    f_avg = average_fidelity(chi)
    f_proc = process_fidelity(chi, chi_ideal_identity())
    assert abs(f_avg - avg_from_process_fidelity(f_proc)) <= 1e-9


# ---------------------------------------------------------------------------
# Process MLE

def test_mle_process_recovers_depolarizing_from_exact_probabilities():
    chi_true = depolarizing_chi(0.3)
    est = mle_process(FOUR_INPUTS, exact_tables(chi_true, FOUR_INPUTS))
    assert np.max(np.abs(np.diag(est.chi) - np.diag(chi_true))) <= 1e-4
    assert tp_defect(est.chi) <= 1e-8


def test_mle_process_recovers_a_unitary_channel():
    alpha = 0.4
    u = math.cos(alpha / 2) * np.eye(2) - 1j * math.sin(alpha / 2) * PAULIS[1]
    chi_true = chi_from_channel(lambda r: u @ r @ u.conj().T)
    est, diag = mle_process(
        FOUR_INPUTS, exact_tables(chi_true, FOUR_INPUTS), return_diagnostics=True
    )
    assert np.max(np.abs(est.chi - chi_true)) <= 1e-4
    assert diag.converged


def test_mle_process_requires_four_independent_inputs():
    ins = [density_from_bloch((0, 0, 1))] * 4
    tables = exact_tables(chi_ideal_identity(), ins)
    with pytest.raises(ConfigError):
        mle_process(ins, tables)
    with pytest.raises(ConfigError):
        mle_process(FOUR_INPUTS, tables[:3])


def test_mle_process_from_finite_counts_stays_cptp():
    rng = np.random.default_rng(9)
    chi_true = depolarizing_chi(0.2)
    tables = [
        simulate_state_tomography(
            DensityMatrix(apply_chi(chi_true, r.matrix)), 4000, rng
        )
        for r in FOUR_INPUTS
    ]
    est = mle_process(FOUR_INPUTS, tables)
    assert np.max(np.abs(np.diag(est.chi).real - np.diag(chi_true).real)) <= 0.05
    assert float(np.min(np.linalg.eigvalsh(est.chi))) >= -1e-10


def test_bootstrap_is_seeded_and_rejects_exact_tables():
    rng = np.random.default_rng(3)
    chi_true = depolarizing_chi(0.3)
    tables = [
        simulate_state_tomography(
            DensityMatrix(apply_chi(chi_true, r.matrix)), 800, rng
        )
        for r in FOUR_INPUTS
    ]
    a = bootstrap_process(FOUR_INPUTS, tables, resamples=4, seed=7)
    b = bootstrap_process(FOUR_INPUTS, tables, resamples=4, seed=7)
    assert all(np.allclose(x.chi, y.chi) for x, y in zip(a, b))
    spread = np.std([x.chi[0, 0].real for x in a])
    assert spread > 0.0
    with pytest.raises(ConfigError):
        bootstrap_process(FOUR_INPUTS, exact_tables(chi_true, FOUR_INPUTS), resamples=2)


# ---------------------------------------------------------------------------
# The batched process fit against the sequential loop it replaced

def sequential_tp_normalize(chi):
    lam = sum(chi[m, n] * (PAULIS[n] @ PAULIS[m]) for m in range(4) for n in range(4))
    w, v = np.linalg.eigh(0.5 * (lam + lam.conj().T))
    l_inv_sqrt = (v / np.sqrt(np.clip(w, 1e-18, None))) @ v.conj().T
    c = np.array(
        [[0.5 * np.trace(PAULIS[k] @ PAULIS[m] @ l_inv_sqrt) for k in range(4)] for m in range(4)]
    )
    out = c.T @ chi @ c.conj()
    return 0.5 * (out + out.conj().T)


def sequential_tangent_norm(g):
    coords = np.array([np.real(np.trace(h @ g)) for h in _HERM_BASIS])
    return float(np.linalg.norm(coords - _TP_PINV @ (_TP_MAP @ coords)))


def sequential_h_ops(rhos):
    h_ops = []
    for rho_in in rhos:
        for b in BASES:
            for pi in measurement_operators(b):
                k = np.array(
                    [[np.trace(PAULIS[n].conj().T @ pi @ PAULIS[m] @ rho_in) for n in range(4)]
                     for m in range(4)]
                )
                h_ops.append(k.conj())
    return np.array(h_ops)


def sequential_fit(h_ops, ns, chi, max_iters=10_000, grad_tol=1e-8):
    """One fit at a time, as mle_process ran before the fits were batched.

    Returns (polished chi, converged, iterations, log-likelihood history, stop rule).
    """
    n_total = float(ns.sum())

    def probs(chi):
        return np.clip(np.einsum("jmn,nm->j", h_ops, chi).real, 1e-12, None)

    def loglik(chi):
        return float(np.sum(ns * np.log(probs(chi))))

    ll = loglik(chi)
    history = [ll]
    converged, rule, iterations, alpha, plateau = False, "max_iters", 0, 1.0, 0
    eye4 = np.eye(4, dtype=np.complex128)
    for iterations in range(1, max_iters + 1):
        grad = np.einsum("j,jmn->mn", ns / probs(chi), h_ops)
        grad = 0.5 * (grad + grad.conj().T)
        if sequential_tangent_norm(grad) / n_total <= grad_tol:
            converged, rule = True, "gradient"
            break
        a = alpha
        accepted = False
        for _ in range(60):
            s_op = (1.0 - a) * n_total * eye4 + a * grad
            cand = sequential_tp_normalize(s_op @ chi @ s_op)
            ll_cand = loglik(cand)
            if ll_cand >= ll - 1e-12:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            converged, rule = True, "uphill"
            break
        delta = float(np.max(np.abs(cand - chi)))
        at_boundary = float(np.linalg.eigvalsh(cand)[0]) < 1e-6
        stalled = ll_cand - ll <= 1e-12 * max(1.0, abs(ll))
        plateau = plateau + 1 if (at_boundary and stalled) else 0
        chi, ll = cand, ll_cand
        history.append(ll)
        alpha = min(1.0, 2.0 * a)
        if delta <= 1e-11 or plateau >= 100:
            converged, rule = True, "plateau" if plateau >= 100 else "step"
            break
    return _physical_polish(chi), converged, iterations, history, rule


def assert_fits_match(batched, diags, oracle):
    for result, diag, (chi, converged, iterations, history, _) in zip(batched, diags, oracle):
        assert np.max(np.abs(result.chi - chi)) <= 1e-6
        assert diag.converged == converged
        # Reordered float sums shift where a fit first meets a stop rule by a
        # few of its steps; a fit that stops with the wrong one does not.
        assert abs(diag.iterations - iterations) <= max(5, iterations // 10)
        common = min(len(diag.ll_history), len(history))
        assert np.allclose(diag.ll_history[:common], history[:common], rtol=1e-9, atol=0)


def test_batched_process_fit_matches_the_sequential_fits():
    inputs = [DensityMatrix.from_pure(s.ket()) for s in canonical_inputs()]
    rhos = [r.matrix for r in inputs]
    u = math.cos(0.2) * np.eye(2) - 1j * math.sin(0.2) * PAULIS[1]
    unitary = chi_from_channel(lambda r: u @ r @ u.conj().T)
    rows = []
    # Interior optima (depolarizing) and rank-1 boundary ones (unitary).
    for chi_true, shots, seed in [
        (depolarizing_chi(0.2), 2000, 1),
        (unitary, 2000, 3),
        (unitary, 500, 4),
        (depolarizing_chi(0.2), 0, 0),
    ]:
        rng = np.random.default_rng([11, seed])
        tables = [
            simulate_state_tomography(DensityMatrix(apply_chi(chi_true, r)), shots, rng)
            for r in rhos
        ]
        rows.append([c * (shots or 1000) for t in tables for _, _, c in t.rows])
    ns = np.array(rows)
    h_ops, _ = _process_model(inputs, tables)
    assert np.max(np.abs(h_ops - sequential_h_ops(rhos))) <= 1e-14
    batched, diags = _fit_chi(h_ops, ns, None, max_iters=10_000)
    chi0 = sequential_tp_normalize(np.eye(4, dtype=complex) / 4.0)
    oracle = [sequential_fit(h_ops, n, chi0) for n in ns]
    assert_fits_match(batched, diags, oracle)
    boundary = [o for o in oracle if np.linalg.eigvalsh(o[0])[0] < 1e-6]
    assert len({o[2] for o in boundary if o[4] == "plateau"}) >= 2
    assert any(np.linalg.eigvalsh(o[0])[0] > 1e-2 for o in oracle)


def test_bootstrap_matches_sequential_redraws_and_fits():
    rng = np.random.default_rng(3)
    tables = [
        simulate_state_tomography(DensityMatrix(apply_chi(depolarizing_chi(0.3), r.matrix)), 800, rng)
        for r in FOUR_INPUTS
    ]
    start = mle_process(FOUR_INPUTS, tables).chi
    resamples, diags = bootstrap_process(
        FOUR_INPUTS, tables, resamples=6, seed=7, start=start, return_diagnostics=True
    )

    h_ops = sequential_h_ops([r.matrix for r in FOUR_INPUTS])
    chi0 = sequential_tp_normalize(_physical_polish(start))
    redraw = np.random.default_rng([7, 0xB007])
    oracle = []
    for _ in range(6):
        redrawn = [
            CountsTable.from_bright_counts(
                {b: float(redraw.binomial(800, t.bright_fraction(b))) for b in BASES}, 800.0
            )
            for t in tables
        ]
        ns = np.array([c for t in redrawn for _, _, c in t.rows])
        oracle.append(sequential_fit(h_ops, ns, chi0))
    assert_fits_match(resamples, diags, oracle)


def test_bootstrap_counts_its_nonconverged_resamples():
    rng = np.random.default_rng(3)
    tables = [
        simulate_state_tomography(DensityMatrix(apply_chi(depolarizing_chi(0.3), r.matrix)), 800, rng)
        for r in FOUR_INPUTS
    ]
    with pytest.warns(UserWarning, match="5 of 5 resamples") as record:
        _, diags = bootstrap_process(
            FOUR_INPUTS, tables, resamples=5, seed=1, max_iters=2, return_diagnostics=True
        )
    assert len(record) == 1
    assert [d.iterations for d in diags] == [2] * 5
    assert not any(d.converged for d in diags)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, diags = bootstrap_process(FOUR_INPUTS, tables, resamples=5, seed=1, return_diagnostics=True)
    assert all(d.converged for d in diags)
    assert bootstrap_process(FOUR_INPUTS, tables, resamples=0) == []


# ---------------------------------------------------------------------------
# Affine Bloch-sphere picture

def test_affine_map_validation_and_properties():
    amap = AffineMap(np.eye(3), 0.6 * np.eye(3), np.zeros(3))
    assert amap.rotation_angle == pytest.approx(0.0)
    assert amap.det_o == pytest.approx(1.0)
    assert np.allclose(amap.s_eigenvalues, [0.6, 0.6, 0.6])
    with pytest.raises(InvariantViolation):
        AffineMap(2 * np.eye(3), np.eye(3), np.zeros(3))
    with pytest.raises(InvariantViolation):
        AffineMap(np.eye(3), np.eye(3), np.array([0.0, 0.0, 1.5]))


def test_affine_decompose_depolarizing():
    p = 0.3
    amap = affine_decompose(depolarizing_chi(p))
    assert np.allclose(amap.S, (1 - p) * np.eye(3), atol=1e-8)
    assert np.allclose(amap.O, np.eye(3), atol=1e-8)
    assert np.allclose(amap.b, 0.0, atol=1e-8)


def test_affine_decompose_reads_off_a_rotation_angle():
    alpha = 0.5
    u = math.cos(alpha / 2) * np.eye(2) - 1j * math.sin(alpha / 2) * PAULIS[3]
    amap = affine_decompose(chi_from_channel(lambda r: u @ r @ u.conj().T))
    assert amap.rotation_angle == pytest.approx(alpha, abs=1e-9)
    assert np.allclose(amap.S, np.eye(3), atol=1e-9)


def test_pauli_transfer_of_identity():
    m, b = pauli_transfer(chi_ideal_identity())
    assert np.allclose(m, np.eye(3), atol=1e-12)
    assert np.allclose(b, 0.0, atol=1e-12)


def test_ellipsoid_mesh_stays_inside_the_ball():
    amap = affine_decompose(depolarizing_chi(0.4))
    pts = ellipsoid_mesh(amap, resolution=12)
    assert pts.shape == (144, 3)
    assert np.max(np.linalg.norm(pts, axis=1)) <= 1.0 + 1e-9
    with pytest.raises(ConfigError):
        ellipsoid_mesh(amap, resolution=4)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_affine_shrink_of_random_channels_never_exceeds_one(seed):
    amap = affine_decompose(random_cptp_qubit_channel(seed))
    assert amap.s_eigenvalues[0] <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Serialization

def test_json_round_trips():
    chi = depolarizing_chi(0.25)
    assert np.allclose(chi_from_json(chi_to_json(chi)), chi, atol=1e-15)
    rho = density_from_bloch((0.1, 0.2, -0.3))
    assert np.allclose(rho_from_json(rho_to_json(rho)).matrix, rho.matrix, atol=1e-15)
    amap = affine_decompose(chi)
    again = affine_from_json(affine_to_json(amap, extra={"note": 1}))
    assert np.allclose(again.S, amap.S, atol=1e-15)
    assert np.allclose(again.O, amap.O, atol=1e-15)


# ---------------------------------------------------------------------------
# Protocol bridge

def test_resolve_sampling_rules():
    quiet = NoiseConfig()
    amp = NoiseConfig(amplitude_error_sigma=0.01)
    assert resolve_sampling(quiet, "auto") == "fast"
    assert resolve_sampling(amp, "auto") == "per-shot"
    assert resolve_sampling(quiet, "per-shot") == "per-shot"
    with pytest.raises(ConfigError):
        resolve_sampling(amp, "fast")
    with pytest.raises(ConfigError):
        resolve_sampling(quiet, "weird")


def test_noiseless_teleported_counts_match_the_input_state():
    spec = canonical_inputs()[5]  # (|S>+|D>)/sqrt2: certain Dark in X
    table = teleported_counts(spec)
    assert table.total_shots_per_basis == 1.0
    assert table.bright_fraction("X") == pytest.approx(0.0, abs=1e-9)
    assert table.bright_fraction("Z") == pytest.approx(0.5, abs=1e-9)
    assert table.bright_fraction("Y") == pytest.approx(0.5, abs=1e-9)


def test_sampled_teleported_counts_are_deterministic():
    spec = canonical_inputs()[2]
    a = teleported_counts(spec, NoiseConfig(), 200, master_seed=8)
    b = teleported_counts(spec, NoiseConfig(), 200, master_seed=8)
    c = teleported_counts(spec, NoiseConfig(), 200, master_seed=9)
    assert a == b
    assert a != c


def test_teleported_state_reconstruction_closes_the_loop():
    # teleport |psi5>, tomograph it, reconstruct: should match the input
    spec = canonical_inputs()[4]
    est = mle_state(teleported_counts(spec))
    assert state_fidelity(est, spec.pure()) >= 1.0 - 1e-6

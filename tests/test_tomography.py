"""State and process tomography: counts, MLE, chi algebra, affine picture."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleion.errors import ConfigError, DimensionMismatch, InvariantViolation
from teleion.noise import NoiseConfig
from teleion import tomography
from teleion.protocol import Tomography, build_sequence, canonical_inputs, exact_run, run_shot
from teleion.qcore import (
    PAULIS,
    DensityMatrix,
    bloch_vector,
    density_from_bloch,
    state_fidelity,
    trace_distance,
)
from teleion.tomography import (
    BASES,
    _HERM_BASIS,
    _POVM,
    _TP_MAP,
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
    bright_counts,
    bright_probabilities,
    channel_from_chi,
    checked_chi,
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
    _process_model,
)
from teleion.trap import Wait, rotation_2x2

from oracles import random_cptp_qubit_channel, random_pure_state


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


def test_one_measurement_model():
    # Each basis's pre-rotation is the analysis pulse build_sequence writes
    # into row 34 (Z's is a wait: the identity).
    for b in BASES:
        pulse = build_sequence(canonical_inputs()[0], 0.0, Tomography(b.lower()))[33].action
        expected = np.eye(2) if isinstance(pulse, Wait) else rotation_2x2(pulse.theta, pulse.phi)
        assert np.array_equal(basis_prerotation(b), expected), b
    # mle_state's signs (+1, -1, -1) and axis order are those of the Bright
    # elements' Bloch axes: a table certain in one basis and even in the
    # others reconstructs the pure state on that element's axis.
    for j, b in enumerate(BASES):
        axis = np.array([np.real(np.trace(_POVM[2 * j] @ p)) for p in PAULIS[1:]])  # 2 Pi_b - 1 = axis . sigma
        table = CountsTable(tuple(1.0 if c == b else 0.5 for c in BASES), 1.0)
        assert np.max(np.abs(bloch_vector(mle_state(table)) - axis)) <= 1e-12, b


def test_canonical_inputs_give_the_expected_extremal_fractions():
    # psi1 = |S>: certain Bright in Z; psi4/psi6: certain outcomes in X
    t1 = simulate_state_tomography(DensityMatrix.from_pure(canonical_inputs()[0].ket()))
    assert t1.bright_fraction("Z") == pytest.approx(1.0, abs=1e-12)
    t4 = simulate_state_tomography(DensityMatrix.from_pure(canonical_inputs()[3].ket()))
    assert t4.bright_fraction("X") == pytest.approx(1.0, abs=1e-12)
    t6 = simulate_state_tomography(DensityMatrix.from_pure(canonical_inputs()[5].ket()))
    assert t6.bright_fraction("X") == pytest.approx(0.0, abs=1e-12)


def test_counts_table_validation():
    # A table is its Bright counts and their total; the checks on counts read
    # from outside are counts_from_csv's.
    table = CountsTable((5.0, 5.0, 5.0), 10.0)
    rows = [(b, o, 5.0) for b in BASES for o in ("Bright", "Dark")]
    assert table.rows == tuple(rows)

    def csv(rows):
        return "\n".join(["basis,outcome,count"] + [f"{b},{o},{c:g}" for b, o, c in rows]) + "\n"

    assert counts_from_csv(csv(rows)) == table
    with pytest.raises(ConfigError, match="counts rows must be ordered"):
        counts_from_csv(csv(reversed(rows)))
    eleven = list(rows)
    eleven[1] = ("Z", "Dark", 6.0)
    with pytest.raises(ConfigError, match=r"^basis X counts sum to 10.0, expected 11.0$"):
        counts_from_csv(csv(eleven))
    bad = list(rows)
    bad[0] = ("Z", "Bright", -1.0)
    bad[1] = ("Z", "Dark", 11.0)
    with pytest.raises(ConfigError, match="^negative count$"):
        counts_from_csv(csv(bad))
    # An empty table is refused as it is built, not by a later division by zero.
    for total in (0.0, -1.0):
        with pytest.raises(ConfigError, match="is not positive"):
            CountsTable((0.0, 0.0, 0.0), total)
    with pytest.raises(ConfigError, match="is not positive"):
        counts_from_csv(csv([(b, o, 0.0) for b, o, _ in rows]))


def test_counts_csv_round_trip():
    rng = np.random.default_rng(2)
    table = simulate_state_tomography(density_from_bloch((0.2, 0.1, -0.5)), 500, rng)
    again = counts_from_csv(counts_to_csv(table))
    assert again == table
    # Exact tables (total 1.0) read back bit for bit too, though each Dark
    # count is read as the total less its Bright count.
    for _ in range(200):
        v = rng.normal(size=3)
        exact = simulate_state_tomography(density_from_bloch(v / np.linalg.norm(v) * rng.uniform()))
        assert counts_from_csv(counts_to_csv(exact)) == exact
    with pytest.raises(ConfigError):
        counts_from_csv("wrong,header\n")


_GOOD_CSV = ["basis,outcome,count", "Z,Bright,3", "Z,Dark,7", "X,Bright,5", "X,Dark,5", "Y,Bright,4", "Y,Dark,6"]


@pytest.mark.parametrize(
    "line, value, message",
    [
        (2, "Z,Bright", r"line 2: expected basis,outcome,count, got 'Z,Bright'"),
        (4, "X,Bright,5,1", r"line 4: expected basis,outcome,count"),
        (3, "Z,Dark,x", r"line 3: count 'x' is not a number"),
        (2, "Z,Bright,nan", r"row \(Z, Bright\): count nan is not finite"),
        (5, "X,Dark,inf", r"row \(X, Dark\): count inf is not finite"),
        (2, "Z,Bright,inf", r"row \(Z, Bright\): count inf is not finite"),
        (7, "Y,Dark,-inf", r"row \(Y, Dark\): count -inf is not finite"),
    ],
    ids=["two fields", "four fields", "not a number", "nan", "inf in X", "inf in Z", "-inf"],
)
def test_malformed_or_non_finite_counts_csv_is_a_config_error_naming_its_line_or_row(line, value, message):
    lines = list(_GOOD_CSV)
    lines[line - 1] = value
    with pytest.raises(ConfigError, match=message):
        counts_from_csv("\n".join(lines) + "\n")
    assert counts_from_csv("\n".join(_GOOD_CSV) + "\n").total_shots_per_basis == 10.0


def test_a_non_finite_total_is_a_config_error():
    with pytest.raises(ConfigError, match="not finite"):
        CountsTable((0.0, 0.0, 0.0), float("nan"))
    # Finite counts whose sum overflows.
    lines = ["basis,outcome,count"] + [f"{b},{o},1e308" for b in BASES for o in ("Bright", "Dark")]
    with pytest.raises(ConfigError, match="^total shots per basis inf is not finite$"):
        counts_from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "bright, total, message",
    [
        ((2.0, 0.5, 0.5), 1.0, r"^basis Z: Bright count 2.0 is not a number in \[0, 1.0\]$"),
        ((-3.0, 5.0, 5.0), 10.0, r"^basis Z: Bright count -3.0 is not a number in \[0, 10.0\]$"),
        ((float("nan"), 0.5, 0.5), 1.0, r"^basis Z: Bright count nan is not a number"),
        ((1.0, 0.5), 1.0, r"^a count table needs one Bright count per basis \('Z', 'X', 'Y'\), got 2$"),
    ],
    ids=["above the total", "negative", "nan", "two bases"],
)
def test_a_count_table_refuses_impossible_bright_counts(bright, total, message):
    # Built in code, not read from a CSV: no fit may see a negative Dark count.
    with pytest.raises(ConfigError, match=message):
        mle_state(CountsTable(bright, total))


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


def test_mle_state_takes_few_multiplier_steps_on_the_cli_eigenstate_tables():
    # The CLI's reconstructed process inputs: every eigenstate table has a
    # basis with a zero count (u_b = +-1) and lies outside the Bloch ball.
    for shots in (500, 10_000):
        for seed in range(1, 11):
            for idx, spec in enumerate(canonical_inputs()):
                rng = np.random.default_rng([seed, 0x1297, idx])
                table = simulate_state_tomography(DensityMatrix.from_pure(spec.pure()), shots, rng)
                _, diag = mle_state(table, return_diagnostics=True)
                assert 1 <= diag.iterations <= 6
                assert diag.gap == 0.0


def test_mle_state_from_finite_counts_is_close_and_physical():
    rng = np.random.default_rng(5)
    rho = density_from_bloch((0.6, 0.1, -0.3))
    est = mle_state(simulate_state_tomography(rho, 10_000, rng))
    assert trace_distance(est, rho) <= 0.05
    # DensityMatrix construction already enforces Hermitian/PSD/unit trace
    assert np.isclose(np.trace(est.matrix).real, 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# The closed-form state MLE against the optimality conditions and the
# diluted R-rho-R iteration it replaced

def reference_mle_state(counts, dilution=0.5, max_iters=10_000, tol=1e-10):
    """Diluted R-rho-R fixed point, as mle_state ran before its closed form.

    The dilution is halved whenever a step would lower the log-likelihood;
    the loop stops on a small step, a 100-step plateau, or once R rho = rho
    on the support and R <= 1 off it. Returns (rho, log-likelihood).
    """
    ns = np.array([c for _, _, c in counts.rows], dtype=float)
    freqs = ns / ns.sum()

    def loglik(rho):
        ps = np.einsum("jab,ba->j", _POVM, rho).real
        return float(np.sum(ns * np.log(np.clip(ps, 1e-300, None))))

    rho = np.eye(2, dtype=np.complex128) / 2.0
    lam, ll, plateau = dilution, loglik(rho), 0
    for _ in range(max_iters):
        ps = np.clip(np.einsum("jab,ba->j", _POVM, rho).real, 1e-12, None)
        r_op = np.einsum("j,jab->ab", freqs / ps, _POVM)
        if float(np.max(np.abs(r_op @ rho - rho))) <= 1e-7:
            w, v = np.linalg.eigh(rho)
            kernel = v[:, w <= 1e-8]
            off = kernel.conj().T @ r_op @ kernel
            if off.size == 0 or float(np.max(np.linalg.eigvalsh(off).real)) <= 1.0 + 1e-7:
                break
        cand = (1.0 - lam) * rho + lam * (r_op @ rho @ r_op)
        cand = cand / np.real(np.trace(cand))
        cand = 0.5 * (cand + cand.conj().T)
        ll_cand = loglik(cand)
        if ll_cand < ll - 1e-12:
            if lam <= 1e-6:
                break
            lam = 0.5 * lam
            continue
        delta = float(np.max(np.abs(cand - rho)))
        plateau = plateau + 1 if ll_cand - ll <= 1e-12 * max(1.0, abs(ll)) else 0
        rho, ll = cand, ll_cand
        if delta <= tol or plateau >= 100:
            break
    return DensityMatrix(rho), ll


def criterion_5_tables(trials=range(100)):
    """The tables of test_criterion_5_mle_statistical_recovery, same seeds."""
    tables = []
    for trial in trials:
        rng = np.random.default_rng([2026, trial])
        if trial % 2 == 0:
            rho = DensityMatrix.from_pure(random_pure_state(rng).amplitudes)
        else:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = g @ g.conj().T
            rho = DensityMatrix(m / np.trace(m).real)
        tables.append(simulate_state_tomography(rho, 100_000, rng))
    return tables


def state_tables(n_random=300, c5_trials=range(100)):
    """Named sets of tables for the state-MLE checks."""
    existing = [simulate_state_tomography(DensityMatrix.from_pure(s.ket())) for s in canonical_inputs()]
    existing.append(simulate_state_tomography(density_from_bloch((0.3, -0.4, 0.2))))
    rng = np.random.default_rng(5)
    existing.append(simulate_state_tomography(density_from_bloch((0.6, 0.1, -0.3)), 10_000, rng))
    existing.append(teleported_counts(canonical_inputs()[4]))
    # The CLI's reconstructed process inputs: ideal states at 1e4 shots; the
    # eigenstates give bases with a zero count.
    cli_inputs = [
        simulate_state_tomography(
            DensityMatrix.from_pure(spec.pure()), 10_000, np.random.default_rng([seed, 0x1297, idx])
        )
        for seed in (1, 2)
        for idx, spec in enumerate(canonical_inputs())
    ]
    rng = np.random.default_rng(77)
    random_tables = []
    for k in range(n_random):
        if k % 2:
            rho = DensityMatrix.from_pure(random_pure_state(rng).amplitudes)
        else:
            v = rng.normal(size=3)
            rho = density_from_bloch(v / np.linalg.norm(v) * rng.uniform() ** (1 / 3))
        random_tables.append(simulate_state_tomography(rho, int(rng.integers(10, 2001)), rng))
    edge = [CountsTable((5.0, 5.0, 5.0), 5.0), CountsTable((1.0, 0.0, 1.0), 1.0)]
    return {
        "existing": existing,
        "criterion 5": criterion_5_tables(c5_trials),
        "cli inputs": cli_inputs,
        "random": random_tables,
        "zero counts": edge,
    }


def linear_inversion(table):
    """(m, a) per basis in BASES order: m_b = s_b (n_b+ - n_b-), a_b = n_b+ + n_b-."""
    ns = np.array([c for _, _, c in table.rows], dtype=float).reshape(3, 2)
    return np.array([1.0, -1.0, -1.0]) * (ns[:, 0] - ns[:, 1]), ns.sum(axis=1)


def test_mle_state_meets_the_optimality_conditions():
    outside = 0
    for name, tables in state_tables().items():
        for table in tables:
            m, a = linear_inversion(table)
            r = bloch_vector(mle_state(table))[[2, 0, 1]]  # (x, y, z) -> BASES order
            if np.sum((m / a) ** 2) <= 1.0:
                assert np.max(np.abs(r - m / a)) <= 1e-12, name
                continue
            outside += 1
            # On the sphere the gradient of the log-likelihood in r is 2 mu r, mu >= 0.
            assert abs(r @ r - 1.0) <= 1e-12, name
            grad = (m - a * r) / (1.0 - r * r)
            mu2 = grad @ r
            assert mu2 >= 0.0, name
            assert np.linalg.norm(grad - mu2 * r) <= 1e-9 * np.linalg.norm(grad), name
    assert outside >= 100


def test_mle_state_is_at_least_as_likely_as_the_iterative_oracle():
    # The oracle runs about 50 ms per criterion-5 table; every fifth of them
    # and a third of the random tables keep this test under three seconds.
    tables = state_tables(n_random=100, c5_trials=range(0, 100, 5))
    for name, group in tables.items():
        for table in group:
            est, diag = mle_state(table, return_diagnostics=True)
            oracle, oracle_ll = reference_mle_state(table)
            assert diag.converged and diag.log_likelihood >= oracle_ll - 1e-9 * abs(oracle_ll), name
            if name == "existing":
                assert trace_distance(est, oracle) <= 1e-6


def test_mle_state_normalises_pure_tables_outside_the_ball_by_roundoff():
    rng = np.random.default_rng(2024)
    outside = 0
    for _ in range(2000):
        psi = random_pure_state(rng)
        table = simulate_state_tomography(DensityMatrix.from_pure(psi.amplitudes))
        m, a = linear_inversion(table)
        outside += np.sum((m / a) ** 2) > 1.0
        est, diag = mle_state(table, return_diagnostics=True)
        assert 1.0 - state_fidelity(est, psi) <= 1e-12
        assert diag.iterations == 0
    assert outside >= 500


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
    # A stack is checked by the same rules, and its error names the failing member.
    good = chi_ideal_identity()
    for member in (bad, 0.5 * chi_ideal_identity(), np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)):
        with pytest.raises(InvariantViolation) as single:
            ProcessMatrix(member)
        with pytest.raises(InvariantViolation) as stacked:
            checked_chi(np.array([good, member, good]))
        assert str(stacked.value) == str(single.value).replace("chi", "chi[1]", 1)
    assert checked_chi(np.array([good, good, good])).shape == (3, 4, 4)
    with pytest.raises(DimensionMismatch):
        checked_chi(np.zeros((3, 4, 3)))


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
    # A rank-1 optimum lies on the boundary of the PSD cone.
    assert diag.iterations <= 60
    assert 0.0 <= diag.gap <= 1e-12 * 12


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
    assert a.shape == (4, 4, 4)
    assert all(np.allclose(x, y) for x, y in zip(a, b))
    spread = np.std(a[:, 0, 0].real)
    assert spread > 0.0
    with pytest.raises(ConfigError):
        bootstrap_process(FOUR_INPUTS, exact_tables(chi_true, FOUR_INPUTS), resamples=2)


# ---------------------------------------------------------------------------
# The barrier Newton fit against the congruence loop it replaced

_TP_PINV = np.linalg.pinv(_TP_MAP)


def input_trace(chi):
    """sum_mn chi_mn A_n^dagger A_m, the identity iff chi is trace-preserving."""
    return sum(chi[m, n] * (PAULIS[n] @ PAULIS[m]) for m in range(4) for n in range(4))


def physical_polish(chi):
    """Alternate the orthogonal TP projection and PSD clipping until chi is both."""
    for _ in range(200):
        d = np.eye(2) - input_trace(chi)
        coeffs = _TP_PINV @ np.array([d[0, 0].real, d[1, 1].real, d[0, 1].real, d[0, 1].imag])
        chi = chi + np.einsum("k,kab->ab", coeffs, _HERM_BASIS)
        chi = 0.5 * (chi + chi.conj().T)
        w, v = np.linalg.eigh(chi)
        if w[0] >= -1e-11:
            return chi
        chi = (v * np.clip(w, 0.0, None)) @ v.conj().T
    raise InvariantViolation("alternating TP/PSD projections failed to settle")


def sequential_tp_normalize(chi):
    lam = input_trace(chi)
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
    """The congruence loop mle_process ran before the barrier Newton solve.

    Each step is chi <- S chi S with S = (1-a) N 1 + a G, then the lam^(-1/2)
    congruence that restores trace preservation; a halves until the
    log-likelihood does not fall. It stops at a small tangent gradient, when
    no such step exists, or after a 100-step plateau at the boundary.
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
    return physical_polish(chi), converged, iterations, history, rule


def assert_fits_match(fits, diags, ns, oracle):
    """Each fit is certified, at least as likely as the oracle's up to its own
    gap, equal to it on interior optima, and quick on boundary ones."""
    for result, diag, n, (chi, converged, _, history, _) in zip(fits, diags, ns, oracle):
        assert converged and diag.converged
        assert 0.0 <= diag.gap <= 1e-12 * n.sum()
        assert diag.log_likelihood >= history[-1] - diag.gap
        assert tp_defect(result) <= 1e-14
        if np.linalg.eigvalsh(chi)[0] > 1e-3:
            assert np.max(np.abs(result - chi)) <= 1e-6
        else:
            assert diag.iterations <= 60


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
    assert_fits_match(batched, diags, ns, oracle)
    assert sum(np.linalg.eigvalsh(o[0])[0] < 1e-6 for o in oracle) >= 2
    assert sum(np.linalg.eigvalsh(o[0])[0] > 1e-2 for o in oracle) >= 2


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
    chi0 = sequential_tp_normalize(physical_polish(start))
    redraw = np.random.default_rng([7, 0xB007])
    oracle, ns = [], []
    for _ in range(6):
        redrawn = [
            CountsTable(tuple(float(redraw.binomial(800, t.bright_fraction(b))) for b in BASES), 800.0)
            for t in tables
        ]
        ns.append(np.array([c for t in redrawn for _, _, c in t.rows]))
        oracle.append(sequential_fit(h_ops, ns[-1], chi0))
    assert_fits_match(resamples, diags, ns, oracle)


def test_an_unphysical_start_gives_the_cold_start_fit():
    rng = np.random.default_rng(3)
    tables = [
        simulate_state_tomography(DensityMatrix(apply_chi(depolarizing_chi(0.3), r.matrix)), 800, rng)
        for r in FOUR_INPUTS
    ]
    start = depolarizing_chi(0.3) + np.diag([0.12525, -0.12525, 0.0, 0.0]) + 2.5e-4 * np.eye(4)
    assert np.linalg.eigvalsh(start)[0] == pytest.approx(-0.05, abs=1e-12)
    assert tp_defect(start) == pytest.approx(1e-3, abs=1e-12)
    cold = mle_process(FOUR_INPUTS, tables)
    warm, diag = mle_process(FOUR_INPUTS, tables, start=start, return_diagnostics=True)
    assert diag.converged
    assert np.max(np.abs(warm.chi - cold.chi)) <= 1e-6


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
    assert bootstrap_process(FOUR_INPUTS, tables, resamples=0).shape == (0, 4, 4)


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
    with pytest.raises(DimensionMismatch):
        AffineMap(np.eye(3), np.eye(3), np.zeros(2))
    with pytest.raises(DimensionMismatch):  # a stack of O with one S would broadcast unseen
        AffineMap(np.array([np.eye(3)] * 2), np.eye(3), np.zeros((2, 3)))
    with pytest.raises(InvariantViolation, match=r"^O\[1\] is not orthogonal"):
        AffineMap(np.array([np.eye(3), 2 * np.eye(3)]), np.array([np.eye(3)] * 2), np.zeros((2, 3)))


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


def test_a_stack_of_chi_decomposes_as_its_members_do():
    # The optimal universal-NOT channel, r -> -r/3, has an improper O = -1 and
    # so no rotation angle; seeds 0-4 give proper ones.
    universal_not = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex) / 3.0
    chis = np.array([random_cptp_qubit_channel(seed) for seed in range(5)] + [universal_not])
    stack = affine_decompose(chis)
    members = [affine_decompose(chi) for chi in chis]
    for name in ("O", "S", "b", "s_eigenvalues", "det_o"):
        each = np.array([getattr(m, name) for m in members])
        assert np.max(np.abs(getattr(stack, name) - each)) <= 1e-12, name
    assert np.allclose(members[-1].O, -np.eye(3), atol=1e-12) and stack.det_o[-1] < 0
    assert [m.rotation_angle is None for m in members] == [False] * 5 + [True]
    assert np.isnan(stack.rotation_angle).tolist() == [False] * 5 + [True]
    assert np.max(np.abs(stack.rotation_angle[:5] - [m.rotation_angle for m in members[:5]])) <= 1e-12


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


@pytest.mark.parametrize("resolution", [8, 24])
def test_ellipsoid_mesh_maps_each_grid_point_of_the_sphere(resolution):
    # Row i * resolution + j is the image of the unit vector at the i-th
    # polar angle (0 to pi, both ends) and j-th azimuth (0 to 2 pi, open).
    amap = affine_decompose(random_cptp_qubit_channel(7))
    ms = amap.O @ amap.S
    expected = [
        ms @ np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]) + amap.b
        for th in np.linspace(0.0, math.pi, resolution)
        for ph in np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    ]
    assert np.max(np.abs(ellipsoid_mesh(amap, resolution) - np.array(expected))) <= 1e-15


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


@pytest.mark.parametrize("sampling, exact_runs", [("per-shot", 0), ("fast", 1)])
def test_bright_counts_runs_the_exact_engine_only_for_counts_drawn_from_it(monkeypatch, sampling, exact_runs):
    # Trajectory counts never pay for exact runs: at paper noise with
    # uncorrelated dephasing those cost several times the trajectories.
    calls = []
    monkeypatch.setattr(tomography, "exact_run", lambda *a, **k: calls.append(1) or exact_run(*a, **k))
    noise = NoiseConfig(depolarizing_per_pulse=0.05)
    specs = [canonical_inputs()[0], canonical_inputs()[4]]
    seqs = [build_sequence(spec) for spec in specs]
    runs, counts = bright_counts([(seq,) for seq in seqs], noise, 6, 3, sampling=sampling, tag=7)
    assert len(calls) == exact_runs and (runs is None) == (exact_runs == 0)
    if runs is None:  # sequence j counts shots j * 6 + i of seed 3
        expected = [int(run_shot(seq, noise, 3, range(6 * j, 6 * j + 6)).final.sum()) for j, seq in enumerate(seqs)]
    else:  # sequence j draws once from default_rng([seed, tag, j])
        expected = [int(np.random.default_rng([3, 7, j]).binomial(6, min(max(res.p_bright[0], 0.0), 1.0)))
                    for j, res in enumerate(runs)]
    assert counts == expected


@pytest.mark.parametrize("shots, sampling, runs", [(0, "auto", []), (6, "fast", []), (6, "per-shot", None)])
def test_bright_counts_of_no_tables_are_no_counts_on_every_route(shots, sampling, runs):
    # The per-shot route must not ask run_shot to plan the rows of no table.
    assert bright_counts([], NoiseConfig(depolarizing_per_pulse=0.05), shots, 3, sampling=sampling) == (runs, [])


@pytest.mark.parametrize("shots, sampling", [(0, "auto"), (6, "fast"), (6, "per-shot")])
def test_an_empty_seed_list_is_a_config_error_on_every_route(shots, sampling):
    # The seed-group check divides by the number of seeds: no seed once raised ZeroDivisionError.
    noise = NoiseConfig(depolarizing_per_pulse=0.05)
    for tables in ([(build_sequence(canonical_inputs()[0]),)], []):
        with pytest.raises(ConfigError, match="into 0 seed groups"):
            bright_counts(tables, noise, shots, [], sampling=sampling)


def test_bright_counts_at_zero_shots_are_each_runs_p_bright_input_major():
    noise = NoiseConfig(depolarizing_per_pulse=0.05)
    specs = [canonical_inputs()[0], canonical_inputs()[4], canonical_inputs()[2]]
    modes = (Tomography("z"), Tomography("x"), Tomography("y"))
    tables = [tuple(build_sequence(spec, 0.0, m) for m in modes) for spec in specs]
    runs, counts = bright_counts(tables, noise, 0, 3)
    assert counts == [p for res in runs for p in res.p_bright]
    alone = [exact_run([(seq,)], noise)[0].p_bright[0] for t in tables for seq in t]
    assert counts == pytest.approx(alone, abs=1e-15)
    assert len(set(np.round(counts, 6))) > 3  # the order is visible


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

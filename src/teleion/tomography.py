"""Qubit state and process tomography with maximum-likelihood reconstruction.

Measurement model: each basis setting applies a pre-rotation V_b to the state,
then the detector projects onto S (Bright) vs D (Dark). Under this repo's
rotation convention V_X = R(pi/2, 3pi/2) and V_Y = R(pi/2, pi), so

    P(Bright | X) = (1 - r_x) / 2,   P(Bright | Y) = (1 - r_y) / 2,
    P(Bright | Z) = (1 + r_z) / 2.

State reconstruction uses the diluted iterative fixed-point scheme
rho <- normalize[(1-lambda) rho + lambda R rho R]; process reconstruction
parameterizes chi >= 0 implicitly through congruence updates
chi <- (1+eta G) chi (1+eta G) with a trace-preservation projection after
every step, which is gradient ascent in the Cholesky factor.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvariantViolation
from .noise import NoiseConfig
from .protocol import InputStateSpec, Tomography, build_sequence, exact_run, sample_counts
from .protocol import run_shot  # noqa: F401  perfbench/spans.py traces this binding
from .qcore import (
    ATOL_SPECTRAL,
    DensityMatrix,
    PAULIS,
    dag,
    density_from_bloch,
)
from .trap import rotation_2x2

BASES = ("Z", "X", "Y")
OUTCOMES = ("Bright", "Dark")
_TOMO_TAG = 0x70B0
_BOOT_TAG = 0xB007

_KET_S = np.array([1.0, 0.0], dtype=np.complex128)
_KET_D = np.array([0.0, 1.0], dtype=np.complex128)


def basis_prerotation(basis: str) -> np.ndarray:
    """Analysis pulse applied before the Bright/Dark readout."""
    if basis == "Z":
        return np.eye(2, dtype=np.complex128)
    if basis == "X":
        return rotation_2x2(0.5 * math.pi, 1.5 * math.pi)
    if basis == "Y":
        return rotation_2x2(0.5 * math.pi, math.pi)
    raise ConfigError(f"unknown basis {basis!r}")


def measurement_operators(basis: str) -> tuple[np.ndarray, np.ndarray]:
    """(Pi_bright, Pi_dark) POVM elements in the unrotated frame."""
    v = basis_prerotation(basis)
    pi_b = dag(v) @ np.outer(_KET_S, _KET_S.conj()) @ v
    return pi_b, dag(v) @ np.outer(_KET_D, _KET_D.conj()) @ v


@dataclass(frozen=True)
class CountsTable:
    """Bright/Dark counts for the three Pauli bases, in canonical row order.

    `total_shots_per_basis` may be a float: exact-probability tables store the
    Born probabilities themselves with a per-basis total of 1.0.
    """

    rows: tuple[tuple[str, str, float], ...]
    total_shots_per_basis: float

    def __post_init__(self):
        expected = [(b, o) for b in BASES for o in OUTCOMES]
        got = [(b, o) for b, o, _ in self.rows]
        if got != expected:
            raise ConfigError(f"counts rows must be ordered {expected}, got {got}")
        for basis in BASES:
            subtotal = sum(c for b, _, c in self.rows if b == basis)
            if abs(subtotal - self.total_shots_per_basis) > 1e-9 * max(
                1.0, self.total_shots_per_basis
            ):
                raise ConfigError(
                    f"basis {basis} counts sum to {subtotal}, "
                    f"expected {self.total_shots_per_basis}"
                )
        if any(c < 0 for _, _, c in self.rows):
            raise ConfigError("negative count")

    def count(self, basis: str, outcome: str) -> float:
        for b, o, c in self.rows:
            if b == basis and o == outcome:
                return c
        raise ConfigError(f"no row ({basis}, {outcome})")

    def bright_fraction(self, basis: str) -> float:
        return self.count(basis, "Bright") / self.total_shots_per_basis

    @staticmethod
    def from_bright_counts(bright: dict[str, float], total: float) -> "CountsTable":
        rows = []
        for b in BASES:
            # Exact probabilities can overshoot [0, total] by float roundoff.
            k = min(max(float(bright[b]), 0.0), float(total))
            rows.append((b, "Bright", k))
            rows.append((b, "Dark", total - k))
        return CountsTable(tuple(rows), total)


def counts_to_csv(table: CountsTable) -> str:
    def fmt(c: float) -> str:
        return str(int(c)) if float(c).is_integer() else repr(float(c))

    lines = ["basis,outcome,count"]
    lines += [f"{b},{o},{fmt(c)}" for b, o, c in table.rows]
    return "\n".join(lines) + "\n"


def counts_from_csv(text: str) -> CountsTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "basis,outcome,count":
        raise ConfigError("counts CSV must start with 'basis,outcome,count'")
    rows = []
    for ln in lines[1:]:
        b, o, c = ln.split(",")
        rows.append((b, o, float(c)))
    totals = {b: sum(c for bb, _, c in rows if bb == b) for b in BASES}
    total = totals[BASES[0]]
    return CountsTable(tuple(rows), total)


def bright_probabilities(state) -> dict[str, float]:
    rho = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
    if rho.shape != (2, 2):
        raise DimensionMismatch("tomography expects a single-qubit state")
    out = {}
    for b in BASES:
        pi_b, _ = measurement_operators(b)
        p = float(np.real(np.trace(pi_b @ rho)))
        out[b] = min(max(p, 0.0), 1.0)
    return out


def simulate_state_tomography(
    state, shots_per_basis: int = 0, rng: np.random.Generator | None = None
) -> CountsTable:
    """Measure a known state in the Z, X, Y bases.

    shots_per_basis = 0 emits the exact Born probabilities as a float-count
    table (total 1.0); otherwise binomial sampling from `rng` is used.
    """
    probs = bright_probabilities(state)
    if shots_per_basis == 0:
        return CountsTable.from_bright_counts(probs, 1.0)
    if shots_per_basis < 0:
        raise ConfigError("shots_per_basis must be >= 0")
    if rng is None:
        raise ConfigError("sampled tomography needs an rng")
    bright = {b: float(rng.binomial(shots_per_basis, probs[b])) for b in BASES}
    return CountsTable.from_bright_counts(bright, float(shots_per_basis))


# ---------------------------------------------------------------------------
# State reconstruction

@dataclass(frozen=True)
class MLEDiagnostics:
    converged: bool
    iterations: int
    log_likelihood: float
    ll_history: tuple[float, ...]


def _state_data(counts: CountsTable):
    projs, ns = [], []
    for b, o, c in counts.rows:
        pi_b, pi_d = measurement_operators(b)
        projs.append(pi_b if o == "Bright" else pi_d)
        ns.append(float(c))
    return np.array(projs), np.array(ns)


def mle_state(
    counts: CountsTable,
    *,
    dilution: float = 0.5,
    max_iters: int = 10_000,
    tol: float = 1e-10,
    return_diagnostics: bool = False,
):
    """Diluted R-rho-R maximum-likelihood state reconstruction.

    The dilution parameter is halved whenever a step would lower the
    log-likelihood, which keeps accepted iterates monotone. Besides the
    step-size tolerance, iteration stops once the optimality conditions hold:
    R rho = rho on the support and R <= 1 off it (rank-deficient optima are
    reached only asymptotically by the fixed point, so testing them directly
    avoids burning the iteration budget).
    """
    projs, ns = _state_data(counts)
    n_total = float(ns.sum())
    if n_total <= 0:
        raise ConfigError("empty counts table")
    freqs = ns / n_total

    def loglik(rho):
        ps = np.einsum("jab,ba->j", projs, rho).real
        return float(np.sum(ns * np.log(np.clip(ps, 1e-300, None))))

    rho = np.eye(2, dtype=np.complex128) / 2.0
    lam = dilution
    ll = loglik(rho)
    history = [ll]
    converged = False
    iterations = 0
    plateau = 0
    for iterations in range(1, max_iters + 1):
        ps = np.clip(np.einsum("jab,ba->j", projs, rho).real, 1e-12, None)
        r_op = np.einsum("j,jab->ab", freqs / ps, projs)
        fixed_point_gap = float(np.max(np.abs(r_op @ rho - rho)))
        if fixed_point_gap <= 1e-7:
            w, v = np.linalg.eigh(rho)
            kernel = v[:, w <= 1e-8]
            off = kernel.conj().T @ r_op @ kernel
            if off.size == 0 or float(np.max(np.linalg.eigvalsh(off).real)) <= 1.0 + 1e-7:
                converged = True
                break
        cand = (1.0 - lam) * rho + lam * (r_op @ rho @ r_op)
        cand = cand / np.real(np.trace(cand))
        cand = 0.5 * (cand + cand.conj().T)
        ll_cand = loglik(cand)
        if ll_cand < ll - 1e-12:
            if lam <= 1e-6:
                break  # stuck at numerical precision
            lam = 0.5 * lam
            continue
        delta = float(np.max(np.abs(cand - rho)))
        plateau = plateau + 1 if ll_cand - ll <= 1e-12 * max(1.0, abs(ll)) else 0
        rho, ll = cand, ll_cand
        history.append(ll)
        if delta <= tol or plateau >= 100:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"mle_state stopped after {iterations} iterations without meeting "
            f"the {tol} step tolerance",
            stacklevel=2,
        )
    result = DensityMatrix(rho)
    if return_diagnostics:
        return result, MLEDiagnostics(converged, iterations, ll, tuple(history))
    return result


# ---------------------------------------------------------------------------
# Process matrices (Pauli operator basis I, X, Y, Z)

_BASIS_LABELS = ("I", "X", "Y", "Z")


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_mn chi_mn A_m rho A_n^dagger."""
    out = np.zeros((2, 2), dtype=np.complex128)
    for m in range(4):
        for n in range(4):
            if chi[m, n] != 0:
                out += chi[m, n] * (PAULIS[m] @ rho @ dag(PAULIS[n]))
    return out


def channel_from_chi(chi) -> "callable":
    chi = chi.chi if isinstance(chi, ProcessMatrix) else np.asarray(chi)
    return lambda rho: apply_chi(chi, rho)


def chi_from_channel(channel) -> np.ndarray:
    """Linear inversion of the operator-sum expansion via the Choi matrix.

    Oracle path: no positivity or trace enforcement is applied, so the result
    faithfully exposes whatever map was passed in.
    """
    choi = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            e_ij = np.zeros((2, 2), dtype=np.complex128)
            e_ij[i, j] = 1.0
            choi += np.kron(np.asarray(channel(e_ij), dtype=np.complex128), e_ij)
    vecs = np.array([p.reshape(-1) for p in PAULIS])  # row-major vec
    return np.einsum("ma,ab,nb->mn", vecs.conj(), choi, vecs) / 4.0


def tp_defect(chi: np.ndarray) -> float:
    s = np.zeros((2, 2), dtype=np.complex128)
    for m in range(4):
        for n in range(4):
            s += chi[m, n] * (dag(PAULIS[n]) @ PAULIS[m])
    return float(np.max(np.abs(s - np.eye(2))))


@dataclass(frozen=True)
class ProcessMatrix:
    """Validated chi matrix: Hermitian, PSD, trace-preserving."""

    chi: np.ndarray

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=np.complex128)
        object.__setattr__(self, "chi", chi)
        if chi.shape != (4, 4):
            raise DimensionMismatch(f"chi must be 4x4, got {chi.shape}")
        if np.max(np.abs(chi - chi.conj().T)) > 1e-10:
            raise InvariantViolation("chi is not Hermitian within 1e-10")
        if float(np.min(np.linalg.eigvalsh(chi))) < -1e-10:
            raise InvariantViolation("chi has eigenvalues below -1e-10")
        if tp_defect(chi) > 1e-8:
            raise InvariantViolation("chi is not trace-preserving within 1e-8")


def chi_ideal_identity() -> np.ndarray:
    chi = np.zeros((4, 4), dtype=np.complex128)
    chi[0, 0] = 1.0
    return chi


def _as_chi(x) -> np.ndarray:
    return x.chi if isinstance(x, ProcessMatrix) else np.asarray(x, dtype=np.complex128)


def process_fidelity(chi, chi_ideal) -> float:
    """trace(chi_ideal @ chi); warns when the ideal is not a unitary channel."""
    a, b = _as_chi(chi), _as_chi(chi_ideal)
    ideal_eigs = np.linalg.eigvalsh(b)
    if int(np.sum(ideal_eigs > 1e-10)) != 1:
        warnings.warn("chi_ideal is not rank-1; overlap is not a process fidelity", stacklevel=2)
    val = complex(np.trace(b @ a))
    if abs(val.imag) > 1e-10:
        raise InvariantViolation(f"process fidelity not real: {val}")
    f = val.real
    if f < -ATOL_SPECTRAL or f > 1.0 + ATOL_SPECTRAL:
        raise InvariantViolation(f"process fidelity out of range: {f}")
    return min(max(f, 0.0), 1.0)


_SIX_AXES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def average_fidelity(channel) -> float:
    """Mean input-output overlap over the six Pauli eigenstates.

    For qubit channels this equals the Haar average, so it is computed
    directly from the channel action rather than through the process-fidelity
    relation (the two routes stay independent checks of each other).
    """
    fn = channel if callable(channel) else channel_from_chi(channel)
    total = 0.0
    for axis in _SIX_AXES:
        rho_in = density_from_bloch(axis).matrix
        total += float(np.real(np.trace(rho_in @ np.asarray(fn(rho_in)))))
    return total / 6.0


def avg_from_process_fidelity(f_proc: float) -> float:
    if not -1e-12 <= f_proc <= 1.0 + 1e-12:
        raise ConfigError(f"process fidelity out of [0, 1]: {f_proc}")
    return (2.0 * f_proc + 1.0) / 3.0


# ---------------------------------------------------------------------------
# Process reconstruction

def _hermitian_basis_4() -> list[np.ndarray]:
    basis = []
    for a in range(4):
        m = np.zeros((4, 4), dtype=np.complex128)
        m[a, a] = 1.0
        basis.append(m)
    for a in range(4):
        for b in range(a + 1, 4):
            m = np.zeros((4, 4), dtype=np.complex128)
            m[a, b] = m[b, a] = 1.0 / math.sqrt(2.0)
            basis.append(m)
            m = np.zeros((4, 4), dtype=np.complex128)
            m[a, b] = 1j / math.sqrt(2.0)
            m[b, a] = -1j / math.sqrt(2.0)
            basis.append(m)
    return basis


def _herm2_coords(m: np.ndarray) -> np.ndarray:
    return np.array([m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag])


class _TPProjector:
    """Orthogonal (Frobenius) projection onto the trace-preserving subspace."""

    def __init__(self):
        self.basis = _hermitian_basis_4()
        cols = []
        for h in self.basis:
            s = np.zeros((2, 2), dtype=np.complex128)
            for m in range(4):
                for n in range(4):
                    if h[m, n] != 0:
                        s += h[m, n] * (dag(PAULIS[n]) @ PAULIS[m])
            cols.append(_herm2_coords(s))
        self.tmat = np.array(cols).T  # 4 x 16
        self.pinv = np.linalg.pinv(self.tmat)

    def project(self, chi: np.ndarray) -> np.ndarray:
        defect = np.eye(2, dtype=np.complex128)
        for m in range(4):
            for n in range(4):
                if chi[m, n] != 0:
                    defect -= chi[m, n] * (dag(PAULIS[n]) @ PAULIS[m])
        coeffs = self.pinv @ _herm2_coords(defect)
        out = chi.copy()
        for c, h in zip(coeffs, self.basis):
            out = out + c * h
        return out

    def tangent_norm(self, g: np.ndarray) -> float:
        coords = np.array([np.real(np.trace(h @ g)) for h in self.basis])
        tangent = coords - self.pinv @ (self.tmat @ coords)
        return float(np.linalg.norm(tangent))


_TP = _TPProjector()


def _psd_clip(chi: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (chi + chi.conj().T))
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def _physical_polish(chi: np.ndarray) -> np.ndarray:
    for _ in range(200):
        chi = _TP.project(chi)
        if float(np.min(np.linalg.eigvalsh(chi))) >= -1e-11:
            return 0.5 * (chi + chi.conj().T)
        chi = _psd_clip(chi)
    raise InvariantViolation("alternating TP/PSD projections failed to settle")


_PAULI_PRODUCTS = np.array([[PAULIS[n] @ PAULIS[m] for m in range(4)] for n in range(4)])


def _tp_normalize(chi: np.ndarray) -> np.ndarray:
    """Restore trace preservation by the congruence chi -> M chi M†.

    M expands A_m lam^{-1/2} in the Pauli basis, lam being the input-side
    trace operator of chi. Unlike an orthogonal projection this keeps chi
    PSD exactly, so likelihood ascent steps stay inside the CPTP set.
    """
    lam = np.einsum("mn,nmab->ab", chi, _PAULI_PRODUCTS)
    w, v = np.linalg.eigh(0.5 * (lam + lam.conj().T))
    l_inv_sqrt = (v / np.sqrt(np.clip(w, 1e-18, None))) @ v.conj().T
    c = np.array(
        [[0.5 * np.trace(PAULIS[k] @ PAULIS[m] @ l_inv_sqrt) for k in range(4)]
         for m in range(4)]
    )
    out = c.T @ chi @ c.conj()
    return 0.5 * (out + out.conj().T)


def _input_rank(inputs: list[np.ndarray]) -> int:
    rows = [[float(np.real(np.trace(p @ r))) for p in PAULIS] for r in inputs]
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(s > 1e-8))


def mle_process(
    inputs,
    outputs,
    *,
    max_iters: int = 10_000,
    grad_tol: float = 1e-8,
    start: np.ndarray | None = None,
    return_diagnostics: bool = False,
):
    """Maximum-likelihood CPTP process matrix from tomography counts.

    `inputs` are the prepared states (DensityMatrix or 2x2 arrays), `outputs`
    the corresponding CountsTables. Each step is a diluted congruence update
    chi <- S chi S with S = (1-a) N 1 + a G, followed by the lam^(-1/2)
    congruence that restores trace preservation without leaving the PSD cone;
    a backtracks until the likelihood is non-decreasing. Stops at small
    tangent gradient or when accepted steps stall (rank-deficient optima sit
    on the boundary, where the projected gradient need not vanish).
    """
    rhos = [x.matrix if isinstance(x, DensityMatrix) else np.asarray(x, dtype=np.complex128) for x in inputs]
    if len(rhos) != len(outputs):
        raise ConfigError(f"{len(rhos)} inputs vs {len(outputs)} count tables")
    if _input_rank(rhos) < 4:
        raise ConfigError("need at least 4 linearly independent input states")

    h_ops, ns = [], []
    for rho_in, table in zip(rhos, outputs):
        for b, o, c in table.rows:
            pi_b, pi_d = measurement_operators(b)
            pi = pi_b if o == "Bright" else pi_d
            k = np.array(
                [[np.trace(dag(PAULIS[n]) @ pi @ PAULIS[m] @ rho_in) for n in range(4)]
                 for m in range(4)]
            )
            h_ops.append(k.conj())  # Hermitian; p_j = tr(H_j chi)
            ns.append(float(c))
    h_ops = np.array(h_ops)
    ns = np.array(ns)
    n_total = float(ns.sum())
    if n_total <= 0:
        raise ConfigError("empty counts tables")

    def probs(chi):
        return np.clip(np.einsum("jmn,nm->j", h_ops, chi).real, 1e-12, None)

    def loglik(chi):
        return float(np.sum(ns * np.log(probs(chi))))

    chi = np.eye(4, dtype=np.complex128) / 4.0 if start is None else _physical_polish(
        np.asarray(start, dtype=np.complex128)
    )
    chi = _tp_normalize(chi)
    ll = loglik(chi)
    history = [ll]
    converged = False
    iterations = 0
    alpha = 1.0
    plateau = 0
    eye4 = np.eye(4, dtype=np.complex128)
    for iterations in range(1, max_iters + 1):
        ps = probs(chi)
        grad = np.einsum("j,jmn->mn", ns / ps, h_ops)
        grad = 0.5 * (grad + grad.conj().T)
        if _TP.tangent_norm(grad) / n_total <= grad_tol:
            converged = True
            break
        a = alpha
        accepted = False
        for _ in range(60):
            s_op = (1.0 - a) * n_total * eye4 + a * grad
            cand = _tp_normalize(s_op @ chi @ s_op)
            ll_cand = loglik(cand)
            if ll_cand >= ll - 1e-12:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            converged = True  # no uphill physical step exists: boundary optimum
            break
        delta = float(np.max(np.abs(cand - chi)))
        # Boundary (rank-deficient) optima creep sublinearly and never meet
        # the tangent-gradient test; once the likelihood stalls at machine
        # precision for 100 straight steps there, call it converged. Interior
        # optima are left to the gradient criterion, which is sharper.
        at_boundary = float(np.linalg.eigvalsh(cand)[0]) < 1e-6
        stalled = ll_cand - ll <= 1e-12 * max(1.0, abs(ll))
        plateau = plateau + 1 if (at_boundary and stalled) else 0
        chi, ll = cand, ll_cand
        history.append(ll)
        alpha = min(1.0, 2.0 * a)
        if delta <= 1e-11 or plateau >= 100:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"mle_process stopped after {iterations} iterations without convergence",
            stacklevel=2,
        )
    result = ProcessMatrix(_physical_polish(chi))
    if return_diagnostics:
        return result, MLEDiagnostics(converged, iterations, ll, tuple(history))
    return result


def bootstrap_process(
    inputs,
    outputs,
    *,
    resamples: int = 200,
    seed: int = 0,
    start: np.ndarray | None = None,
    max_iters: int = 10_000,
) -> list[ProcessMatrix]:
    """Parametric bootstrap: redraw binomial counts, re-run the MLE.

    Requires integer-total count tables (sampled data); exact-probability
    tables carry no statistical uncertainty to resample.
    """
    for t in outputs:
        counts_ok = all(float(c).is_integer() for _, _, c in t.rows)
        if (
            not float(t.total_shots_per_basis).is_integer()
            or t.total_shots_per_basis < 1
            or not counts_ok
        ):
            raise ConfigError("bootstrap needs sampled (integer-count) tables")
    rng = np.random.default_rng([int(seed), _BOOT_TAG])
    out = []
    for _ in range(resamples):
        redrawn = []
        for t in outputs:
            total = int(t.total_shots_per_basis)
            bright = {
                b: float(rng.binomial(total, t.bright_fraction(b))) for b in BASES
            }
            redrawn.append(CountsTable.from_bright_counts(bright, float(total)))
        out.append(mle_process(inputs, redrawn, start=start, max_iters=max_iters))
    return out


# ---------------------------------------------------------------------------
# Affine Bloch-sphere picture

@dataclass(frozen=True)
class AffineMap:
    """r_out = O @ S @ r_in + b: rotation, anisotropic shrink, displacement."""

    O: np.ndarray
    S: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.O, dtype=float)
        s = np.asarray(self.S, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "O", o)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "b", b)
        if np.max(np.abs(o @ o.T - np.eye(3))) > 1e-10:
            raise InvariantViolation("O is not orthogonal within 1e-10")
        if np.max(np.abs(s - s.T)) > 1e-10:
            raise InvariantViolation("S is not symmetric within 1e-10")
        if float(np.min(np.linalg.eigvalsh(s))) < -1e-10:
            raise InvariantViolation("S has eigenvalues below -1e-10")
        if float(np.linalg.norm(b)) > 1.0 + 1e-10:
            raise InvariantViolation("displacement leaves the unit ball")

    @property
    def det_o(self) -> float:
        return float(np.linalg.det(self.O))

    @property
    def rotation_angle(self) -> float | None:
        """Rotation angle of O in radians; None for det(O) = -1."""
        if self.det_o < 0:
            return None
        c = (float(np.trace(self.O)) - 1.0) / 2.0
        return math.acos(min(max(c, -1.0), 1.0))

    @property
    def s_eigenvalues(self) -> np.ndarray:
        return np.sort(np.linalg.eigvalsh(self.S))[::-1]


def pauli_transfer(chi) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) with M_ij = tr(sigma_i E(sigma_j))/2 and b_i = tr(sigma_i E(I))/2."""
    fn = channel_from_chi(chi)
    m = np.zeros((3, 3))
    for j in range(3):
        out = fn(PAULIS[j + 1])
        for i in range(3):
            val = complex(np.trace(PAULIS[i + 1] @ out)) / 2.0
            if abs(val.imag) > 1e-9:
                raise InvariantViolation("transfer matrix has imaginary parts")
            m[i, j] = val.real
    out = fn(np.eye(2, dtype=np.complex128))
    b = np.array([float(np.real(np.trace(PAULIS[i + 1] @ out))) / 2.0 for i in range(3)])
    return m, b


def affine_decompose(chi) -> AffineMap:
    """Polar-decompose the Bloch transfer matrix into rotation x shrink."""
    m, b = pauli_transfer(chi)
    u, sig, vt = np.linalg.svd(m)
    o = u @ vt
    s = vt.T @ np.diag(sig) @ vt
    return AffineMap(o, 0.5 * (s + s.T), b)


def ellipsoid_mesh(amap: AffineMap, resolution: int = 24) -> np.ndarray:
    """Images of a latitude-longitude unit-sphere grid, shape (resolution^2, 3)."""
    if resolution < 8:
        raise ConfigError("resolution must be >= 8")
    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    pts = []
    ms = amap.O @ amap.S
    for th in thetas:
        for ph in phis:
            r = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
            pts.append(ms @ r + amap.b)
    return np.array(pts)


# ---------------------------------------------------------------------------
# Protocol bridge: tomography of the teleported qubit

def resolve_sampling(noise: NoiseConfig, sampling: str) -> str:
    """'fast' draws from the exact joint distribution (equal in law to per-shot
    sampling when every shot's noise is iid); amplitude noise forces per-shot."""
    if sampling not in ("auto", "fast", "per-shot"):
        raise ConfigError(f"unknown sampling mode {sampling!r}")
    if sampling == "auto":
        return "per-shot" if noise.amplitude_error_sigma > 0 else "fast"
    if sampling == "fast" and noise.amplitude_error_sigma > 0:
        raise ConfigError("fast sampling cannot represent per-shot amplitude noise")
    return sampling


def teleported_counts(
    input_state: InputStateSpec,
    noise: NoiseConfig = NoiseConfig(),
    shots_per_basis: int = 0,
    *,
    master_seed: int = 1234,
    phase_offset: float = 0.0,
    sampling: str = "auto",
    quad_points: int | None = None,
    fock_cutoff: int = 4,
    spin_echo: bool = True,
    standby_wait_us: float = 1.0,
    rephase_wait_us: float = 300.0,
) -> CountsTable:
    """Run the full sequence in tomography mode for the three bases.

    shots_per_basis = 0 emits exact reported-outcome probabilities.
    """
    seq_kwargs = dict(
        spin_echo=spin_echo,
        standby_wait_us=standby_wait_us,
        rephase_wait_us=rephase_wait_us,
    )
    modes = tuple(Tomography(basis.lower()) for basis in BASES)
    p_bright = None
    if shots_per_basis == 0 or resolve_sampling(noise, sampling) == "fast":
        res = exact_run(
            input_state,
            phase_offset,
            noise,
            modes,
            quad_points=quad_points,
            fock_cutoff=fock_cutoff,
            **seq_kwargs,
        )
        p_bright = [res.p_bright[m] for m in modes]
        if shots_per_basis == 0:
            return CountsTable.from_bright_counts(dict(zip(BASES, p_bright)), 1.0)
    counts = sample_counts(
        [build_sequence(input_state, phase_offset, m, **seq_kwargs) for m in modes],
        noise,
        shots_per_basis,
        master_seed,
        p_bright=p_bright,
        tag=_TOMO_TAG,
        fock_cutoff=fock_cutoff,
    )
    return CountsTable.from_bright_counts(dict(zip(BASES, counts)), float(shots_per_basis))


# ---------------------------------------------------------------------------
# Serialization (deterministic, diff-friendly)

def _matrix_obj(m: np.ndarray) -> dict:
    m = np.asarray(m)
    return {
        "real": [[float(x) for x in row] for row in m.real],
        "imag": [[float(x) for x in row] for row in m.imag],
    }


def _matrix_from_obj(obj) -> np.ndarray:
    return np.array(obj["real"]) + 1j * np.array(obj["imag"])


def chi_to_json(chi) -> str:
    obj = {"basis": list(_BASIS_LABELS), **_matrix_obj(_as_chi(chi))}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def chi_from_json(text: str) -> np.ndarray:
    return _matrix_from_obj(json.loads(text))


def rho_to_json(rho) -> str:
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    obj = {"basis": ["S", "D"], **_matrix_obj(m)}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def rho_from_json(text: str) -> DensityMatrix:
    return DensityMatrix(_matrix_from_obj(json.loads(text)))


def affine_to_json(amap: AffineMap, extra: dict | None = None) -> str:
    angle = amap.rotation_angle
    obj = {
        "O": [[float(x) for x in row] for row in amap.O],
        "S": [[float(x) for x in row] for row in amap.S],
        "b": [float(x) for x in amap.b],
        "det_O": amap.det_o,
        "rotation_angle_deg": None if angle is None else math.degrees(angle),
        "S_eigenvalues": [float(x) for x in amap.s_eigenvalues],
    }
    if extra:
        obj.update(extra)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def affine_from_json(text: str) -> AffineMap:
    obj = json.loads(text)
    return AffineMap(np.array(obj["O"]), np.array(obj["S"]), np.array(obj["b"]))

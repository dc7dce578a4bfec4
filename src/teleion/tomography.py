"""Qubit state and process tomography with maximum-likelihood reconstruction.

Measurement model: each basis setting applies a pre-rotation V_b to the state,
then the detector projects onto S (Bright) vs D (Dark). Under this repo's
rotation convention V_X = R(pi/2, 3pi/2) and V_Y = R(pi/2, pi), so

    P(Bright | X) = (1 - r_x) / 2,   P(Bright | Y) = (1 - r_y) / 2,
    P(Bright | Z) = (1 + r_z) / 2.

State reconstruction uses the diluted iterative fixed-point scheme
rho <- normalize[(1-lambda) rho + lambda R rho R]. Process reconstruction is
one batched congruence solver, `_fit_chi`: R fits advance as one (R, 4, 4)
stack by chi <- S chi S plus a trace-restoring congruence, each fit with its
own step size and stop flag. `mle_process` is R = 1; the bootstrap is one call.
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


# (6, 2, 2) POVM elements in the canonical (basis, outcome) row order of a CountsTable.
_POVM = np.array([pi for b in BASES for pi in measurement_operators(b)])


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
    projs, ns = _POVM, np.array([c for _, _, c in counts.rows], dtype=float)
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
_P = np.array(PAULIS)
_P_DAG = _P.conj().transpose(0, 2, 1)
# _PAULI_PRODUCTS[n, m] = A_n^dagger A_m.
_PAULI_PRODUCTS = np.einsum("nab,mbc->nmac", _P_DAG, _P)


def _input_trace(chi: np.ndarray) -> np.ndarray:
    """sum_mn chi_mn A_n^dagger A_m for chi of shape (..., 4, 4); 1 iff chi is TP."""
    return np.einsum("...mn,nmab->...ab", chi, _PAULI_PRODUCTS)


def _hermitize(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_mn chi_mn A_m rho A_n^dagger."""
    return np.einsum("mn,mab,bc,ncd->ad", chi, _P, rho, _P_DAG)


def channel_from_chi(chi) -> "callable":
    chi = chi.chi if isinstance(chi, ProcessMatrix) else np.asarray(chi)
    return lambda rho: apply_chi(chi, rho)


def chi_from_channel(channel) -> np.ndarray:
    """Linear inversion of the operator-sum expansion via the Choi matrix.

    Oracle path: no positivity or trace enforcement is applied, so the result
    faithfully exposes whatever map was passed in.
    """
    units = np.eye(4, dtype=np.complex128).reshape(4, 2, 2)  # E_ij, row-major
    choi = sum(np.kron(np.asarray(channel(e), dtype=np.complex128), e) for e in units)
    vecs = _P.reshape(4, 4)  # row-major vec
    return np.einsum("ma,ab,nb->mn", vecs.conj(), choi, vecs) / 4.0


def tp_defect(chi: np.ndarray) -> float:
    return float(np.max(np.abs(_input_trace(chi) - np.eye(2))))


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

def _herm2_coords(m: np.ndarray) -> np.ndarray:
    return np.stack([m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1].real, m[..., 0, 1].imag], -1)


# A_i (x) A_j / 2 is a Frobenius-orthonormal basis of the 4x4 Hermitian
# matrices. Trace preservation is four real linear conditions on chi's 16
# real coordinates in it: _TP_MAP @ coords = coords of the identity.
_HERM_BASIS = 0.5 * np.einsum("iab,jcd->ijacbd", _P, _P).reshape(16, 4, 4)
_TP_MAP = _herm2_coords(_input_trace(_HERM_BASIS)).T  # 4 x 16
_TP_PINV = np.linalg.pinv(_TP_MAP)
# _TP_CONGRUENCE[m, k, c, a] = tr(A_k A_m E_ca) / 2, flattened to (16, 4).
_TP_CONGRUENCE = 0.5 * np.einsum("kab,mbc->mkca", _P, _P).reshape(16, 4)
_EYE4 = np.eye(4, dtype=np.complex128)


def _tp_project(chi: np.ndarray) -> np.ndarray:
    """Orthogonal (Frobenius) projection onto the trace-preserving subspace."""
    coeffs = _TP_PINV @ _herm2_coords(np.eye(2) - _input_trace(chi))
    return chi + np.einsum("k,kab->ab", coeffs, _HERM_BASIS)


def _tangent_norm(g: np.ndarray) -> np.ndarray:
    """Norm of the part of each g (..., 4, 4) that lies along the TP subspace."""
    coords = np.einsum("kab,...ba->...k", _HERM_BASIS, g).real
    return np.linalg.norm(coords - (coords @ _TP_MAP.T) @ _TP_PINV.T, axis=-1)


def _physical_polish(chi: np.ndarray) -> np.ndarray:
    """Alternate TP projection and PSD clipping until chi is both."""
    for _ in range(200):
        chi = _tp_project(chi)
        if float(np.min(np.linalg.eigvalsh(chi))) >= -1e-11:
            return _hermitize(chi)
        w, v = np.linalg.eigh(_hermitize(chi))
        chi = (v * np.clip(w, 0.0, None)) @ v.conj().T
    raise InvariantViolation("alternating TP/PSD projections failed to settle")


def _tp_normalize(chi: np.ndarray) -> np.ndarray:
    """Restore trace preservation by the congruence chi -> M chi M†.

    M expands A_m lam^{-1/2} in the Pauli basis, lam being the input-side
    trace operator of chi. Unlike an orthogonal projection this keeps chi
    PSD exactly, so likelihood ascent steps stay inside the CPTP set.
    Acts on every matrix of a (..., 4, 4) stack.
    """
    w, v = np.linalg.eigh(_hermitize(_input_trace(chi)))
    l_inv_sqrt = (v / np.sqrt(np.clip(w, 1e-18, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    c = (l_inv_sqrt.reshape(*chi.shape[:-2], 4) @ _TP_CONGRUENCE.T).reshape(chi.shape)
    return _hermitize(c.swapaxes(-1, -2) @ chi @ c.conj())


def _input_rank(inputs: list[np.ndarray]) -> int:
    s = np.linalg.svd(np.einsum("pab,iba->ip", _P, np.array(inputs)).real, compute_uv=False)
    return int(np.sum(s > 1e-8))


def _process_model(inputs, outputs) -> tuple[np.ndarray, np.ndarray]:
    """(H, counts): Hermitian H_j with p_j = tr(H_j chi), one per (input, basis,
    outcome) count row, and the (inputs, 6) table counts in that row order."""
    rhos = [x.matrix if isinstance(x, DensityMatrix) else np.asarray(x, complex) for x in inputs]
    if len(rhos) != len(outputs):
        raise ConfigError(f"{len(rhos)} inputs vs {len(outputs)} count tables")
    if _input_rank(rhos) < 4:
        raise ConfigError("need at least 4 linearly independent input states")
    k = np.einsum("nab,jbc,mcd,ida->ijmn", _P_DAG, _POVM, _P, np.array(rhos))
    counts = np.array([[c for _, _, c in t.rows] for t in outputs], dtype=float)
    return k.conj().reshape(-1, 4, 4), counts


def _probs(h_ops: np.ndarray, chi: np.ndarray) -> np.ndarray:
    return np.clip(np.einsum("jmn,rnm->rj", h_ops, chi).real, 1e-12, None)


def _loglik(h_ops: np.ndarray, ns: np.ndarray, chi: np.ndarray) -> np.ndarray:
    return np.sum(ns * np.log(_probs(h_ops, chi)), axis=1)


def _fit_chi(
    h_ops: np.ndarray, ns: np.ndarray, start, *, max_iters: int, grad_tol: float = 1e-8
) -> tuple[list[ProcessMatrix], list[MLEDiagnostics]]:
    """Maximum-likelihood CPTP chi for each row of `ns`, all fits advanced as one batch.

    `h_ops` (J, 4, 4) is the shared model and `ns` (R, J) the counts of each
    fit. All start from `start` made physical, or from the maximally mixed
    chi when it is None. Each step is a diluted congruence update
    chi <- S chi S with S = (1-a) N 1 + a G, followed by the lam^(-1/2)
    congruence that restores trace preservation without leaving the PSD
    cone; a backtracks until the likelihood is non-decreasing. A fit stops at
    small tangent gradient, when no uphill step exists, or when accepted
    steps stall (rank-deficient optima sit on the boundary, where the
    projected gradient need not vanish). Every fit keeps its own step size,
    backtracking and stop flag; a stopped fit is frozen while the others go on.
    """
    n_fits = ns.shape[0]
    n_total = ns.sum(axis=1)
    chi0 = _EYE4 / 4.0 if start is None else _physical_polish(np.asarray(start, complex))
    chi = np.repeat(_tp_normalize(chi0)[None], n_fits, axis=0)
    ll = _loglik(h_ops, ns, chi)
    history = [[x] for x in ll.tolist()]
    alpha = np.ones(n_fits)
    plateau = np.zeros(n_fits, dtype=int)
    iterations = np.zeros(n_fits, dtype=int)
    converged = np.zeros(n_fits, dtype=bool)
    live = np.arange(n_fits)
    for it in range(1, max_iters + 1):
        if live.size == 0:
            break
        iterations[live] = it
        grad = _hermitize(np.einsum("rj,jmn->rmn", ns[live] / _probs(h_ops, chi[live]), h_ops))
        flat = _tangent_norm(grad) / n_total[live] <= grad_tol
        converged[live[flat]] = True
        fits, grad = live[~flat], grad[~flat]
        a = alpha[fits]
        cand = np.empty((fits.size, 4, 4), dtype=np.complex128)
        ll_cand = np.empty(fits.size)
        todo = np.arange(fits.size)
        for _ in range(60):
            f = fits[todo]
            s_op = ((1.0 - a[todo]) * n_total[f])[:, None, None] * _EYE4
            s_op = s_op + a[todo, None, None] * grad[todo]
            trial = _tp_normalize(s_op @ chi[f] @ s_op)
            ll_trial = _loglik(h_ops, ns[f], trial)
            ok = ll_trial >= ll[f] - 1e-12
            cand[todo[ok]], ll_cand[todo[ok]] = trial[ok], ll_trial[ok]
            todo = todo[~ok]
            if todo.size == 0:
                break
            a[todo] *= 0.5
        # No non-decreasing physical step exists: a boundary optimum.
        converged[fits[todo]] = True
        step = np.ones(fits.size, dtype=bool)
        step[todo] = False
        moved, cand, ll_cand = fits[step], cand[step], ll_cand[step]
        delta = np.max(np.abs(cand - chi[moved]), axis=(1, 2))
        # Boundary (rank-deficient) optima creep sublinearly and never meet
        # the tangent-gradient test; once the likelihood stalls at machine
        # precision for 100 straight steps there, call it converged. Interior
        # optima are left to the gradient criterion, which is sharper.
        at_boundary = np.linalg.eigvalsh(cand)[:, 0] < 1e-6
        stalled = ll_cand - ll[moved] <= 1e-12 * np.maximum(1.0, np.abs(ll[moved]))
        plateau[moved] = np.where(at_boundary & stalled, plateau[moved] + 1, 0)
        chi[moved], ll[moved] = cand, ll_cand
        for i, x in zip(moved.tolist(), ll_cand.tolist()):
            history[i].append(x)
        alpha[moved] = np.minimum(1.0, 2.0 * a[step])
        done = (delta <= 1e-11) | (plateau[moved] >= 100)
        converged[moved[done]] = True
        live = moved[~done]
    results = [ProcessMatrix(_physical_polish(c)) for c in chi]
    diags = [
        MLEDiagnostics(bool(c), int(i), float(x), tuple(h))
        for c, i, x, h in zip(converged, iterations, ll, history)
    ]
    return results, diags


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
    the corresponding CountsTables. One fit of `_fit_chi`, started from the
    maximally mixed chi or from `start` made physical.
    """
    h_ops, counts = _process_model(inputs, outputs)
    if counts.sum() <= 0:
        raise ConfigError("empty counts tables")
    (result,), (diag,) = _fit_chi(
        h_ops, counts.reshape(1, -1), start, max_iters=max_iters, grad_tol=grad_tol
    )
    if not diag.converged:
        warnings.warn(
            f"mle_process stopped after {diag.iterations} iterations without convergence",
            stacklevel=2,
        )
    return (result, diag) if return_diagnostics else result


def bootstrap_process(
    inputs,
    outputs,
    *,
    resamples: int = 200,
    seed: int = 0,
    start: np.ndarray | None = None,
    max_iters: int = 10_000,
    return_diagnostics: bool = False,
):
    """Parametric bootstrap: redraw binomial counts, refit every resample.

    All resamples are fitted together by `_fit_chi`, from `start` made
    physical once. Requires integer-total count tables (sampled data);
    exact-probability tables carry no statistical uncertainty to resample.
    Warns once if any resample stops without converging; with
    `return_diagnostics` it also returns each resample's MLEDiagnostics.
    """
    h_ops, counts = _process_model(inputs, outputs)
    totals = np.array([[t.total_shots_per_basis] for t in outputs], dtype=float)
    if np.any(counts % 1) or np.any(totals % 1) or np.any(totals < 1):
        raise ConfigError("bootstrap needs sampled (integer-count) tables")
    p = counts[:, ::2] / totals
    rng = np.random.default_rng([int(seed), _BOOT_TAG])
    # One draw per (resample, input, basis), in that order.
    bright = rng.binomial(
        np.broadcast_to(totals.astype(np.int64), p.shape), p, size=(resamples, *p.shape)
    ).astype(float)
    ns = np.stack([bright, totals - bright], axis=-1).reshape(resamples, counts.size)
    results, diags = _fit_chi(h_ops, ns, start, max_iters=max_iters)
    failed = sum(not d.converged for d in diags)
    if failed:
        warnings.warn(
            f"bootstrap_process: {failed} of {resamples} resamples stopped without convergence",
            stacklevel=2,
        )
    return (results, diags) if return_diagnostics else results


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


# _TRANSFER[i, j, m, n] = tr(A_i A_m A_j A_n^dagger) / 2.
_TRANSFER = 0.5 * np.einsum("iab,mbc,jcd,nda->ijmn", _P, _P, _P, _P_DAG)


def pauli_transfer(chi) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) with M_ij = tr(sigma_i E(sigma_j))/2 and b_i = tr(sigma_i E(I))/2."""
    r = np.einsum("ijmn,mn->ij", _TRANSFER, _as_chi(chi))
    if np.max(np.abs(r[1:, 1:].imag)) > 1e-9:
        raise InvariantViolation("transfer matrix has imaginary parts")
    return r[1:, 1:].real.copy(), r[1:, 0].real.copy()


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

"""Qubit state and process tomography with maximum-likelihood reconstruction.

Measurement model: each basis setting applies a pre-rotation V_b to the state,
then the detector projects onto S (Bright) vs D (Dark). V_b is row 34's
analysis pulse from protocol.ANALYSIS_PULSES, the one table build_sequence
writes that row from: V_Z = 1, V_X = R(pi/2, 3pi/2) and V_Y = R(pi/2, pi), so

    P(Bright | X) = (1 - r_x) / 2,   P(Bright | Y) = (1 - r_y) / 2,
    P(Bright | Z) = (1 + r_z) / 2.

A CountsTable records what the detector counts: (bright, total), the Bright
count of each basis out of a shared per-basis total; each Dark count is the
total less its Bright count.

State reconstruction is closed-form (`mle_state`): the linear inversion inside
the Bloch ball, otherwise one Lagrange-multiplier root on the sphere. Process
reconstruction is one batched log-det-barrier Newton solve, `_fit_chi`: each
probability is linear in chi, so in the 12 real coordinates of the
trace-preserving subspace the log-likelihood is concave and positivity is a
4 x 4 matrix inequality. R fits advance as one (R, 12) stack, each with its own
barrier weight, step and stop flag, and each stops on a certified gap to the
optimum. `mle_process` is R = 1; the bootstrap is one call.

`bright_counts` is the one function that turns the inputs' tables into
final-readout Bright counts, for the tomography tables (`teleported_counts`)
and the CLI's teleportation fidelities alike: it returns the exact
probabilities, draws each count binomially from them, or counts the
trajectories of one run_shot call. It builds no table itself.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvariantViolation
from .noise import NoiseConfig
from .protocol import (ANALYSIS_PULSES, ExactPrefix, ExactRun, InputStateSpec, SequenceStep, Tomography,
                       build_sequence, exact_run, run_shot)
from .qcore import ATOL_SPECTRAL, DensityMatrix, PAULIS, dag, density_from_bloch
from .trap import rotation_2x2

BASES = tuple(b.upper() for b in ANALYSIS_PULSES)  # Z, X, Y: the order of every table
OUTCOMES = ("Bright", "Dark")
_TOMO_TAG = 0x70B0
_BOOT_TAG = 0xB007

_KET_S = np.array([1.0, 0.0], dtype=np.complex128)
_KET_D = np.array([0.0, 1.0], dtype=np.complex128)


def basis_prerotation(basis: str) -> np.ndarray:
    """Analysis pulse applied before the Bright/Dark readout: row 34's, for `basis` in BASES."""
    if basis not in BASES:
        raise ConfigError(f"unknown basis {basis!r}")
    angles = ANALYSIS_PULSES[basis.lower()]
    return np.eye(2, dtype=np.complex128) if angles is None else rotation_2x2(*angles)


def measurement_operators(basis: str) -> tuple[np.ndarray, np.ndarray]:
    """(Pi_bright, Pi_dark) POVM elements in the unrotated frame."""
    v = basis_prerotation(basis)
    pi_b = dag(v) @ np.outer(_KET_S, _KET_S.conj()) @ v
    return pi_b, dag(v) @ np.outer(_KET_D, _KET_D.conj()) @ v


# (6, 2, 2) POVM elements in the (basis, outcome) order of CountsTable.rows.
_POVM = np.array([pi for b in BASES for pi in measurement_operators(b)])


@dataclass(frozen=True)
class CountsTable:
    """Each basis's Bright count, in BASES order, out of `total_shots_per_basis`: (bright, total).

    Its Dark count is the total less its Bright count. The total may be a float: an
    exact-probability table holds the Born probabilities with a total of 1.0. A total
    that is not positive and finite is refused, and so is anything but three Bright counts
    in [0, total]; counts_from_csv checks a CSV's rows first.
    """

    bright: tuple[float, float, float]
    total_shots_per_basis: float

    def __post_init__(self):
        total = self.total_shots_per_basis
        if not math.isfinite(total):
            raise ConfigError(f"total shots per basis {total} is not finite")
        if total <= 0:
            raise ConfigError(f"total shots per basis {total} is not positive: the table is empty")
        if len(self.bright) != len(BASES):
            raise ConfigError(f"a count table needs one Bright count per basis {BASES}, got {len(self.bright)}")
        for basis, k in zip(BASES, self.bright):
            if not 0.0 <= k <= total:  # also refuses NaN
                raise ConfigError(f"basis {basis}: Bright count {k} is not a number in [0, {total}]")

    @property
    def rows(self) -> tuple[tuple[str, str, float], ...]:
        """(basis, outcome, count) in the canonical order: per basis in BASES, Bright then Dark."""
        total = self.total_shots_per_basis
        return tuple(row for b, k in zip(BASES, self.bright) for row in ((b, "Bright", k), (b, "Dark", total - k)))

    def count(self, basis: str, outcome: str) -> float:
        if basis not in BASES or outcome not in OUTCOMES:
            raise ConfigError(f"no row ({basis}, {outcome})")
        return self.rows[2 * BASES.index(basis) + OUTCOMES.index(outcome)][2]

    def bright_fraction(self, basis: str) -> float:
        return self.count(basis, "Bright") / self.total_shots_per_basis


def counts_to_csv(table: CountsTable) -> str:
    def fmt(c: float) -> str:
        return str(int(c)) if float(c).is_integer() else repr(float(c))

    lines = ["basis,outcome,count"]
    lines += [f"{b},{o},{fmt(c)}" for b, o, c in table.rows]
    return "\n".join(lines) + "\n"


def counts_from_csv(text: str) -> CountsTable:
    """The table a counts CSV holds, checked: its header, three fields a line, finite numbers,
    the canonical (basis, outcome) rows, one total for all bases (to 1e-9 relative), no negative
    count. The total is Z's sum; each Dark count reads as it less the Bright count, exactly
    the CSV's for integer counts and for the exact tables (total 1.0) the CLI writes."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != "basis,outcome,count":
        raise ConfigError("counts CSV must start with 'basis,outcome,count'")
    rows = []
    for n, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 3:
            raise ConfigError(f"counts CSV line {n}: expected basis,outcome,count, got {ln!r}")
        b, o, c = fields
        try:
            rows.append((b, o, float(c)))
        except ValueError:
            raise ConfigError(f"counts CSV line {n}: count {c!r} is not a number") from None
    expected = [(b, o) for b in BASES for o in OUTCOMES]
    if (got := [(b, o) for b, o, _ in rows]) != expected:
        raise ConfigError(f"counts rows must be ordered {expected}, got {got}")
    for b, o, c in rows:
        if not math.isfinite(c):
            raise ConfigError(f"counts row ({b}, {o}): count {c} is not finite")
    totals = [sum(c for _, _, c in rows[i:i + 2]) for i in range(0, len(rows), 2)]
    for basis, subtotal in zip(BASES, totals):
        if abs(subtotal - totals[0]) > 1e-9 * max(1.0, totals[0]):
            raise ConfigError(f"basis {basis} counts sum to {subtotal}, expected {totals[0]}")
    if any(c < 0 for _, _, c in rows):
        raise ConfigError("negative count")
    return CountsTable(tuple(c for _, o, c in rows if o == "Bright"), totals[0])


def bright_probabilities(state) -> dict[str, float]:
    rho = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
    if rho.shape != (2, 2):
        raise DimensionMismatch("tomography expects a single-qubit state")
    # One basis at a time: one einsum over the stack can change the last bits.
    return {b: min(max(float(np.real(np.trace(pi_b @ rho))), 0.0), 1.0) for b, pi_b in zip(BASES, _POVM[0::2])}


def simulate_state_tomography(
    state, shots_per_basis: int = 0, rng: np.random.Generator | None = None
) -> CountsTable:
    """Measure a known state in the Z, X, Y bases.

    shots_per_basis = 0 emits the exact Born probabilities as a float-count
    table (total 1.0); otherwise binomial sampling from `rng` is used.
    """
    probs = bright_probabilities(state)
    if shots_per_basis == 0:
        return CountsTable(tuple(probs.values()), 1.0)
    if shots_per_basis < 0:
        raise ConfigError("shots_per_basis must be >= 0")
    if rng is None:
        raise ConfigError("sampled tomography needs an rng")
    return CountsTable(tuple(float(rng.binomial(shots_per_basis, probs[b])) for b in BASES), float(shots_per_basis))


# ---------------------------------------------------------------------------
# State reconstruction

@dataclass(frozen=True)
class MLEDiagnostics:
    converged: bool
    iterations: int
    log_likelihood: float
    ll_history: tuple[float, ...]
    # Bound on how far log_likelihood lies below the optimum, certified when
    # converged; 0.0 for the closed-form state fit.
    gap: float


def _sphere_optimum(u: np.ndarray) -> tuple[np.ndarray, int]:
    """Likelihood optimum on the unit sphere for a linear inversion u outside it.

    With multiplier kappa >= 0 each component is the middle root, in [-1, 1],
    of kappa t^3 - (1 + kappa) t + u_b = 0. |t(kappa)| falls from |u| at 0 to
    at most 1 at `hi`, where every |t_b| <= 1/sqrt(3); a Newton step on
    kappa, slope dt/dkappa = t (1 - t^2) / (3 kappa t^2 - 1 - kappa), is taken
    inside that bracket and a bisection otherwise. Returns (t, steps).

    A basis with a zero count has u_b = +-1, where t = u_b is a root and the
    cubic factors as (t - u_b)(kappa t^2 + u_b kappa t - 1). Its middle root
    there is u_b min(1, 2 / (kappa + sqrt(kappa^2 + 4 kappa))), taken in that
    deflated form: the trigonometric one loses about five digits at the double
    root near kappa = 1/2, where such optima lie.
    """
    lo, hi = 0.0, 1.5 * math.sqrt(3.0) * (float(np.max(np.abs(u))) - 1.0 / math.sqrt(3.0))
    kappa, t = 0.0, u
    edge = np.abs(u) == 1.0
    for steps in range(100):
        excess = float(t @ t) - 1.0
        if abs(excess) <= 4e-16 or hi - lo <= 1e-15 * hi:
            break
        lo, hi = (kappa, hi) if excess > 0.0 else (lo, kappa)
        slope = float(2.0 * t @ (t * (1.0 - t * t) / (3.0 * kappa * t * t - 1.0 - kappa)))
        kappa = kappa - excess / slope if slope < 0.0 else hi
        if not lo < kappa < hi:
            kappa = 0.5 * (lo + hi)
        # Trigonometric middle root, in sin/arcsin form so that small kappa
        # (t near u) loses no precision to cancellation.
        c = np.sqrt((1.0 + kappa) / (3.0 * kappa))
        t = 2.0 * c * np.sin(np.arcsin(np.clip(u / (2.0 * kappa * c**3), -1.0, 1.0)) / 3.0)
        t = np.where(edge, u * min(1.0, 2.0 / (kappa + math.sqrt(kappa * (kappa + 4.0)))), t)
    return t / math.sqrt(float(t @ t)), steps


def mle_state(counts: CountsTable, *, return_diagnostics: bool = False):
    """Maximum-likelihood qubit state, in closed form.

    The log-likelihood separates by Bloch component. With P(Bright | b) =
    (1 + t_b)/2, t_b = s_b r_b and s = (+1, -1, -1) over BASES, it is
    a sum_b [(1 + u_b) log(1 + t_b) + (1 - u_b) log(1 - t_b)] / 2 up to a
    constant, where a is the per-basis total and u_b = s_b (n_b+ - n_b-) / a.
    Its maximum over the ball is the linear inversion t = u when |u| <= 1.
    Otherwise it lies on the sphere (`_sphere_optimum`); a u outside only by
    roundoff, |u|^2 <= 1 + 1e-12, is normalised instead. The diagnostics
    report `converged=True` and the multiplier steps taken.
    """
    ns = np.array([c for _, _, c in counts.rows], dtype=float)
    u = np.array([1.0, -1.0, -1.0]) * (ns[0::2] - ns[1::2]) / (ns[0::2] + ns[1::2])
    excess, steps = float(u @ u) - 1.0, 0
    if excess > 1e-12:
        u, steps = _sphere_optimum(u)
    elif excess > 0.0:
        u = u / math.sqrt(float(u @ u))
    result = density_from_bloch(u[[1, 2, 0]])  # BASES order (z, x, y) -> (x, y, z)
    if not return_diagnostics:
        return result
    ps = np.einsum("jab,ba->j", _POVM, result.matrix).real
    ll = float(np.sum(ns * np.log(np.clip(ps, 1e-300, None))))
    return result, MLEDiagnostics(True, steps, ll, (ll,), 0.0)


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


def _refuse(bad: np.ndarray, name: str, what: str) -> None:
    """InvariantViolation if `bad` holds anywhere, naming the first stack member where it does."""
    if np.any(bad):
        at = "".join(f"[{i}]" for i in np.argwhere(bad)[0])
        raise InvariantViolation(f"{name}{at} {what}")


def tp_defect(chi: np.ndarray) -> float | np.ndarray:
    """max |sum_mn chi_mn A_n^dagger A_m - 1|, one per matrix of a (..., 4, 4) stack."""
    return np.max(np.abs(_input_trace(chi) - np.eye(2)), axis=(-2, -1))


def checked_chi(chi) -> np.ndarray:
    """`chi`, or a stack of them (..., 4, 4), as complex128: each Hermitian, PSD and trace-preserving."""
    chi = np.asarray(chi, dtype=np.complex128)
    if chi.shape[-2:] != (4, 4):
        raise DimensionMismatch(f"chi must be 4x4, got {chi.shape}")
    _refuse(np.max(np.abs(chi - chi.conj().swapaxes(-1, -2)), axis=(-2, -1)) > 1e-10,
            "chi", "is not Hermitian within 1e-10")
    _refuse(np.linalg.eigvalsh(chi)[..., 0] < -1e-10, "chi", "has eigenvalues below -1e-10")
    _refuse(tp_defect(chi) > 1e-8, "chi", "is not trace-preserving within 1e-8")
    return chi


@dataclass(frozen=True)
class ProcessMatrix:
    """Validated chi matrix: Hermitian, PSD, trace-preserving (`checked_chi`)."""

    chi: np.ndarray

    def __post_init__(self):
        if np.shape(self.chi) != (4, 4):
            raise DimensionMismatch(f"chi must be 4x4, got {np.shape(self.chi)}")
        object.__setattr__(self, "chi", checked_chi(self.chi))


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
# real coordinates in it: _TP_MAP @ coords = coords of the identity. Every TP
# chi is _CHI_MIXED + sum_i z_i _TP_DIRS[i] for one z in R^12, where _TP_DIRS
# is an orthonormal basis of _TP_MAP's null space (orthogonal to the identity).
_HERM_BASIS = 0.5 * np.einsum("iab,jcd->ijacbd", _P, _P).reshape(16, 4, 4)
_TP_MAP = _herm2_coords(_input_trace(_HERM_BASIS)).T  # 4 x 16
_CHI_MIXED = np.eye(4, dtype=np.complex128) / 4.0
_TP_DIRS = np.einsum("ki,kab->iab", np.linalg.svd(_TP_MAP)[2][4:].T, _HERM_BASIS)

# The process fit's barrier weight mu starts at _MU_START * N (N the fit's
# total count) and is cut by _MU_CUT whenever the squared Newton decrement
# is <= _CENTRED * mu; the fit stops once its gap is <= _GAP_TOL * N. A warm
# start is mixed toward _CHI_MIXED until its least eigenvalue is _START_FLOOR.
_MU_START, _MU_CUT, _CENTRED, _GAP_TOL = 1e-3, 100.0, 0.25, 1e-12
_START_FLOOR = 1e-3


def independent_inputs(inputs) -> np.ndarray:
    """The input states (DensityMatrix or 2x2 arrays) as one (n, 2, 2) array; a ConfigError
    unless they span the 4-dim operator space, as a process fit needs."""
    rhos = np.array([x.matrix if isinstance(x, DensityMatrix) else np.asarray(x, complex) for x in inputs])
    s = np.linalg.svd(np.einsum("pab,iba->ip", _P, rhos.reshape(-1, 2, 2)).real, compute_uv=False)
    if np.sum(s > 1e-8) < 4:
        raise ConfigError("need at least 4 linearly independent input states")
    return rhos


def _process_model(inputs, outputs) -> tuple[np.ndarray, np.ndarray]:
    """(H, counts): Hermitian H_j with p_j = tr(H_j chi), one per (input, basis,
    outcome) count row, and the (inputs, 6) table counts in that row order."""
    if len(inputs) != len(outputs):
        raise ConfigError(f"{len(inputs)} inputs vs {len(outputs)} count tables")
    k = np.einsum("nab,jbc,mcd,ida->ijmn", _P_DAG, _POVM, _P, independent_inputs(inputs))
    counts = np.array([[c for _, _, c in t.rows] for t in outputs], dtype=float)
    return k.conj().reshape(-1, 4, 4), counts


def _chi_of(z: np.ndarray) -> np.ndarray:
    return _CHI_MIXED + np.einsum("...i,iab->...ab", z, _TP_DIRS)


def _interior_start(start) -> np.ndarray:
    """TP coordinates of `start`, mixed toward the maximally mixed chi until
    its smallest eigenvalue is at least _START_FLOOR; zero for None."""
    if start is None:
        return np.zeros(len(_TP_DIRS))
    # Orthogonal projection onto the TP subspace, as _TP_DIRS is orthonormal.
    z = np.einsum("iab,ba->i", _TP_DIRS, np.asarray(start, dtype=np.complex128)).real
    w_min = float(np.linalg.eigvalsh(_chi_of(z))[0])
    if w_min < _START_FLOOR:
        z = z * (0.25 - _START_FLOOR) / (0.25 - w_min)
    return z


def _fit_chi(
    h_ops: np.ndarray, ns: np.ndarray, start, *, max_iters: int
) -> tuple[np.ndarray, list[MLEDiagnostics]]:
    """Maximum-likelihood CPTP chi for each row of `ns`, all fits advanced as one batch.

    `h_ops` (J, 4, 4) is the shared model and `ns` (R, J) the counts of each
    fit. chi = _CHI_MIXED + sum_i z_i _TP_DIRS[i] is TP by construction and
    the probabilities p = p0 + G z are affine in z. Each fit maximises
    l(z) + mu log det chi(z) by damped Newton steps, a 12 x 12 solve each:
    a step starts at 1 or at 0.99 of the way to the PSD boundary and halves
    until Armijo ascent holds. A centred point is within 4 mu of the optimum;
    with Newton decrement lam, lam^2 <= 0.68^2 mu, the self-concordant bound
    adds lam^2 (Boyd & Vandenberghe, Convex Optimization, 9.6.3 and ch. 11).
    A fit stops once that gap, 4 mu + lam^2, is <= _GAP_TOL * N. All fits
    start from `_interior_start(start)`; each keeps its own mu, step and stop
    flag. `iterations` counts Newton steps, `gap` is the final bound. The fits
    come back as one (R, 4, 4) stack, checked by `checked_chi`.
    """
    tol, mu = _GAP_TOL * ns.sum(axis=1), _MU_START * ns.sum(axis=1)
    g_ops = np.einsum("jab,iba->ji", h_ops, _TP_DIRS).real
    p0 = np.einsum("jab,ba->j", h_ops, _CHI_MIXED).real
    z = np.repeat(_interior_start(start)[None], ns.shape[0], axis=0)
    w, v = np.linalg.eigh(_chi_of(z))
    gap, steps = np.zeros(ns.shape[0]), np.zeros(ns.shape[0], dtype=int)
    converged = np.zeros(ns.shape[0], dtype=bool)
    history = [[] for _ in ns]
    live = np.arange(ns.shape[0])
    for it in range(max_iters + 1):
        nl, p = ns[live], p0 + z[live] @ g_ops.T
        ll = np.sum(nl * np.log(p), axis=1)
        for i, x in zip(live.tolist(), ll.tolist()):
            history[i].append(x)
        # m_i = chi^(-1/2) C_i chi^(-1/2): log det chi has gradient tr(m_i)
        # and negative Hessian tr(m_i m_j).
        root = (v[live] / np.sqrt(w[live])[:, None, :]) @ v[live].conj().swapaxes(-1, -2)
        m = root[:, None] @ _TP_DIRS @ root[:, None]
        flat = m.reshape(live.size, len(_TP_DIRS), 16)
        grad_b = np.trace(m, axis1=-2, axis2=-1).real
        hess_b = (flat @ flat.conj().swapaxes(-1, -2)).real
        grad_l = (nl / p) @ g_ops
        hess_l = ((nl / p**2)[:, None, :] * g_ops.T) @ g_ops
        mu_l, tol_l = mu[live], tol[live]
        while True:
            grad = grad_l + mu_l[:, None] * grad_b
            dz = np.linalg.solve(hess_l + mu_l[:, None, None] * hess_b, grad[..., None])[..., 0]
            lam2 = np.einsum("ri,ri->r", grad, dz)
            # A centred fit whose gap is still too wide goes on at a smaller mu.
            cut = (lam2 <= _CENTRED * mu_l) & (4.0 * mu_l + lam2 > tol_l)
            if not cut.any():
                break
            mu_l = np.where(cut, mu_l / _MU_CUT, mu_l)
        mu[live], gap[live] = mu_l, 4.0 * mu_l + lam2
        done = (lam2 <= 0.68**2 * mu_l) & (gap[live] <= tol_l)
        converged[live[done]] = True
        live, z_l, dz, m, lam2, ll = (x[~done] for x in (live, z[live], dz, m, lam2, ll))
        if it == max_iters or live.size == 0:
            break
        steps[live] += 1
        f0 = ll + mu[live] * np.sum(np.log(w[live]), axis=1)
        # chi + t D = chi^(1/2) (1 + t dz . m) chi^(1/2) stays PD while 1 + t e_min > 0.
        e_min = np.linalg.eigvalsh(np.einsum("ri,riab->rab", dz, m))[:, 0]
        t = np.where(e_min < -0.99, -0.99 / e_min, 1.0)
        todo = np.arange(live.size)
        for _ in range(60):
            f = live[todo]
            z_t = z_l[todo] + t[todo, None] * dz[todo]
            w_t, v_t = np.linalg.eigh(_chi_of(z_t))
            # Outside the PSD cone a log is NaN or -inf and the test fails.
            with np.errstate(invalid="ignore", divide="ignore"):
                f_t = np.sum(ns[f] * np.log(p0 + z_t @ g_ops.T), axis=1)
                f_t += mu[f] * np.sum(np.log(w_t), axis=1)
            ok = f_t >= f0[todo] + 0.25 * t[todo] * lam2[todo]
            z[f[ok]], w[f[ok]], v[f[ok]] = z_t[ok], w_t[ok], v_t[ok]
            todo = todo[~ok]
            if todo.size == 0:
                break
            t[todo] *= 0.5
        live = np.delete(live, todo)  # no ascent step left: stop, unconverged
    diags = [
        MLEDiagnostics(bool(c), int(s), h[-1], tuple(h), float(g))
        for c, s, h, g in zip(converged, steps, history, gap)
    ]
    return checked_chi(_chi_of(z)), diags


def mle_process(inputs, outputs, *, max_iters: int = 10_000, start: np.ndarray | None = None,
                return_diagnostics: bool = False):
    """Maximum-likelihood CPTP process matrix from tomography counts.

    `inputs` are the prepared states (DensityMatrix or 2x2 arrays), `outputs`
    the corresponding CountsTables. One fit of `_fit_chi`, the log-det-barrier
    Newton solve, started from the maximally mixed chi or from `start`; it
    warns if `max_iters` Newton steps end before the certified gap is met.
    """
    h_ops, counts = _process_model(inputs, outputs)
    (chi,), (diag,) = _fit_chi(h_ops, counts.reshape(1, -1), start, max_iters=max_iters)
    result = ProcessMatrix(chi)
    if not diag.converged:
        warnings.warn(
            f"mle_process stopped after {diag.iterations} Newton steps without convergence",
            stacklevel=2,
        )
    return (result, diag) if return_diagnostics else result


def bootstrap_process(inputs, outputs, *, resamples: int = 200, seed: int = 0, start: np.ndarray | None = None,
                      max_iters: int = 10_000, return_diagnostics: bool = False):
    """Parametric bootstrap: redraw binomial counts, refit every resample.

    All resamples are fitted together by `_fit_chi`, each its own barrier
    Newton solve from `start`, and come back as one (resamples, 4, 4) stack of
    chi matrices. Requires integer-total count tables (sampled data);
    exact-probability tables carry no statistical uncertainty to resample. Warns once if any resample stops without a certified gap; with
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
    chis, diags = _fit_chi(h_ops, ns, start, max_iters=max_iters)
    failed = sum(not d.converged for d in diags)
    if failed:
        warnings.warn(
            f"bootstrap_process: {failed} of {resamples} resamples stopped without convergence",
            stacklevel=2,
        )
    return (chis, diags) if return_diagnostics else chis


# ---------------------------------------------------------------------------
# Affine Bloch-sphere picture

# math.acos element by element: numpy's arccos differs from it in the last bit
# for about one argument in ten, and the angles are written to the artefacts.
_acos = np.vectorize(math.acos, otypes=[float])


@dataclass(frozen=True)
class AffineMap:
    """r_out = O @ S @ r_in + b: rotation, anisotropic shrink, displacement; or a stack of such maps,
    O and S (..., 3, 3) and b (..., 3), checked and read off all at once."""

    O: np.ndarray
    S: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("O", "S", "b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        o, s, b = self.O, self.S, self.b
        if o.shape[-2:] != (3, 3) or s.shape != o.shape or b.shape != o.shape[:-1]:
            raise DimensionMismatch(f"O, S and b must be (..., 3, 3), (..., 3, 3) and (..., 3), got "
                                    f"{o.shape}, {s.shape} and {b.shape}")
        _refuse(np.max(np.abs(o @ o.swapaxes(-1, -2) - np.eye(3)), axis=(-2, -1)) > 1e-10,
                "O", "is not orthogonal within 1e-10")
        _refuse(np.max(np.abs(s - s.swapaxes(-1, -2)), axis=(-2, -1)) > 1e-10, "S", "is not symmetric within 1e-10")
        _refuse(np.linalg.eigvalsh(s)[..., 0] < -1e-10, "S", "has eigenvalues below -1e-10")
        _refuse(np.linalg.norm(b, axis=-1) > 1.0 + 1e-10, "displacement", "leaves the unit ball")

    @property
    def det_o(self) -> float | np.ndarray:
        return np.linalg.det(self.O)

    @property
    def rotation_angle(self) -> float | None | np.ndarray:
        """Rotation angle of O in radians; None for det(O) = -1, or NaN in a stack."""
        c = np.clip((np.trace(self.O, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
        angle = np.where(self.det_o < 0, np.nan, _acos(c))
        return angle if angle.ndim else None if math.isnan(angle) else float(angle)

    @property
    def s_eigenvalues(self) -> np.ndarray:
        """S's eigenvalues in descending order, per map."""
        return np.linalg.eigvalsh(self.S)[..., ::-1]


# _TRANSFER[i, j, m, n] = tr(A_i A_m A_j A_n^dagger) / 2.
_TRANSFER = 0.5 * np.einsum("iab,mbc,jcd,nda->ijmn", _P, _P, _P, _P_DAG)


def pauli_transfer(chi) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) with M_ij = tr(sigma_i E(sigma_j))/2 and b_i = tr(sigma_i E(I))/2, per chi of a (..., 4, 4) stack."""
    r = np.einsum("ijmn,...mn->...ij", _TRANSFER, _as_chi(chi))
    _refuse(np.max(np.abs(r[..., 1:, 1:].imag), axis=(-2, -1)) > 1e-9, "transfer matrix", "has imaginary parts")
    return r[..., 1:, 1:].real.copy(), r[..., 1:, 0].real.copy()


def affine_decompose(chi) -> AffineMap:
    """Polar-decompose the Bloch transfer matrix into rotation x shrink; a stack of chi gives a stack of maps."""
    m, b = pauli_transfer(chi)
    u, sig, vt = np.linalg.svd(m)
    o = u @ vt
    s = (vt.swapaxes(-1, -2) * sig[..., None, :]) @ vt  # V^T diag(sig) V
    return AffineMap(o, 0.5 * (s + s.swapaxes(-1, -2)), b)


def ellipsoid_mesh(amap: AffineMap, resolution: int = 24) -> np.ndarray:
    """Images of a latitude-longitude unit-sphere grid, shape (resolution^2, 3)."""
    if resolution < 8:
        raise ConfigError("resolution must be >= 8")
    th, ph = np.meshgrid(np.linspace(0.0, math.pi, resolution),
                         np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False), indexing="ij")
    unit = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1).reshape(-1, 3)
    return unit @ (amap.O @ amap.S).T + amap.b


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
        raise ConfigError('sampling must be "auto" or "per-shot": fast cannot represent amplitude noise')
    return sampling


def bright_counts(
    tables: list[tuple[tuple[SequenceStep, ...], ...]],
    noise: NoiseConfig,
    shots: int,
    master_seed: int | list[int],
    *,
    sampling: str = "auto",
    tag: int = 0,
    quad_points: int | None = None,
    fock_cutoff: int = 4,
    prefix: ExactPrefix | None = None,
) -> tuple[list[ExactRun] | None, list[int] | list[float]]:
    """(exact runs, final-readout Bright counts) of every table, input-major.

    `tables` holds one tuple of tables per input, as exact_run takes them;
    `master_seed` is one seed, or one per group of equally many consecutive
    tables, table j of a group drawing from stream j of its group's seed.
    `shots` = 0 gives each table's exact reported P(bright); "fast" draws
    each count binomially from it (clamped to [0, 1]) with
    default_rng([seed, tag, j]); "per-shot" counts trajectories j * shots + i,
    i < shots, all made by one run_shot call. Sampled artefacts rest on these
    streams and shot indices. The exact runs, one per input from one exact_run
    call, are made only when the counts come from them; otherwise `runs` is None.
    `prefix`, a calibration's exact pass over these inputs, goes to that call.
    """
    sequences = [seq for t in tables for seq in t]
    seeds = [master_seed] if np.ndim(master_seed) == 0 else list(master_seed)
    if not seeds or len(sequences) % len(seeds):
        raise ConfigError(f"{len(sequences)} sequences do not split into {len(seeds)} seed groups")
    per = len(sequences) // len(seeds) or 1
    if shots == 0 or resolve_sampling(noise, sampling) == "fast":
        runs = exact_run(tables, noise, quad_points=quad_points, fock_cutoff=fock_cutoff, prefix=prefix)
        p_bright = [p for res in runs for p in res.p_bright]
        if shots == 0:
            return runs, p_bright
        rngs = (np.random.default_rng([int(seeds[j // per]), tag, j % per]) for j in range(len(p_bright)))
        return runs, [int(rng.binomial(shots, min(max(p, 0.0), 1.0))) for rng, p in zip(rngs, p_bright)]
    if not sequences:  # run_shot needs a table to plan its rows
        return None, []
    table = np.repeat(np.arange(len(sequences)), shots)
    index = table % per * shots + np.tile(np.arange(shots), len(sequences))
    seed = np.array(seeds, dtype=object)[table // per]
    final = run_shot(sequences, noise, seed, index, sequence_index=table, fock_cutoff=fock_cutoff).final
    return None, np.bincount(table[final], minlength=len(sequences)).tolist()


def teleported_counts(
    input_state: InputStateSpec | list[InputStateSpec],
    noise: NoiseConfig = NoiseConfig(),
    shots_per_basis: int = 0,
    *,
    master_seed: int | list[int] = 1234,
    phase_offset: float = 0.0,
    sampling: str = "auto",
    quad_points: int | None = None,
    fock_cutoff: int = 4,
    spin_echo: bool = True,
    standby_wait_us: float = 1.0,
    rephase_wait_us: float = 300.0,
    prefix: ExactPrefix | None = None,
) -> CountsTable | list[CountsTable]:
    """The three bases' count tables of the teleported qubit, from bright_counts.

    A list of inputs, with one master seed each, gives one table per input;
    their trajectories all advance together in one run_shot call.
    shots_per_basis = 0 gives exact reported-outcome probabilities, each basis
    with a total of 1.0. `prefix` goes to bright_counts.
    """
    single = isinstance(input_state, InputStateSpec)
    seq_kwargs = dict(spin_echo=spin_echo, standby_wait_us=standby_wait_us, rephase_wait_us=rephase_wait_us)
    sequences = [
        tuple(build_sequence(spec, phase_offset, Tomography(b.lower()), **seq_kwargs) for b in BASES)
        for spec in ([input_state] if single else input_state)
    ]
    _, counts = bright_counts(
        sequences, noise, shots_per_basis, master_seed, sampling=sampling, tag=_TOMO_TAG,
        quad_points=quad_points, fock_cutoff=fock_cutoff, prefix=prefix,
    )
    tables = [
        CountsTable(tuple(map(float, counts[i:i + len(BASES)])), float(shots_per_basis or 1))
        for i in range(0, len(counts), len(BASES))
    ]
    return tables[0] if single else tables


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

"""Test-side oracles, built independently of the package's own routes:
random pure states, random qubit channels and a Monte-Carlo Haar average;
each drive's dense local matrix, and the exact engine's drive plan read from
those matrices' nonzero pattern."""
import math

import numpy as np

from teleion.errors import InvariantViolation
from teleion.noise import depolarizing_superop
from teleion.qcore import PAULIS, PureState, dag
from teleion.trap import D, H, S, BlueSideband, Carrier, rotation_2x2


def random_pure_state(rng: np.random.Generator, dim: int = 2) -> PureState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_cptp_qubit_channel(seed: int) -> np.ndarray:
    """Random CPTP qubit channel as a 4x4 process matrix in the (I,X,Y,Z) basis.

    Sampled by QR-orthonormalizing a Gaussian 8x2 block into an isometry
    V: C^2 -> C^2 (x) C^4 and tracing out the 4-dim environment; the four Kraus
    operators are the environment slices of V. Trace preservation holds by
    construction (sum K†K = V†V = I).
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    q, r = np.linalg.qr(g)
    # Fix the gauge so the draw is Haar (sign of R's diagonal).
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    v = q.reshape(2, 4, 2)  # (system out, environment, system in)
    kraus = [v[:, e, :] for e in range(4)]
    coeff = np.array([[np.trace(dag(p) @ k) / 2.0 for p in PAULIS] for k in kraus])
    chi = coeff.conj().T @ coeff
    chi = chi.conj()  # chi_mn = sum_e c_em c*_en
    tp = sum(
        chi[m, n] * (dag(PAULIS[n]) @ PAULIS[m]) for m in range(4) for n in range(4)
    )
    if np.abs(tp - np.eye(2)).max() > 1e-10:
        raise InvariantViolation("random channel lost trace preservation")
    return chi


def haar_average_fidelity(channel, rng: np.random.Generator, samples: int) -> float:
    """Monte-Carlo Haar-average fidelity of a qubit channel (oracle helper)."""
    acc = 0.0
    for _ in range(samples):
        psi = random_pure_state(rng)
        rho_out = channel(np.outer(psi.amplitudes, psi.amplitudes.conj()))
        acc += float(np.real(psi.amplitudes.conj() @ rho_out @ psi.amplitudes))
    return acc / samples


def carrier_local(theta: float, phi: float) -> np.ndarray:
    """3x3 single-ion matrix: R(theta, phi) on {S, D}, identity on H."""
    u = np.eye(3, dtype=np.complex128)
    u[np.ix_([S, D], [S, D])] = rotation_2x2(theta, phi)
    return u


def hide_local(theta: float, phi: float) -> np.ndarray:
    """3x3 single-ion matrix: R(theta, phi) on {S, H}, identity on D."""
    u = np.eye(3, dtype=np.complex128)
    u[np.ix_([S, H], [S, H])] = rotation_2x2(theta, phi)
    return u


def sideband_local(theta: float, phi: float, fock_cutoff: int) -> np.ndarray:
    """(3*nc x 3*nc) matrix on (ion level, motion), index = level*nc + n.

    Each |S,n>,|D,n+1> block gets R(theta*sqrt(n+1), phi); everything else
    (H levels, |D,0>, the truncated |S, nc-1>) is an exact fixed point, so the
    matrix is unitary at any cutoff.
    """
    nc = fock_cutoff
    u = np.eye(3 * nc, dtype=np.complex128)
    for n in range(nc - 1):
        idx = [S * nc + n, D * nc + n + 1]
        u[np.ix_(idx, idx)] = rotation_2x2(theta * math.sqrt(n + 1), phi)
    return u


def dense_drive_plan(pulse, fock_cutoff: int, kept: tuple[tuple[int, ...], ...], depol: float):
    """(levels, op, dep) as protocol._drive_plan gives them, read numerically
    from the drive's dense local matrix: `levels` grow by every level that
    matrix, then the depolarizing superoperator, reaches from the held ones
    by its nonzero pattern, and `op` is the dense matrix restricted to them."""
    def reached(hit: np.ndarray, axis: int, levels: tuple[int, ...]) -> tuple[int, ...]:
        hits = hit.any(axis=tuple(a for a in range(hit.ndim) if a != axis))
        return tuple(sorted({*levels, *map(int, np.flatnonzero(hits))}))

    if isinstance(pulse, BlueSideband):
        op = sideband_local(pulse.theta, pulse.phi, fock_cutoff).reshape((3, fock_cutoff) * 2)
    else:
        op = (carrier_local if isinstance(pulse, Carrier) else hide_local)(pulse.theta, pulse.phi)
    hit = op[(...,) + np.ix_(*kept)] != 0
    levels = [reached(hit, j, lv) for j, lv in enumerate(kept)]
    dep = None
    if depol:
        sup = depolarizing_superop(depol, 3).reshape(3, 3, 3, 3)
        levels[0] = reached(sup[(...,) + np.ix_(levels[0], levels[0])] != 0, 0, levels[0])
        d = len(levels[0])
        dep = sup[np.ix_(*levels[:1] * 4)].reshape(d * d, d * d)
    return tuple(levels), op[np.ix_(*levels * 2)], dep

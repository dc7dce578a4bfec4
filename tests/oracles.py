"""Test-side oracles: random pure states, random qubit channels and a
Monte-Carlo Haar average, drawn independently of the package's own routes."""
import numpy as np

from teleion.errors import InvariantViolation
from teleion.qcore import PAULIS, PureState, dag


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

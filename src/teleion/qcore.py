"""Shared quantum primitives: states, density matrices, Pauli algebra.

Everything downstream (trap model, protocol, tomography) builds on the
conventions fixed here:

* computational basis |0> = |S>, |1> = |D>;
* Bloch +z is |S>, so bloch_vector(|S><S|) = (0, 0, +1);
* subsystem indices are row-major, motion always last.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

# Tolerance constants used across the package.
ATOL_STRUCTURAL = 1e-12  # unitarity / Hermiticity / norm defects
ATOL_SPECTRAL = 1e-10    # trace and eigenvalue defects

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
#: Operator basis (I, X, Y, Z) used for process matrices, in this fixed order.
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _as_complex(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"{name}: non-finite entries")
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector. Norm must be 1 within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex(self.amplitudes, "PureState")
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionMismatch("PureState needs a 1-D vector of dim >= 2")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > ATOL_STRUCTURAL:
            raise InvariantViolation(f"PureState norm defect {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix (tolerances per module constants)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_complex(self.matrix, "DensityMatrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch("DensityMatrix must be square")
        herm_defect = np.abs(arr - arr.conj().T).max()
        if herm_defect > ATOL_STRUCTURAL:
            raise InvariantViolation(f"DensityMatrix Hermiticity defect {herm_defect:.3e}")
        tr = arr.trace()
        if abs(tr - 1.0) > ATOL_SPECTRAL:
            raise InvariantViolation(f"DensityMatrix trace defect {abs(tr - 1.0):.3e}")
        min_eig = float(np.linalg.eigvalsh(arr).min())
        if min_eig < -ATOL_SPECTRAL:
            raise InvariantViolation(f"DensityMatrix negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, psi: PureState | np.ndarray) -> "DensityMatrix":
        v = psi.amplitudes if isinstance(psi, PureState) else _as_complex(psi, "ket")
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


def _ptrace(arr: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace on a raw (d, d) array; `keep` lists subsystem indices."""
    dims = list(dims)
    keep = sorted(keep)
    n = len(dims)
    if np.prod(dims) != arr.shape[0]:
        raise DimensionMismatch(
            f"partial_trace: dims {dims} inconsistent with matrix dim {arr.shape[0]}"
        )
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise DimensionMismatch(f"partial_trace: bad keep={keep} for {n} subsystems")
    t = arr.reshape(dims + dims)
    # Trace out the complement, highest axis first so positions stay valid.
    for ax in reversed([i for i in range(n) if i not in keep]):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_trace(rho: DensityMatrix, dims, keep) -> DensityMatrix:
    """Trace out all subsystems not in `keep`, preserving their order."""
    return DensityMatrix(_ptrace(rho.matrix, dims, keep))


def state_fidelity(rho: DensityMatrix, psi: PureState) -> float:
    """<psi|rho|psi>, clipped to [0, 1] only for defects within 1e-10."""
    if rho.dim != psi.dim:
        raise DimensionMismatch(f"state_fidelity: {rho.dim} vs {psi.dim}")
    v = psi.amplitudes
    f = float(np.real(v.conj() @ rho.matrix @ v))
    if f < -ATOL_SPECTRAL or f > 1.0 + ATOL_SPECTRAL:
        raise InvariantViolation(f"state_fidelity out of range: {f!r}")
    return min(max(f, 0.0), 1.0)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 via the eigenvalues of the (Hermitian) difference."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"trace_distance: {a.dim} vs {b.dim}")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """(r_x, r_y, r_z) with |r| <= 1 + 1e-10. Qubit states only."""
    if rho.dim != 2:
        raise DimensionMismatch("bloch_vector expects a qubit state")
    r = np.array([np.real(np.trace(p @ rho.matrix)) for p in PAULIS[1:]])
    if np.linalg.norm(r) > 1.0 + ATOL_SPECTRAL:
        raise InvariantViolation(f"Bloch vector leaves the unit ball: |r|={np.linalg.norm(r)}")
    return r


def density_from_bloch(r) -> DensityMatrix:
    r = np.asarray(r, dtype=float)
    m = 0.5 * (PAULI_I + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)
    return DensityMatrix(m)

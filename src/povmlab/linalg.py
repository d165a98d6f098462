"""Dense complex Hermitian matrix helpers.

Eigendecomposition is the single functional-calculus path used everywhere
(square roots, inverse square roots), so there is one numerical kernel to
validate.

Exactly Hermitian input (``A`` bit-equal to ``A†``) takes the singular values
as ``|eigvalsh(A)|``; every other input goes through the SVD.  The Hermiticity
guard passes such input at once and otherwise measures ``||A - A†||`` as the
norm of the exactly Hermitian ``i(A - A†)``, so it takes the same fast path
while keeping its rule ``||A - A†|| <= tol * max(1, ||A||)``.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
PROB_FLOOR = 1e-12


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex 2-d array."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(float))):
        raise ValueError("matrix has non-finite entries")
    return A


def dag(M: np.ndarray) -> np.ndarray:
    return np.asarray(M).conj().T


def _exactly_hermitian(A: np.ndarray) -> bool:
    return np.array_equal(A, dag(A))


def _singular_values(M) -> np.ndarray:
    """Singular values, as absolute eigenvalues when ``M`` is exactly
    Hermitian."""
    A = np.asarray(M, dtype=complex)
    if _exactly_hermitian(A):
        return np.abs(np.linalg.eigvalsh(A))
    return np.linalg.svd(A, compute_uv=False)


def op_norm(M) -> float:
    """Operator norm (largest singular value)."""
    return float(_singular_values(M).max())


def trace_norm(M) -> float:
    """Sum of singular values."""
    return float(_singular_values(M).sum())


def max_abs(M) -> float:
    """Largest entrywise modulus."""
    A = np.asarray(M, dtype=complex)
    return float(np.abs(A).max()) if A.size else 0.0


def herm_residual(M) -> float:
    """||A - A†||, taken as the norm of the exactly Hermitian i(A - A†)."""
    A = np.asarray(M, dtype=complex)
    return op_norm(1j * (A - dag(A)))


def is_hermitian(M, tol: float = DEFAULT_TOL) -> bool:
    """||A - A†|| <= tol * max(1, ||A||); ||A|| is only computed when the
    residual exceeds tol."""
    A = np.asarray(M, dtype=complex)
    residual = 0.0 if _exactly_hermitian(A) else herm_residual(A)
    return residual <= tol or residual <= tol * max(1.0, op_norm(A))


def hermitize(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    return 0.5 * (A + dag(A))


def commutator(A, B) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return A @ B - B @ A


def eigh_checked(M, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, rejecting non-Hermitian input."""
    A = as_matrix(M)
    if not is_hermitian(A, tol):
        raise ValueError(
            f"matrix is not Hermitian within tolerance: residual {herm_residual(A):.3e}"
        )
    w, V = np.linalg.eigh(hermitize(A))
    return w, V


def psd_sqrt(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues below zero (numerical noise on a PSD input) are clamped to 0,
    so the result R satisfies R >= 0 and ||R @ R - M|| <= dim * tol for PSD M.
    """
    w, V = eigh_checked(M, tol)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ dag(V)


def psd_inv_sqrt(M, floor: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a strictly positive Hermitian matrix.

    ``floor`` is the smallest admissible eigenvalue; anything below it means
    the inverse is numerically meaningless and a ValueError is raised.
    """
    w, V = eigh_checked(M, tol)
    if w[0] <= floor:
        raise ValueError(
            f"kernel too small for inverse square root: min eigenvalue "
            f"{w[0]:.3e} <= floor {floor:.3e}"
        )
    return (V * (1.0 / np.sqrt(w))) @ dag(V)


def is_unitary(M, tol: float = DEFAULT_TOL) -> bool:
    A = as_matrix(M)
    return op_norm(dag(A) @ A - np.eye(A.shape[0])) <= tol * max(1.0, op_norm(A) ** 2)

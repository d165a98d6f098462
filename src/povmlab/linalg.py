"""Dense complex Hermitian matrix helpers.

Eigendecomposition is the single functional-calculus path used everywhere
(square roots, inverse square roots), so there is one numerical kernel to
validate.

Exactly Hermitian input (``A`` bit-equal to ``A†``) takes the singular values
as ``|eigvalsh(A)|``; every other input goes through the SVD.  The Hermiticity
guard passes such input at once and otherwise measures ``||A - A†||`` as the
norm of the exactly Hermitian ``i(A - A†)``, so it takes the same fast path
while keeping its rule ``||A - A†|| <= tol * max(1, ||A||)``.

The kernels take one (n, n) matrix or a stack of shape (..., n, n), apply
their rules (fast path, guard, clamp, floor) per matrix, return norms and
verdicts with the stack's shape, and name the stack index in a refusal.
numpy runs one LAPACK or BLAS call per matrix of a stack, so each matrix of a
stacked result is bit-equal to the same call on that matrix alone.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
PROB_FLOOR = 1e-12
# byte budget of one stack of matrices built from a longer list of them
STACK_BYTES = 128 * 1024


def stack_size(n: int) -> int:
    """How many complex (n, n) matrices one stack holds within STACK_BYTES."""
    return max(1, STACK_BYTES // (16 * n * n))


def as_matrix(M, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex 2-d array, or with ``stack`` to (..., n, n)."""
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or (A.ndim > 2 and not stack) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A.view(float)).all():
        infinite = ~np.isfinite(A.view(float)).all(axis=(-2, -1))
        raise ValueError(f"matrix{at_index(infinite)} has non-finite entries")
    return A


def at_index(flagged) -> str:
    """' at stack index i' for the first flagged matrix of a stack; '' for one."""
    if np.ndim(flagged) == 0:
        return ""
    return " at stack index " + ", ".join(str(i) for i in np.argwhere(flagged)[0])


def dag(M: np.ndarray) -> np.ndarray:
    return np.asarray(M).conj().swapaxes(-1, -2)


def _singular_values(M) -> np.ndarray:
    """Singular values, as absolute eigenvalues of the matrices that are
    exactly Hermitian."""
    A = np.asarray(M, dtype=complex)
    same = A == dag(A)
    if same.all():
        return np.abs(np.linalg.eigvalsh(A))
    if A.ndim == 2:
        return np.linalg.svd(A, compute_uv=False)
    exact = same.all(axis=(-2, -1))
    values = np.empty(A.shape[:-1])
    values[exact] = np.abs(np.linalg.eigvalsh(A[exact]))
    values[~exact] = np.linalg.svd(A[~exact], compute_uv=False)
    return values


def op_norm(M):
    """Operator norm (largest singular value)."""
    norm = _singular_values(M).max(axis=-1)
    return float(norm) if norm.ndim == 0 else norm


def trace_norm(M):
    """Sum of singular values."""
    norm = _singular_values(M).sum(axis=-1)
    return float(norm) if norm.ndim == 0 else norm


def max_abs(M) -> float:
    """Largest entrywise modulus."""
    A = np.asarray(M, dtype=complex)
    return float(np.abs(A).max()) if A.size else 0.0


def herm_residual(M):
    """||A - A†||, taken as the norm of the exactly Hermitian i(A - A†)."""
    A = np.asarray(M, dtype=complex)
    return op_norm(1j * (A - dag(A)))


def is_hermitian(M, tol: float = DEFAULT_TOL):
    """||A - A†|| <= tol * max(1, ||A||); ||A|| is only computed when the
    residual exceeds tol."""
    A = np.asarray(M, dtype=complex)
    same = A == dag(A)
    if A.ndim == 2:
        residual = 0.0 if same.all() else herm_residual(A)
        return residual <= tol or residual <= tol * max(1.0, op_norm(A))
    residual = np.zeros(A.shape[:-2])
    inexact = ~same.all(axis=(-2, -1))
    if inexact.any():
        residual[inexact] = herm_residual(A[inexact])
    ok = residual <= tol
    if not ok.all():
        ok[~ok] = residual[~ok] <= tol * np.maximum(1.0, op_norm(A[~ok]))
    return ok


def hermitize(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    return 0.5 * (A + dag(A))


def commutator(A, B) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return A @ B - B @ A


def eigh_checked(M, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, rejecting non-Hermitian input."""
    A = as_matrix(M, stack=True)
    ok = is_hermitian(A, tol)
    if not (ok if A.ndim == 2 else ok.all()):
        rejected = ~np.asarray(ok)
        raise ValueError(
            f"matrix{at_index(rejected)} is not Hermitian within tolerance: "
            f"residual {herm_residual(A[rejected][0]):.3e}"
        )
    w, V = np.linalg.eigh(hermitize(A))
    return w, V


def psd_sqrt(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues below zero (numerical noise on a PSD input) are clamped to 0,
    so the result R satisfies R >= 0 and ||R @ R - M|| <= dim * tol for PSD M.
    """
    w, V = eigh_checked(M, tol)
    return (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dag(V)


def psd_inv_sqrt(M, floor: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a strictly positive Hermitian matrix.

    ``floor`` is the smallest admissible eigenvalue; anything below it means
    the inverse is numerically meaningless and a ValueError is raised.
    """
    w, V = eigh_checked(M, tol)
    low = w[..., 0] <= floor
    if low.any():
        raise ValueError(
            f"kernel too small for inverse square root{at_index(low)}: min eigenvalue "
            f"{w[..., 0][low][0]:.3e} <= floor {floor:.3e}"
        )
    return (V * (1.0 / np.sqrt(w))[..., None, :]) @ dag(V)


def is_unitary(M, tol: float = DEFAULT_TOL) -> bool:
    A = as_matrix(M)
    return op_norm(dag(A) @ A - np.eye(A.shape[0])) <= tol * max(1.0, op_norm(A) ** 2)

"""Dense Hermitian matrix helpers, real or complex.

Every kernel keeps the dtype of its input: complex input is read as
complex128, bit for bit, and any other input as float64 (``_as_array``,
which hands a float64 or complex128 ndarray back itself and converts
anything else).  A real symmetric matrix therefore runs real LAPACK and
BLAS, and its square roots, inverse square roots and products stay real; a
complex operand anywhere in a product upcasts the result as numpy does.

``eigh_checked`` is the single functional-calculus path.  It decomposes
``hermitize(A)``, and runs the Hermiticity guard only where that differs
from A: where they are equal, A equals A† and the guard's residual is 0.
(It never decomposes A itself: LAPACK reads the sign of a zero, and
hermitize turns a -0.0 mirrored by +0.0 into +0.0.)  It returns one
``Eig`` (w, V), which carries the one formula V f(w) V† (``Eig.apply``) and
gives the clamped square root, the inverse square root and the operator norm
of the matrix, so a caller that needs several of these decomposes the matrix
once.  ``Eig.inv_sqrt`` holds the one kernel-floor rule: an inverse square
root is refused when the smallest eigenvalue is at or below
KERNEL_FLOOR_FACTOR times the matrix's norm.

Exactly Hermitian input (``A`` equal to ``A†`` entry by entry) takes the
singular values as ``|eigvalsh(A)|``; every other input goes through the
SVD.  ``herm_residual`` is 0.0 for such input, with no decomposition, and
otherwise the norm of the exactly Hermitian ``i(A - A†)`` (for real input,
of the real ``A - A.T``); the Hermiticity guard reads it and keeps its rule
``||A - A†|| <= tol * max(1, ||A||)``.  ``commutator_norm`` of two exactly
Hermitian matrices is one product AB and one ``eigvalsh``.

The kernels take one (n, n) matrix or a stack of shape (..., n, n), apply
their rules (fast path, guard, clamp, floor) per matrix, return norms and
verdicts with the stack's shape, and name the stack index in a refusal.
numpy runs one LAPACK or BLAS call per matrix of a stack, so each matrix of a
stacked result is bit-equal to the same call on that matrix alone.  On one
matrix, ``op_norm``, ``Eig.apply``, ``Eig.norm`` and ``Eig.inv_sqrt`` skip
the stack indexing and reductions; norms are Python floats.
"""
from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-10
PROB_FLOOR = 1e-12
KERNEL_FLOOR_FACTOR = 1e-8
TINY = sys.float_info.min  # the smallest normal float64, np.finfo(float).tiny
# byte budget of one stack of matrices built from a longer list of them
STACK_BYTES = 128 * 1024
# numpy's stacked eigvalsh releases the GIL only when the stack size times n
# exceeds this (NPY_BEGIN_THREADS_THRESHOLDED in numpy's ndarraytypes.h)
GIL_FREE_LOOP = 500
_KEPT = (np.dtype(float), np.dtype(complex))  # the dtypes ``_as_array`` keeps


def stack_size(n: int) -> int:
    """How many (n, n) matrices one stack of a longer list holds: as many
    complex ones as fit in STACK_BYTES, and at least enough that a stacked
    ``eigvalsh`` runs without the GIL (k * n > GIL_FREE_LOOP), so
    threads can overlap it.  The second rule binds above n = 16: 8 matrices
    at n = 64, 16 at n = 32."""
    return max(GIL_FREE_LOOP // n + 1, STACK_BYTES // (16 * n * n))


def _as_array(M) -> np.ndarray:
    """``M`` as complex128 when it is complex, as float64 otherwise; a
    float64 or complex128 ndarray is returned itself."""
    if type(M) is np.ndarray and M.dtype in _KEPT:
        return M
    A = np.asarray(M)
    return A.astype(complex if np.iscomplexobj(A) else float, copy=False)


def as_matrix(M, stack: bool = False) -> np.ndarray:
    """Coerce by ``_as_array`` to a square 2-d array, or with ``stack`` to
    (..., n, n)."""
    A = _as_array(M)
    if A.ndim < 2 or (A.ndim > 2 and not stack) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A.view(float)).all():  # a complex view holds both parts
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


def _svd_values(A: np.ndarray) -> np.ndarray:
    """Singular values by the SVD, in descending order; NaN for each matrix
    with non-finite entries, on which LAPACK does not converge."""
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError:
        finite = np.isfinite(A).all(axis=(-2, -1))
        if finite.all():
            raise
        values = np.full(A.shape[:-1], np.nan)
        if finite.any():
            values[finite] = np.linalg.svd(A[finite], compute_uv=False)
        return values


def _singular_values(M) -> np.ndarray:
    """Singular values, as absolute eigenvalues of the matrices that are
    exactly Hermitian."""
    A = _as_array(M)
    same = A == dag(A)
    if same.all():
        return np.abs(np.linalg.eigvalsh(A))
    if A.ndim == 2:
        return _svd_values(A)
    exact = same.all(axis=(-2, -1))
    values = np.empty(A.shape[:-1])
    if exact.any():
        values[exact] = np.abs(np.linalg.eigvalsh(A[exact]))
    values[~exact] = _svd_values(A[~exact])
    return values


def op_norm(M):
    """Operator norm (largest singular value)."""
    A = _as_array(M)
    if A.ndim != 2:
        return _singular_values(A).max(axis=-1)
    if (A == dag(A)).all():  # one matrix: Python floats, no stack reductions
        w = np.linalg.eigvalsh(A)
        return max(abs(float(w[0])), abs(float(w[-1])))
    return float(_svd_values(A)[0])


def trace_norm(M):
    """Sum of singular values."""
    norm = _singular_values(M).sum(axis=-1)
    return float(norm) if norm.ndim == 0 else norm


def max_abs(M) -> float:
    """Largest entrywise modulus."""
    A = _as_array(M)
    return float(np.abs(A).max()) if A.size else 0.0


def herm_residual(M):
    """||A - A†||; 0.0, with no decomposition, for a matrix bit-equal to A†.
    Complex input takes the norm of the exactly Hermitian i(A - A†), real
    input that of the real antisymmetric A - A.T."""
    A = _as_array(M)
    exact = (A == dag(A)).all(axis=(-2, -1))
    residual = np.zeros(exact.shape)
    if not exact.all():
        D = A[~exact] - dag(A[~exact])
        residual[~exact] = op_norm(1j * D if np.iscomplexobj(D) else D)
    return float(residual) if residual.ndim == 0 else residual


def is_hermitian(M, tol: float = DEFAULT_TOL):
    """||A - A†|| <= tol * max(1, ||A||); ||A|| is only computed when the
    residual exceeds tol."""
    A = _as_array(M)
    residual = herm_residual(A)
    if A.ndim == 2:
        return residual <= tol or residual <= tol * max(1.0, op_norm(A))
    ok = residual <= tol
    if not ok.all():
        ok[~ok] = residual[~ok] <= tol * np.maximum(1.0, op_norm(A[~ok]))
    return ok


def hermitize(M) -> np.ndarray:
    A = _as_array(M)
    return 0.5 * (A + dag(A))


def commutator(A, B) -> np.ndarray:
    A = _as_array(A)
    B = _as_array(B)
    return A @ B - B @ A


def commutator_norm(A, B):
    """||[A, B]|| for one pair, or for stacks that broadcast.  Where A and B
    are bit-equal to their adjoints, [A, B] = X - X† with X = AB, and the
    norm is the largest |eigenvalue| of the exactly Hermitian i(X - X†); any
    other pair takes ``op_norm(commutator(A, B))``.  When every pair is
    exact, no operand is copied, and a complex X - X† is multiplied by i in
    place."""
    A, B = np.broadcast_arrays(_as_array(A), _as_array(B))
    exact = (A == dag(A)).all(axis=(-2, -1)) & (B == dag(B)).all(axis=(-2, -1))
    norm = np.empty(exact.shape)
    if exact.any():
        X = A @ B if exact.all() else A[exact] @ B[exact]
        D = X - dag(X)
        del X
        w = np.linalg.eigvalsh(np.multiply(1j, D, out=D) if D.dtype == complex else 1j * D)
        norm[exact] = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])).reshape(-1)
    if not exact.all():
        norm[~exact] = op_norm(commutator(A[~exact], B[~exact]))
    return float(norm) if norm.ndim == 0 else norm


class Eig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix or stack: ascending
    eigenvalues w (..., n) and orthonormal eigenvectors V (..., n, n).
    Unpacks as ``w, V``."""

    w: np.ndarray
    V: np.ndarray

    @classmethod
    def of(cls, A: np.ndarray) -> "Eig":
        """Unchecked decomposition of the Hermitian part of ``A``."""
        return cls(*np.linalg.eigh(hermitize(A)))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V†, for values f(w) of the eigenvalues."""
        if self.w.ndim == 1:  # one matrix, as ``norm``
            return (self.V * values) @ self.V.conj().T
        return (self.V * values[..., None, :]) @ dag(self.V)

    @property
    def norm(self):
        """Operator norm, the largest |eigenvalue|, with the stack's shape."""
        if self.w.ndim == 1:  # one matrix: Python floats, no ufuncs on 0-d arrays
            return max(abs(float(self.w[0])), abs(float(self.w[-1])))
        return np.maximum(np.abs(self.w[..., 0]), np.abs(self.w[..., -1]))

    def sqrt(self) -> np.ndarray:
        """PSD square root; eigenvalues below zero (numerical noise on a PSD
        input) are clamped to 0."""
        return self.apply(np.sqrt(np.clip(self.w, 0.0, None)))

    def inv_sqrt(self) -> np.ndarray:
        """Inverse square root, refused with a ValueError when the smallest
        eigenvalue is at or below the floor KERNEL_FLOOR_FACTOR * max(norm,
        TINY), per matrix: the inverse is then numerically meaningless."""
        if self.w.ndim == 1:  # one matrix: Python floats, as ``norm``
            floor = KERNEL_FLOOR_FACTOR * max(self.norm, TINY)
            refused = low = float(self.w[0]) <= floor
        else:
            floor = KERNEL_FLOOR_FACTOR * np.maximum(self.norm, TINY)
            low = self.w[..., 0] <= floor
            refused = low.any()
        if refused:
            raise ValueError(
                f"kernel too small for inverse square root{at_index(low)}: min eigenvalue "
                f"{self.w[..., 0][low][0]:.3e} <= floor {np.asarray(floor)[low][0]:.3e}"
            )
        return self.apply(1.0 / np.sqrt(self.w))


def eigh_checked(M, tol: float = DEFAULT_TOL) -> Eig:
    """Eigendecomposition of a Hermitian matrix, rejecting non-Hermitian
    input; the guard runs only where hermitize(A) differs from A."""
    A = as_matrix(M, stack=True)
    H = hermitize(A)
    if not (tol >= 0 and (H == A).all()):
        ok = is_hermitian(A, tol)
        if not (ok if A.ndim == 2 else ok.all()):
            rejected = ~np.asarray(ok)
            raise ValueError(
                f"matrix{at_index(rejected)} is not Hermitian within tolerance: "
                f"residual {herm_residual(A[rejected][0]):.3e}"
            )
    return Eig(*np.linalg.eigh(H))


def psd_sqrt(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root, ``Eig.sqrt``.

    The result R satisfies R >= 0 and ||R @ R - M|| <= dim * tol for PSD M.
    """
    return eigh_checked(M, tol).sqrt()


def is_unitary(M, tol: float = DEFAULT_TOL) -> bool:
    A = as_matrix(M)
    return op_norm(dag(A) @ A - np.eye(A.shape[0])) <= tol * max(1.0, op_norm(A) ** 2)

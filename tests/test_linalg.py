import numpy as np
import pytest

from povmlab import linalg
from povmlab.generators import haar_unitary, make_rng
from povmlab.linalg import (
    DEFAULT_TOL,
    KERNEL_FLOOR_FACTOR,
    as_matrix,
    commutator,
    commutator_norm,
    dag,
    eigh_checked,
    herm_residual,
    hermitize,
    is_hermitian,
    max_abs,
    op_norm,
    psd_sqrt,
    trace_norm,
)


def random_psd(dim, rng):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return G @ dag(G)


class TestPsdSqrt:
    def test_identity(self):
        assert op_norm(psd_sqrt(np.eye(3)) - np.eye(3)) < 1e-14

    def test_diagonal(self):
        R = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(R, np.diag([2.0, 3.0]), atol=1e-14)

    def test_square_recovers_input(self):
        rng = make_rng(11)
        for dim in (2, 3, 5, 8):
            M = random_psd(dim, rng)
            R = psd_sqrt(M)
            assert op_norm(R @ R - M) <= 1e-10 * max(1.0, op_norm(M))

    def test_eigenvalues_are_square_roots(self):
        rng = make_rng(12)
        M = random_psd(6, rng)
        w_m = np.sort(np.linalg.eigvalsh(hermitize(M)))
        w_r = np.sort(np.linalg.eigvalsh(psd_sqrt(M)))
        assert np.max(np.abs(w_r - np.sqrt(np.clip(w_m, 0, None)))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_clamps_small_negatives(self):
        M = np.diag([1.0, -1e-14])
        R = psd_sqrt(M)
        assert np.linalg.eigvalsh(R)[0] >= 0.0


class TestInvSqrt:
    def test_inverse_of_sqrt(self):
        rng = make_rng(13)
        M = random_psd(4, rng) + 0.5 * np.eye(4)
        R = eigh_checked(M).inv_sqrt()
        assert op_norm(R @ M @ R - np.eye(4)) < 1e-10

    def test_kernel_floor_rejection(self):
        with pytest.raises(ValueError, match="kernel too small"):
            eigh_checked(np.diag([1.0, 0.0])).inv_sqrt()


class TestTraceNorm:
    def test_diagonal_sign_mix(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_rank_one_pure(self):
        rng = make_rng(14)
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi /= np.linalg.norm(psi)
        assert trace_norm(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_matches_singular_value_oracle(self):
        rng = make_rng(15)
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            oracle = np.linalg.svd(A, compute_uv=False).sum()
            assert abs(trace_norm(A) - oracle) < 1e-12

    def test_hermitian_case_is_abs_eigenvalue_sum(self):
        rng = make_rng(16)
        M = hermitize(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert trace_norm(M) == pytest.approx(np.abs(np.linalg.eigvalsh(M)).sum(), abs=1e-11)

    def test_norm_axioms(self):
        rng = make_rng(17)
        for _ in range(25):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            c = rng.normal()
            assert trace_norm(A + B) <= trace_norm(A) + trace_norm(B) + 1e-10
            assert abs(trace_norm(c * A) - abs(c) * trace_norm(A)) < 1e-10


class TestHelpers:
    def test_eigh_checked_rejects_shape(self):
        with pytest.raises(ValueError, match="square"):
            eigh_checked(np.ones((2, 3)))

    def test_max_abs(self):
        assert max_abs(np.array([[0.1, -0.5], [0.25, 0.0]])) == 0.5

    def test_haar_unitary_is_unitary(self):
        U = haar_unitary(5, make_rng(18))
        assert op_norm(dag(U) @ U - np.eye(5)) < 1e-12


def svd_oracle(A):
    return np.linalg.svd(np.asarray(A, dtype=complex), compute_uv=False)


def old_hermiticity_guard(A, tol=DEFAULT_TOL):
    """The guard as a pair of SVDs: ||A - A†|| <= tol * max(1, ||A||)."""
    return svd_oracle(A - dag(A)).max() <= tol * max(1.0, svd_oracle(A).max())


def norm_cases(rng):
    G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    R = rng.normal(size=(5, 5))
    return {
        "hermitian": hermitize(G),
        "anti_hermitian": G - dag(G),
        "general": G,
        "real_symmetric": R + R.T,
        "one_by_one": np.array([[rng.normal() + 1j * rng.normal()]]),
    }


class TestNormOracle:
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e3, 1e6])
    def test_op_and_trace_norm_match_svd(self, scale):
        rng = make_rng(21)
        for name, M in norm_cases(rng).items():
            A = scale * M
            s = svd_oracle(A)
            assert abs(op_norm(A) - s.max()) <= 1e-13 * s.max(), name
            assert abs(trace_norm(A) - s.sum()) <= 1e-13 * s.sum(), name

    def test_hermitian_input_makes_no_svd_call(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = make_rng(22)
        H = hermitize(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        op_norm(H)
        trace_norm(H)
        assert is_hermitian(H)
        eigh_checked(H)
        psd_sqrt(H @ H)
        op_norm(H + H - np.eye(8))
        # within tolerance but not exactly Hermitian: the residual i(A - A†)
        # is exactly Hermitian and the scale ||A|| is not needed
        N = H.copy()
        N[0, 1] += 1e-14
        assert is_hermitian(N)
        assert calls == []
        op_norm(rng.normal(size=(8, 8)))
        assert len(calls) == 1

    def test_residual_matrix_is_exactly_hermitian(self):
        rng = make_rng(23)
        for _ in range(20):
            A = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
            D = 1j * (A - dag(A))
            assert np.array_equal(D, dag(D))
            assert abs(herm_residual(A) - svd_oracle(A - dag(A)).max()) <= 1e-13 * op_norm(D)


def record_lapack(monkeypatch):
    """(name, dtype) of each np.linalg eigh, eigvalsh and svd call, in order."""
    seen = []
    for name in ("eigh", "eigvalsh", "svd"):
        def recorded(A, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            seen.append((_name, np.asarray(A).dtype))
            return _call(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


class TestHermResidualDtype:
    def test_real_input_reaches_real_lapack(self, monkeypatch):
        seen = record_lapack(monkeypatch)
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert herm_residual(A) == 2.0
        assert seen == [("svd", np.float64)]
        seen.clear()
        G = make_rng(26).normal(size=(3, 5, 5))
        G[1] = G[1] + G[1].T
        residual = herm_residual(G)
        assert seen == [("svd", np.float64)]  # one stacked call on the two others
        assert residual[1] == 0.0
        for k in (0, 2):
            assert abs(residual[k] - svd_oracle(G[k] - G[k].T).max()) <= 1e-13 * residual[k]

    def test_complex_input_keeps_the_hermitian_form(self, monkeypatch):
        seen = record_lapack(monkeypatch)
        A = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        assert abs(herm_residual(A) - 2.0) <= 1e-15
        assert herm_residual(np.stack([A, A]).astype(complex)).shape == (2,)
        assert seen == [("eigvalsh", np.complex128)] * 2


class TestCommutatorNorm:
    def pairs(self, rng):
        G = rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6))
        R = rng.normal(size=(2, 5, 5))
        return {"complex": hermitize(G), "real": R + R.swapaxes(-1, -2),
                "commuting": np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.0, 1.0])])}

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
    def test_hermitian_pairs_match_the_svd_without_one(self, scale, monkeypatch):
        seen = record_lapack(monkeypatch)
        for name, (A, B) in self.pairs(make_rng(27)).items():
            A = scale * A
            expected = svd_oracle(A @ B - B @ A).max()
            bound = 1e-13 * svd_oracle(A).max() * svd_oracle(B).max()
            seen.clear()
            value = commutator_norm(A, B)
            assert seen == [("eigvalsh", np.complex128)], name
            assert isinstance(value, float), name
            assert abs(value - expected) <= bound, name
            assert abs(commutator_norm(B, A) - value) <= bound, name

    def test_eigvalsh_gets_an_exactly_hermitian_matrix(self, monkeypatch):
        handed = []

        def recorded(M, *args, _call=np.linalg.eigvalsh, **kwargs):
            handed.append(np.array(M))
            return _call(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        rng = make_rng(28)
        for A, B in self.pairs(rng).values():
            commutator_norm(A, B)
        assert len(handed) == 3
        assert all(np.array_equal(M, dag(M)) for M in handed)

    def test_other_input_takes_op_norm_of_the_commutator(self):
        rng = make_rng(29)
        A = hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        K = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        N = A.copy()
        N[0, 1] += 1e-14
        for left, right in ((A, K), (K, A), (N, A), (A, N)):
            assert commutator_norm(left, right) == op_norm(commutator(left, right))

    def test_stacks_broadcast_and_match_the_loop(self):
        rng = make_rng(30)
        H = mixed_stack(5, rng)  # exactly Hermitian at even indices only
        B = hermitize(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        values = commutator_norm(H, B)
        assert values.shape == (6,)
        assert np.array_equal(values, [commutator_norm(M, B) for M in H])
        grid = commutator_norm(H[:, None], H[::2])
        assert grid.shape == (6, 3)
        assert np.array_equal(grid, [[commutator_norm(M, N) for N in H[::2]] for M in H])


class TestHermiticityGuard:
    @pytest.mark.parametrize("norm", [0.3, 50.0])
    @pytest.mark.parametrize("ratio", [0.5, 0.99, 1.01, 2.0])
    def test_matches_svd_formula_at_the_boundary(self, norm, ratio):
        """Residual placed just below and just above tol * max(1, ||A||)."""
        rng = make_rng(24)
        for _ in range(10):
            H = hermitize(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            H *= norm / op_norm(H)
            K = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            K /= svd_oracle(K - dag(K)).max()
            A = H + ratio * DEFAULT_TOL * max(1.0, norm) * K
            expected = old_hermiticity_guard(A)
            assert expected == (ratio < 1.0)
            assert is_hermitian(A) == expected
            if expected:
                eigh_checked(A)
            else:
                with pytest.raises(ValueError, match="Hermitian"):
                    eigh_checked(A)

    def test_exactly_hermitian_input_makes_no_lapack_call(self, monkeypatch):
        """herm_residual is 0.0 without a decomposition for each matrix
        bit-equal to its adjoint, and decomposes only the others."""
        stacks = []
        for name in ("eigh", "eigvalsh", "svd"):
            def recorded(A, *args, _call=getattr(np.linalg, name), **kwargs):
                stacks.append(np.shape(A)[:-2])
                return _call(A, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        H = mixed_stack(4, make_rng(25))
        assert herm_residual(H[0]) == 0.0 and is_hermitian(H[0])
        assert np.array_equal(herm_residual(H[::2]), np.zeros(3))
        assert stacks == []
        residual = herm_residual(H)
        assert stacks == [(3,)]  # one stacked call on the three inexact matrices
        assert np.array_equal(residual[::2], np.zeros(3)) and (residual[1::2] > 0).all()
        assert is_hermitian(H).all()

    def test_negative_tolerance_rejects_everything(self):
        assert not is_hermitian(np.eye(2), tol=-1.0)
        assert not is_hermitian(np.zeros((2, 2)), tol=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        for M in (np.diag([bad, 1.0]), np.array([[1.0, bad], [0.0, 1.0]])):
            for fn in (eigh_checked, psd_sqrt):
                with pytest.raises(ValueError, match="non-finite"):
                    fn(M)
            with pytest.raises(ValueError, match="non-finite"):
                eigh_checked(M).inv_sqrt()


class TestExactHermitianShortcut:
    """eigh_checked skips the guard where hermitize(A) equals A, and its
    result is the old formula np.linalg.eigh(hermitize(A)) on every input."""

    @staticmethod
    def cases(rng):
        real = rng.normal(size=(5, 6, 6))
        cplx = real + 1j * rng.normal(size=(5, 6, 6))
        return [hermitize(real), hermitize(cplx)]

    @staticmethod
    def assert_old_formula(A):
        w, V = eigh_checked(A)
        w_old, V_old = np.linalg.eigh(hermitize(A))
        assert w.dtype == w_old.dtype and V.dtype == V_old.dtype
        assert w.tobytes() == w_old.tobytes() and V.tobytes() == V_old.tobytes()

    def test_exact_input_is_bit_equal_to_the_old_formula(self, monkeypatch):
        guarded = []
        monkeypatch.setattr(linalg, "is_hermitian", lambda *a, **k: guarded.append(1))
        for H in self.cases(make_rng(91)):
            assert (H == dag(H)).all()
            self.assert_old_formula(H)  # a stack
            self.assert_old_formula(H[2])  # one matrix
        assert guarded == []

    def test_signed_zeros_keep_the_old_formula(self):
        """A equal to A† entry by entry, but with a -0.0 mirrored by +0.0:
        LAPACK reads the sign of a zero (with OpenBLAS, np.linalg.eigh of
        both matrices gives other eigenvector bits than of their hermitized
        forms), so the result must come from hermitize(A)."""
        A = np.array([[2.0, 0.0, 1.0], [-0.0, 3.0, 0.5], [1.0, 0.5, 4.0]])
        # conj gives every imaginary part -0.0, which hermitize makes +0.0
        C = np.array([[2.0, 1.0, -0.5], [1.0, -1.0, 0.0], [-0.5, 0.0, 0.0]], dtype=complex).conj()
        for M in (A, C):
            assert (M == dag(M)).all() and M.tobytes() != hermitize(M).tobytes()
            self.assert_old_formula(M)

    def test_near_hermitian_input_goes_through_the_guard(self, monkeypatch):
        guarded = []
        guard = linalg.is_hermitian
        monkeypatch.setattr(linalg, "is_hermitian",
                            lambda *a, **k: guarded.append(1) or guard(*a, **k))
        H = mixed_stack(4, make_rng(92))
        assert not (hermitize(H) == H).all()
        self.assert_old_formula(H)
        self.assert_old_formula(H[1])
        assert guarded == [1, 1]

    def test_refusals_are_unchanged(self):
        H = mixed_stack(3, make_rng(93))
        H[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"^matrix at stack index 2 is not Hermitian "
                                             r"within tolerance: residual 1\.000e-03$"):
            eigh_checked(H)
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian within tolerance: "
                                             r"residual 1\.000e-03$"):
            eigh_checked(H[2])
        # an exactly Hermitian matrix passes only a guard with tol >= 0
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="not Hermitian"):
                eigh_checked(np.eye(2), tol=tol)


def mixed_stack(n, rng, count=6):
    """PSD matrices of size n, every other one exactly Hermitian and the
    rest Hermitian only within tolerance (a 1e-14 anti-Hermitian part)."""
    G = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    H = hermitize(G @ dag(G)) + 0.1 * np.eye(n)
    K = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    H[1::2] += 1e-14 * (K[1::2] - dag(K[1::2]))
    return H


def loop(fn, stack):
    return np.array([fn(M) for M in stack])


class TestStackOracle:
    """Each matrix of a stacked result is bit-equal to the 2-d call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_stacked_kernels_match_the_loop(self, n):
        rng = make_rng(31)
        H = mixed_stack(n, rng)
        if n > 1:
            assert not np.array_equal(H[1], dag(H[1]))
        for fn in (op_norm, trace_norm, psd_sqrt, herm_residual, is_hermitian,
                   hermitize, lambda M: eigh_checked(M).inv_sqrt()):
            assert np.array_equal(fn(H), loop(fn, H))
        w, V = eigh_checked(H)
        assert np.array_equal(w, loop(lambda M: eigh_checked(M)[0], H))
        assert np.array_equal(V, loop(lambda M: eigh_checked(M)[1], H))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_stacked_norms_of_general_matrices_match_the_loop(self, n):
        rng = make_rng(32)
        G = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        G[::2] = hermitize(G[::2])
        for fn in (op_norm, trace_norm, herm_residual):
            values = fn(G)
            assert values.shape == (5,)
            assert np.array_equal(values, loop(fn, G))

    def test_a_non_finite_matrix_has_nan_norms_and_the_others_keep_theirs(self):
        # LAPACK's SVD does not converge on a NaN entry; in a stack only that
        # matrix's norms are NaN
        G = make_rng(35).normal(size=(4, 3, 3))
        G[2, 0, 1] = np.nan
        for fn in (op_norm, trace_norm):
            values = fn(G)
            assert np.isnan(values[2]) and np.isnan(fn(G[2]))
            assert np.array_equal(values[[0, 1, 3]], loop(fn, G[[0, 1, 3]]))

    def test_a_finite_matrix_the_svd_fails_on_still_raises(self, monkeypatch):
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", unconverged)
        G = make_rng(36).normal(size=(2, 3, 3))
        for M in (G, G[0]):
            with pytest.raises(np.linalg.LinAlgError):
                op_norm(M)
            with pytest.raises(np.linalg.LinAlgError):
                trace_norm(M)

    def test_stack_of_two_axes(self):
        H = mixed_stack(4, make_rng(33)).reshape(2, 3, 4, 4)
        assert op_norm(H).shape == (2, 3)
        assert np.array_equal(psd_sqrt(H).reshape(6, 4, 4), loop(psd_sqrt, H.reshape(6, 4, 4)))

    @pytest.mark.parametrize("norm", [0.3, 50.0])
    def test_guard_per_matrix_at_the_boundary(self, norm):
        rng = make_rng(34)
        H = mixed_stack(5, rng)
        H[2] *= norm / op_norm(H[2])
        K = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        K /= svd_oracle(K - dag(K)).max()
        for ratio in (0.99, 1.01):
            H[2] = hermitize(H[2]) + ratio * DEFAULT_TOL * max(1.0, norm) * K
            assert np.array_equal(is_hermitian(H), loop(is_hermitian, H))
            assert is_hermitian(H)[2] == (ratio < 1.0)
        assert not is_hermitian(H, tol=-1.0).any()

    def test_non_hermitian_matrix_refused_by_index(self):
        H = mixed_stack(3, make_rng(35))
        H[4, 0, 1] += 1e-3
        for fn in (eigh_checked, psd_sqrt, lambda M: eigh_checked(M).inv_sqrt()):
            with pytest.raises(ValueError, match="matrix at stack index 4 is not Hermitian"):
                fn(H)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_refused_by_index(self, bad):
        H = mixed_stack(3, make_rng(36))
        H[3, 1, 1] = bad
        for fn in (eigh_checked, psd_sqrt, lambda M: eigh_checked(M).inv_sqrt()):
            with pytest.raises(ValueError, match="matrix at stack index 3 has non-finite"):
                fn(H)

    def test_floor_refusal_names_the_index(self):
        H = mixed_stack(3, make_rng(37))
        H[5] = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="inverse square root at stack index 5"):
            eigh_checked(H).inv_sqrt()

    def test_one_matrix_messages_carry_no_index(self):
        with pytest.raises(ValueError, match="^matrix is not Hermitian"):
            eigh_checked(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="^kernel too small for inverse square root: "):
            eigh_checked(np.diag([1.0, 0.0])).inv_sqrt()


def test_stack_size_crosses_numpys_gil_threshold():
    """numpy's stacked eigvalsh releases the GIL only when the stack size times
    n exceeds 500 (NPY_BEGIN_THREADS_THRESHOLDED in numpy's ndarraytypes.h):
    a smaller stack holds the GIL, and the scenario threads cannot overlap
    its decomposition.  So a stack holds more than 500 / n matrices at every
    size a scenario may ask for, and never fewer than the byte budget's
    count."""
    from povmlab.scenarios import N_MAX

    for n in range(1, N_MAX + 1):
        assert linalg.stack_size(n) * n > 500, n
        assert linalg.stack_size(n) >= linalg.STACK_BYTES // (16 * n * n), n
    assert [linalg.stack_size(n) for n in (16, 32, 64, 128)] == [32, 16, 8, 4]


class TestEig:
    """Eig's functions are bit-equal to the formulas they replaced, V f(w) V†
    on the same decomposition, for one matrix and for a stack."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_matches_the_replaced_formulas(self, n):
        H = mixed_stack(n, make_rng(38))
        for M in (H[0], H[1], H):
            eig = eigh_checked(M)
            w, V = np.linalg.eigh(hermitize(M))
            assert np.array_equal(eig.w, w) and np.array_equal(eig.V, V)
            assert np.array_equal(eig.sqrt(),
                                  (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dag(V))
            assert np.array_equal(eig.inv_sqrt(),
                                  (V * (1.0 / np.sqrt(w))[..., None, :]) @ dag(V))
            assert np.array_equal(eig.norm,
                                  np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])))

    def test_one_matrix_matches_the_laboratory_formulas(self):
        M = mixed_stack(5, make_rng(39))[1]
        eig = eigh_checked(M)
        w, V = np.linalg.eigh(hermitize(M))
        assert eig.norm == float(max(abs(w[0]), abs(w[-1])))
        assert isinstance(eig.norm, float)
        assert np.array_equal(eig.inv_sqrt(), (V * (1.0 / np.sqrt(w))) @ dag(V))

    def test_floor_is_inclusive_and_scales_with_the_norm(self):
        for norm in (1.0, 4.0):
            floor = KERNEL_FLOOR_FACTOR * norm
            with pytest.raises(ValueError, match=rf"min eigenvalue {floor:.3e} <= floor "
                                                 rf"{floor:.3e}$"):
                eigh_checked(np.diag([floor, norm])).inv_sqrt()
            above = np.nextafter(floor, 1.0)
            assert np.array_equal(eigh_checked(np.diag([above, norm])).inv_sqrt(),
                                  np.diag([1.0 / np.sqrt(above), 1.0 / np.sqrt(norm)]))

    def test_floor_is_per_matrix_of_a_stack(self):
        # 1e-12 is above the floor of a norm-1e-6 matrix, below that of a norm-1 one
        H = np.stack([np.diag([1e-12, 1e-6]), np.diag([0.5, 1.0])])
        assert np.array_equal(eigh_checked(H).inv_sqrt(),
                              loop(lambda M: eigh_checked(M).inv_sqrt(), H))
        H[1, 0, 0] = 1e-12
        with pytest.raises(ValueError, match=r"at stack index 1: min eigenvalue 1\.000e-12 "
                                             r"<= floor 1\.000e-08$"):
            eigh_checked(H).inv_sqrt()

    def test_zero_matrix_refused(self):
        with pytest.raises(ValueError, match="kernel too small"):
            eigh_checked(np.zeros((2, 2))).inv_sqrt()

    def test_floor_refusal_names_the_index(self):
        H = mixed_stack(3, make_rng(40))
        H[2] = np.diag([2.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=r"^kernel too small for inverse square root "
                                             r"at stack index 2: min eigenvalue "):
            eigh_checked(H).inv_sqrt()

    def test_negative_eigenvalues_clamped_in_sqrt(self):
        assert np.array_equal(eigh_checked(np.diag([-1e-17, 4.0])).sqrt(), np.diag([0.0, 2.0]))


class TestDecompositionCounts:
    """Each operator is decomposed once: the np.linalg.eigh and eigvalsh
    calls of each entry point that needs more than one function of it.  A
    norm of a matrix that is Hermitian by construction takes no SVD.  The
    lattice builders' fixed parts, H's decomposition among them, are cleared
    first, so every count is a cold one, whatever ran before."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from povmlab.lattice import _fixed_parts

        _fixed_parts.cache_clear()
        counts = {}
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("entry, eigh, eigvalsh, svd", [
        # the three difference stacks in one eigvalsh
        ("composition_identity_check", 5, 1, 0),
        ("conditional_prob_bound", 1, 1, 0),
        ("gentle_sides", 1, 1, 0),
        ("polar_kraus", 1, 1, 0),
        ("random_povm", 1, 0, 0),
        ("build_conditional", 1, 0, 0),
        # the lab's normalization, then one eigvalsh per chunk of partitions:
        # 7 partitions in one chunk at n = 16, 13 sampled ones in chunks of 8
        # at n = 64
        ("validate_n16", 1, 2, 0),
        ("validate_n64", 1, 3, 0),
        # one eigvalsh for the residuals and effects, one for the separated
        # pairs at t = 0 and one for those at t = 0.5 and 1, whose chunk spans
        # both times
        ("hc_audit", 1, 3, 0),
        ("hc_audit_sharp", 1, 3, 0),
        ("hc_audit_alternating", 1, 3, 0),
        ("luders_instrument", 2, 1, 0),
        ("validate_povm", 2, 1, 0),
        ("validate_effect", 1, 0, 0),
        ("validate_state", 1, 0, 0),
        ("nsc_deviation", 0, 1, 0),
    ])
    def test_counts(self, counts, entry, eigh, eigvalsh, svd):
        from povmlab import conditional
        from povmlab import measurement
        from povmlab import signaling
        from povmlab.generators import (
            commuting_povm_pair,
            random_effect,
            random_povm,
            random_state,
        )
        from povmlab.lattice import (
            build_alternating_system,
            build_frame_smeared_system,
            build_sharp_system,
            hc_audit,
        )
        from povmlab.measurement import polar_kraus

        sys = build_frame_smeared_system(16, 1.0, 1.0, 1.5)
        rng = make_rng(41)
        T, rho, rho16 = random_effect(4, rng), random_state(4, rng), random_state(16, rng)
        povm = commuting_povm_pair(4, rng)[0]
        instrument = measurement.luders_instrument(povm)
        call = {
            "composition_identity_check":
                lambda: conditional.composition_identity_check(sys, {1, 2, 3}, {6, 7}),
            "conditional_prob_bound":
                lambda: conditional.conditional_prob_bound(sys, {5, 6}, {4, 5, 6, 7, 8}, rho16),
            "gentle_sides": lambda: conditional.gentle_sides(T, rho),
            "polar_kraus": lambda: polar_kraus(T, np.eye(4)),
            "random_povm": lambda: random_povm(4, 3, make_rng(42)),
            "build_conditional": lambda: conditional.build_conditional(sys, {4, 5, 6, 7}),
            "validate_n16": lambda: conditional.build_conditional(sys, {4, 5, 6, 7}).validate(),
            "validate_n64": lambda: conditional.build_conditional(
                build_frame_smeared_system(64, 1.0, 1.0, 1.5), range(20, 32)).validate(),
            "hc_audit": lambda: hc_audit(sys, [{1, 2, 3}, {6, 7}, {10, 11}], [0.0, 0.5, 1.0]),
            # the norm stack is all diagonal, and the effects are coordinate
            # projectors: one Gram eigvalsh per separated pair, over t = 0.5 and 1
            "hc_audit_sharp": lambda: hc_audit(build_sharp_system(16, 1.0, 1.0),
                                               [{1, 2, 3}, {6, 7}, {10, 11}], [0.0, 0.5, 1.0]),
            "hc_audit_alternating": lambda: hc_audit(build_alternating_system(16, 1.0, 1.0),
                                                     [{1, 2, 3}, {6, 7}, {10, 11}],
                                                     [0.0, 0.5, 1.0]),
            "luders_instrument": lambda: measurement.luders_instrument(povm),
            "validate_povm": lambda: measurement.validate_povm(povm),
            "validate_effect": lambda: measurement.validate_effect(T),
            "validate_state": lambda: measurement.validate_state(rho),
            "nsc_deviation": lambda: signaling.nsc_deviation(instrument, T),
        }[entry]
        counts.clear()
        call()
        assert (counts.get("eigh", 0), counts.get("eigvalsh", 0), counts.get("svd", 0)) == (
            eigh, eigvalsh, svd)

    def test_audit_decomposes_h_once_after_the_same_system_was_evolved(self, counts):
        """The builders share H and its decomposition between systems of the
        same arguments: a second system's audit decomposes nothing of H, and
        a rebound H costs exactly one eigh, on its first use."""
        from povmlab.lattice import build_frame_smeared_system, hc_audit, heisenberg_evolve

        evolved = build_frame_smeared_system(16, 1.0, 1.0, 1.5)
        heisenberg_evolve(evolved, evolved.cell_effects[0], 0.5)
        assert counts.get("eigh") == 1
        sys = build_frame_smeared_system(16, 1.0, 1.0, 1.5)
        assert sys.hamiltonian is evolved.hamiltonian
        samples, times = [{1, 2, 3}, {6, 7}, {10, 11}], [0.0, 0.5, 1.0]
        counts.clear()
        hc_audit(sys, samples, times)
        assert (counts.get("eigh", 0), counts.get("eigvalsh", 0), counts.get("svd", 0)) == (
            0, 3, 0)
        sys.hamiltonian = sys.hamiltonian + np.diag(np.linspace(0.0, 0.3, 16))
        counts.clear()
        hc_audit(sys, samples, times)
        hc_audit(sys, samples, times)
        assert (counts.get("eigh", 0), counts.get("eigvalsh", 0), counts.get("svd", 0)) == (
            1, 6, 0)

    def test_laboratory_path(self, counts):
        """An effect of a built conditional POVM is a sum and a sandwich, and
        the norm of an exactly symmetric matrix is one eigvalsh."""
        from povmlab.conditional import build_conditional
        from povmlab.lattice import build_frame_smeared_system

        cond = build_conditional(build_frame_smeared_system(16, 1.0, 1.0, 1.5), {4, 5, 6, 7})
        counts.clear()
        B = cond.effect({4, 5})
        assert counts == {}
        assert (B == B.T).all()
        op_norm(B - np.eye(16))
        assert counts == {"eigvalsh": 1}


# ---------------------------------------------------------------------------
# the dtype follows the input: real stays real, complex stays complex128
# ---------------------------------------------------------------------------

def real_cases(rng):
    """Real symmetric positive definite matrices of three sizes, and a stack."""
    out = []
    for shape in ((1, 1), (3, 3), (16, 16), (4, 5, 5)):
        G = rng.normal(size=shape)
        out.append(G @ G.swapaxes(-1, -2) + 0.1 * np.eye(shape[-1]))
    return out


def kernels(M):
    """Every kernel on M, or on a non-symmetric matrix built from it, by name."""
    other = np.roll(M, 1, axis=-1)
    eig = eigh_checked(M)
    return {
        "as_matrix": as_matrix(M, stack=True),
        "hermitize": hermitize(other),
        "commutator": commutator(M, other),
        "commutator_norm": commutator_norm(M, hermitize(other)),
        "op_norm": op_norm(M),
        "trace_norm": trace_norm(other),
        "max_abs": max_abs(M),
        "herm_residual": herm_residual(other),
        "w": eig.w,
        "apply": eig.apply(eig.w ** 2),
        "sqrt": eig.sqrt(),
        "inv_sqrt": eig.inv_sqrt(),
        "psd_sqrt": psd_sqrt(M),
    }


class TestDtypeFollowsInput:
    def test_real_symmetric_input_gives_real_results_that_match_the_complex_call(self):
        for M in real_cases(make_rng(61)):
            real, cplx = kernels(M), kernels(M.astype(complex))
            scale = 1e-12 * max(1.0, float(np.max(op_norm(M))))
            for name, value in real.items():
                assert not np.iscomplexobj(value), name
                assert np.asarray(value).dtype == np.float64, name
                assert np.max(np.abs(value - cplx[name])) <= scale, name

    def test_real_input_passes_the_hermiticity_guard_as_before(self):
        M = np.diag([1.0, 2.0])
        M[0, 1] = 1e-12
        assert is_hermitian(M) and is_hermitian(M.astype(complex))
        M[0, 1] = 1e-6
        assert not is_hermitian(M) and not is_hermitian(M.astype(complex))
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh_checked(M)

    def test_complex_input_stays_complex128(self):
        rng = make_rng(62)
        M = random_psd(4, rng)
        assert as_matrix(M) is M
        eig = eigh_checked(M)
        for value in (hermitize(M), commutator(M, M.T), eig.V, eig.sqrt(), eig.inv_sqrt(),
                      psd_sqrt(M), as_matrix(M.astype(np.complex64))):
            assert value.dtype == np.complex128

    def test_other_input_becomes_float64(self):
        for M in ([[1, 0], [0, 2]], np.eye(2, dtype=np.float32), np.eye(2, dtype=bool)):
            assert as_matrix(M).dtype == np.float64
            assert hermitize(M).dtype == np.float64
            assert eigh_checked(M).V.dtype == np.float64

    def test_as_array_coerces_once_and_keeps_float64_and_complex128(self):
        for M in (np.eye(2), np.eye(2, dtype=complex)):
            assert linalg._as_array(M) is M
        cases = {np.float64: ([[1, 0], [0, 2]], 3, True, 2.5, np.eye(2, dtype=np.float32),
                              np.eye(2, dtype=np.int64), np.eye(2, dtype=bool),
                              np.eye(2, dtype=">f8")),
                 np.complex128: ([[1j, 0], [0, 2]], 1j, np.eye(2, dtype=np.complex64))}
        for dtype, inputs in cases.items():
            for M in inputs:
                A = linalg._as_array(M)
                assert type(A) is np.ndarray and A.dtype == dtype
                assert np.array_equal(A, np.asarray(M))
                assert not (isinstance(M, np.ndarray) and np.shares_memory(A, M))  # a copy

    def test_a_complex_operand_upcasts_a_product(self):
        rng = make_rng(63)
        real = real_cases(rng)[1]
        cplx = random_psd(3, rng)
        assert commutator(real, cplx).dtype == np.complex128
        assert np.array_equal(commutator(real, cplx), commutator(real.astype(complex), cplx))

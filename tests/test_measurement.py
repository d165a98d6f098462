import numpy as np
import pytest

from povmlab.generators import (
    commuting_povm_pair,
    make_rng,
    random_luders_instrument,
    random_povm,
    random_state,
)
from povmlab.linalg import DEFAULT_TOL, PROB_FLOOR, dag, hermitize, op_norm, psd_sqrt
from povmlab.measurement import (
    DiscretePOVM,
    KrausInstrument,
    identity_instrument,
    luders_instrument,
    nonselective_post_state,
    polar_kraus,
    selective_post_state,
    validate_effect,
    validate_povm,
    validate_state,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * np.ones((2, 2), dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestValidate:
    def test_half_identity_effect_passes(self):
        rep = validate_effect(np.eye(2) / 2)
        assert rep.passed
        assert all(item.residual == 0.0 for item in rep.items)

    def test_effect_above_one_fails(self):
        rep = validate_effect(np.diag([1.2, 0.0]))
        assert not rep.passed
        assert any("max_eigenvalue" in it.name for it in rep.failed_items)

    def test_povm_normalization(self):
        povm = DiscretePOVM([np.diag([0.5, 0.5]), np.diag([0.5, 0.5])])
        assert validate_povm(povm).passed

    def test_povm_normalization_failure(self):
        povm = DiscretePOVM([np.diag([0.5, 0.5]), np.diag([0.4, 0.5])])
        rep = validate_povm(povm)
        assert not rep.passed

    @pytest.mark.parametrize("excess, passed", [(0.5, True), (2.0, False), (9.0, False)])
    def test_normalization_at_the_boundary(self, excess, passed):
        """A two-outcome POVM off normalization by excess * tol * m, m = 2:
        refused from tol * m on, well below 10 * tol * m."""
        e = excess * DEFAULT_TOL * 2
        povm = DiscretePOVM([np.diag([0.5 + e, 0.5 + e]), np.diag([0.5, 0.5])])
        (item,) = [it for it in validate_povm(povm).items if it.name == "normalization"]
        assert item.residual == pytest.approx(e, rel=1e-6)
        assert item.passed == passed

    def test_state_validation(self):
        assert validate_state(np.eye(3) / 3).passed
        assert not validate_state(np.eye(3)).passed

    def test_zero_effect_passes(self):
        povm = DiscretePOVM([np.eye(2), np.zeros((2, 2))])
        assert validate_povm(povm).passed

    def test_item_names_and_order(self):
        effect = ["hermiticity", "min_eigenvalue >= -tol", "max_eigenvalue <= 1+tol"]
        assert [it.name for it in validate_effect(np.eye(2) / 2).items] == effect
        assert [it.name for it in validate_state(np.eye(2) / 2).items] == [
            "hermiticity", "min_eigenvalue >= -tol", "unit_trace"]
        povm = DiscretePOVM([np.eye(2) / 2, np.eye(2) / 2])
        assert [it.name for it in validate_povm(povm).items] == 2 * effect + ["normalization"]
        rep = validate_povm(luders_instrument(povm).povm)
        assert [it.name for it in rep.items] == 2 * effect + ["normalization"]

    def test_state_below_zero_fails_with_its_eigenvalue(self):
        rep = validate_state(np.diag([1.5, -0.5]))
        assert [it.name for it in rep.failed_items] == ["min_eigenvalue >= -tol"]
        assert rep.failed_items[0].note == "min eigenvalue -5.000e-01"

    def test_non_hermitian_effect_fails_its_hermiticity_item(self):
        M = np.array([[0.5, 0.1], [0.0, 0.5]])
        assert [it.name for it in validate_effect(M).failed_items] == ["hermiticity"]
        povm = DiscretePOVM([M, np.eye(2) - M])
        assert [it.name for it in validate_povm(povm).failed_items] == 2 * ["hermiticity"]
        with pytest.raises(ValueError, match="Lüders instrument: hermiticity, hermiticity$"):
            luders_instrument(povm)


class TestLuders:
    def test_projective_roots_are_projectors(self):
        instr = luders_instrument(DiscretePOVM([P0, P1]))
        assert instr.efficient
        assert op_norm(instr.families[0][0] - P0) < 1e-12
        assert op_norm(instr.families[1][0] - P1) < 1e-12

    def test_single_outcome_identity(self):
        instr = luders_instrument(DiscretePOVM([np.eye(3)]))
        assert op_norm(instr.families[0][0] - np.eye(3)) < 1e-12

    def test_qubit_scalar_roots(self):
        povm = DiscretePOVM([np.diag([0.36, 0.64]), np.diag([0.64, 0.36])])
        instr = luders_instrument(povm)
        assert np.allclose(instr.families[0][0], np.diag([0.6, 0.8]), atol=1e-12)
        assert np.allclose(instr.families[1][0], np.diag([0.8, 0.6]), atol=1e-12)

    def test_induced_povm_matches(self):
        rng = make_rng(21)
        povm = random_povm(4, 3, rng)
        instr = luders_instrument(povm)
        for j in range(3):
            assert op_norm(instr.effect(j) - povm[j]) < 1e-10

    def test_invalid_povm_rejected(self):
        with pytest.raises(ValueError, match="invalid POVM"):
            luders_instrument(DiscretePOVM([np.diag([0.5, 0.5])]))

    def test_kraus_operators_bit_equal_to_psd_sqrt(self):
        """The root is taken from the decomposition that validated the
        effect, the same one psd_sqrt makes."""
        rng = make_rng(92)
        povms = [random_povm(dim, k, rng) for dim in (1, 2, 3, 5, 8) for k in (1, 2, 4)]
        povms += [commuting_povm_pair(dim, rng)[0] for dim in (2, 4, 6)]
        povms.append(DiscretePOVM([np.diag([0.3, 1.0]), np.diag([0.7, 0.0])]))
        for povm in povms:
            instr = luders_instrument(povm)
            for E, (K,) in zip(povm.effects, instr.families):
                root = psd_sqrt(E)
                assert K.dtype == root.dtype and np.array_equal(K, root)


class TestPolarKraus:
    def test_identity_isometry(self):
        T = np.diag([0.5, 0.25]).astype(complex)
        K = polar_kraus(T, np.eye(2))
        assert np.allclose(K, np.diag(np.sqrt([0.5, 0.25])), atol=1e-12)

    def test_pauli_x_on_rank_deficient(self):
        T = np.diag([1.0, 0.0]).astype(complex)
        K = polar_kraus(T, X)
        assert op_norm(dag(K) @ K - T) < 1e-12

    def test_random_unitary_preserves_effect(self):
        rng = make_rng(22)
        from povmlab.generators import haar_unitary, random_effect

        for dim in (2, 4):
            T = random_effect(dim, rng)
            V = haar_unitary(dim, rng)
            K = polar_kraus(T, V)
            assert op_norm(dag(K) @ K - T) <= 1e-10

    def test_bit_equal_to_two_decompositions(self):
        """One decomposition of T gives the same K as the isometry check's
        decomposition followed by a second one for sqrt(T)."""
        from povmlab.generators import haar_unitary, random_effect

        rng = make_rng(23)
        for dim in (1, 2, 3, 5, 8):
            T, V = random_effect(dim, rng), haar_unitary(dim, rng)
            w, W = np.linalg.eigh(hermitize(T))
            root = (W * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dag(W)
            assert np.array_equal(polar_kraus(T, V), V @ root)

    def test_non_isometric_rejected(self):
        with pytest.raises(ValueError, match="isometric"):
            polar_kraus(np.eye(2), 0.5 * np.eye(2))


class TestPostStates:
    def test_projective_idempotence(self):
        instr = luders_instrument(DiscretePOVM([P0, P1]))
        prob, out = selective_post_state(P0, instr, 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert op_norm(out - P0) < 1e-12

    def test_trivial_instrument(self):
        rho = random_state(3, make_rng(23))
        prob, out = selective_post_state(rho, identity_instrument(3), 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert op_norm(out - rho) < 1e-12

    def test_qubit_luders_arithmetic(self):
        povm = DiscretePOVM([np.diag([0.36, 0.64]), np.diag([0.64, 0.36])])
        instr = luders_instrument(povm)
        prob, out = selective_post_state(np.eye(2) / 2, instr, 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out, np.diag([0.36, 0.64]), atol=1e-12)

    def test_zero_probability_outcome_raises(self):
        instr = luders_instrument(DiscretePOVM([P0, P1]))
        with pytest.raises(ValueError, match="probability"):
            selective_post_state(P1, instr, 0)

    @pytest.mark.parametrize("prob", [PROB_FLOOR / 100, PROB_FLOOR / 10, PROB_FLOOR])
    def test_refused_at_and_below_the_floor(self, prob):
        """An outcome probability in (PROB_FLOOR / 1000, PROB_FLOOR] is refused."""
        instr = luders_instrument(DiscretePOVM([P0, P1]))
        with pytest.raises(ValueError, match=f"probability {prob:.3e} <= floor"):
            selective_post_state(np.diag([prob, 1.0 - prob]), instr, 0)

    def test_accepted_just_above_the_floor(self):
        instr = luders_instrument(DiscretePOVM([P0, P1]))
        prob = float(np.nextafter(PROB_FLOOR, 1.0))
        got, state = selective_post_state(np.diag([prob, 1.0 - prob]), instr, 0)
        assert got == prob
        assert np.array_equal(state, P0)

    def test_nonselective_identity(self):
        rho = random_state(3, make_rng(24))
        assert op_norm(nonselective_post_state(rho, identity_instrument(3)) - rho) < 1e-12

    def test_nonselective_commuting_unchanged(self):
        instr = luders_instrument(DiscretePOVM([P0, P1]))
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert op_norm(nonselective_post_state(rho, instr) - rho) < 1e-12

    def test_nonselective_dephasing(self):
        instr = luders_instrument(DiscretePOVM([P0, P1]))
        assert op_norm(nonselective_post_state(PLUS, instr) - np.eye(2) / 2) < 1e-12

    def test_luders_idempotent_on_commuting_state(self):
        # [rho, T_j] = 0 for all j leaves the non-selective post-state fixed
        from povmlab.generators import haar_unitary

        rng = make_rng(30)
        U = haar_unitary(4, rng)
        profiles = rng.uniform(0.05, 1.0, size=(3, 4))
        profiles /= profiles.sum(axis=0, keepdims=True)
        povm = DiscretePOVM([U @ np.diag(w).astype(complex) @ dag(U) for w in profiles])
        p = rng.uniform(0.1, 1.0, 4)
        rho = U @ np.diag(p / p.sum()).astype(complex) @ dag(U)
        out = nonselective_post_state(rho, luders_instrument(povm))
        assert op_norm(out - rho) <= 1e-10

    def test_nonselective_is_probability_mixture_of_selective(self):
        rng = make_rng(25)
        for _ in range(10):
            instr = random_luders_instrument(3, 3, rng)
            rho = random_state(3, rng)
            mix = np.zeros((3, 3), dtype=complex)
            for j in range(len(instr)):
                prob, out = selective_post_state(rho, instr, j)
                mix += prob * out
            assert op_norm(nonselective_post_state(rho, instr) - mix) <= 1e-10

    def test_trace_preserved(self):
        rng = make_rng(26)
        instr = random_luders_instrument(4, 2, rng)
        rho = random_state(4, rng)
        out = nonselective_post_state(rho, instr)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


def product_form(rho, instr, j, S) -> float:
    """p(j) tr(S rho_j) with the normalized conditional state rho_j."""
    prob, post = selective_post_state(rho, instr, j)
    return prob * float(np.trace(S @ post).real)


def heisenberg_form(rho, instr, j, S) -> float:
    """tr(rho sum_k K†_jk S K_jk), the joint operator rcc_deviation reads."""
    return float(np.trace(rho @ KrausInstrument([instr.families[j]]).dual_apply(S)).real)


class TestSequentialProbability:
    """The joint probability of (j then S) in the two forms
    RCC_CONVENTION_NOTE names: they agree."""

    def test_marginalization(self):
        rng = make_rng(27)
        instr = random_luders_instrument(3, 2, rng)
        rho = random_state(3, rng)
        for j in range(2):
            marginal = np.trace(rho @ instr.effect(j)).real
            assert product_form(rho, instr, j, np.eye(3)) == pytest.approx(marginal, abs=1e-12)
            assert heisenberg_form(rho, instr, j, np.eye(3)) == pytest.approx(marginal, abs=1e-12)

    def test_commuting_diagonal_is_classical_product(self):
        povm = DiscretePOVM([np.diag([0.2, 0.6]), np.diag([0.8, 0.4])])
        instr = luders_instrument(povm)
        S = np.diag([0.5, 0.9]).astype(complex)
        for form in (product_form, heisenberg_form):
            assert form(P0, instr, 0, S) == pytest.approx(0.2 * 0.5, abs=1e-12)

    def test_qubit_plus_basis_witness(self):
        instr = luders_instrument(DiscretePOVM([PLUS, MINUS]))
        for form in (product_form, heisenberg_form):
            assert form(P0, instr, 0, P0) == pytest.approx(0.25, abs=1e-12)

    def test_total_probability_one(self):
        rng = make_rng(28)
        for _ in range(10):
            instr = random_luders_instrument(4, 3, rng)
            second = random_povm(4, 2, rng)
            rho = random_state(4, rng)
            for form in (product_form, heisenberg_form):
                total = sum(form(rho, instr, j, S) for j in range(3) for S in second.effects)
                assert abs(total - 1.0) <= 1e-10

    def test_the_two_forms_agree(self):
        rng = make_rng(31)
        for _ in range(20):
            instr = random_luders_instrument(3, 3, rng)
            rho, S = random_state(3, rng), random_povm(3, 2, rng)[0]
            for j in range(3):
                assert abs(product_form(rho, instr, j, S)
                           - heisenberg_form(rho, instr, j, S)) <= 1e-12


class TestKrausInstrument:
    def test_non_efficient_family(self):
        K1 = np.sqrt(0.5) * P0
        K2 = np.sqrt(0.5) * P0
        instr = KrausInstrument([[K1, K2], [P1]])
        assert not instr.efficient
        assert op_norm(instr.effect(0) - P0) < 1e-12

    def test_instrument_validation(self):
        rng = make_rng(29)
        instr = random_luders_instrument(3, 2, rng)
        assert validate_povm(instr.povm).passed

    def test_operators_held_as_one_stack(self):
        instr = KrausInstrument([[P0, X], [P1]])
        assert instr.kraus.shape == (3, 2, 2)
        assert [fam.shape for fam in instr.families] == [(2, 2, 2), (1, 2, 2)]
        assert all(np.shares_memory(fam, instr.kraus) for fam in instr.families)

    def test_real_operators_stay_float64(self):
        instr = KrausInstrument([[np.sqrt(0.5) * np.eye(2)], [np.diag([0.6, 0.8]), np.eye(2)]])
        assert instr.kraus.dtype == np.float64
        assert instr.effect(1).dtype == np.float64
        assert instr.dual_apply(np.diag([1.0, 2.0])).dtype == np.float64
        assert KrausInstrument([[np.eye(2)], [P1]]).kraus.dtype == np.complex128

    def test_stacked_forms_equal_the_sums_over_operators(self):
        rng = make_rng(30)
        ops = [0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(5)]
        instr = KrausInstrument([ops[:2], ops[2:3], ops[3:]])
        rho, S = random_state(3, rng), hermitize(rng.normal(size=(3, 3)))
        for j, fam in enumerate([ops[:2], ops[2:3], ops[3:]]):
            assert np.array_equal(instr.effect(j), sum(dag(K) @ K for K in fam))
            sub = sum(K @ rho @ dag(K) for K in fam)
            prob, post = selective_post_state(rho, instr, j)
            assert np.array_equal(post, sub / prob)
        assert np.array_equal(instr.dual_apply(S), sum(dag(K) @ S @ K for K in ops))
        assert np.array_equal(nonselective_post_state(rho, instr),
                              sum(K @ rho @ dag(K) for K in ops))


class TestLabels:
    def test_list_or_tuple_with_one_label_per_outcome(self):
        assert DiscretePOVM([P0, P1], ("x", "y")).labels == ["x", "y"]
        assert KrausInstrument([[P0], [P1]], ("x", "y")).labels == ["x", "y"]
        for labels in ("xy", ["x"]):
            with pytest.raises(ValueError, match="one label per outcome"):
                KrausInstrument([[P0], [P1]], labels)

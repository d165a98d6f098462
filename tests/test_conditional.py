import math

import numpy as np
import pytest

from povmlab.conditional import (
    MAX_PARTITIONS,
    ConditionalPOVM,
    _sample_subsets,
    build_conditional,
    composition_identity_check,
    conditional_prob_bound,
    cross_lab_commutator,
    gentle_sides,
    v_conjugation_reduction,
)
from povmlab.generators import haar_unitary, make_rng, random_effect, random_state
from povmlab.lattice import (
    LatticeLocalizationSystem,
    build_alternating_system,
    build_diagonal_smeared_system,
    build_frame_smeared_system,
    build_sharp_system,
    cell_sum,
    cell_sums,
    effect_of,
)
from povmlab.linalg import dag, eigh_checked, hermitize, op_norm, psd_sqrt

LAB6 = frozenset(range(5, 11))


@pytest.fixture(scope="module")
def smeared16():
    return build_frame_smeared_system(16, 1.0, 1.0, 1.5)


@pytest.fixture(scope="module")
def diagonal16():
    return build_diagonal_smeared_system(16, 1.0, 1.0, 1.5)


def localized_state(sys, lab, floor=0.99):
    """State with tr(rho A(lab)) >= floor: the top eigenvector of A(lab),
    which is the best localized state the system admits."""
    A = effect_of(sys, lab)
    w, V = np.linalg.eigh(A)
    psi = V[:, -1]
    rho = np.outer(psi, psi.conj())
    assert np.trace(rho @ A).real >= floor
    return rho


class TestBuildConditional:
    def test_frame_smeared_lab_strictly_positive(self, smeared16):
        assert build_conditional(smeared16, LAB6).lab_spectrum.w[0] > 1e-3

    def test_sharp_lab_refused(self):
        sharp = build_sharp_system(8, 1.0, 1.0)
        with pytest.raises(ValueError, match="kernel"):
            build_conditional(sharp, {2, 3, 4})

    def test_lab_spectrum_is_the_lab_effects_decomposition(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        A_lab = effect_of(smeared16, LAB6)
        assert np.array_equal(cond.lab_spectrum.sqrt(), psd_sqrt(A_lab))
        assert np.array_equal(cond.inv_sqrt, eigh_checked(A_lab).inv_sqrt())

    def test_lab_effect_is_identity(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        assert op_norm(cond.effect(LAB6) - np.eye(16)) <= 1e-10

    def test_partition_sums_to_identity(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        left = frozenset({5, 7, 9})
        total = cond.effect(left) + cond.effect(cond.lab_cells - left)
        assert op_norm(total - np.eye(16)) <= 1e-10

    def test_full_validation(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        rep = cond.validate()
        assert rep.passed
        assert rep.residual("in_lab_additivity") <= 1e-10
        assert rep.residual("effect_bounds") <= 1e-10

    def test_cells_outside_lab_rejected(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        with pytest.raises(ValueError, match="inside"):
            cond.effect({0})

    @pytest.mark.parametrize("cells", [set(), {5}, {6, 7, 9}, set(LAB6)])
    def test_effect_bit_equal_to_the_sandwich(self, smeared16, cells):
        cond = build_conditional(smeared16, LAB6)
        R = cond.inv_sqrt
        oracle = hermitize(R @ effect_of(smeared16, cells) @ R)
        assert np.array_equal(cond.effect(cells), oracle)

    def test_independent_of_how_the_lab_is_listed(self):
        """The laboratory's cells are summed in sorted cell order, so a
        reversed listing of the laboratory gives the same bits."""
        sys = build_frame_smeared_system(64, 1.0, 1.0, 1.5)
        rng = make_rng(61)
        for _ in range(100):
            size = int(rng.integers(2, 40))
            lab = [int(k) for k in rng.choice(64, size=size, replace=False)]
            forward = build_conditional(sys, lab)
            backward = build_conditional(sys, lab[::-1])
            assert np.array_equal(forward.inv_sqrt, backward.inv_sqrt)
            assert np.array_equal(forward.effect(lab[:3]), backward.effect(lab[:3][::-1]))

    def test_lab_outside_the_lattice_rejected(self, smeared16):
        with pytest.raises(ValueError, match="0..15"):
            build_conditional(smeared16, {15, 16})

    def test_empty_lab_refused(self, smeared16):
        with pytest.raises(ValueError, match="kernel"):
            build_conditional(smeared16, [])

    def test_no_state_changes_after_construction(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        before = dict(vars(cond))
        cond.effect({5, 6})
        cond.effects([{7}, LAB6])
        cond.validate()
        assert vars(cond).keys() == before.keys()
        assert all(vars(cond)[key] is value for key, value in before.items())


class TestConditionalPOVMOnCellEffects:
    """ConditionalPOVM built directly on a sequence of cell effects."""

    def test_plain_list_matches_build_conditional(self, smeared16):
        cond_a = ConditionalPOVM(LAB6, list(smeared16.cell_effects), 16)
        cond_b = build_conditional(smeared16, LAB6)
        assert np.array_equal(cond_a.inv_sqrt, cond_b.inv_sqrt)
        for cells in ({5, 6}, {7, 8, 9}, LAB6):
            assert np.array_equal(cond_a.effect(cells), cond_b.effect(cells))

    def test_global_scale_cancels(self, smeared16):
        base = list(smeared16.cell_effects)
        ref = ConditionalPOVM(LAB6, base, 16)
        for c in (0.1, 1.0, 7.0):
            cond = ConditionalPOVM(LAB6, [c * E for E in base], 16)
            for cells in ({5}, {6, 7}, LAB6):
                assert np.max(np.abs(cond.effect(cells) - ref.effect(cells))) <= 1e-12

    def test_effects_only_near_the_lab(self, smeared16):
        # positive operators on a neighborhood of the lab, zero elsewhere
        neighborhood = set(range(3, 13))
        effects = [0.4 * E if k in neighborhood else np.zeros((16, 16))
                   for k, E in enumerate(smeared16.cell_effects)]
        cond = ConditionalPOVM(LAB6, effects, 16)
        assert op_norm(cond.effect(LAB6) - np.eye(16)) <= 1e-10
        assert cond.lab_spectrum.norm == pytest.approx(
            0.4 * op_norm(effect_of(smeared16, LAB6)), abs=1e-12
        )


# an 11-cell laboratory on the n=64 frame-smeared ring: more than 256
# 2-partitions, so validate() samples its subsets
LAB11 = frozenset([4, 5, 8, 14, 37, 38, 39, 50, 55, 57, 60])


def validate_by_effect(cond):
    """validate() written as one effect() call per subset, the oracle for the
    stacked evaluation; it keeps the empty left side, which ``validate``
    skips."""
    eye = np.eye(cond.dim)
    cells = sorted(cond.lab_cells)
    if 1 << max(0, len(cells) - 1) <= MAX_PARTITIONS:
        partitions = [frozenset(c for i, c in enumerate(cells) if (r >> i) & 1)
                      for r in range(1 << max(0, len(cells) - 1))]
    else:
        partitions = [frozenset(), *_sample_subsets(cond.lab_cells)]
    additivity = bound = 0.0
    for left in partitions:
        right = cond.lab_cells - left
        additivity = max(additivity, op_norm(cond.effect(left) + cond.effect(right)
                                             - cond.effect(cond.lab_cells)))
        w = np.linalg.eigvalsh(cond.effect(left))
        bound = max(bound, max(0.0, -float(w[0])), max(0.0, float(w[-1]) - 1.0))
    return [op_norm(cond.effect(cond.lab_cells) - eye), additivity, bound]


class TestStackedEffects:
    @pytest.fixture(scope="class")
    def smeared64(self):
        return build_frame_smeared_system(64, 1.0, 1.0, 1.5)

    def test_validate_matches_the_per_effect_loop(self, smeared64):
        report = build_conditional(smeared64, LAB11).validate(1e-10)
        oracle = validate_by_effect(build_conditional(smeared64, LAB11))
        assert [item.residual for item in report.items] == oracle
        assert report.passed

    def test_validate_matches_on_every_partition(self, smeared16):
        lab = frozenset([1, 2, 5, 8, 9, 12, 14])
        report = build_conditional(smeared16, lab).validate(1e-10)
        oracle = validate_by_effect(build_conditional(smeared16, lab))
        assert [item.residual for item in report.items] == oracle

    @pytest.mark.parametrize("lab", [{3}, {0, 15}])
    def test_validate_matches_on_a_small_laboratory(self, smeared16, lab):
        report = build_conditional(smeared16, lab).validate(1e-10)
        oracle = validate_by_effect(build_conditional(smeared16, lab))
        assert [item.residual for item in report.items] == oracle

    def test_effects_match_effect(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        sets = [{6, 5}, set(), {7, 9, 10}, LAB6, [8]]
        stack = cond.effects(sets)
        assert stack.shape == (5, 16, 16)
        for B, cells in zip(stack, sets):
            assert np.array_equal(B, cond.effect(cells))
        assert cond.effects([]).shape == (0, 16, 16)

    def test_effects_outside_the_lab_rejected(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        with pytest.raises(ValueError, match="inside the laboratory"):
            cond.effects([{5}, {4, 5}])

    def test_an_empty_cell_set_costs_no_sum_and_no_sandwich(self, smeared16, monkeypatch):
        """The empty set's slot holds exact zeros (+0.0), and only the
        nonempty sets reach the sandwich: composition asks for the empty
        intersection of a subset inside the other laboratory, and validate's
        sampled partitions for the empty right side of the whole laboratory."""
        cond = build_conditional(smeared16, LAB6)
        expected = cond.effect({5, 6})
        sandwiched = []
        sandwich = ConditionalPOVM._sandwich

        def counted(self, A):
            sandwiched.append(len(A) if A.ndim == 3 else 1)
            return sandwich(self, A)

        monkeypatch.setattr(ConditionalPOVM, "_sandwich", counted)
        stack = cond.effects([set(), {6, 5}, []])
        assert sum(sandwiched) == 1
        assert stack.dtype == expected.dtype and stack.shape == (3, 16, 16)
        assert not stack[[0, 2]].any() and not np.signbit(stack[[0, 2]]).any()
        assert np.array_equal(stack[1], expected)
        sandwiched.clear()
        assert not cond.effects([set()]).any()
        assert sum(sandwiched) == 0


BUILDERS = {
    "sharp": lambda n: build_sharp_system(n, 1.0, 1.0),
    "alternating": lambda n: build_alternating_system(n, 1.0, 1.0),
    "diagonal_smeared": lambda n: build_diagonal_smeared_system(n, 1.0, 1.0, 1.5),
    "frame_smeared": lambda n: build_frame_smeared_system(n, 1.0, 1.0, 1.5),
}


def random_cell_sets(lab, rng, count=24):
    """The empty set, the whole laboratory, and ``count`` random subsets of
    it, each listed in a random order."""
    cells = sorted(lab)
    sets = [[], cells[::-1]]
    for _ in range(count):
        size = int(rng.integers(1, len(cells) + 1))
        sets.append([int(k) for k in rng.choice(cells, size=size, replace=False)])
    return sets


class TestStackedRawSums:
    """``effects`` takes its raw sums from one ``cell_sums`` call; each raw sum
    and each effect is bit-equal to the per-set ``cell_sum`` route."""

    @staticmethod
    def assert_bit_equal(cond, sets):
        raw = np.stack([cell_sum(cond.cell_effects, cells, cond.dim) for cells in sets])
        stacked = cell_sums(cond.cell_effects, sets, cond.dim)
        assert (stacked.dtype, stacked.shape) == (raw.dtype, raw.shape)
        assert stacked.tobytes() == raw.tobytes()
        R = cond.inv_sqrt
        effects, oracle = cond.effects(sets), hermitize(R @ raw @ R)
        assert (effects.dtype, effects.shape) == (oracle.dtype, oracle.shape)
        assert effects.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_every_builder_on_the_whole_ring(self, kind, n):
        """A(ring) = I, so every kind conditions on the whole ring, the sharp
        ones included."""
        sys = BUILDERS[kind](n)
        cond = build_conditional(sys, range(n))
        self.assert_bit_equal(cond, random_cell_sets(cond.lab_cells, make_rng(n, len(kind))))

    @pytest.mark.parametrize("n, lab", [(16, LAB6), (64, LAB11)])
    def test_a_proper_laboratory(self, n, lab):
        cond = build_conditional(build_frame_smeared_system(n, 1.0, 1.0, 1.5), lab)
        self.assert_bit_equal(cond, random_cell_sets(lab, make_rng(n)))

    def test_complex_cell_effects(self, smeared16):
        """The cell effects of ``v_conjugation_reduction``'s transformed
        system, and a list mixing real and complex members."""
        V = haar_unitary(16, make_rng(67))
        transformed = [hermitize(V @ E @ dag(V)) for E in smeared16.cell_effects]
        mixed = [E.astype(complex) if k % 3 == 0 else E
                 for k, E in enumerate(smeared16.cell_effects)]
        for effects in (transformed, mixed):
            cond = ConditionalPOVM(LAB6, effects, 16)
            sets = random_cell_sets(LAB6, make_rng(68))
            self.assert_bit_equal(cond, sets)
            assert cond.effects(sets).dtype == np.complex128

    def test_cells_outside_the_lab_refused_with_the_same_message(self, smeared16):
        cond = build_conditional(smeared16, LAB6)
        for call in (lambda: cond.effects([{5}, {4, 5}]), lambda: cond.effect({4, 5})):
            with pytest.raises(ValueError, match="^cells must lie inside the laboratory region$"):
                call()


class TestGentleBound:
    def test_stacked_sides_match_one_pair_sides(self):
        rng = make_rng(63)
        for dim in (1, 2, 3, 5, 8, 16):
            pairs = [(random_effect(dim, rng), random_state(dim, rng)) for _ in range(9)]
            pairs = [(T, rho) for T, rho in pairs if np.trace(rho @ T).real > 1e-9]
            sides = gentle_sides(np.stack([T for T, _ in pairs]), np.stack([r for _, r in pairs]))
            one_pair = [gentle_sides(T, rho) for T, rho in pairs]
            for k, values in enumerate(sides):
                assert np.array_equal(values, [float(pair[k]) for pair in one_pair])

    def test_stacked_zero_overlap_names_the_index(self):
        T = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        rho = np.stack([np.eye(2) / 2, np.diag([0.0, 1.0])])
        with pytest.raises(ValueError, match="at stack index 1 is not positive"):
            gentle_sides(T, rho)

    def test_identity_effect(self):
        rho = random_state(3, make_rng(61))
        delta, distance, bound = gentle_sides(np.eye(3), rho)
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert distance <= 1e-10
        assert bound <= 1e-6

    def test_eigenstate_at_operator_norm(self):
        T = np.diag([1.0, 0.25]).astype(complex)
        rho = np.diag([1.0, 0.0]).astype(complex)
        delta, distance, _ = gentle_sides(T, rho)
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert distance <= 1e-12

    def test_qubit_closed_form(self):
        delta, distance, bound = gentle_sides(np.diag([1.0, 0.5]), np.eye(2) / 2)
        assert delta == pytest.approx(0.25, abs=1e-14)
        assert distance == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert bound == pytest.approx(1.25, abs=1e-14)
        margin = bound - distance
        assert margin == pytest.approx(1.25 - 1.0 / 3.0, abs=1e-12)

    def test_zero_overlap_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            gentle_sides(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_never_violated_on_random_pairs(self):
        rng = make_rng(62)
        from povmlab.generators import random_effect

        for _ in range(500):
            dim = int(rng.integers(2, 9))
            T = random_effect(dim, rng)
            rho = random_state(dim, rng)
            if np.trace(rho @ T).real <= 1e-9:
                continue
            _, distance, bound = gentle_sides(T, rho)
            assert bound - distance >= -1e-9


class TestConditionalProbBound:
    def test_lab_equals_cells(self, smeared16):
        rho = random_state(16, make_rng(63))
        rep = conditional_prob_bound(smeared16, LAB6, LAB6, rho)
        assert rep.residual("conditional_fraction") == pytest.approx(1.0, abs=1e-10)
        assert rep.residual("tr_rho_B") == pytest.approx(1.0, abs=1e-10)
        assert rep.residual("fraction_vs_B_difference") <= 1e-10

    def test_localized_state_tight_bound(self):
        # localization above 99% at smearing width 1.5 needs nearly the whole
        # ring as the laboratory; calibrated: delta = 0.0094 here
        sys = build_frame_smeared_system(16, 1.0, 1.0, 1.5, sharpness=0.95)
        lab = frozenset(range(15))
        rho = localized_state(sys, lab, floor=0.99)
        for cells in ({5, 6}, {7}, {0, 1, 2, 3, 4, 5, 6, 7}):
            rep = conditional_prob_bound(sys, cells, lab, rho)
            assert rep.passed
            delta = rep.residual("delta")
            assert delta <= 0.01
            bound = 2 * np.sqrt(delta) + delta
            assert rep.residual("fraction_vs_B_difference") <= bound + 1e-9

    def test_exact_identity_for_conditioned_state(self, smeared16):
        rep = conditional_prob_bound(smeared16, {6, 7}, LAB6, random_state(16, make_rng(64)))
        assert rep.residual("exact_conditional_identity") <= 1e-10

    def test_maximally_mixed_flags_vacuous(self, smeared16):
        rep = conditional_prob_bound(smeared16, {6}, LAB6, np.eye(16) / 16)
        assert any("vacuous" in note for note in rep.notes)

    def test_cells_must_be_inside_lab(self, smeared16):
        with pytest.raises(ValueError, match="inside"):
            conditional_prob_bound(smeared16, {0}, LAB6, np.eye(16) / 16)


def _resummed_prob_bound(sys, cells, lab, rho, tol=1e-10):
    """(name, residual, tol) of each item of ``conditional_prob_bound``, with
    A(lab), A(cells) and B summed and sandwiched again instead of taken from
    the POVM built for the check: the formula the check used to follow."""
    cond = build_conditional(sys, lab, tol=tol)
    A_lab, A_cells = effect_of(sys, lab), effect_of(sys, cells)
    p_lab = float(np.trace(rho @ A_lab).real)
    delta = 1.0 - p_lab
    items = [("delta", delta, None)]
    if delta >= 1.0 - tol:
        return items
    fraction = float(np.trace(rho @ A_cells).real) / p_lab
    B = cond.effect(cells)
    prob_B = float(np.trace(rho @ B).real)
    bound = 2.0 * math.sqrt(max(0.0, delta)) + max(0.0, delta)
    root = cond.lab_spectrum.sqrt()
    exact = float(np.trace(root @ rho @ root / p_lab @ B).real)
    return items + [("conditional_fraction", fraction, None), ("tr_rho_B", prob_B, None),
                    ("fraction_vs_B_difference", abs(prob_B - fraction), bound + 1e-9),
                    ("exact_conditional_identity", abs(exact - fraction), 1e-10),
                    ("operator_form_bound", abs(exact - prob_B),
                     bound * max(op_norm(B), 1e-300) + 1e-9)]


class TestProbBoundReadsItsOwnPovm:
    """The check takes A(lab), A(cells) and B from the conditional POVM it
    builds; its items are bit-equal to summing them again."""

    @pytest.mark.parametrize("seed", range(6))
    def test_items_bit_equal_to_the_resummed_formula(self, smeared16, diagonal16, seed):
        rng = make_rng(70, seed)
        sys = (smeared16, diagonal16)[seed % 2]
        lab = frozenset(int(k) for k in rng.choice(16, size=2 + seed, replace=False))
        cells = frozenset(sorted(lab)[:1 + seed % len(lab)])
        for cells_, rho in ((cells, random_state(16, rng)), (lab, random_state(16, rng)),
                            (frozenset(), random_state(16, rng)),
                            (cells, localized_state(sys, lab, floor=0.0))):
            rep = conditional_prob_bound(sys, cells_, lab, rho)
            got = [(it.name, it.residual, it.tol) for it in rep.items]
            assert got == _resummed_prob_bound(sys, cells_, lab, rho)


class TestVConjugation:
    def test_identity_conjugator(self, smeared16):
        rep = v_conjugation_reduction(smeared16, LAB6, np.eye(16))
        assert rep.passed
        assert rep.residual("conjugation_vs_transformed_system") <= 1e-12

    def test_shift_conjugator(self, smeared16):
        rep = v_conjugation_reduction(smeared16, LAB6, smeared16.shift)
        assert rep.passed

    def test_non_unitary_V_rejected(self, smeared16):
        with pytest.raises(ValueError, match="V must be unitary"):
            v_conjugation_reduction(smeared16, LAB6, 0.5 * np.eye(16))

    def test_random_unitary(self, smeared16):
        V = haar_unitary(16, make_rng(65))
        rep = v_conjugation_reduction(smeared16, LAB6, V)
        assert rep.passed
        assert rep.residual("conjugation_vs_transformed_system") <= 1e-10
        assert rep.residual("energy_spectrum_preserved") <= 1e-10

    @pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-6])
    def test_the_reduction_is_asserted_at_the_tol_given(self, smeared16, tol):
        rep = v_conjugation_reduction(smeared16, LAB6, smeared16.shift, tol)
        [item] = [it for it in rep.items if it.name == "conjugation_vs_transformed_system"]
        assert item.tol == tol

    def test_shift_conjugator_relabels_cells(self, smeared16):
        # conjugating by the one-cell shift maps the conditional effects to
        # those of the shifted lab, cell for cell
        lab = frozenset({5, 6, 7, 8})
        shifted_lab = frozenset({6, 7, 8, 9})
        U = smeared16.shift
        cond = build_conditional(smeared16, lab)
        cond_shifted = build_conditional(smeared16, shifted_lab)
        lhs = U @ cond.effect({5, 6}) @ dag(U)
        rhs = cond_shifted.effect({6, 7})
        assert op_norm(lhs - rhs) <= 1e-10


class TestComposition:
    LAB1 = frozenset({2, 3, 4, 5})
    LAB2 = frozenset({6, 7, 8, 9})

    def test_identity_exact_frame_smeared(self, smeared16):
        rep = composition_identity_check(smeared16, self.LAB1, self.LAB2)
        assert rep.residual("identity_residual") <= 1e-10
        assert rep.residual("plain_additivity_gap") > 0.0
        assert rep.residual("weighted_additivity_gap") > 1e-6

    def test_diagonal_weighted_gap_vanishes(self, diagonal16):
        rep = composition_identity_check(diagonal16, self.LAB1, self.LAB2)
        assert rep.residual("identity_residual") <= 1e-10
        assert rep.residual("weighted_additivity_gap") <= 1e-12
        # the naive unweighted sum still fails even for commuting models:
        # conditional probabilities on different conditioning events never add
        assert rep.residual("plain_additivity_gap") > 0.0

    @pytest.mark.parametrize("n, lab1, lab2", [(16, LAB1, LAB2), (64, range(3, 9), range(20, 31))])
    def test_stacked_check_matches_the_per_effect_loop(self, n, lab1, lab2):
        sys = build_frame_smeared_system(n, 1.0, 1.0, 1.5)
        lab1, lab2 = frozenset(lab1), frozenset(lab2)
        rep = composition_identity_check(sys, lab1, lab2)
        cond1, cond2 = build_conditional(sys, lab1), build_conditional(sys, lab2)
        cond_u = build_conditional(sys, lab1 | lab2)
        s1, s2 = cond1.lab_spectrum.sqrt(), cond2.lab_spectrum.sqrt()
        w1, w2 = psd_sqrt(cond_u.effect(lab1)), psd_sqrt(cond_u.effect(lab2))
        identity = plain = weighted = 0.0
        for cells in _sample_subsets(lab1 | lab2):
            lhs = cond_u.effect(cells)
            b1, b2 = cond1.effect(cells & lab1), cond2.effect(cells & lab2)
            rhs = hermitize(cond_u.inv_sqrt @ (s1 @ b1 @ s1 + s2 @ b2 @ s2) @ cond_u.inv_sqrt)
            identity = max(identity, op_norm(lhs - rhs))
            if cells:
                plain = max(plain, op_norm(lhs - b1 - b2))
                weighted = max(weighted, op_norm(lhs - hermitize(w1 @ b1 @ w1 + w2 @ b2 @ w2)))
        assert [item.residual for item in rep.items] == [identity, plain, weighted]

    def test_empty_intersection_required(self, smeared16):
        with pytest.raises(ValueError, match="disjoint"):
            composition_identity_check(smeared16, {2, 3}, {3, 4})

    def test_empty_delta_both_sides_zero(self, smeared16):
        cond1 = build_conditional(smeared16, self.LAB1)
        cond2 = build_conditional(smeared16, self.LAB2)
        union = build_conditional(smeared16, self.LAB1 | self.LAB2)
        A1 = effect_of(smeared16, self.LAB1)
        Au = effect_of(smeared16, self.LAB1 | self.LAB2)
        inv_u = eigh_checked(Au).inv_sqrt()
        s1 = psd_sqrt(A1)
        lhs = union.effect(frozenset())
        rhs = inv_u @ (s1 @ cond1.effect(frozenset()) @ s1) @ inv_u
        assert op_norm(lhs) <= 1e-12
        assert op_norm(rhs) <= 1e-12


def v_conjugated(sys, V):
    """The system with every operator conjugated by V, as
    ``v_conjugation_reduction`` builds it: complex cell effects."""
    return LatticeLocalizationSystem(
        n=sys.n, a=sys.a, cell_effects=[hermitize(V @ E @ dag(V)) for E in sys.cell_effects],
        shift=V @ sys.shift @ dag(V), hamiltonian=hermitize(V @ sys.hamiltonian @ dag(V)))


def validate_by_stack(cond):
    """validate()'s three items by the per-residual formulas: ``op_norm`` of
    the additivity residuals' stack, and ``eigvalsh`` of the left effects'
    stack."""
    cells = sorted(cond.lab_cells)
    if 1 << (len(cells) - 1) <= MAX_PARTITIONS:
        lefts = [frozenset(c for i, c in enumerate(cells) if (r >> i) & 1)
                 for r in range(1, 1 << (len(cells) - 1))]
    else:
        lefts = _sample_subsets(cond.lab_cells)
    B_lab = cond.effect(cond.lab_cells)
    residuals = cond.effects(lefts) + cond.effects([cond.lab_cells - c for c in lefts]) - B_lab
    assert (residuals == dag(residuals)).all()  # so op_norm takes eigvalsh
    w = np.linalg.eigvalsh(cond.effects(lefts))
    bound = max(0.0, float((-w[:, 0]).max()), float((w[:, -1] - 1.0).max()))
    return [op_norm(B_lab - np.eye(cond.dim)), float(op_norm(residuals).max()), bound]


def composition_by_stack(sys, lab1, lab2):
    """composition_identity_check's three items with one ``op_norm`` call per
    difference stack."""
    cond1, cond2 = build_conditional(sys, lab1), build_conditional(sys, lab2)
    cond_u = build_conditional(sys, lab1 | lab2)
    s1, s2 = cond1.lab_spectrum.sqrt(), cond2.lab_spectrum.sqrt()
    w1, w2 = psd_sqrt(cond_u.effect(lab1)), psd_sqrt(cond_u.effect(lab2))
    subsets = _sample_subsets(lab1 | lab2)
    lhs = cond_u.effects(subsets)
    b1 = cond1.effects([cells & lab1 for cells in subsets])
    b2 = cond2.effects([cells & lab2 for cells in subsets])
    rhs = cond_u._sandwich(s1 @ b1 @ s1 + s2 @ b2 @ s2)
    return [op_norm(lhs - rhs).max(), op_norm(lhs - b1 - b2).max(),
            op_norm(lhs - hermitize(w1 @ b1 @ w1 + w2 @ b2 @ w2)).max()]


class TestMergedNormCalls:
    """``validate`` and ``composition_identity_check`` decompose their
    residual stacks in one call each; every item keeps the bits of one call
    per stack, on real and on complex cell effects."""

    @pytest.fixture(scope="class", params=["real", "complex"])
    def systems(self, request):
        out = {n: build_frame_smeared_system(n, 1.0, 1.0, 1.5) for n in (16, 64)}
        if request.param == "complex":
            out = {n: v_conjugated(sys, haar_unitary(n, make_rng(66 + n)))
                   for n, sys in out.items()}
        return out

    @pytest.mark.parametrize("n, lab", [(16, frozenset([1, 2, 5, 8, 9, 12, 14])), (16, LAB6),
                                        (64, LAB11), (64, frozenset(range(20, 32)))])
    def test_validate(self, systems, n, lab):
        cond = build_conditional(systems[n], lab)
        assert cond.effect(lab).dtype == systems[n].cell_effects[0].dtype
        report = cond.validate(1e-10)
        assert [item.residual for item in report.items] == validate_by_stack(cond)
        assert report.passed

    @pytest.mark.parametrize("n, lab1, lab2", [(16, {2, 3, 4, 5}, {6, 7, 8, 9}),
                                               (64, range(3, 9), range(20, 31))])
    def test_composition(self, systems, n, lab1, lab2):
        lab1, lab2 = frozenset(lab1), frozenset(lab2)
        report = composition_identity_check(systems[n], lab1, lab2)
        assert [item.residual for item in report.items] == composition_by_stack(
            systems[n], lab1, lab2)
        assert report.residual("identity_residual") <= 1e-10


class TestCrossLabCommutator:
    def test_diagonal_system_commutes(self, diagonal16):
        value = cross_lab_commutator(diagonal16, {2, 3, 4}, {2, 3}, {8, 9, 10}, {9})
        assert value <= 1e-13

    def test_same_lab_different_cells_nonzero(self, smeared16):
        value = cross_lab_commutator(smeared16, LAB6, {5, 6}, LAB6, {7})
        assert value > 1e-6

    def test_gap_decay_trend(self):
        # narrow smearing, growing spatial gap: commutator decays (trend only)
        sys = build_frame_smeared_system(24, 1.0, 1.0, width=0.8)
        values = []
        for gap in (1, 4, 8):
            lab2 = frozenset(range(4 + gap, 8 + gap))
            values.append(
                cross_lab_commutator(sys, frozenset(range(4)), frozenset(range(2)),
                                     lab2, frozenset(list(lab2)[:2]))
            )
        assert values[0] > values[-1]


class TestExactConditionalIdentity:
    def test_random_states(self, smeared16):
        rng = make_rng(66)
        cond = build_conditional(smeared16, LAB6)
        A_lab = effect_of(smeared16, LAB6)
        root = psd_sqrt(A_lab)
        for _ in range(50):
            rho = random_state(16, rng)
            p_lab = np.trace(rho @ A_lab).real
            rho_cond = root @ rho @ root / p_lab
            for cells in ({5, 6}, {8}):
                fraction = np.trace(rho @ effect_of(smeared16, cells)).real / p_lab
                lhs = np.trace(rho_cond @ cond.effect(cells)).real
                assert abs(lhs - fraction) <= 1e-10

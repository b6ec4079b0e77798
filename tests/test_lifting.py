import numpy as np
import pytest

from logconnect import (
    ProjectiveClass,
    ProjectivePresentation,
    circle_loop,
    lift_commuting,
    lifting_exponent,
    local_realize,
    proj_equal,
    projective_monodromy,
    realize_fuchsian,
    standard_loops,
    transport,
    verify_lift_after_power,
)
from logconnect.errors import (
    NonAbelianUnsupported,
    NonDiagonalizableFamily,
    NotProjectivelyCommuting,
    OrderOverflow,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
FLIP = np.diag([1.0, -1.0])


def heisenberg_presentation():
    return ProjectivePresentation(
        2,
        {"g1": SWAP, "g2": FLIP},
        relations=[["g1", "g2", "g1^-1", "g2^-1"]],
    )


class TestLiftCommuting:
    def test_diagonal_pair(self):
        rep = lift_commuting([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert rep.success
        assert all(abs(s - 1.0) < 1e-8 for s in rep.obstruction_scalars)

    def test_heisenberg_obstruction(self):
        rep = lift_commuting([SWAP, FLIP])
        assert not rep.success
        assert len(rep.obstruction_scalars) == 1
        assert abs(rep.obstruction_scalars[0] + 1.0) < 1e-8

    def test_single_generator(self):
        rep = lift_commuting([np.diag([1.0, 5.0])])
        assert rep.success and rep.obstruction_scalars == ()

    def test_noncommuting_rejected(self):
        with pytest.raises(NotProjectivelyCommuting):
            lift_commuting([np.array([[1.0, 1.0], [0.0, 1.0]]), FLIP])

    def test_scalars_are_roots_of_unity(self, nprng):
        # random P_m-violating commuting projective pairs from diagonal + swap mixes
        for _ in range(50):
            V = nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2))
            if abs(np.linalg.det(V)) < 1e-3:
                continue
            Vi = np.linalg.inv(V)
            rep = lift_commuting([V @ SWAP @ Vi, V @ FLIP @ Vi])
            for s in rep.obstruction_scalars:
                assert abs(s ** 2 - 1.0) < 1e-8

    def test_pm_implies_success(self, nprng):
        for _ in range(50):
            m = int(nprng.integers(2, 5))
            V = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
            if abs(np.linalg.det(V)) < 1e-3:
                continue
            Vi = np.linalg.inv(V)
            d1 = np.exp(nprng.normal(size=m) + 1j * nprng.normal(size=m))
            d2 = np.exp(nprng.normal(size=m) + 1j * nprng.normal(size=m))
            pair = [V @ np.diag(d1) @ Vi, V @ np.diag(d2) @ Vi]
            from logconnect import property_Pm
            if all(property_Pm(M, m) for M in pair):
                assert lift_commuting(pair).success


class TestLocalRealize:
    def test_single_flip(self):
        # canonical SL_2 lift of diag(1,-1) is diag(i,-i), so the residue is
        # diag(1/4, 3/4); projectively its circle monodromy is still the flip
        model = local_realize([ProjectiveClass(FLIP)])
        eig = sorted(np.linalg.eigvals(model.residue_array(0)).real)
        assert np.allclose(eig, [0.25, 0.75], atol=1e-9)
        M = transport(model, circle_loop(0, 1.0))
        assert proj_equal(M, FLIP, 1e-7)

    def test_identity_tuple(self):
        model = local_realize([ProjectiveClass(np.eye(2)), ProjectiveClass(np.eye(2))])
        for i in range(2):
            assert np.allclose(model.residue_array(i), 0.0, atol=1e-9)

    def test_commuting_diagonal_pair(self):
        g1 = ProjectiveClass(np.diag([1.0, 2.0]))
        g2 = ProjectiveClass(np.diag([3.0, 5.0]))
        model = local_realize([g1, g2])
        from logconnect import LocalModel
        for i, g in enumerate([g1, g2]):
            M = transport(LocalModel(2, [model.residues[i]]), circle_loop(0, 1.0))
            assert proj_equal(M, g.canonical, 1e-7)

    def test_obstructed_tuple_rejected(self):
        with pytest.raises(NotProjectivelyCommuting):
            local_realize([ProjectiveClass(SWAP), ProjectiveClass(FLIP)])


class TestLiftingExponent:
    def test_flip(self):
        assert lifting_exponent([FLIP]) == 2

    def test_no_finite_ratios(self):
        assert lifting_exponent([np.diag([1.0, 2.0])]) == 1

    def test_lcm_of_orders(self):
        assert lifting_exponent([np.diag([1.0, 1j]), FLIP]) == 4

    def test_order_overflow(self):
        theta = 2 * np.pi / 1001.0
        with pytest.raises(OrderOverflow):
            lifting_exponent([np.diag([1.0, np.exp(1j * theta)])])

    def test_squares_drop_order(self):
        rep = lift_commuting([SWAP, FLIP])
        assert lifting_exponent(rep.lifts) == 2
        squares = [np.linalg.matrix_power(np.asarray(M), 2) for M in rep.lifts]
        assert lifting_exponent(squares) == 1


class TestVerifyLiftAfterPower:
    def test_heisenberg_killed_at_two(self):
        P = heisenberg_presentation()
        before = verify_lift_after_power(P, 1)
        assert not before.success
        assert abs(before.obstruction_scalars[0] + 1.0) < 1e-8
        after = verify_lift_after_power(P, 2)
        assert after.success
        assert abs(after.obstruction_scalars[0] - 1.0) < 1e-8

    def test_nu_one_liftable_unchanged(self):
        P = ProjectivePresentation(
            2,
            {"a": np.diag([1.0, 2.0]), "b": np.diag([3.0, 4.0])},
            relations=[["a", "b", "a^-1", "b^-1"]],
        )
        assert verify_lift_after_power(P, 1).success

    def test_sphere_relation_presentation(self):
        # commuting Fuchsian-style rep with explicit product relation
        M1 = np.diag([np.exp(0.4j), np.exp(-0.3j)])
        M2 = np.diag([np.exp(0.2j), np.exp(0.5j)])
        M3 = np.linalg.inv(M2 @ M1)
        P = ProjectivePresentation(
            2,
            {"a": M1, "b": M2, "c": M3},
            relations=[["a", "b", "c"]],
        )
        assert verify_lift_after_power(P, 1).success


class TestRealizeFuchsian:
    def test_single_flip_at_origin(self):
        P = ProjectivePresentation(2, {"g": FLIP}, poles=[0])
        F = realize_fuchsian(P)
        eig = sorted(np.linalg.eigvals(F.residue_array(0)).real)
        assert np.allclose(eig, [0.25, 0.75], atol=1e-8)
        rep = projective_monodromy(F, standard_loops(F))
        assert proj_equal(rep.matrices[0].canonical, FLIP, 1e-7)

    def test_identity_rep(self):
        P = ProjectivePresentation(
            2, {"a": np.eye(2), "b": np.eye(2)}, poles=[0, 1]
        )
        F = realize_fuchsian(P)
        for i in range(2):
            assert np.allclose(F.residue_array(i), 0.0, atol=1e-8)

    def test_diagonal_pair_with_infinity(self):
        M1 = np.diag([np.exp(0.6j), np.exp(-0.4j)])
        M2 = np.diag([np.exp(0.1j), np.exp(0.9j)])
        P = ProjectivePresentation(2, {"a": M1, "b": M2}, poles=[0, 1])
        F = realize_fuchsian(P)
        loops = standard_loops(F)
        rep = projective_monodromy(F, loops)
        assert proj_equal(rep.matrices[0].canonical, M1, 1e-7)
        assert proj_equal(rep.matrices[1].canonical, M2, 1e-7)
        # infinity class is the inverse ordered product
        prod = rep.matrices[1].canonical @ rep.matrices[0].canonical
        assert proj_equal(rep.infinity.canonical, np.linalg.inv(prod), 1e-6)

    def test_residue_eigenvalues_in_strip(self, nprng):
        for _ in range(10):
            V = nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2))
            if abs(np.linalg.det(V)) < 1e-2:
                continue
            Vi = np.linalg.inv(V)
            gens = {
                "a": V @ np.diag(np.exp(1j * nprng.uniform(0, 2, 2))) @ Vi,
                "b": V @ np.diag(np.exp(1j * nprng.uniform(0, 2, 2))) @ Vi,
            }
            P = ProjectivePresentation(2, gens, poles=[0, 1])
            F = realize_fuchsian(P)
            for i in range(2):
                re = np.linalg.eigvals(F.residue_array(i)).real
                assert np.all(re >= -1e-9) and np.all(re < 1.0)

    def test_nonabelian_rejected(self):
        P = ProjectivePresentation(2, {"a": SWAP, "b": np.diag([1.0, 3.0])},
                                   poles=[0, 1])
        with pytest.raises((NonAbelianUnsupported, NotProjectivelyCommuting)):
            realize_fuchsian(P)

    def test_pm_residues_nonresonant_after_scaling(self, nprng):
        from logconnect import nonresonant, property_Pm
        count = 0
        for _ in range(20):
            d = np.exp(nprng.normal(size=2) + 1j * nprng.uniform(0, 2 * np.pi, 2))
            M = np.diag(d)
            if not property_Pm(M, 2):
                continue
            count += 1
            model = local_realize([ProjectiveClass(M)])
            assert nonresonant(2 * model.residue_array(0))
        assert count > 5

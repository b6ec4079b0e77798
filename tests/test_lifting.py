import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from logconnect import lifting, monodromy
from logconnect import (
    LocalModel,
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
)

from conftest import mat_exp

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


def clock_and_shift(rng, m):
    """The clock diag(zeta^k) and the shift of rank m, conjugated by one seeded matrix:
    they commute up to zeta = exp(2 pi i / m)."""
    Q = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Qinv = np.linalg.inv(Q)
    clock = np.diag(np.exp(2j * np.pi * np.arange(m) / m))
    shift = np.roll(np.eye(m), 1, axis=0)
    return Q @ clock @ Qinv, Q @ shift @ Qinv


@pytest.mark.parametrize("m, seed", [(2, None)] + [(m, s) for m in (2, 3, 4) for s in range(3)],
                         ids=["heisenberg"] + [f"clock-shift-{m}-{s}" for m in (2, 3, 4)
                                               for s in range(3)])
def test_commuting_tuple_and_commutator_relation_give_one_scalar(m, seed):
    # lift_commuting reads the scalar of g_0 g_1 g_0^-1 g_1^-1, verify_lift_after_power
    # that of the presentation's relation a b a^-1 b^-1: the same word, so the same
    # scalar, an m-th root of unity
    a, b = (SWAP, FLIP) if seed is None else clock_and_shift(np.random.default_rng(seed), m)
    P = ProjectivePresentation(m, {"a": a, "b": b}, relations=[["a", "b", "a^-1", "b^-1"]])
    commuting = lift_commuting(P.generator_list())
    related = verify_lift_after_power(P, 1)
    assert commuting.obstruction_scalars == related.obstruction_scalars
    assert commuting.success is related.success is False
    (lam,) = related.obstruction_scalars
    assert abs(lam ** m - 1.0) < 1e-8 and abs(lam - 1.0) > 0.5
    for x, y in zip(commuting.lifts, related.lifts, strict=True):
        assert np.array_equal(x, y)


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


def presentation(*gens, relations=()):
    """The rank-m presentation of the matrices ``gens``, named a, b, c, ..."""
    return ProjectivePresentation(len(gens[0]), dict(zip("abcdefgh", gens)), relations)


class TestLiftingExponent:
    def test_flip(self):
        # one generator has no commutator words, so it lifts as it is, although its
        # eigenvalue ratio -1 has order 2
        assert lifting_exponent(presentation(FLIP)) == 1

    def test_no_finite_ratios(self):
        assert lifting_exponent(presentation(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))) == 1

    def test_least_power_below_the_lcm_of_orders(self):
        # the clock and shift of rank 4 have eigenvalue ratios of order 4, yet their
        # commutator scalar i becomes i^(2^2) = 1 at nu = 2
        clock, shift = clock_and_shift(np.random.default_rng(0), 4)
        P = presentation(clock, shift)
        assert lifting_exponent(P) == 2
        assert not verify_lift_after_power(P, 1).success

    def test_a_high_order_ratio_lifts_at_one(self):
        # a unit eigenvalue ratio of order 1001: nothing searches its order
        theta = 2 * np.pi / 1001.0
        assert lifting_exponent(presentation(np.diag([1.0, np.exp(1j * theta)]), FLIP)) == 1

    def test_squares_drop_order(self):
        assert lifting_exponent(presentation(SWAP, FLIP)) == 2
        assert lifting_exponent(presentation(SWAP @ SWAP, FLIP @ FLIP)) == 1

    def test_relations_count(self):
        # the relation a b = 1 between diag(e^{i pi/4}, e^{-i pi/4}) and its inverse
        # holds at every power, but the canonical lifts of a^nu and b^nu multiply to -I
        # for nu = 1, 2: no power up to the rank lifts
        a = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        assert lifting_exponent(presentation(a, np.linalg.inv(a))) == 1
        P = presentation(a, np.linalg.inv(a), relations=[["a", "b"]])
        assert lifting_exponent(P) is None
        assert [verify_lift_after_power(P, nu).obstruction_scalars for nu in (1, 2)] == \
            [(pytest.approx(-1.0),)] * 2

    def test_a_relation_that_breaks_when_powered_names_its_power(self):
        # a b c = 1 with scalar -1 in the lifts; the squares break the relation
        a, b = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 1.0]])
        P = presentation(a, b, np.linalg.inv(a @ b), relations=[["a", "b", "c"]])
        assert not verify_lift_after_power(P, 1).success
        with pytest.raises(ValueError, match=r"^at nu = 2: relation .* does not hold"):
            lifting_exponent(P)


def least_lifting_power(m, a):
    """The least nu with m | a nu^2: the commutator scalar of (C^a, S) is zeta^a, and
    that of their nu-th powers zeta^(a nu^2)."""
    return next(nu for nu in range(1, m + 1) if a * nu * nu % m == 0)


def conjugator(rng, m):
    """A seeded complex matrix of condition number at most 10."""
    while True:
        Q = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        if np.linalg.cond(Q) <= 10:
            return Q


def lcm_of_ratio_orders(diagonals):
    """The lcm of the orders of the unit eigenvalue ratios of diagonals whose entries
    are exp(2 pi i f) for Fractions f: the order of a ratio is the denominator of the
    difference of its two fractions."""
    return math.lcm(*(Fraction(f - g).denominator for d in diagonals
                      for f, g in itertools.permutations(d, 2)))


def sweep_cases():
    """(label, generators, nu, the lcm of eigenvalue-ratio orders): clock-and-shift
    pairs (C^a, S), and commuting diagonal tuples of rank 2-4 whose entries are roots
    of unity."""
    rng = np.random.default_rng(26)
    cases = []
    for m in (2, 3, 4, 6, 8, 9):
        clock = np.diag(np.exp(2j * np.pi * np.arange(m) / m))
        shift = np.roll(np.eye(m), 1, axis=0)
        for a in (1, 2, 3):
            # S has the ratio zeta of order m, and every ratio of C^a has an order dividing m
            cases.append((f"clock{a}-shift-{m}", (np.linalg.matrix_power(clock, a), shift),
                          least_lifting_power(m, a), m))
    for m in (2, 3, 4):
        for k in (2, 3):
            fractions = [[Fraction(int(rng.integers(0, q)), q)
                          for q in rng.choice([1, 2, 3, 4, 5, 6, 8], size=m)]
                         for _ in range(k)]
            gens = tuple(np.diag([np.exp(2j * np.pi * float(f)) for f in d]) for d in fractions)
            cases.append((f"diagonal-{m}x{k}", gens, 1, lcm_of_ratio_orders(fractions)))
    return cases


SWEEP = sweep_cases()


@pytest.mark.parametrize("m, nu", [(4, 2), (8, 4), (9, 3)])
def test_clock_and_shift_lift_below_their_rank(m, nu):
    clock = np.diag(np.exp(2j * np.pi * np.arange(m) / m))
    assert lifting_exponent(presentation(clock, np.roll(np.eye(m), 1, axis=0))) == nu


@pytest.mark.parametrize("seed, gens, nu, bound",
                         [(seed, *case[1:]) for seed, case in enumerate(SWEEP)],
                         ids=[case[0] for case in SWEEP])
def test_lifting_exponent_is_the_least_lifting_power(seed, gens, nu, bound):
    # as given, and conjugated by three seeded matrices
    rng = np.random.default_rng(seed)
    conjugators = [np.eye(len(gens[0]))] + [conjugator(rng, len(gens[0])) for _ in range(3)]
    for Q in conjugators:
        conjugated = [Q @ g @ np.linalg.inv(Q) for g in gens]
        P = presentation(*conjugated)
        assert lifting_exponent(P) == nu <= bound
        commutators = [[x, y, f"{x}^-1", f"{y}^-1"]
                       for x, y in itertools.combinations(P.names, 2)]
        related = presentation(*conjugated, relations=commutators)
        assert verify_lift_after_power(related, nu).success
        for smaller in range(1, nu):
            assert not verify_lift_after_power(related, smaller).success


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


def commuting_classes(rng, m, k):
    """k commuting diagonalizable classes of rank m: one eigenbasis, eigenvalues off the
    unit circle, with separated angles."""
    Q = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Qinv = np.linalg.inv(Q)
    out = []
    for _ in range(k):
        angles = np.sort(rng.uniform(0.05, 0.9, size=m)) + 1.1 * np.arange(m)
        out.append(Q @ np.diag(np.exp(0.3 * rng.normal(size=m) + 1j * angles)) @ Qinv)
    return out


def realize_both(rng, m, k):
    """realize_fuchsian and local_realize of the same k classes, poles drawn from a pool."""
    classes = commuting_classes(rng, m, k)
    poles = [[0, 1, -1, 2, 0.5, 1j][i] for i in rng.permutation(6)[:k]]
    P = ProjectivePresentation(m, {f"g{j}": g for j, g in enumerate(classes)}, poles=poles)
    return realize_fuchsian(P), local_realize(classes)


STRATA = list(itertools.product((2, 3, 4), (1, 2, 3)))


class TestClosedFormCheck:
    @pytest.mark.parametrize("m, k", STRATA)
    def test_closed_form_is_the_transport(self, m, k, monkeypatch):
        # the realizations compare exp(2 pi i A_j) with their classes; here it is
        # compared with the transport of each standard loop or coordinate circle, the
        # loops transported as a log connection, so by panels and not in closed form
        seen = []
        check = lifting._closed_form_monodromy

        def spy(*args):
            seen.append(check(*args))
            return seen[-1]

        monkeypatch.setattr(lifting, "_closed_form_monodromy", spy)
        F, model = realize_both(np.random.default_rng(10 * m + k), m, k)
        fuchsian, local = seen
        for lp, E in zip(standard_loops(F), fuchsian, strict=True):
            M = transport(F.to_log_connection(), lp, tol=1e-12)
            assert np.linalg.norm(M - E) < 1e-9 * np.linalg.norm(M)
        for j, E in enumerate(local):
            branch = LocalModel(m, [model.residues[j]])
            M = transport(branch, circle_loop(0.0, 1.0), tol=1e-12)
            assert np.linalg.norm(M - E) < 1e-9 * np.linalg.norm(M)

    @pytest.fixture
    def no_transport(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a realization transported")

        monkeypatch.setattr(monodromy, "transport", refuse)

    @pytest.mark.parametrize("m, k", STRATA)
    def test_realizations_do_not_transport(self, m, k, no_transport):
        F, model = realize_both(np.random.default_rng(10 * m + k), m, k)
        assert F.k == model.k == k

    @pytest.mark.parametrize("mutant", [
        # exp(-2 pi i A): the inverse class
        lambda A, V, Vinv: -A,
        # the first eigenvalue's log off by 1/2, a wrong branch of its square root
        lambda A, V, Vinv: A + 0.5 * np.outer(V[:, 0], Vinv[0]),
        # a small residue error off the diagonal of the common eigenbasis: the
        # eigenvalues, and so V diag(exp(2 pi i d)) V^-1, stay as they were
        lambda A, V, Vinv: A + 1e-4 * V @ np.eye(len(A), k=1) @ Vinv,
    ], ids=["inverse", "half-branch", "off-basis"])
    @pytest.mark.parametrize("m, k", [(2, 1), (3, 2), (4, 3)])
    def test_a_wrong_residue_is_refused(self, m, k, mutant, no_transport, monkeypatch):
        log = lifting._log_in_basis
        monkeypatch.setattr(lifting, "_log_in_basis",
                            lambda N, V, Vinv: mutant(log(N, V, Vinv), V, Vinv))
        rng = np.random.default_rng(10 * m + k)
        classes = commuting_classes(rng, m, k)
        P = ProjectivePresentation(m, {f"g{j}": g for j, g in enumerate(classes)},
                                   poles=list(range(k)))
        with pytest.raises(NonAbelianUnsupported):
            realize_fuchsian(P)
        with pytest.raises(NonDiagonalizableFamily):
            local_realize(classes)


def conditioned(rng, m, k):
    """A seeded complex matrix of condition number 10^k: unitary factors about the
    singular values 1 down to 10^-k."""
    U, W = (np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
            for _ in range(2))
    return U @ np.diag(np.logspace(0, -k, m)) @ W.conj().T


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_realization_envelope(k, m, n):
    # n commuting classes Q diag(unit eigenvalues) Q^-1 with cond(Q) = 10^k.  A single
    # class is realized through 10^6: its residue's eigenbasis is accepted within
    # 64 cond(V) u of diagonal, and each exp(2 pi i A_j) checked against its class.  A
    # pair's commutator is read in lifts with entries of size 10^k, so pairs are
    # realized through 10^3.  Past those a refusal is the realization's own error.
    rng = np.random.default_rng(100 * k + 10 * m + n)
    Q = conditioned(rng, m, k)
    classes = [Q @ np.diag(np.exp(1j * (np.sort(rng.uniform(0.05, 0.9, size=m))
                                        + 1.1 * np.arange(m)))) @ np.linalg.inv(Q)
               for _ in range(n)]
    P = ProjectivePresentation(m, {f"g{j}": g for j, g in enumerate(classes)},
                               poles=list(range(n)))
    for realize, error in [(lambda: realize_fuchsian(P), NonAbelianUnsupported),
                           (lambda: local_realize(classes),
                            (NotProjectivelyCommuting, NonDiagonalizableFamily))]:
        try:
            system = realize()
        except error:
            assert k > (6 if n == 1 else 3)
            continue
        for j, N in enumerate(classes):
            # the 50-digit exponential: scipy's expm is itself off by up to 4e-5 here
            assert proj_equal(mat_exp(2j * np.pi * system.residue_array(j)), N,
                              10 * lifting.REALIZE_TOL)

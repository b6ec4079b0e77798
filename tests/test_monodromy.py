import random
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import expm as mat_exp

from logconnect import (
    FuchsianSystem,
    LocalModel,
    LoopPath,
    MonodromyRep,
    ProjectiveClass,
    circle_loop,
    monodromy_rep,
    proj_equal,
    projective_monodromy,
    projectivize,
    pullback_power,
    relation_check,
    residue,
    standard_loops,
    transport,
)
from logconnect import monodromy
from logconnect.errors import DegenerateConfiguration, PoleProximity, ToleranceNotMet
from logconnect.monodromy import ArcSegment, LineSegment

from conftest import random_fuchsian, rational_matrix


class TestStandardLoops:
    def test_single_pole(self):
        F = FuchsianSystem(2, [0], [[[1, 0], [0, 1]]])
        loops = standard_loops(F, basepoint=1.0)
        assert len(loops) == 1
        pts = loops[0].samples()
        assert np.min(np.abs(pts)) > 0.2

    def test_two_poles_noncrossing(self):
        F = FuchsianSystem(2, [0, 1], [[[1, 0], [0, 1]], [[2, 0], [0, 2]]])
        loops = standard_loops(F, basepoint=0.5 + 2j)
        # each lasso keeps clear of the other pole
        assert loops[0].clearance([1.0]) > 0.1
        assert loops[1].clearance([0.0]) > 0.1

    def test_collinear_rejected(self):
        F = FuchsianSystem(1, [0, 1], [[[1]], [[1]]])
        with pytest.raises(DegenerateConfiguration):
            standard_loops(F, basepoint=2.0)

    def test_three_pole_concatenation_contractible(self):
        # product of transported lassos ~ transport around a giant circle
        A = [[[0.2, 0.1], [0.0, -0.1]]] * 3
        F = FuchsianSystem(2, [0, 1, -1],
                           [np.array(A[0]) * s for s in (1.0, 0.5, 0.25)])
        loops = standard_loops(F, basepoint=3.0 + 0.7j)
        mats = [transport(F, lp, tol=1e-12) for lp in loops]
        prod = mats[2] @ mats[1] @ mats[0]
        big = transport(F, circle_loop(0.0, 10.0, basepoint=3.0 + 0.7j), tol=1e-12)
        # both are the total monodromy at their own basepoints; compare traces
        assert abs(np.trace(prod) - np.trace(big)) < 1e-7


@pytest.mark.parametrize("seg", [
    LineSegment(-1 + 0j, 1 + 1j), LineSegment(2j, 2j), ArcSegment(0.5j, 1.5, 0.3, 2.5),
    ArcSegment(0j, 1.0, 1.0, -4.0), ArcSegment(1 + 0j, 0.5, 0.0, 8.0)])
def test_segment_distance_is_the_least_over_the_segment(seg, nprng):
    pts = seg.point(np.linspace(0.0, 1.0, 40001))
    center = seg.center if isinstance(seg, ArcSegment) else seg.start
    for p in [center, *(2 * nprng.normal(size=30) + 2j * nprng.normal(size=30))]:
        sampled = float(np.min(np.abs(pts - p)))
        assert sampled - 1e-3 <= seg.distance(p) <= sampled + 1e-12


class TestTransport:
    def test_trivial_connection(self):
        F = FuchsianSystem(2, [0], [[[0, 0], [0, 0]]])
        T = transport(F, circle_loop(0, 1.0))
        assert np.allclose(T, np.eye(2), atol=1e-10)

    def test_diagonal_quarter(self):
        F = FuchsianSystem(2, [0], [[[0.25, 0], [0, 0]]])
        T = transport(F, circle_loop(0, 1.0))
        assert np.linalg.norm(T - np.diag([1j, 1.0])) < 1e-8

    def test_nondiagonalizable_oracle(self, nprng):
        # closed-form oracle: monodromy = exp(2 pi i A), A a Jordan-type matrix
        A = np.array([[0.3, 1.0], [0.0, 0.3]]) + 0.1j * np.triu(np.ones((2, 2)))
        F = FuchsianSystem(2, [0], [A])
        T = transport(F, circle_loop(0, 1.0), tol=1e-12)
        assert np.linalg.norm(T - mat_exp(2j * np.pi * A)) < 1e-8

    def test_reversal_inverse(self, nprng):
        A = 0.5 * (nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3)))
        F = FuchsianSystem(3, [0], [A])
        loop = circle_loop(0, 1.0)
        T = transport(F, loop, tol=1e-12)
        Trev = transport(F, loop.reversed(), tol=1e-12)
        assert np.linalg.norm(T @ Trev - np.eye(3)) < 1e-8

    def test_refinement_invariance(self, nprng):
        A = 0.5 * (nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2)))
        F = FuchsianSystem(2, [0], [A])
        loop = circle_loop(0, 1.0)
        T1 = transport(F, loop, tol=1e-12)
        T2 = transport(F, loop.refined(4), tol=1e-12)
        assert np.linalg.norm(T1 - T2) < 1e-8

    def test_pole_proximity(self):
        F = FuchsianSystem(1, [1.0], [[[1]]])
        with pytest.raises(PoleProximity):
            transport(F, circle_loop(0, 1.0))

    def test_local_model_slice(self):
        model = LocalModel(2, [np.diag([0.25, 0.0])])
        T = transport(model, circle_loop(0, 1.0))
        assert np.linalg.norm(T - np.diag([1j, 1.0])) < 1e-8


class TestMonodromyRep:
    def test_single_pole_exponential(self, nprng):
        A = 0.4 * (nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2)))
        F = FuchsianSystem(2, [0], [A])
        rep = monodromy_rep(F, standard_loops(F))
        assert np.linalg.norm(rep.matrices[0] - mat_exp(2j * np.pi * A)) < 1e-8
        assert rep.composition_convention == "antirepresentation"

    def test_commuting_residues_closed_form(self):
        A = np.diag([0.3, -0.2])
        B = np.diag([0.1, 0.25])
        F = FuchsianSystem(2, [0, 1], [A, B])
        rep = monodromy_rep(F, standard_loops(F, basepoint=0.5 + 2.0j))
        assert np.linalg.norm(rep.matrices[0] - mat_exp(2j * np.pi * A)) < 1e-8
        assert np.linalg.norm(rep.matrices[1] - mat_exp(2j * np.pi * B)) < 1e-8

    def test_trivial_connection_identity(self):
        F = FuchsianSystem(2, [0, 1], [np.zeros((2, 2)), np.zeros((2, 2))])
        rep = monodromy_rep(F, standard_loops(F, basepoint=0.5 + 2.0j))
        for M in rep.matrices:
            assert np.allclose(M, np.eye(2), atol=1e-9)

    def test_infinity_matrix(self):
        A = np.diag([0.3, -0.2])
        F = FuchsianSystem(2, [0], [A])
        rep = monodromy_rep(F, standard_loops(F))
        assert np.linalg.norm(
            rep.infinity - mat_exp(-2j * np.pi * A)
        ) < 1e-7


class TestProjectiveMonodromy:
    def test_projection_of_linear(self):
        F = FuchsianSystem(2, [0], [np.diag([0.25, 0.0])])
        rep = projective_monodromy(F, standard_loops(F))
        assert proj_equal(rep.matrices[0].canonical, np.diag([1j, 1.0]), 1e-7)

    def test_riccati_trace_independent(self):
        F = FuchsianSystem(2, [0], [[[0.25, 0.1], [0.0, -0.25]]])
        R = projectivize(F)
        rep = projective_monodromy(R, standard_loops(F))
        lin = monodromy_rep(F, standard_loops(F))
        assert proj_equal(rep.matrices[0].canonical, lin.matrices[0], 1e-6)

    def test_zero_riccati_identity(self):
        F = FuchsianSystem(2, [0], [np.zeros((2, 2))])
        rep = projective_monodromy(projectivize(F), standard_loops(F))
        assert proj_equal(rep.matrices[0].canonical, np.eye(2), 1e-7)

    def test_scalar_gauge_independence(self, rng):
        F = random_fuchsian(rng, m=2, max_poles=2)
        conn = F.to_log_connection()
        loops = standard_loops(F, basepoint=4.0 + 1.0j)
        shift = np.eye(2) * 0.37
        shifted = FuchsianSystem(
            2, F.poles, [F.residue_array(i) + shift for i in range(F.k)]
        )
        rep0 = projective_monodromy(conn, loops)
        rep1 = projective_monodromy(shifted, loops)
        for a, b in zip(rep0.matrices, rep1.matrices):
            assert proj_equal(a.canonical, b.canonical, 1e-6)


class TestRelationCheck:
    def test_commuting_fuchsian(self):
        F = FuchsianSystem(2, [0, 1], [np.diag([0.3, -0.2]), np.diag([0.1, 0.25])])
        rep = monodromy_rep(F, standard_loops(F, basepoint=0.5 + 2.0j))
        assert relation_check(rep)

    def test_trivial(self):
        F = FuchsianSystem(2, [0], [np.zeros((2, 2))])
        rep = monodromy_rep(F, standard_loops(F))
        assert relation_check(rep)

    def test_violating_rep(self):
        bad = MonodromyRep(
            basepoint=2.0, loops=(), names=("p0",),
            matrices=(np.diag([2.0, 1.0]),), infinity=np.eye(2),
        )
        assert not relation_check(bad)

    def test_projective_relation(self):
        F = FuchsianSystem(2, [0, 1], [np.diag([0.3, -0.2]), np.diag([0.1, 0.25])])
        rep = projective_monodromy(F, standard_loops(F, basepoint=0.5 + 2.0j))
        assert relation_check(rep)


class TestPullbackMonodromy:
    def test_power_law(self, nprng):
        A = 0.4 * (nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2)))
        F = FuchsianSystem(2, [0], [A])
        M = transport(F, circle_loop(0, 1.0), tol=1e-12)
        for nu in (2, 3):
            Mnu = transport(pullback_power(F, 0, nu), circle_loop(0, 1.0), tol=1e-12)
            assert np.linalg.norm(Mnu - np.linalg.matrix_power(M, nu)) < 1e-7


def _relative(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def _moderate_fuchsian(seed):
    """Random exact system whose residue entries have real parts in [-3/4, 3/4] and
    imaginary parts in [-1/8, 1/8], so that its loop matrices are well conditioned."""
    rng = random.Random(seed)
    m, k = rng.choice([2, 3]), rng.randint(1, 3)
    poles = rng.sample([0, 1, -1, 2, sp.Rational(1, 2)], k)

    def entry():
        return sp.Rational(rng.randint(-3, 3), 4) + sp.Rational(rng.randint(-1, 1), 8) * sp.I

    return FuchsianSystem(m, poles, [[[entry() for _ in range(m)] for _ in range(m)]
                                     for _ in range(k)])


def _with_eigenvalues(Q, eigenvalues):
    """Q diag(eigenvalues) Q^-1 with exact Gaussian-rational entries."""
    Q = sp.Matrix(Q)
    return (Q * sp.diag(*eigenvalues) * Q.inv()).applyfunc(
        lambda e: sp.expand(sp.radsimp(e))).tolist()


# residue eigenvalues with real parts near +-3 in a skewed basis: the spoke matrices
# have condition numbers near 6e4, and multiplying segment matrices each
# integrated from the identity along the refined loop would lose 1e-6
_SKEW = [[2 - sp.I / 2, sp.Rational(-13, 5) - sp.I / 5],
         [sp.Rational(2, 5) - 2 * sp.I, sp.Rational(-3, 5) - sp.I / 5]]
NEAR_PM3 = FuchsianSystem(2, [0, 1], [
    _with_eigenvalues(_SKEW, [3 + sp.I / 5, sp.Rational(-29, 10) + sp.I / 10]),
    _with_eigenvalues(_SKEW, [sp.Rational(-31, 10) + 3 * sp.I / 10,
                              sp.Rational(59, 20) - 2 * sp.I / 5]),
])
# residue eigenvalues -3.36 - 3.98i and 2.86 + 0.98i at 0: the spoke matrix to the
# pole -2 has condition number about 1e8, and inverting it would lose 1e-3
STIFF_SPOKE = FuchsianSystem(2, [0, -2], [
    [[-2 - 4 * sp.I, -2 + 4 * sp.I], [sp.Rational(2, 3) - 2 * sp.I, sp.Rational(3, 2) + sp.I]],
    [[-sp.Rational(1, 2) - 3 * sp.I / 2, -1], [1 + 2 * sp.I / 3, -1]],
])


@pytest.fixture
def solves(monkeypatch):
    """The segment integrations transport makes: one entry per ``_flow`` call."""
    calls = []
    original = monodromy._flow

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(monodromy, "_flow", counting)
    return calls


class TestSegmentReuse:
    @pytest.mark.parametrize(
        "F", [_moderate_fuchsian(seed) for seed in range(6)] + [NEAR_PM3, STIFF_SPOKE],
        ids=[f"seed{seed}" for seed in range(6)] + ["near_pm3", "stiff_spoke"])
    def test_standard_loop_matches_its_refinement(self, F):
        for lp in standard_loops(F):
            fine = lp.refined(2)  # repeats no segment; its half-spokes may retrace each other
            assert len(set(fine.segments)) == len(fine.segments)
            assert _relative(transport(F, lp), transport(F, fine)) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_solving_with_the_spoke_matches_integrating_back(self, seed, monkeypatch):
        F = _moderate_fuchsian(seed)
        loops = standard_loops(F)
        reused = [transport(F, lp) for lp in loops]
        monkeypatch.setattr(monodromy, "WELL_CONDITIONED", 0.0)  # integrate every segment
        for T, lp in zip(reused, loops):
            assert _relative(T, transport(F, lp)) < 1e-9

    def test_two_identical_circles_give_the_square(self, nprng):
        A = 0.5 * (nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3)))
        F = FuchsianSystem(3, [0], [A])
        circle = ArcSegment(0j, 1.0, 0.0, 2 * np.pi)
        once = transport(F, LoopPath([circle]))
        twice = transport(F, LoopPath([circle, circle]))
        assert _relative(twice, once @ once) < 1e-9

    def test_retrace_after_other_segments_is_solved(self, solves):
        F = FuchsianSystem(2, [0], [np.diag([0.3, -0.2])])
        spoke = LineSegment(2.0 + 0j, 1.0 + 0j)
        circle = ArcSegment(0j, 1.0, 0.0, 2 * np.pi)
        lasso = LoopPath([spoke, circle, circle, spoke.reversed()])
        fine = transport(F, lasso.refined(2))
        solves.clear()
        assert _relative(transport(F, lasso), fine) < 1e-8
        assert len(solves) == 3  # the return spoke is solved; the repeated circle is not reused

    @pytest.mark.parametrize("seed", range(4))
    def test_reversed_loop_is_the_inverse(self, seed):
        F = _moderate_fuchsian(seed)
        for lp in standard_loops(F):
            back_and_forth = transport(F, lp.reversed(), tol=1e-12) @ transport(F, lp, tol=1e-12)
            assert np.linalg.norm(back_and_forth - np.eye(F.m)) < 1e-9

    def test_standard_loop_takes_two_solves(self, solves):
        F = FuchsianSystem(2, [0, 1, -1], [np.diag([0.3, -0.2]), np.diag([0.1, 0.25]),
                                           [[0.2, 0.1], [0.0, -0.1]]])
        loops = standard_loops(F, basepoint=0.5 + 2.0j)
        transport(F, loops[0])
        assert len(solves) == 2  # out along the spoke, around the circle; back is solved
        solves.clear()
        monodromy_rep(F, loops)
        assert len(solves) == 2 * len(loops) + 1  # and once around the circle at infinity

    def test_ill_conditioned_spoke_is_integrated_back(self, solves):
        transport(STIFF_SPOKE, standard_loops(STIFF_SPOKE)[1])
        assert len(solves) == 3


def _noncommuting(seed):
    """Rank 2 or 3 with 2-4 poles in the disk of radius 2, at least 0.4 apart, and
    residues 0.3 (N + iN): non-commuting, and nonresonant with probability one."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    poles = []
    while len(poles) < k:
        p = complex(*np.round(rng.uniform(-2, 2, 2), 2))
        if abs(p) <= 2 and all(abs(p - q) >= 0.4 for q in poles):
            poles.append(p)
    return FuchsianSystem(m, poles, [0.3 * (rng.standard_normal((m, m))
                                            + 1j * rng.standard_normal((m, m)))
                                     for _ in range(k)])


def _same_spectrum(M, A):
    """M has the eigenvalues of exp(2 pi i A): equal characteristic polynomials."""
    want = np.poly(mat_exp(2j * np.pi * A))
    return np.max(np.abs(np.poly(M) - want)) <= 1e-7 * np.max(np.abs(want))


class TestLoopAtInfinity:
    @pytest.mark.parametrize("seed", range(8))
    def test_enclosing_circle_is_the_lasso_product_in_spoke_order(self, seed):
        F = _noncommuting(seed)
        loops = standard_loops(F)
        b = loops[0].basepoint
        rep = monodromy_rep(F, loops)
        # the lassos compose to the ccw circle through b in the order their spokes
        # leave b, counterclockwise from the outward direction b/|b|
        spoke = [np.angle((lp.segments[0].end - b) / b) % (2 * np.pi) for lp in loops]
        order = sorted(range(F.k), key=spoke.__getitem__)
        product = np.eye(F.m)
        for i in order:
            product = rep.matrices[i] @ product
        circle = transport(F, LoopPath([ArcSegment(0j, abs(b), np.angle(b),
                                                   np.angle(b) + 2 * np.pi)]))
        assert _relative(product, circle) < 1e-8
        assert np.linalg.norm(rep.infinity @ circle - np.eye(F.m)) < 1e-8
        assert rep.order == tuple(order)
        assert relation_check(rep, 1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_each_loop_has_the_spectrum_of_its_residue(self, seed):
        F = _noncommuting(seed)
        rep = monodromy_rep(F, standard_loops(F))
        for i, M in enumerate(rep.matrices):
            assert _same_spectrum(M, F.residue_array(i))

    @pytest.mark.parametrize("seed", range(8))
    def test_infinity_has_the_spectrum_of_the_residue_at_infinity(self, seed):
        F = _noncommuting(seed)
        rep = monodromy_rep(F, standard_loops(F))
        assert _same_spectrum(rep.infinity, residue(F, "inf"))

    def test_relation_in_pole_order_fails_where_spoke_order_differs(self):
        differing = 0
        for seed in range(8):
            F = _noncommuting(seed)
            rep = monodromy_rep(F, standard_loops(F))
            if rep.order != tuple(range(F.k)):
                differing += 1
                assert not relation_check(replace(rep, order=None))
        assert differing >= 3

    def test_user_basepoint_inside_the_poles_takes_a_lasso_out(self):
        F = _noncommuting(0)
        bp = 0.1 + 0.05j  # inside the circle |x| = 1 + max|p|
        rep = monodromy_rep(F, standard_loops(F, basepoint=bp))
        assert _same_spectrum(rep.infinity, residue(F, "inf"))
        assert relation_check(rep, 1e-8)


class TestPanels:
    @pytest.mark.parametrize("F", [NEAR_PM3, STIFF_SPOKE] + [_noncommuting(s) for s in range(8)],
                             ids=["near_pm3", "stiff_spoke"] + [f"seed{s}" for s in range(8)])
    def test_tol_1e_10_is_within_1e_9_of_tol_1e_13(self, F):
        loops = standard_loops(F)
        coarse, fine = monodromy_rep(F, loops, tol=1e-10), monodromy_rep(F, loops, tol=1e-13)
        for a, b in zip(coarse.matrices + (coarse.infinity,), fine.matrices + (fine.infinity,)):
            assert _relative(a, b) < 1e-9

    def test_a_stiff_panel_is_not_accepted_unresolved(self):
        # around the unit circle dY = -1e12 Y dt, so Y(1) = exp(-1e12); on the whole
        # circle 16- and 12-node collocation both give about 1 and agree to 2.3e-10
        model = LocalModel(1, [np.array([[1e12j / (2 * np.pi)]])])
        assert abs(transport(model, circle_loop(0, 1.0), tol=1e-6)[0, 0]) < 1e-6

    def test_depth_cap_raises_after_a_bounded_number_of_panels(self):
        calls = []

        def nan_omega(x, dx):
            calls.append(1)
            return np.full(x.shape + (2, 2), np.nan)

        with pytest.raises(ToleranceNotMet):
            monodromy._flow(nan_omega, LineSegment(1.0, 2.0), np.eye(2, dtype=complex), 1e-10)
        assert len(calls) == monodromy.MAX_DEPTH + 1  # bisected from the whole segment

    def test_a_path_grazing_a_pole_raises_instead_of_looping(self, monkeypatch):
        F = FuchsianSystem(2, [0], [[[0.3, 0.1], [0.2, -0.1]]])
        omega, panels = monodromy._omega_callable(F), []

        def counting(x, dx):
            panels.append(1)
            return omega(x, dx)

        monkeypatch.setattr(monodromy, "_omega_callable", lambda C: counting)
        # clears the pole by 1e-11: that passes the proximity check, but resolving it
        # needs panels narrower than 2**-MAX_DEPTH of the segment
        path = LoopPath([LineSegment(-1 + 1e-11j, 1 + 1e-11j), LineSegment(1 + 1e-11j, -1j),
                         LineSegment(-1j, -1 + 1e-11j)])
        with pytest.raises(ToleranceNotMet):
            transport(F, path)
        assert len(panels) < 20 * monodromy.MAX_DEPTH


@pytest.mark.parametrize("kind", ["fuchsian", "local_model", "trace_free_lift"])
def test_stacked_omega_is_the_per_point_omega(kind, nprng):
    from logconnect import trace_free_lift

    A = 0.5 * (nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2)))
    F = FuchsianSystem(2, [0, 1, -0.5j], [A, A.T, np.diag([0.25, -0.5])])
    C = {"fuchsian": F, "local_model": LocalModel(2, [A]),
         "trace_free_lift": trace_free_lift(projectivize(F))}[kind]
    x = 2.0 * np.exp(2j * np.pi * nprng.uniform(size=16)) + 0.3
    dx = nprng.normal(size=16) + 1j * nprng.normal(size=16)
    stacked = monodromy._omega_callable(C)(x, dx)
    if kind == "fuchsian":
        want = np.array([sum(F.residue_array(i) * d / (p - q) for i, q in
                             enumerate(monodromy._poles_of(F))) for p, d in zip(x, dx)])
    elif kind == "local_model":
        want = np.array([A * d / p for p, d in zip(x, dx)])
    else:
        want = np.array([C.component_callable(0)(complex(p)) * d for p, d in zip(x, dx)])
    assert stacked.shape == (16, 2, 2)
    assert _relative(stacked, want) < 1e-14

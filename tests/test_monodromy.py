import random
import time
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

from conftest import random_fuchsian, rational_matrix, refined


def _near_real(seed):
    """2-5 poles in [-2, 2] at least 0.5 apart, each within 1e-3 of the real axis."""
    rng = np.random.default_rng(seed)
    k, xs = int(rng.integers(2, 6)), []
    while len(xs) < k:
        x = round(float(rng.uniform(-2, 2)), 2)
        if all(abs(x - y) >= 0.5 for y in xs):
            xs.append(x)
    return [complex(x, rng.uniform(-1e-3, 1e-3)) for x in xs]


class TestStandardLoops:
    def test_single_pole(self):
        F = FuchsianSystem(2, [0], [[[1, 0], [0, 1]]])
        loops = standard_loops(F, basepoint=1.0)
        assert len(loops) == 1
        assert loops[0].clearance([0.0]) > 0.2

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

    def test_a_corridor_grazing_a_pole_names_it(self):
        # the spoke from 1e6 + 3j to the pole 0 passes 3e-6 from the pole 1, 3e-12 of
        # its length: closer than the narrowest panel of that spoke resolves
        F = FuchsianSystem(2, [0, 1], [np.diag([0.3, -0.2]), np.diag([0.1, 0.25])])
        with pytest.raises(DegenerateConfiguration, match=r"pole 1 at \(1\+0j\).* pole 0 at"):
            standard_loops(F, basepoint=1e6 + 3j)

    @pytest.mark.parametrize("poles", [[0, 1], [0, 1, -1], [0, 1, 2], [-1, 0, 0.5, 1, 2]]
                             + [_near_real(seed) for seed in range(12)])
    def test_the_default_basepoint_keeps_every_corridor_clear(self, poles):
        # 3 exp(0.07i), the first turn of 3 by 0.07 that passes 2**-36 on the five poles,
        # keeps 0.012; from 1 + max|p| itself the near-real sets keep about 1e-4
        F = FuchsianSystem(1, poles, [[[0.1]]] * len(poles))
        b = standard_loops(F)[0].basepoint
        assert abs(b) == pytest.approx(1 + max(abs(p) for p in poles), rel=1e-14)
        least = min(LineSegment(b, p).distance(q) / abs(p - b)
                    for p in poles for q in poles if q != p)
        assert least >= 0.1

    def test_poles_on_every_first_ring_corridor_take_the_second_ring(self):
        # from each R exp(i k pi/4) the corridor to 0 runs through a pole of the ring
        poles = [0] + [0.5 * np.exp(0.25j * np.pi * k) for k in range(8)]
        F = FuchsianSystem(1, poles, [[[0.1]]] * len(poles))
        b = standard_loops(F)[0].basepoint
        assert b == pytest.approx(1.5 * np.exp(0.125j * np.pi), rel=1e-14)
        least = min(LineSegment(b, p).distance(q) / abs(p - b)
                    for p in poles for q in poles if q != p)
        assert least >= monodromy.CORRIDOR_CLEARANCE
        rep = monodromy_rep(F, standard_loops(F))
        assert all(abs(M[0, 0] - np.exp(0.2j * np.pi)) < 1e-9 for M in rep.matrices)
        assert relation_check(rep)

    def test_poles_on_every_candidate_corridor_refuse_the_default(self):
        # the poles at 0.5 exp(i k pi/8) stand on the corridors to 0 of both rings
        poles = [0] + [0.5 * np.exp(0.125j * np.pi * k) for k in range(16)]
        F = FuchsianSystem(1, poles, [[[0.1]]] * len(poles))
        with pytest.raises(DegenerateConfiguration, match="pass a basepoint"):
            standard_loops(F)

    def test_collinear_poles_take_few_panels(self, monkeypatch):
        calls = []
        original = monodromy._collocate

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(monodromy, "_collocate", counting)
        A = [np.diag([0.3, -0.2]), np.diag([0.1, 0.25]), np.diag([-0.15, 0.05]),
             np.diag([0.2, 0.1]), np.diag([-0.1, 0.3])]
        F = FuchsianSystem(2, [-1, 0, 0.5, 1, 2], A)
        rep = monodromy_rep(F, standard_loops(F))
        # 210 from 3 exp(0.07i), whose corridor to 0 passes the pole 0.5 at 0.012 of its length
        assert len(calls) <= 100
        for M, Aj in zip(rep.matrices, A):
            assert _relative(M, mat_exp(2j * np.pi * Aj)) < 1e-9

    def test_collinear_poles_rotate_the_default_basepoint(self):
        A = [np.diag([0.3, -0.2]), np.diag([0.1, 0.25]), np.diag([-0.15, 0.05])]
        F = FuchsianSystem(2, [0, 1, 2], A)
        loops = standard_loops(F)
        assert loops[0].basepoint.imag != 0  # 3 + 0j sees the three poles in a line
        rep = monodromy_rep(F, loops)
        for M, Aj in zip(rep.matrices, A):
            assert _relative(M, mat_exp(2j * np.pi * Aj)) < 1e-9

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

    @pytest.mark.parametrize("b", [1e5 + 1j, 3e4 + 0.5j])
    def test_a_far_basepoint_gives_the_residue_exponentials(self, b):
        # the lassos' joins and the infinity circle's closure are checked relative to
        # |b|: rounding at |b| exceeds any absolute 1e-12
        A = [np.diag([0.3, -0.2]), np.diag([0.1, 0.25])]
        F = FuchsianSystem(2, [0, 1], A)
        rep = monodromy_rep(F, standard_loops(F, basepoint=b))
        for M, Aj in zip(rep.matrices, A):
            assert _relative(M, mat_exp(2j * np.pi * Aj)) < 1e-12
        assert _relative(rep.infinity, mat_exp(-2j * np.pi * sum(A))) < 1e-12


@pytest.mark.parametrize("start, end", [(1e5 + 1j, 0.0 - 0.5j), (3e4 + 0.5j, 1 / 3 + 0j),
                                        (-0.1 + 0.7j, 123.456 - 9.87j)])
def test_a_line_ends_exactly_at_its_endpoints(start, end):
    seg = LineSegment(start, end)
    assert seg.point(0.0) == start and seg.point(1.0) == end
    assert seg.reversed().point(1.0) == start


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
    def test_a_segment_past_the_panel_budget_misses_tol(self):
        # exp(2 pi i 1e8) in closed form loses more than tol to rounding, and the circle
        # turns 1e8 radians of phase: far more panels than MAX_PANELS
        F = FuchsianSystem(1, [0], [[[1e8]]])
        start = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match="panel attempts"):
            transport(F, circle_loop(0, 1))
        assert time.perf_counter() - start < 5.0

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
        T2 = transport(F, refined(loop, 4), tol=1e-12)
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

    def test_a_riccati_system_is_transported_once_per_loop(self, monkeypatch):
        F = FuchsianSystem(2, [0, 1], [[[0.25, 0.1], [0.0, -0.25]], [[0.1, 0.0], [0.3, 0.2]]])
        loops = standard_loops(F)
        calls, original = [], monodromy.transport

        def spy(C, path, *args, **kwargs):
            calls.append(path)
            return original(C, path, *args, **kwargs)

        monkeypatch.setattr(monodromy, "transport", spy)
        rep = projective_monodromy(projectivize(F), loops)
        assert calls == loops
        for P, M in zip(rep.matrices, monodromy_rep(F, loops).matrices):
            assert proj_equal(P.canonical, M, 1e-9)

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
            basepoint=2.0, matrices=(np.diag([2.0, 1.0]),), infinity=np.eye(2),
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
    """The segment integrations transport makes: the segment of each ``_flow`` call."""
    calls = []
    original = monodromy._flow

    def counting(omega, seg, *args, **kwargs):
        calls.append(seg)
        return original(omega, seg, *args, **kwargs)

    monkeypatch.setattr(monodromy, "_flow", counting)
    return calls


class TestSegmentReuse:
    @pytest.mark.parametrize(
        "F", [_moderate_fuchsian(seed) for seed in range(6)] + [NEAR_PM3, STIFF_SPOKE],
        ids=[f"seed{seed}" for seed in range(6)] + ["near_pm3", "stiff_spoke"])
    def test_standard_loop_matches_its_refinement(self, F):
        for lp in standard_loops(F):
            fine = refined(lp, 2)  # repeats no segment; its half-spokes may retrace each other
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
        # the residues do not commute, so the loop is not closed form as a whole; the
        # pole 10 is far enough for the circles about 0 to be
        F = FuchsianSystem(2, [0, 10], [np.diag([0.3, -0.2]), [[0.1, 0.2], [0.05, -0.1]]])
        spoke = LineSegment(2.0 + 0j, 1.0 + 0j)
        circle = ArcSegment(0j, 1.0, 0.0, 2 * np.pi)
        lasso = LoopPath([spoke, circle, circle, spoke.reversed()])
        fine = transport(F, refined(lasso, 2))
        solves.clear()
        assert _relative(transport(F, lasso), fine) < 1e-8
        # the circles are closed form and the return spoke is solved with the outgoing one
        assert solves == [spoke]

    @pytest.mark.parametrize("seed", range(4))
    def test_reversed_loop_is_the_inverse(self, seed):
        F = _moderate_fuchsian(seed)
        for lp in standard_loops(F):
            back_and_forth = transport(F, lp.reversed(), tol=1e-12) @ transport(F, lp, tol=1e-12)
            assert np.linalg.norm(back_and_forth - np.eye(F.m)) < 1e-9

    def test_standard_loop_integrates_only_its_spoke(self, solves):
        F = FuchsianSystem(2, [0, 1, -1], [np.diag([0.3, -0.2]), np.diag([0.1, 0.25]),
                                           [[0.2, 0.1], [0.0, -0.1]]])
        loops = standard_loops(F, basepoint=0.5 + 2.0j)
        transport(F, loops[0])
        # out along the spoke; the circle is closed form and the way back is solved
        assert solves == [loops[0].segments[0]]
        solves.clear()
        monodromy_rep(F, loops)
        assert solves == [lp.segments[0] for lp in loops]  # none for the circle at infinity

    def test_ill_conditioned_spoke_is_integrated_back(self, solves):
        # from 3 exp(0.07i) the spoke to the pole -2 passes the pole 0 at 0.017 of its
        # length, and its matrix is too ill conditioned to solve with
        loop = standard_loops(STIFF_SPOKE, basepoint=3 * np.exp(0.07j))[1]
        transport(STIFF_SPOKE, loop)
        spoke = loop.segments[0]
        assert solves == [spoke, spoke.reversed()]


def _poles_apart(rng, k):
    """k poles in the disk of radius 2, at least 0.4 apart."""
    poles = []
    while len(poles) < k:
        p = complex(*np.round(rng.uniform(-2, 2, 2), 2))
        if abs(p) <= 2 and all(abs(p - q) >= 0.4 for q in poles):
            poles.append(p)
    return poles


def _noncommuting(seed):
    """Rank 2 or 3 with 2-4 poles (``_poles_apart``) and residues 0.3 (N + iN):
    non-commuting, and nonresonant with probability one."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    poles = _poles_apart(rng, k)
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


def _arc_loops(F):
    """Loops whose arcs the closed form takes: the standard loops, the loop at infinity
    in both shapes (the circle through the default basepoint, and a lasso out from a
    basepoint among the poles), and for each pole an arc of 1.3 radians of its circle,
    counterclockwise and clockwise, closed by its chord."""
    loops = standard_loops(F)
    poles = F.pole_array.tolist()
    out = loops + [monodromy._infinity_loop(poles, b)[0]
                   for b in (loops[0].basepoint, 0.013 + 0.007j)]
    for lp in loops:
        circle = lp.segments[1]
        part = ArcSegment(circle.center, circle.radius, circle.from_angle,
                          circle.from_angle + 1.3)
        out += [LoopPath([a, LineSegment(a.point(1.0), a.point(0.0))])
                for a in (part, part.reversed())]
    return out


JORDAN = FuchsianSystem(2, [0], [np.array([[0.3, 1.0], [0.0, 0.3]])
                                 + 0.1j * np.triu(np.ones((2, 2)))])
# eigenvalues 0.2 and 1.2 - 1e-3 at 0: lambda_a - lambda_b - 1 = -1e-3, and a weak
# residue at 1, so the gap alone refuses the circle about 0 (its bound would certify it)
NEAR_RESONANT = FuchsianSystem(2, [0, 1], [[[0.2, 0.3], [0.0, 1.2 - 1e-3]],
                                           [[0.01, 0.0], [0.04, -0.03]]])
# the same with a strong residue at 1: on the circle of radius 0.5 about 0 the gauge
# has ||G^-1|| about 31, past INVERSE_ALLOWANCE, so its certified tail misses tol
STRONG_GAUGE = FuchsianSystem(2, [0, 1], [[[0.2, 0.3], [0.0, 1.18]], [[0.3, 0.0], [1.2, -0.9]]])
TWO_POLES = FuchsianSystem(2, [0, 1], [[[0.2, 0.3], [0.1, -0.1]], [[0.1, 0.0], [0.4, -0.3]]])


class TestClosedFormArcs:
    @pytest.mark.parametrize("seed", range(40))
    def test_arcs_match_the_log_connection_transport(self, seed, solves):
        F = _noncommuting(seed)
        loops = _arc_loops(F)
        got = [transport(F, lp) for lp in loops]
        assert solves and not any(isinstance(seg, ArcSegment) for seg in solves)
        conn = F.to_log_connection()  # transported by collocation at every segment
        for T, lp in zip(got, loops):
            assert _relative(T, transport(conn, lp, tol=1e-13)) < 1e-9

    @pytest.mark.parametrize("F, arc", [
        (JORDAN, ArcSegment(0j, 1.0, 0.0, 2 * np.pi)),
        (NEAR_RESONANT, ArcSegment(0j, 0.3, 0.0, 2 * np.pi)),
        (STRONG_GAUGE, ArcSegment(0j, 0.5, 0.0, 2 * np.pi)),
        # pole 1 at 1.25 radii, and about infinity at 0.8 radii: the series would be
        # certified by MAX_ORDER, but MAX_RATIO = 0.75 refuses them
        (TWO_POLES, ArcSegment(0j, 0.8, 0.0, 2 * np.pi)),
        (TWO_POLES, ArcSegment(0j, 1.25, 0.0, 2 * np.pi)),
    ], ids=["jordan", "near_resonant", "strong_gauge", "oversized", "oversized_at_infinity"])
    def test_a_refused_arc_is_integrated(self, F, arc, solves):
        assert monodromy._closed_form_arc(F, arc, 1e-10) is None
        loop = LoopPath([arc])
        T = transport(F, loop)
        assert solves == [arc]
        assert _relative(T, transport(F.to_log_connection(), loop, tol=1e-13)) < 1e-9

    def test_a_phase_lost_to_rounding_is_refused(self):
        # 2 pi 1e8 is rounded by about 1.4e-7 radians, so the closed form would give
        # exp(2 pi i 1e8) = 1 only to 7.8e-8
        F = FuchsianSystem(1, [0], [[[1e8]]])
        circle = ArcSegment(0j, 1.0, 0.0, 2 * np.pi)
        assert monodromy._closed_form_arc(F, circle, 1e-10) is None
        assert abs(monodromy._closed_form_arc(F, circle, 1e-6)[0, 0] - 1) < 1e-6

    def test_a_local_model_circle_is_closed_form(self, nprng, solves):
        A = 0.5 * (nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3)))
        T = transport(LocalModel(3, [A]), circle_loop(0, 1.0))
        assert solves == []
        assert _relative(T, mat_exp(2j * np.pi * A)) < 1e-12
        # the eigenbasis is checked with no other pole too: a Jordan residue is integrated
        J = JORDAN.residue_array(0)
        T = transport(LocalModel(2, [J]), circle_loop(0, 1.0))
        assert [type(seg) for seg in solves] == [ArcSegment]
        assert _relative(T, mat_exp(2j * np.pi * J)) < 1e-9


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
        # non-commuting residues, so the loop is not closed form as a whole
        F = FuchsianSystem(2, [0, 5], [[[0.3, 0.1], [0.2, -0.1]], np.diag([0.2, -0.1])])
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


def _commuting(seed):
    """Rank 2-4 with 1-3 poles (``_poles_apart``) and residues Q diag(d_i) Q^-1, for a
    seeded Q of condition number at most 10 and Re d in [-3/4, 3/4], |Im d| <= 1/4."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    poles = _poles_apart(rng, k)
    while True:
        Q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0] \
            + 0.3 * rng.standard_normal((m, m))
        if np.linalg.cond(Q) <= 10:
            break
    d = rng.uniform(-0.75, 0.75, (k, m)) + 1j * rng.uniform(-0.25, 0.25, (k, m))
    return FuchsianSystem(m, poles, [Q @ np.diag(row) @ np.linalg.inv(Q) for row in d])


def _shapes(poles):
    """(name, loop, its winding numbers about ``poles``), the windings known by
    construction: each standard lasso; the loop at infinity; a circle about the first
    pole traversed twice; around the first two poles, and a figure-eight about them
    with windings +1 and -1 (lassos joined at the basepoint); a half-disk whose arc is
    not centred at the first pole; a square about the first pole.  Every other pole is
    at least 0.4 from the first, so the small shapes hold the first pole alone."""
    k = len(poles)
    lassos = standard_loops(FuchsianSystem(1, poles, [[[0]]] * k))

    def unit(*pairs):
        w = [0] * k
        for i, n in pairs:
            w[i] += n
        return w

    p = poles[0]
    circle = ArcSegment(p, 0.1, 0.0, 2 * np.pi)
    half = ArcSegment(p - 0.05j, 0.1, 0.0, np.pi)
    corners = [p + 0.12 * c for c in (1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)]
    shapes = [(f"lasso{i}", lp, unit((i, 1))) for i, lp in enumerate(lassos)] + [
        ("infinity", monodromy._infinity_loop(poles, lassos[0].basepoint)[0], [-1] * k),
        ("twice", LoopPath([circle, circle]), unit((0, 2))),
        ("half_disk", LoopPath([half, LineSegment(half.point(1.0), half.point(0.0))]),
         unit((0, 1))),
        ("square", LoopPath([LineSegment(a, b) for a, b in zip(corners, corners[1:] + corners[:1])]),
         unit((0, 1))),
    ]
    if k >= 2:
        first, second = lassos[0].segments, lassos[1].segments
        shapes += [
            ("two_poles", LoopPath(first + second), unit((0, 1), (1, 1))),
            ("figure_eight", LoopPath(first + lassos[1].reversed().segments),
             unit((0, 1), (1, -1))),
        ]
    return shapes


class TestClosedFormLoops:
    @pytest.mark.parametrize("seed", range(12))
    def test_windings_of_the_shapes(self, seed):
        poles = _commuting(seed).pole_array.tolist()
        for name, loop, w in _shapes(poles):
            assert monodromy._winding_numbers(loop, poles) == w, name
            assert monodromy._winding_numbers(loop.reversed(), poles) == [-n for n in w], name

    @pytest.mark.parametrize("arc, inside", [
        (ArcSegment(0j, 1.0, 0.0, np.pi), 1), (ArcSegment(0j, 1.0, np.pi, 0.0), -1),
        (ArcSegment(0j, 1.0, 0.0, 2 * np.pi), 1), (ArcSegment(0j, 1.0, 0.0, -6 * np.pi), -3)])
    @pytest.mark.parametrize("scale", [1 - 1e-9, 1 + 1e-9], ids=["inside", "outside"])
    def test_a_pole_a_hair_from_an_arc(self, arc, inside, scale):
        # the pole 1e-9 inside or outside the arc at pi/3; a partial arc is closed by
        # its chord, which passes 0.5 below the pole
        pole = scale * np.exp(1j * np.pi / 3)
        segments = [arc] if arc.point(1.0) == arc.point(0.0) else [
            arc, LineSegment(arc.point(1.0), arc.point(0.0))]
        assert monodromy._winding_numbers(LoopPath(segments), [pole]) == \
            [inside if scale < 1 else 0]

    @pytest.mark.parametrize("seed", range(12))
    def test_closed_form_matches_panels(self, seed, solves):
        F = _commuting(seed)
        conn = F.to_log_connection()  # transported by collocation at every segment
        assert F.residue_eigenbasis is not None
        for name, loop, _ in _shapes(F.pole_array.tolist()):
            T = transport(F, loop, tol=1e-12)
            assert solves == [], name
            assert _relative(T, transport(conn, loop, tol=1e-12)) < 1e-9, name
            solves.clear()

    @pytest.mark.parametrize("seed", range(8))
    def test_noncommuting_loops_have_the_determinant_of_their_windings(self, seed, solves):
        # Liouville: det T = exp(2 pi i sum_i w_i tr A_i), with no closed form for T
        F = _noncommuting(seed)
        assert F.residue_eigenbasis is None
        traces = np.trace(F.residue_arrays, axis1=1, axis2=2)
        for name, loop, w in _shapes(F.pole_array.tolist()):
            det = np.linalg.det(transport(F, loop))
            want = np.exp(2j * np.pi * np.dot(w, traces))
            assert abs(det - want) < 1e-9 * abs(want), name
        for lp in standard_loops(F):
            solves.clear()
            transport(F, lp)
            assert lp.segments[0] in solves

    def test_a_local_model_from_a_loops_file_is_closed_form(self, nprng, solves):
        # read as the Fuchsian system with one pole at 0: a square about 0, and a
        # figure-eight whose first lobe leaves 0 outside and whose second goes once
        # clockwise about it, so that its winding number about 0 is -1
        from logconnect.serialization import parse_loops

        A = 0.5 * (nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3)))
        square = {"basepoint": [1, -1], "segments": [
            {"kind": "line", "to": to} for to in ([1, 1], [-1, 1], [-1, -1], [1, -1])]}
        eight = {"basepoint": [1, 0], "segments": [
            {"kind": "arc", "center": [2, 0], "radius": 1, "from_angle": np.pi,
             "to_angle": -np.pi},
            {"kind": "arc", "center": [0, 0], "radius": 1, "from_angle": 0,
             "to_angle": -2 * np.pi}]}
        for loop, w in zip(parse_loops([square, eight]), (1, -1)):
            T = transport(LocalModel(3, [A]), loop)
            assert solves == []
            assert _relative(T, mat_exp(2j * np.pi * w * A)) < 1e-12

    def test_residues_commuting_to_1e_9_are_integrated(self, solves):
        A, B = np.diag([0.3, -0.2]), np.diag([0.1, 0.25]) + 1e-9 * np.array([[0, 1], [1, 0]])
        F = FuchsianSystem(2, [0, 1], [A, B])
        assert F.residue_eigenbasis is None
        loop = standard_loops(F)[0]
        T = transport(F, loop)
        assert solves == [loop.segments[0]]
        assert _relative(T, mat_exp(2j * np.pi * A)) < 1e-8

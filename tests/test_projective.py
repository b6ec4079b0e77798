import json
import pathlib

import numpy as np
import pytest
import sympy as sp

from logconnect import (
    FuchsianSystem,
    LocalModel,
    ProjectiveClass,
    nonresonant,
    poincare_normalize,
    proj_equal,
    projectivize,
    property_Pm,
    reconstruct,
    trace_free_lift,
)
from logconnect.connections import flatness_check
from logconnect.errors import DimensionMismatch, ResonantResidue, SingularMatrix
from logconnect.serialization import ratfunc_to_json, system_to_json, validate_schema

from conftest import from_expr, mat_log_normalized, random_fuchsian, trace_form

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def reference_nonresonant(A, tol=1e-9):
    """Try every positive integer up to the widest eigenvalue gap."""
    eig = np.linalg.eigvals(np.asarray(A, dtype=complex))
    scale = max(np.max(np.abs(eig)), 1.0)
    spread = int(np.ceil(np.max(np.abs(eig[:, None] - eig[None, :])))) + 1
    return not any(
        abs(eig[i] - eig[j] - k) < tol * scale
        for i in range(len(eig)) for j in range(len(eig)) if i != j
        for k in range(1, spread + 1)
    )


def spectrum_cases(nprng, count, max_rank=4):
    """Matrices whose eigenvalue gaps sit on, near and off the integers, both signs."""
    offsets = np.array([0.0, 1e-12, -1e-12, 1e-6, 0.25, 0.5, 1e-3j, 0.5j])
    for _ in range(count):
        m = int(nprng.integers(1, max_rank + 1))
        base = complex(nprng.normal(), nprng.normal())
        eig = base + nprng.integers(-40, 41, size=m) + nprng.choice(offsets, size=m)
        V = np.eye(m) + 0.2 * nprng.normal(size=(m, m))
        yield V @ np.diag(eig) @ np.linalg.inv(V)


class TestProjectivize:
    def test_nilpotent_upper(self):
        # omega = [[0, dx/x], [0, 0]]: dz = dx/x
        x = sp.Symbol("x")
        F = FuchsianSystem(2, [0], [[[0, 1], [0, 0]]])
        R = projectivize(F)
        (delta, b), (c, _) = R.components[0]
        assert b == from_expr(1 / x, (x,))
        assert delta.is_zero
        assert c.is_zero

    def test_scalar_connection_trivial(self):
        F = FuchsianSystem(2, [0], [[[3, 0], [0, 3]]])
        R = projectivize(F)
        assert all(f.is_zero for row in R.components[0] for f in row)

    def test_generic_two_by_two(self):
        # dz = (b + (a - d) z - c z^2) dx for omega = [[a, b], [c, d]] dx/x
        F = FuchsianSystem(2, [0], [[[5, 7], [11, 13]]])
        R = projectivize(F)
        x = sp.Symbol("x")
        (delta, b), (c, last) = R.components[0]
        assert b == from_expr(7 / x, (x,))
        assert delta == from_expr((5 - 13) / x, (x,))
        assert c == from_expr(11 / x, (x,))
        assert last.is_zero

    def test_scalar_quotient_invariance(self, rng):
        F = random_fuchsian(rng, m=3, max_poles=2)
        conn = F.to_log_connection()
        f = from_expr(
            sp.Rational(2, 3) / (sp.Symbol("x") - 5), conn.gens
        )
        comps = [
            [[conn.entry(0, i, j) + (f if i == j else 0 * f) for j in range(3)]
             for i in range(3)]
        ]
        from logconnect.connections import LogConnection
        shifted = LogConnection(3, conn.gens, conn.divisor, comps)
        assert projectivize(conn).equals(projectivize(shifted))


class TestReconstruct:
    def test_round_trip(self, rng):
        for _ in range(25):
            F = random_fuchsian(rng)
            conn = F.to_log_connection()
            back = reconstruct(projectivize(conn), trace_form(conn))
            assert back.equals(conn)
            # entrywise exactness, not just tolerance
            assert all(
                (back.entry(0, i, j) - conn.entry(0, i, j)).is_zero
                for i in range(F.m) for j in range(F.m)
            )

    def test_zero_data_zero_trace(self):
        F = FuchsianSystem(2, [0], [[[0, 0], [0, 0]]])
        R = projectivize(F)
        conn = reconstruct(R, None)
        assert all(conn.entry(0, i, j).is_zero for i in range(2) for j in range(2))

    def test_zero_data_diagonal_trace(self):
        x = sp.Symbol("x")
        F = FuchsianSystem(2, [0], [[[0, 0], [0, 0]]])
        R = projectivize(F)
        trace = (from_expr(2 / x, (x,)),)
        conn = reconstruct(R, trace)
        expected = from_expr(1 / x, (x,))
        assert conn.entry(0, 0, 0) == expected
        assert conn.entry(0, 1, 1) == expected
        assert conn.entry(0, 0, 1).is_zero


class TestTraceFreeLift:
    def test_already_trace_free(self):
        F = FuchsianSystem(2, [0], [[[2, 0], [0, -2]]])
        conn = F.to_log_connection()
        lifted = trace_free_lift(projectivize(conn))
        assert lifted.equals(conn)

    def test_scalar_quotiented_away(self):
        F = FuchsianSystem(2, [0], [[[3, 0], [0, 3]]])
        lifted = trace_free_lift(projectivize(F))
        assert all(lifted.entry(0, i, j).is_zero for i in range(2) for j in range(2))

    def test_subtracts_trace_part(self, rng):
        F = random_fuchsian(rng, m=3, max_poles=2)
        conn = F.to_log_connection()
        lifted = trace_free_lift(projectivize(conn))
        tr = trace_form(lifted)[0]
        assert tr.is_zero
        assert flatness_check(lifted)
        # lifted = omega - (trace/m) I
        t = trace_form(conn)[0]
        for i in range(3):
            diff = conn.entry(0, i, i) - lifted.entry(0, i, i)
            assert diff == t / 3


class TestRiccatiJson:
    """The ``riccati`` document names the entries of omega - omega_mm I: b_i at
    (i, m-1), delta_i at (i, i), c_k at (m-1, k) and offdiag "i,k" at (i, k)."""

    def test_fixture_round_trips(self):
        doc = json.loads((FIXTURES / "riccati_from_fuchsian.json").read_text())
        assert system_to_json(validate_schema(doc)) == doc

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_projectivized_system_round_trips(self, rng, m):
        for _ in range(3):
            conn = random_fuchsian(rng, m=m).to_log_connection()
            R = projectivize(conn)
            doc = system_to_json(R)
            last = m - 1
            entries = {"b": [(i, last) for i in range(last)],
                       "c": [(last, k) for k in range(last)]}
            for key, at in entries.items():
                assert doc[key] == [[ratfunc_to_json(conn.entry(0, i, k))] for i, k in at]
            assert doc["delta"] == [[ratfunc_to_json(conn.entry(0, i, i) - conn.entry(0, last, last))]
                                    for i in range(last)]
            assert doc["offdiag"] == {f"{i},{k}": [ratfunc_to_json(conn.entry(0, i, k))]
                                      for i in range(last) for k in range(last) if i != k}
            assert len(doc["offdiag"]) == last * (last - 1)
            assert system_to_json(validate_schema(doc)) == doc
            back = validate_schema(doc)
            assert back.equals(R) and R.equals(back)
            assert reconstruct(back, trace_form(conn)).equals(conn)
            assert reconstruct(R, trace_form(conn)).equals(conn)


class TestPropertyPm:
    def test_identity(self):
        assert property_Pm(np.eye(3))

    def test_diag_one_minus_one(self):
        assert not property_Pm(np.diag([1.0, -1.0]), 2)

    def test_diag_one_two(self):
        assert property_Pm(np.diag([1.0, 2.0]), 2)

    def test_scale_invariance(self, nprng):
        for _ in range(20):
            M = nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3))
            lam = complex(nprng.normal() + 1j * nprng.normal())
            if abs(np.linalg.det(M)) < 1e-6 or abs(lam) < 1e-6:
                continue
            assert property_Pm(M, 3) == property_Pm(lam * M, 3)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            property_Pm(np.zeros((2, 2)))


class TestNonresonant:
    def test_half(self):
        assert nonresonant(np.diag([0.0, 0.5]))

    def test_integer_difference(self):
        assert not nonresonant(np.diag([0.0, 1.0]))

    def test_negative_difference_one_sided(self):
        # -1 is not a positive integer, but the symmetric pair (0, -1) hits +1
        assert not nonresonant(np.diag([0.0, -1.0]))

    def test_bridge_to_pm(self, nprng):
        # property P_m of M implies m * log(M) nonresonant
        count = 0
        for _ in range(200):
            m = int(nprng.integers(2, 5))
            M = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
            if abs(np.linalg.det(M)) < 1e-8:
                continue
            if property_Pm(M, m):
                count += 1
                A = mat_log_normalized(M)
                assert nonresonant(m * A)
        assert count > 100

    def test_matches_reference_loop(self, nprng):
        # diag(1, 5/2) is fixtures/matrix_pm_ok.json: a gap of 3/2 is resonant
        # only under the sloppy tolerance 0.6 (0.5 < 0.6 * 2.5)
        cases = [np.diag([1.0, 2.5])] + list(spectrum_cases(nprng, 300))
        verdicts = set()
        for A in cases:
            for tol in (1e-9, 1e-3, 0.6):
                expected = reference_nonresonant(A, tol)
                assert nonresonant(A, tol) == expected, (np.linalg.eigvals(A), tol)
                verdicts.add(expected)
        assert verdicts == {True, False}
        assert nonresonant(np.diag([1.0, 2.5])) and not nonresonant(np.diag([1.0, 2.5]), 0.6)

    def test_normalize_rejects_what_the_reference_loop_calls_resonant(self, nprng):
        for A in spectrum_cases(nprng, 12, max_rank=3):
            model = LocalModel(A.shape[0], [A])
            if reference_nonresonant(A):
                poincare_normalize(model, order=2)
            else:
                with pytest.raises(ResonantResidue):
                    poincare_normalize(model, order=2)


class TestProjectiveClass:
    def test_canonical_det_one(self, nprng):
        for _ in range(20):
            M = nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3))
            if abs(np.linalg.det(M)) < 1e-6:
                continue
            cls = ProjectiveClass(M)
            assert abs(np.linalg.det(cls.canonical) - 1.0) < 1e-10

    def test_scalar_multiples_same_class(self, nprng):
        M = nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2))
        a = ProjectiveClass(M)
        b = ProjectiveClass(5.0 * M)
        assert np.allclose(a.canonical, b.canonical, atol=1e-9)
        assert proj_equal(a, b)

    def test_proj_equal_examples(self, nprng):
        M = nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2))
        assert proj_equal(M, 5.0 * M)
        assert not proj_equal(np.eye(2), np.diag([1.0, -1.0]))
        E = nprng.normal(size=(2, 2))
        assert not proj_equal(M, M + 1e-3 * E)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            proj_equal(np.eye(2), np.eye(3))

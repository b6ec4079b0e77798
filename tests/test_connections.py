from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy.polys.domains import QQ_I

from logconnect import (
    FuchsianSystem,
    GaugeSeries,
    LocalModel,
    circle_loop,
    flatness_check,
    nonresonant,
    poincare_defect,
    poincare_normalize,
    pullback_power,
    residue,
    sylvester_solve,
    transport,
)
from logconnect.connections import LogConnection, exact_residue
from logconnect.errors import (
    ResonantResidue, ResonantSpectrum, SchemaViolation, UnsupportedBranch,
)
from logconnect.projective import projectivize, reconstruct
from logconnect.ratfunc import GaussianRational, RationalFunction, gaussian, to_scalar
from logconnect.serialization import validate_schema

from conftest import (
    from_expr, from_sympy_poly, random_fuchsian, rational_matrix, symbols, to_sympy_poly,
    trace_form,
)


def make_log_connection(entries, gens, divisor):
    m = len(entries[0])
    comps = []
    for comp in entries:
        comps.append(tuple(
            tuple(from_expr(e, gens) for e in row) for row in comp
        ))
    return LogConnection(m, gens, divisor, tuple(comps))


class TestFlatness:
    def test_one_variable_always_flat(self, rng):
        assert flatness_check(random_fuchsian(rng))

    def test_noncommuting_local_model_not_flat(self):
        A1 = [[0, 1], [0, 0]]
        A2 = [[0, 0], [1, 0]]
        assert not flatness_check(LocalModel(2, [A1, A2]))

    def test_repeated_residue_flat(self):
        A = [[1, 2], [3, 4]]
        assert flatness_check(LocalModel(2, [A, A]))

    def test_random_commuting_families(self, nprng, rng):
        for _ in range(10):
            m = int(nprng.integers(2, 5))
            D1 = np.diag(nprng.integers(-3, 4, size=m).astype(float))
            D2 = np.diag(nprng.integers(-3, 4, size=m).astype(float))
            P = np.eye(m) + np.triu(np.ones((m, m)), 1)  # exact integer conjugation
            Pinv = np.linalg.inv(P)
            A1 = P @ D1 @ Pinv
            A2 = P @ D2 @ Pinv
            assert flatness_check(LocalModel(m, [A1, A2]))

    def test_random_noncommuting_families(self, rng):
        found_noncommuting = 0
        for _ in range(10):
            A1 = rational_matrix(rng, 3)
            A2 = rational_matrix(rng, 3)
            model = LocalModel(3, [A1, A2])
            a1 = model.residue_array(0)
            a2 = model.residue_array(1)
            expected = np.linalg.norm(a1 @ a2 - a2 @ a1) < 1e-10
            assert flatness_check(model) == expected
            found_noncommuting += not expected
        assert found_noncommuting > 0


class TestResidue:
    def test_fuchsian_branches(self, rng):
        F = random_fuchsian(rng, m=3, max_poles=3)
        for i in range(F.k):
            assert np.allclose(residue(F, i), F.residue_array(i))

    def test_infinity_branch(self, rng):
        F = random_fuchsian(rng, m=2, max_poles=3)
        total = sum(residue(F, i) for i in range(F.k)) + residue(F, "inf")
        assert np.allclose(total, 0.0, atol=1e-12)

    def test_local_model_branch(self):
        A1 = [[1, 0], [0, 2]]
        A2 = [[3, 0], [0, 4]]
        model = LocalModel(2, [A1, A2])
        assert np.allclose(residue(model, 1), np.diag([3.0, 4.0]))

    def test_log_connection_residue_symbolic(self):
        x = sp.Symbol("x")
        conn = make_log_connection(
            [[[1 / x, 2 / x], [0, sp.Rational(1, 2) / x]]], (x,), [(0, 0)]
        )
        assert np.allclose(residue(conn, 0), [[1.0, 2.0], [0.0, 0.5]])

    def test_a_float_branch_in_a_later_variable_meets_the_exact_pole_it_rounds(self):
        """y = 0.3 meets the pole at y = 3/10 as x = 0.3 would: the residue is read
        off, and a double pole is refused."""
        doc = {"type": "log_connection", "rank": 1, "vars": ["x", "y"],
               "divisor": [{"var": 0, "value": [0, 0]}, {"var": 1, "value": [0.3, 0]}],
               "components": [[[{"num": {"0,0": [1, 0]}, "den": {"1,0": [1, 0]}}]],
                              [[{"num": {"0,0": [2, 0]},
                                 "den": {"0,1": [1, 0], "0,0": ["-3/10", 0]}}]]]}
        assert np.allclose(residue(validate_schema(doc), 1), [[2.0]])
        doc["components"][1][0][0]["den"] = {"0,2": [1, 0], "0,1": ["-3/5", 0],
                                             "0,0": ["9/100", 0]}
        with pytest.raises(SchemaViolation, match="pole of order > 1"):
            validate_schema(doc)


class TestPullback:
    def test_single_branch_scales_residue(self):
        A = [[sp.Rational(1, 4), 0], [0, 0]]
        F = FuchsianSystem(2, [0], [A])
        out = pullback_power(F, 0, 4)
        assert np.allclose(out.residue_array(0), np.diag([1.0, 0.0]))

    def test_nu_one_is_identity(self, rng):
        F = FuchsianSystem(2, [0], [rational_matrix(rng, 2)])
        out = pullback_power(F, 0, 1)
        assert np.allclose(out.residue_array(0), F.residue_array(0))

    def test_composition(self):
        x = sp.Symbol("x")
        conn = make_log_connection(
            [[[sp.Rational(1, 3) / x, 1 / x], [0, 2 / x]]], (x,), [(0, 0)]
        )
        one_step = pullback_power(conn, 0, 6)
        two_step = pullback_power(pullback_power(conn, 0, 2), 0, 3)
        assert one_step.equals(two_step)

    def test_monodromy_power(self, nprng):
        # transported monodromy of the pullback = nu-th power of the original
        A = 0.5 * (nprng.normal(size=(2, 2)) + 1j * nprng.normal(size=(2, 2)))
        F = FuchsianSystem(2, [0], [A])
        M = transport(F, circle_loop(0, 1.0), tol=1e-12)
        for nu in (2, 3, 4):
            Mnu = transport(pullback_power(F, 0, nu), circle_loop(0, 1.0), tol=1e-12)
            assert np.linalg.norm(Mnu - np.linalg.matrix_power(M, nu)) < 1e-7

    def test_off_origin_branch_rejected(self):
        F = FuchsianSystem(2, [1], [[[1, 0], [0, 1]]])
        with pytest.raises(UnsupportedBranch):
            pullback_power(F.to_log_connection(), 0, 2)

    @pytest.mark.parametrize("value, exact", [(0.3, False), (sp.Rational(3, 10), True)])
    @pytest.mark.parametrize("kind", [FuchsianSystem, LocalModel])
    def test_keeps_the_exact_flag(self, kind, value, exact):
        C = FuchsianSystem(1, [0], [[[value]]]) if kind is FuchsianSystem else \
            LocalModel(1, [[[value]]])
        out = pullback_power(C, 0, 2)
        assert (C.exact, out.exact) == (exact, exact)
        assert out.residues == (((2 * to_scalar(value)[0],),),)

    def test_local_model_other_branches_unchanged(self):
        model = LocalModel(2, [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        out = pullback_power(model, 0, 3)
        assert np.allclose(out.residue_array(0), np.diag([3.0, 6.0]))
        assert np.allclose(out.residue_array(1), np.diag([3.0, 4.0]))


def one_var_system(A, tau_coeffs):
    """omega = A dx/x + tau(x) dx as a LogConnection."""
    x = sp.Symbol("x")
    m = len(A)
    entries = [[sp.sympify(A[i][j]) / x for j in range(m)] for i in range(m)]
    for d, T in enumerate(tau_coeffs):
        for i in range(m):
            for j in range(m):
                entries[i][j] += sp.sympify(T[i][j]) * x ** d
    return make_log_connection([entries], (x,), [(0, 0)])


class TestPoincareNormalize:
    def test_zero_tau_gives_identity_gauge(self):
        conn = one_var_system([[0, 0], [0, sp.Rational(1, 2)]], [])
        gauge = poincare_normalize(conn, order=5)
        assert all(np.allclose(G, 0) for G in gauge.coefficients[1:])

    def test_first_coefficient_matches_sylvester(self):
        A = np.diag([0.0, 0.5])
        tau0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        conn = one_var_system([[0, 0], [0, sp.Rational(1, 2)]], [[[0, 1], [0, 0]]])
        gauge = poincare_normalize(conn, order=3)
        G1 = sylvester_solve(A, A + np.eye(2), -tau0)
        assert np.allclose(gauge.coefficients[1], G1, atol=1e-10)
        assert poincare_defect(conn, gauge) < 1e-9

    def test_resonant_rejected(self):
        conn = one_var_system([[0, 0], [0, 1]], [[[0, 1], [0, 0]]])
        with pytest.raises(ResonantResidue):
            poincare_normalize(conn, order=3)

    def test_defect_order_random(self, nprng):
        for _ in range(5):
            m = 3
            A = np.diag(nprng.uniform(0.1, 0.7, size=m)) \
                + 0.05j * nprng.normal(size=(m, m))
            tau = [nprng.normal(size=(m, m)) * 0.5 for _ in range(3)]
            conn = one_var_system(A.tolist(), [T.tolist() for T in tau])
            gauge = poincare_normalize(conn, order=8)
            assert poincare_defect(conn, gauge) < 1e-7

    def test_defect_of_parsed_fraction_documents(self, rng):
        # fraction-string coefficients: residues like 1/3 are exact, never binary floats
        def frac(span, den):
            return f"{rng.randint(-span, span)}/{rng.randint(1, den)}"

        for _ in range(6):
            m = rng.choice([2, 3])
            components = []
            for i in range(m):
                row = []
                for j in range(m):
                    # diagonal spread below 1 and a small off-diagonal keep A nonresonant
                    a = f"{rng.randint(1, 8)}/9" if i == j else f"{rng.randint(-3, 3)}/50"
                    num = {"0": [a, frac(1, 50)]}
                    num.update({str(d): [frac(4, 7), frac(4, 7)] for d in (1, 2, 3)})
                    row.append({"num": num, "den": {"1": [1, 0]}})
                components.append(row)
            conn = validate_schema({"type": "log_connection", "rank": m, "vars": ["x"],
                                    "divisor": [{"var": 0, "value": [0, 0]}],
                                    "components": [components]})
            gauge = poincare_normalize(conn, order=10)
            assert poincare_defect(conn, gauge) < 1e-9


def series_document(A, taus):
    """The ``log_connection`` (A + sum_d T_d x^(d+1)) / x, parsed from float parts, so
    that the system holds exactly the floats of A and the T_d."""
    m = A.shape[0]

    def entry(i, j):
        num = {"0": [A[i, j].real, A[i, j].imag]}
        num.update({str(d + 1): [T[i, j].real, T[i, j].imag] for d, T in enumerate(taus)})
        return {"num": num, "den": {"1": [1, 0]}}

    return validate_schema({"type": "log_connection", "rank": m, "vars": ["x"],
                            "divisor": [{"var": 0, "value": [0, 0]}],
                            "components": [[[entry(i, j) for j in range(m)]
                                            for i in range(m)]]})


def sylvester_gauge(A, taus, order):
    """G_0..G_order by one general ``sylvester_solve`` per order: the reference for the
    recursion, which forms spec(A) and the Kronecker operator once per call."""
    m = A.shape[0]
    G = [np.eye(m, dtype=complex)]
    for k in range(1, order + 1):
        rhs = np.zeros((m, m), dtype=complex)
        for d, T in enumerate(taus):
            if k - 1 - d >= 0:
                rhs += T @ G[k - 1 - d]
        G.append(sylvester_solve(A, A + k * np.eye(m), -rhs))
    return G


def loop_defect(A, taus, G):
    """The defect as a loop of m x m products: the reference for ``poincare_defect``,
    which forms the series products as stacked arrays."""
    m, N = A.shape[0], len(G) - 1
    H = [np.eye(m, dtype=complex)]
    for k in range(1, N + 1):
        H.append(-sum(H[j] @ G[k - j] for j in range(k)))
    top = N + len(taus)
    P = {-1: A @ G[0]}
    for k in range(top):
        acc = np.zeros((m, m), dtype=complex)
        if k + 1 <= N:
            acc += A @ G[k + 1] - (k + 1) * G[k + 1]
        for d, T in enumerate(taus):
            if 0 <= k - d <= N:
                acc += T @ G[k - d]
        P[k] = acc
    defect = 0.0
    for k in range(-1, N):
        acc = sum((H[j] @ P[k - j] for j in range(N + 1) if -1 <= k - j <= top - 1),
                  np.zeros((m, m), dtype=complex))
        defect = max(defect, float(np.linalg.norm(acc - A if k == -1 else acc)))
    return defect


def dense_defect(A, taus, G):
    """The defect with every series product as one dense block-Toeplitz array, (N + 1)^2
    blocks of m x m: the reference for ``poincare_defect``'s recursion over orders."""
    G, taus = np.asarray(G, dtype=complex), np.asarray(taus, dtype=complex)
    N, m = len(G) - 1, A.shape[0]

    def toeplitz(Y, rows, cols):  # B[k, j] = Y_(k-j), zero outside 0..len(Y)-1
        shift = np.arange(rows)[:, None] - np.arange(cols)[None, :]
        shift[(shift < 0) | (shift >= len(Y))] = len(Y)
        return np.concatenate([Y, np.zeros_like(Y[:1])])[shift]

    L = toeplitz(G, N + 1, N + 1).transpose(0, 2, 1, 3).reshape((N + 1) * m, (N + 1) * m)
    H = np.linalg.solve(L, np.eye((N + 1) * m, m)).reshape(N + 1, m, m)
    k = np.arange(1, N + 1)[:, None, None]
    tau_G = np.einsum("jab,kjbc->kac", taus, toeplitz(G, N, len(taus)))
    P = np.concatenate([A @ G[:1], A @ G[1:] - k * G[1:] + tau_G])
    W = np.einsum("jab,kjbc->kac", H, toeplitz(P, N + 1, N + 1))
    W[0] -= A
    return float(np.max(np.linalg.norm(W, axis=(1, 2))))


def seeded_series(nprng, m, degree=3):
    """A nonresonant A (diagonal spread below 1, small complex noise) and degree + 1
    complex tau coefficients."""
    A = np.diag(nprng.uniform(0.05, 0.85, size=m)) + 0.05j * nprng.normal(size=(m, m))
    taus = [0.5 * (nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m)))
            for _ in range(degree + 1)]
    return A, taus


JORDAN = np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex)


class TestNormalizationRecursion:
    """One spectrum and one Kronecker operator per call give the gauges of one general
    Sylvester solve per order."""

    def cases(self, nprng):
        for m in (1, 2, 3, 4):
            A, taus = seeded_series(nprng, m)
            yield A, taus, 10
        yield JORDAN, seeded_series(nprng, 2)[1], 10
        yield JORDAN, [], 6  # no tau: the gauge is the identity
        A, taus = seeded_series(nprng, 3)
        yield A, taus, 0
        yield A, taus, 1
        yield A, taus[:1], 12  # more orders than tau coefficients

    def test_gauges_match_one_sylvester_solve_per_order(self, nprng):
        for A, taus, order in self.cases(nprng):
            got = poincare_normalize(series_document(A, taus), order=order).coefficients
            want = sylvester_gauge(A, taus, order)
            assert len(got) == order + 1
            for G, W in zip(got, want):
                assert np.max(np.abs(G - W)) <= 1e-12 * max(1.0, np.max(np.abs(W)))

    def test_defect_matches_the_loop_form(self, nprng):
        for A, taus, order in self.cases(nprng):
            conn = series_document(A, taus)
            gauge = poincare_normalize(conn, order=order)
            # a normalizing gauge: both at rounding level
            assert poincare_defect(conn, gauge) <= 1e-12
            assert loop_defect(A, taus, gauge.coefficients) <= 1e-12
            # a perturbed gauge: a defect of order one, the same to rounding
            G = [gauge.coefficients[0]] + [
                Gk + 0.1 * nprng.normal(size=Gk.shape) for Gk in gauge.coefficients[1:]]
            want = loop_defect(A, taus or [np.zeros_like(A)], G)
            assert abs(poincare_defect(conn, GaugeSeries(G)) - want) <= 1e-12 * want

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_defect_matches_the_dense_form_through_order_40(self, nprng, m):
        A, taus = seeded_series(nprng, m)
        conn = series_document(A, taus)
        for order in range(41):
            gauge = poincare_normalize(conn, order=order)
            assert dense_defect(A, taus, gauge.coefficients) <= 1e-12
            assert poincare_defect(conn, gauge) <= 1e-12
            # a gauge off by 0.1 / k at order k: a defect of order one, the same to rounding
            G = [gauge.coefficients[0]] + [Gk + 0.1 / k * nprng.normal(size=Gk.shape)
                                           for k, Gk in enumerate(gauge.coefficients[1:], 1)]
            want = dense_defect(A, taus, G)
            assert abs(poincare_defect(conn, GaugeSeries(G)) - want) <= 1e-12 * want, order

    @pytest.mark.parametrize("order, raises", [(2, False), (3, True), (5, True)])
    def test_resonance_at_one_order_is_refused_there(self, nprng, order, raises):
        # eigenvalues 0 and 3 + 4e-9 pass the nonresonance test (4e-9 above 1e-9 * 3)
        # but not the disjointness of spec(A) and spec(A) + 3 (4e-9 below 1e-9 * 6)
        A = np.diag([0.0, 3 + 4e-9]).astype(complex)
        taus = seeded_series(nprng, 2, degree=1)[1]
        assert nonresonant(A)
        conn = series_document(A, taus)
        if raises:
            for solve in (lambda: poincare_normalize(conn, order=order),
                          lambda: sylvester_gauge(A, taus, order)):
                with pytest.raises(ResonantSpectrum):
                    solve()
        else:
            poincare_normalize(conn, order=order)

    def test_eigensolves_per_normalization_do_not_grow_with_the_order(self, nprng,
                                                                      monkeypatch):
        A, taus = seeded_series(nprng, 3)
        conn = series_document(A, taus)
        calls = []
        eigvals = np.linalg.eigvals

        def counting(M):
            calls.append(1)
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        counts = []
        for order in (1, 4, 16):
            calls.clear()
            poincare_normalize(conn, order=order)
            counts.append(len(calls))
        # one for the nonresonance test, one for the recursion
        assert counts == [2, 2, 2]


class TestInvariants:
    def test_residue_sum_zero_after_pullback(self, rng):
        F = FuchsianSystem(2, [0], [rational_matrix(rng, 2)])
        out = pullback_power(F, 0, 3)
        total = residue(out, 0) + residue(out, "inf")
        assert np.allclose(total, 0.0, atol=1e-12)

    def test_embedding_lossless(self, rng):
        F = random_fuchsian(rng, m=2, max_poles=2)
        conn = F.to_log_connection()
        for i in range(F.k):
            assert np.allclose(residue(conn, i), F.residue_array(i))

    def test_embedded_residues_are_exact(self, rng):
        # the residue along each pole of an embedding is the stored residue itself
        for _ in range(10):
            F = random_fuchsian(rng, m=3, max_poles=3)
            conn = F.to_log_connection()
            for i in range(F.k):
                assert exact_residue(conn, i) == F.residues[i]


# Gaussian-rational poles, pairwise distinct
POLES = [0, 1, -1, sp.Rational(1, 2) + sp.I / 3, -2 + sp.I, sp.I / 2, 3 - sp.Rational(2, 5) * sp.I]


def sparse_residues(rng, m, k):
    """k residue matrices, each entry zero with probability 0.4, and the entry
    (0, m - 1) zero in all of them."""
    mats = [rational_matrix(rng, m) for _ in range(k)]
    for A in mats:
        for row in A:
            for j in range(m):
                if rng.random() < 0.4:
                    row[j] = 0
        A[0][m - 1] = 0
    return mats


def generic_sum(gens, lines, residues, i, j):
    """sum_k A_k[i][j] / l_k by generic RationalFunction arithmetic, which reduces
    each partial sum by a gcd."""
    f = RationalFunction.zero(gens)
    for A, line in zip(residues, lines):
        num, den = (from_sympy_poly(sp.Poly(e, *symbols(gens), domain=QQ_I))
                    for e in (A[i][j], sp.sympify(line)))
        f = f + RationalFunction(num, den)
    return f


def assert_canonical(f, ref):
    assert (f.num, f.den) == (ref.num, ref.den)
    assert f.den.LC() == 1
    assert to_sympy_poly(f.num).gcd(to_sympy_poly(f.den)).is_one


class TestEmbedding:
    """The embeddings build each entry reduced without a gcd; it must be the same
    canonical fraction that gcd-reducing arithmetic gives."""

    def test_fuchsian_entries_are_the_reduced_sums(self, rng):
        x = sp.Symbol("x")
        seen = set()
        for _ in range(40):
            m, k = rng.choice([2, 3]), rng.randint(1, 4)
            poles = rng.sample(POLES, k)
            residues = sparse_residues(rng, m, k)
            conn = FuchsianSystem(m, poles, residues).to_log_connection()
            for i in range(m):
                for j in range(m):
                    f = conn.entry(0, i, j)
                    assert_canonical(f, generic_sum((x,), [x - p for p in poles], residues, i, j))
                    seen.add(f.den.degree() if not f.is_zero else "zero")
        assert {"zero", 1, 2, 3} <= seen  # all-zero entries and partial supports occur

    def test_local_model_entries_are_the_reduced_sums(self, rng):
        for _ in range(20):
            m, k = rng.choice([2, 3]), rng.randint(1, 3)
            n = k + rng.randint(0, 1)
            residues = sparse_residues(rng, m, k)
            conn = LocalModel(m, residues, n=n).to_log_connection()
            for v in range(n):
                for i in range(m):
                    for j in range(m):
                        ref = generic_sum(conn.gens, conn.gens[v:v + 1], residues[v:v + 1], i, j)
                        assert_canonical(conn.entry(v, i, j), ref)

    def test_embedding_and_division_by_a_constant_run_no_gcd(self, rng, monkeypatch):
        poles, residues = POLES[2:5], sparse_residues(rng, 3, 3)
        conn = FuchsianSystem(3, poles, residues).to_log_connection()
        entry = reconstruct(projectivize(conn), trace_form(conn)).entry(0, 2, 2)
        c = RationalFunction.constant(2 + sp.I, conn.gens)
        expected = entry * RationalFunction.constant(sp.Rational(2, 5) - sp.I / 5, conn.gens)
        assert not entry.den.is_ground

        def gcd(*args):
            raise AssertionError("a gcd ran")

        monkeypatch.setattr(sp.Poly, "gcd", gcd)
        monkeypatch.setattr("logconnect.ratfunc._gcd", gcd)  # where fractions are reduced
        fresh = FuchsianSystem(3, poles, residues).to_log_connection()  # not the cached one
        assert all(fresh.entry(0, i, j).num == conn.entry(0, i, j).num
                   for i in range(3) for j in range(3))
        LocalModel(3, residues, n=4).to_log_connection()
        quotient = entry / c
        assert (quotient.num, quotient.den) == (expected.num, expected.den)


class TestStoredScalars:
    """Constructors read their scalars once into ``GaussianRational``s, so a system
    rebuilt from the stored values is the same system."""

    def test_rebuilt_from_stored_values(self, rng):
        for _ in range(20):
            F = random_fuchsian(rng)
            assert all(isinstance(v, GaussianRational) for v in F.poles)
            assert all(isinstance(e, GaussianRational) for A in F.residues for row in A for e in row)
            assert FuchsianSystem(F.m, F.poles, F.residues) == F  # the exact flag included
            L = LocalModel(F.m, F.residues, n=F.k + 1)
            assert LocalModel(L.m, L.residues, n=L.n) == L
            conn = F.to_log_connection()
            assert all(isinstance(c, GaussianRational) for _, c in conn.divisor)
            back = LogConnection(conn.m, conn.gens, conn.divisor, conn.components,
                                 exact=conn.exact)
            assert back.divisor == conn.divisor and back.equals(conn)
            assert back.exact == conn.exact == F.exact

    def test_a_non_gaussian_rational_is_stored_as_its_dyadic_value(self):
        root2 = gaussian(2 ** 0.5)
        F = FuchsianSystem(1, [sp.sqrt(2)], [[[sp.sqrt(2)]]])
        L = LocalModel(1, [[[sp.sqrt(2)]]])
        assert (F.poles, F.residues, F.exact) == ((root2,), (((root2,),),), False)
        assert (L.residues, L.exact) == ((((root2,),),), False)
        # the dyadic value reads back unrounded: a rebuild holds the same values
        back = FuchsianSystem(F.m, F.poles, F.residues)
        assert (back.poles, back.residues) == (F.poles, F.residues)
        assert LocalModel(L.m, L.residues, n=L.n).residues == L.residues
        conn = F.to_log_connection()
        rebuilt = LogConnection(conn.m, conn.gens, conn.divisor, conn.components,
                                exact=conn.exact)
        assert not conn.exact and not rebuilt.exact and rebuilt.equals(conn)
        # an inexact branch value makes a connection inexact, whatever it is told
        x = conn.gens[0]
        assert not LogConnection(1, (x,), [(0, sp.sqrt(2))], conn.components).exact

    @pytest.mark.parametrize("value", [0.3, sp.sqrt(2)], ids=["float", "sqrt2"])
    def test_rebuilt_inexact_system_keeps_its_flag(self, value):
        F = FuchsianSystem(1, [0], [[[value]]])
        L = LocalModel(1, [[[value]]], n=2)
        assert not F.exact and not L.exact
        assert FuchsianSystem(F.m, F.poles, F.residues, exact=F.exact) == F
        assert LocalModel(L.m, L.residues, n=L.n, exact=L.exact) == L

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_integer_arrays_read_as_exact(self, dtype):
        poles, residues = [0, 1], [[[1, 2], [0, -3]], [[4, 0], [5, 6]]]
        F = FuchsianSystem(2, np.array(poles, dtype=dtype), np.array(residues, dtype=dtype))
        L = LocalModel(2, [np.eye(2, dtype=dtype), np.array(residues[1], dtype=dtype)])
        assert F.exact and L.exact
        assert F == FuchsianSystem(2, poles, residues)
        assert L == LocalModel(2, [[[1, 0], [0, 1]], residues[1]])
        assert FuchsianSystem(1, np.arange(2, dtype=dtype), [[[1]], [[2]]]).poles == (0, 1)

    def test_numpy_floats_read_as_their_dyadic_values(self):
        F = FuchsianSystem(1, [np.float64(0.5)], [[[np.float32(0.1) + np.complex64(2j)]]])
        assert F.poles == (gaussian(0.5),) and F.exact is False
        assert F.residues[0][0][0] == gaussian(float(np.float32(0.1)), 2.0)

    def test_a_pole_beyond_float_range_is_named(self):
        with pytest.raises(SchemaViolation) as info:
            FuchsianSystem(1, [0, 10 ** 400], [[[1]], [[1]]])
        assert info.value.pointer == "/poles/1"

    def test_a_mixed_scalar_reads_the_same_everywhere(self):
        # "1/3" exactly and 0.5 as its (exact) dyadic value, the data inexact
        want = gaussian(Fraction(1, 3), 0.5)
        third = ["1/3", 0.5]
        one = [[[1, 0]]]
        F = validate_schema({"type": "fuchsian", "rank": 1, "poles": [third],
                             "residues": [one]})
        L = validate_schema({"type": "local_model", "rank": 1, "residues": [[[third]]]})
        conn = validate_schema({
            "type": "log_connection", "rank": 1, "vars": ["x"],
            "divisor": [{"var": 0, "value": third}],
            "components": [[[{"num": {"0": third}, "den": {"1": [1, 0], "0": [-1, 0]}}]]]})
        coefficient = conn.entry(0, 0, 0).num.to_dict()[(0,)]
        assert F.poles[0] == L.residues[0][0][0] == conn.divisor[0][1] == coefficient == want
        assert not (F.exact or L.exact or conn.exact)

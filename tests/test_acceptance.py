"""End-to-end acceptance gates.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -s``).  Random data is seeded,
so failures are reproducible.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from click.testing import CliRunner
from scipy.linalg import expm

from logconnect import (
    FuchsianSystem,
    LocalModel,
    LogConnection,
    ProjectiveClass,
    ProjectivePresentation,
    circle_loop,
    flatness_check,
    lift_commuting,
    lifting_exponent,
    nonresonant,
    poincare_defect,
    poincare_normalize,
    proj_equal,
    projective_monodromy,
    projectivize,
    property_Pm,
    pullback_power,
    realize_fuchsian,
    reconstruct,
    residue,
    standard_loops,
    trace_free_lift,
    transport,
    verify_lift_after_power,
)
from logconnect.cli import main as cli_main
from logconnect.errors import ResonantResidue

from conftest import from_expr, mat_log_normalized, random_fuchsian, rational_matrix, trace_form

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def report(capfd, label, ok, detail=""):
    with capfd.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
              + (f"  ({detail})" if detail else ""))
    assert ok, f"{label} failed: {detail}"


def random_unitary(nprng, m):
    Z = nprng.standard_normal((m, m)) + 1j * nprng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_riccati_round_trip_exact(rng, capfd):
    start = time.perf_counter()
    for _ in range(500):
        F = random_fuchsian(rng)
        conn = F.to_log_connection()
        back = reconstruct(projectivize(F), trace_form(conn))
        assert back.exact
        assert conn.equals(back)
    elapsed = time.perf_counter() - start
    report(capfd, "riccati round-trip (500 exact systems)",
           elapsed < 10.0, f"{elapsed:.2f}s < 10s")


def test_trace_free_lift_monodromy(rng, capfd):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = rng.choice([2, 3])
        k = rng.randint(1, 2)
        poles = rng.sample([0, 1, -1, 2], k)
        F = FuchsianSystem(
            m, poles, [rational_matrix(rng, m, span=1, den=2) for _ in range(k)])
        lifted = trace_free_lift(projectivize(F))
        tr = trace_form(lifted)[0]
        assert tr.is_zero or tr.is_zero_within(1e-12)
        assert flatness_check(lifted)
        loops = standard_loops(F)
        for lp in loops:
            M = transport(F, lp, tol=1e-12)
            N = transport(lifted, lp, tol=1e-12)
            assert proj_equal(M, N, tol=1e-7)
            lam = np.vdot(N, M) / np.vdot(N, N)
            worst = max(worst, np.linalg.norm(M - lam * N)
                        / max(np.linalg.norm(M), 1.0))
    elapsed = time.perf_counter() - start
    report(capfd, "trace-free lift monodromy (50 instances, 1e-7)",
           elapsed < 60.0, f"worst rel dev {worst:.1e}, {elapsed:.2f}s < 60s")


def test_local_model_monodromy_matches_exponential(nprng, capfd):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(nprng.integers(2, 5))
        A = nprng.standard_normal((m, m)) + 1j * nprng.standard_normal((m, m))
        A *= 2.0 / max(np.linalg.norm(A, 2), 2.0)
        # integrator tolerance at the DOP853 floor: the bound below is
        # absolute while monodromy norms reach exp(4*pi)
        M = transport(LocalModel(m, [A]), circle_loop(0.0, 1.0), tol=2.5e-14)
        err = np.linalg.norm(M - expm(2j * np.pi * A))
        worst = max(worst, err)
        assert err < 1e-8
    elapsed = time.perf_counter() - start
    report(capfd, "local-model monodromy vs exp(2*pi*i*A) (100 matrices)",
           elapsed < 60.0, f"worst err {worst:.1e}, {elapsed:.2f}s < 60s")


def test_pullback_powers_monodromy(rng, capfd):
    worst = 0.0
    for _ in range(50):
        m = rng.choice([2, 3])
        F = FuchsianSystem(m, [0], [rational_matrix(rng, m, span=2)])
        nu = rng.choice([2, 3, 4])
        pulled = pullback_power(F, 0, nu)
        loop = circle_loop(0.0, 1.0)
        M = transport(F, loop, tol=1e-11)
        N = transport(pulled, loop, tol=1e-11)
        err = np.linalg.norm(N - np.linalg.matrix_power(M, nu)) \
            / max(np.linalg.norm(N), 1.0)
        worst = max(worst, err)
        assert err < 1e-7
    report(capfd, "pullback monodromy = nu-th power (50 systems)",
           True, f"worst rel err {worst:.1e}")


def test_separation_implies_nonresonance(nprng, capfd):
    checked = 0
    while checked < 200:
        m = int(nprng.integers(2, 5))
        M = nprng.standard_normal((m, m)) + 1j * nprng.standard_normal((m, m))
        if not property_Pm(M):
            continue
        A = mat_log_normalized(M)
        assert nonresonant(m * A)
        checked += 1
    flip = np.diag([1.0, -1.0])
    assert not property_Pm(flip, m=2)
    report(capfd, "eigenvalue separation => nonresonant log (200 matrices)",
           True, "plus explicit diag(1,-1) rejection")


def test_commutator_scalars_are_roots_of_unity(nprng, capfd):
    rng = random.Random(7)
    worst = 0.0
    for trial in range(200):
        m = int(nprng.integers(2, 5))
        Q = nprng.standard_normal((m, m)) + 1j * nprng.standard_normal((m, m))
        if trial % 2 == 0:
            # genuinely commuting: two diagonals in a common frame
            D1 = np.diag(np.exp(1j * nprng.uniform(0, 2 * np.pi, m)))
            D2 = np.diag(np.exp(1j * nprng.uniform(0, 2 * np.pi, m)))
        else:
            # clock and shift: commute only up to an m-th root of unity
            zeta = np.exp(2j * np.pi / m)
            D1 = np.diag(zeta ** np.arange(m))
            D2 = np.roll(np.eye(m), 1, axis=0)
        a = ProjectiveClass(Q @ D1 @ np.linalg.inv(Q) * (1 + rng.random()))
        b = ProjectiveClass(Q @ D2 @ np.linalg.inv(Q) * (1 + rng.random()))
        rep = lift_commuting((a, b))
        for lam in rep.obstruction_scalars:
            worst = max(worst, abs(lam ** m - 1))
            assert abs(lam ** m - 1) < 1e-8
        if property_Pm(a.canonical) and property_Pm(b.canonical):
            assert all(abs(lam - 1) < 1e-8 for lam in rep.obstruction_scalars)
            assert rep.success
    report(capfd, "commutator scalars satisfy lambda^m = 1 (200 pairs)",
           True, f"worst |lambda^m - 1| = {worst:.1e}")


def test_heisenberg_lifting_exponent(capfd):
    start = time.perf_counter()
    P = ProjectivePresentation(
        2,
        {"s": np.array([[0, 1], [1, 0]], dtype=complex),
         "f": np.diag([1.0, -1.0]).astype(complex)},
        relations=[["s", "f", "s^-1", "f^-1"]],
    )
    rep1 = verify_lift_after_power(P, 1)
    assert not rep1.success
    assert any(abs(lam + 1) < 1e-12 for lam in rep1.obstruction_scalars)
    nu = lifting_exponent(P)
    assert nu == 2
    rep2 = verify_lift_after_power(P, 2)
    assert rep2.success
    elapsed = time.perf_counter() - start
    report(capfd, "order-2 flip/swap pair: exponent 2, fail@1, lift@2",
           elapsed < 1.0, f"{elapsed:.3f}s < 1s")


def _one_var_system(A, tau_coeffs):
    x = sp.Symbol("x")
    m = len(A)
    entries = [[sp.sympify(A[i][j]) / x for j in range(m)] for i in range(m)]
    for d, T in enumerate(tau_coeffs):
        for i in range(m):
            for j in range(m):
                entries[i][j] += sp.sympify(T[i][j]) * x ** d
    comps = (tuple(
        tuple(from_expr(e, (x,)) for e in row)
        for row in entries
    ),)
    return LogConnection(m, (x,), ((0, sp.Integer(0)),), comps)


def test_poincare_normalization_order_ten(nprng, capfd):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = int(nprng.integers(2, 4))
        A = np.diag(nprng.uniform(0.05, 0.85, size=m)) \
            + 0.05j * nprng.standard_normal((m, m))
        tau = [0.5 * nprng.standard_normal((m, m)) for _ in range(4)]
        conn = _one_var_system(A.tolist(), [T.tolist() for T in tau])
        gauge = poincare_normalize(conn, order=10)
        defect = poincare_defect(conn, gauge)
        worst = max(worst, defect)
        assert defect < 1e-7
    resonant = _one_var_system([[0, 0], [0, 1]], [[[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ResonantResidue):
        poincare_normalize(resonant, order=10)
    elapsed = time.perf_counter() - start
    report(capfd, "order-10 normalization (50 systems + resonant rejection)",
           elapsed < 30.0, f"worst defect {worst:.1e}, {elapsed:.2f}s < 30s")


def test_abelian_fuchsian_realization(nprng, capfd):
    pole_pool = [0.0, 1.0, -1.0, 2.0, 0.5]
    rng = random.Random(11)
    for _ in range(50):
        m = rng.choice([2, 3])
        k = rng.randint(1, 3)
        Q = random_unitary(nprng, m) + 0.2 * nprng.standard_normal((m, m))
        Qinv = np.linalg.inv(Q)
        gens = {}
        for g in range(k):
            # angles kept away from each other so no eigenvalue ratio is
            # an m-th root of unity
            angles = np.sort(nprng.uniform(0.05, 0.9, size=m)) \
                + np.arange(m) * 1.1
            D = np.diag(np.exp(1j * angles))
            gens[f"g{g}"] = Q @ D @ Qinv
        P = ProjectivePresentation(m, gens)
        for M in gens.values():
            assert property_Pm(M, m=m)
        poles = rng.sample(pole_pool, k)
        system = realize_fuchsian(P, poles=poles, tol=1e-7)
        for A in (system.residue_array(i) for i in range(system.k)):
            eig = np.linalg.eigvals(A)
            assert np.all(eig.real >= -1e-9) and np.all(eig.real < 1 - 1e-9)
        rep = projective_monodromy(system, standard_loops(system), tol=1e-10)
        for cls, name in zip(rep.matrices, P.names):
            assert proj_equal(cls.canonical,
                              P.generators[name].canonical, tol=1e-7)
    report(capfd, "abelian realization on the line (50 presentations)",
           True, "classes reproduced, residue spectra in [0,1)")


def test_cli_corpus_contract(capfd):
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    runner = CliRunner()
    for entry in manifest:
        args = [str(FIXTURES / a) if a.endswith(".json") else a
                for a in entry["args"]]
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        assert first.exit_code == entry["expect"], entry["args"]
        assert second.exit_code == entry["expect"]
        assert first.stdout_bytes == second.stdout_bytes, entry["args"]
    report(capfd, "CLI corpus exit codes + byte-stable output",
           True, f"{len(manifest)} commands, two runs each")

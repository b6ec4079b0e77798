"""The in-process workloads: seeded inputs, their ops, output checks.

Every workload builds a fixed, stratified pool of inputs from its seed.  One
round runs an op once per pool entry, in a seeded order; a run repeats
whole rounds, so every run of a workload and seed does the same work.  The
program only ever sees the generated objects and documents.

``exact_layer`` mixes two op kinds, ``ExactRoundtrip`` and
``NormalizeSeries``; ``monodromy_lift`` is ``MonodromyLift``.

Library modules are imported inside each workload's constructor, so that
importing them counts as set-up, and are always called through module
attributes, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import scipy.linalg

from common import WrongOutput


# -- Gaussian rationals as (Fraction, Fraction), outside the library ------

ZERO = (Fraction(0), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return g_mul(a, (b[0] / n, -b[1] / n))


def g_of_sympy(c):
    re, im = c.as_real_imag()
    return (Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def g_horner(coeffs, x):
    acc = ZERO
    for c in coeffs:
        acc = g_add(g_mul(acc, x), c)
    return acc


# -- exact_layer, op kind r: roundtrips --------------------------------------


class ExactRoundtrip:
    """Embed, projectivize and reconstruct exact Fuchsian systems."""

    POLE_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                 Fraction(1, 2), Fraction(-2), Fraction(3)]
    PER_STRATUM = 14  # systems per (rank, pole count); 9 strata

    def __init__(self, seed):
        import sympy as sp
        from logconnect import connections, projective, ratfunc
        self.sp, self.connections, self.projective, self.ratfunc = \
            sp, connections, projective, ratfunc
        rng = random.Random(seed)
        self.pool = []
        for m in (2, 3, 4):
            for k in (1, 2, 3):
                for _ in range(self.PER_STRATUM):
                    poles = rng.sample(self.POLE_POOL, k)
                    residues = [[[self._gq(rng) for _ in range(m)] for _ in range(m)]
                                for _ in range(k)]
                    # imaginary part keeps the check points off the real poles
                    points = [(Fraction(rng.randint(-9, 9), rng.randint(2, 7)),
                               Fraction(rng.randint(1, 9), rng.randint(2, 7)))
                              for _ in range(2)]
                    self.pool.append(self._entry(m, poles, residues, points))
        rng.shuffle(self.pool)
        self.verified = {}

    @staticmethod
    def _gq(rng):
        return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    def _entry(self, m, poles, residues, points):
        sp = self.sp

        def to_sp(g):
            return sp.Rational(g[0]) + sp.Rational(g[1]) * sp.I

        return {
            "m": m,
            "poles": [(p, Fraction(0)) for p in poles],
            "residues": residues,
            "points": points,
            "sp_poles": [sp.Rational(p) for p in poles],
            "sp_residues": [[[to_sp(e) for e in row] for row in A] for A in residues],
        }

    def _trace_form(self, conn):
        zero = self.ratfunc.RationalFunction.zero(conn.gens)
        return tuple(sum((conn.entry(v, i, i) for i in range(conn.m)), start=zero)
                     for v in range(conn.n))

    def _op(self, i):
        e = self.pool[i]
        F = self.connections.FuchsianSystem(e["m"], e["sp_poles"], e["sp_residues"])
        conn = F.to_log_connection()
        back = self.projective.reconstruct(self.projective.projectivize(conn),
                                           self._trace_form(conn))
        return conn.equals(back), back

    def check(self, i, result):
        equal, back = result
        if not equal:
            raise WrongOutput(f"system {i}: reconstruction differs from the original")
        if not back.exact:
            raise WrongOutput(f"system {i}: reconstruction lost exactness")
        entries = [(f.num, f.den) for comp in back.components for row in comp for f in row]
        if i in self.verified:
            if entries != self.verified[i]:
                raise WrongOutput(f"system {i}: output changed between rounds")
            return
        e = self.pool[i]
        m = e["m"]
        for x in e["points"]:
            for a in range(m):
                for b in range(m):
                    want = ZERO
                    for A, p in zip(e["residues"], e["poles"]):
                        want = g_add(want, g_div(A[a][b], (x[0] - p[0], x[1] - p[1])))
                    f = back.entry(0, a, b)
                    got = g_div(g_horner([g_of_sympy(c) for c in f.num.all_coeffs()], x),
                                g_horner([g_of_sympy(c) for c in f.den.all_coeffs()], x))
                    if got != want:
                        raise WrongOutput(
                            f"system {i}: entry ({a},{b}) at {x} is {got}, expected {want}")
        self.verified[i] = entries

    def round_counts(self, results):
        """Size of the reconstructed entries over one round."""
        den_deg = num_terms = 0
        for _, back in results:
            for comp in back.components:
                for row in comp:
                    for f in row:
                        den_deg += f.den.total_degree()
                        num_terms += len(f.num.terms()) if not f.num.is_zero else 0
        return {"ratfunc.den_degree_sum": den_deg, "ratfunc.num_terms_sum": num_terms}


# -- exact_layer, op kind n: series normalizations ---------------------------


ORDER = 10
GAUGE_TOL = 1e-9


def reference_gauge(A, taus, order):
    """G_1..G_order of the Sylvester recursion, by Kronecker-product solves.

    A G_k - G_k (A + k I) = -sum_d T_d G_{k-1-d}; vec(A X - X B) is
    (I (x) A - B^T (x) I) vec(X) in column-major order.
    """
    m = A.shape[0]
    eye = np.eye(m)
    G = [eye.astype(complex)]
    for k in range(1, order + 1):
        rhs = np.zeros((m, m), dtype=complex)
        for d, T in enumerate(taus):
            if 0 <= k - 1 - d < len(G):
                rhs -= T @ G[k - 1 - d]
        K = np.kron(eye, A) - np.kron((A + k * eye).T, eye)
        G.append(np.linalg.solve(K, rhs.ravel(order="F")).reshape((m, m), order="F"))
    return G


class NormalizeSeries:
    """Parse A dx/x + tau(x) dx documents and normalize them to order 10."""

    PER_RANK = {2: 6, 3: 24}  # documents per rank
    TAU_DEGREE = 3

    def __init__(self, seed):
        from logconnect import connections, serialization
        self.connections, self.serialization = connections, serialization
        rng = np.random.default_rng(seed)
        self.pool = []
        for m, count in self.PER_RANK.items():
            for _ in range(count):
                # diagonal spread below 1 keeps A nonresonant
                A = np.diag(rng.uniform(0.05, 0.85, size=m)) \
                    + 0.05j * rng.standard_normal((m, m))
                taus = [0.5 * (rng.standard_normal((m, m))
                               + 1j * rng.standard_normal((m, m)))
                        for _ in range(self.TAU_DEGREE + 1)]
                self.pool.append({"doc": self._doc(A, taus),
                                  "want": reference_gauge(A, taus, ORDER)})
        order = rng.permutation(len(self.pool))
        self.pool = [self.pool[i] for i in order]

    @staticmethod
    def _doc(A, taus):
        """log_connection document of (A + sum_d T_d x^(d+1)) / x."""
        m = A.shape[0]

        def pair(z):
            return [float(z.real), float(z.imag)]

        def entry(i, j):
            num = {"0": pair(A[i, j])}
            for d, T in enumerate(taus):
                num[str(d + 1)] = pair(T[i, j])
            return {"num": num, "den": {"1": [1, 0]}}

        return {"type": "log_connection", "rank": m, "vars": ["x"],
                "divisor": [{"var": 0, "value": [0, 0]}],
                "components": [[[entry(i, j) for j in range(m)] for i in range(m)]]}

    def _op(self, i):
        conn = self.serialization.validate_schema(self.pool[i]["doc"])
        return self.connections.poincare_normalize(conn, order=ORDER)

    def check(self, i, gauge):
        want = self.pool[i]["want"]
        got = gauge.coefficients
        if len(got) != len(want):
            raise WrongOutput(f"document {i}: {len(got) - 1} gauge terms, expected {ORDER}")
        for k, (G, W) in enumerate(zip(got, want)):
            err = float(np.max(np.abs(G - W)))
            if not err <= GAUGE_TOL * max(1.0, float(np.max(np.abs(W)))):
                raise WrongOutput(f"document {i}: G_{k} off by {err:.3e}")


# -- exact_layer ------------------------------------------------------------


class ExactLayer:
    """Exact roundtrips and series normalizations, mixed in one seeded round.

    126 roundtrips of 2-60 ms and 30 normalizations of 100-260 ms: the median
    op is a roundtrip, while normalizations take most of the op time.
    """

    def __init__(self, seed):
        self.parts = {"r": ExactRoundtrip(seed), "n": NormalizeSeries(seed)}
        keys = [(kind, i) for kind, part in self.parts.items()
                for i in range(len(part.pool))]
        random.Random(seed).shuffle(keys)
        self.keys = keys

    def ops(self):
        return [(key, self._op) for key in self.keys]

    def _op(self, key):
        kind, i = key
        return self.parts[kind]._op(i)

    def check(self, key, result):
        kind, i = key
        self.parts[kind].check(i, result)

    def round_counts(self, results):
        """The roundtrips' entry sizes over one round of (key, output) pairs."""
        return self.parts["r"].round_counts([out for (kind, _), out in results if kind == "r"])


# -- monodromy_lift ---------------------------------------------------------


CLASS_TOL = 1e-7


def same_class(A, B, tol=CLASS_TOL):
    """A and B agree up to a scalar (least-squares scalar, relative residual)."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    lam = np.vdot(B, A) / np.vdot(B, B)
    return float(np.linalg.norm(A - lam * B)) <= tol * float(np.linalg.norm(A))


def random_unitary(rng, m):
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class MonodromyLift:
    """Realize abelian presentations and transport trace-free lifts."""

    POLE_POOL = [0.0, 1.0, -1.0, 2.0, 0.5]
    REALIZE_PER_STRATUM = 6  # op (a) per (rank, generator count); 6 strata
    LIFT_PER_STRATUM = 2     # op (b) per stratum

    def __init__(self, seed):
        from logconnect import lifting, monodromy, projective
        self.lifting, self.monodromy, self.projective = lifting, monodromy, projective
        rng = np.random.default_rng(seed)
        self.realize, self.lifts = [], []
        for m in (2, 3):
            for k in (1, 2, 3):
                for _ in range(self.REALIZE_PER_STRATUM):
                    self.realize.append(self._presentation(rng, m, k))
                for _ in range(self.LIFT_PER_STRATUM):
                    e = self._presentation(rng, m, k)
                    F = lifting.realize_fuchsian(e["P"], poles=e["poles"], tol=CLASS_TOL)
                    lift = projective.trace_free_lift(projective.projectivize(F))
                    lift.component_callable(0)  # compile the evaluator during set-up
                    e.update(F=F, lift=lift)
                    self.lifts.append(e)
        keys = [("a", i) for i in range(len(self.realize))] \
            + [("b", i) for i in range(len(self.lifts))]
        self.keys = [keys[i] for i in rng.permutation(len(keys))]

    def _presentation(self, rng, m, k):
        Q = random_unitary(rng, m) + 0.2 * rng.standard_normal((m, m))
        Qinv = np.linalg.inv(Q)
        gens = {}
        for g in range(k):
            # separated angles: no eigenvalue ratio is an m-th root of unity
            angles = np.sort(rng.uniform(0.05, 0.9, size=m)) + np.arange(m) * 1.1
            gens[f"g{g}"] = Q @ np.diag(np.exp(1j * angles)) @ Qinv
        poles = [self.POLE_POOL[i] for i in rng.permutation(len(self.POLE_POOL))[:k]]
        P = self.lifting.ProjectivePresentation(m, gens)
        return {"gens": gens, "poles": poles, "P": P}

    def ops(self):
        return [(key, self._op) for key in self.keys]

    def _op(self, key):
        kind, i = key
        mono = self.monodromy
        if kind == "a":
            e = self.realize[i]
            system = self.lifting.realize_fuchsian(e["P"], poles=e["poles"], tol=CLASS_TOL)
            return system, mono.projective_monodromy(system, mono.standard_loops(system),
                                                     tol=1e-10)
        e = self.lifts[i]
        return None, mono.projective_monodromy(e["lift"], mono.standard_loops(e["F"]),
                                               tol=1e-10)

    def check(self, key, result):
        kind, i = key
        system, rep = result
        e = (self.realize if kind == "a" else self.lifts)[i]
        targets = list(e["gens"].values())
        if len(rep.matrices) != len(targets):
            raise WrongOutput(f"{key}: {len(rep.matrices)} classes for {len(targets)} generators")
        for g, (cls, T) in enumerate(zip(rep.matrices, targets)):
            if not same_class(cls.rep, T):
                raise WrongOutput(f"{key}: class {g} does not reproduce its generator")
        if kind == "b":
            return
        for j in range(system.k):
            eig = np.linalg.eigvals(system.residue_array(j))
            if not (np.all(eig.real >= -1e-9) and np.all(eig.real < 1 - 1e-9)):
                raise WrongOutput(f"{key}: residue {j} has eigenvalues {eig}")
        if system.k == 1:
            M = rep.matrices[0].rep
            E = scipy.linalg.expm(2j * np.pi * system.residue_array(0))
            if not np.linalg.norm(M - E) <= CLASS_TOL * np.linalg.norm(E):
                raise WrongOutput(f"{key}: loop matrix differs from expm(2 pi i A)")

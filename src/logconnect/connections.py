"""Flat logarithmic connections on trivial bundles over desk-scale charts.

Two concrete models — global one-variable Fuchsian systems on the sphere and
polydisk local models with coordinate-hyperplane divisors — both embed into
the general ``LogConnection``, whose entries are exact rational functions.
Each system's ``exact`` flag (``exact=True`` ANDed with ``ratfunc.to_scalar``'s
verdict on every scalar read) decides its predicates: exact data is compared
structurally, inexact data within a tolerance.  The exact path runs on these
types alone (``exact_residue`` among them): numpy and ``algebra`` are imported
on call by the functions that compute with floats (the residue arrays and their
common eigenbasis, ``residue``, ``GaugeSeries`` and the normalization).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import product
from operator import add, mul

from .errors import (
    NonConstantResidue,
    ResonantResidue,
    ResonantSpectrum,
    SchemaViolation,
    ToleranceNotMet,
    UnsupportedBranch,
)
from .ratfunc import (
    ONE,
    ZERO,
    RationalFunction,
    branch_line,
    complex_terms,
    evaluator,
    from_terms,
    gaussian,
    to_complex,
    to_scalar,
)

__all__ = [
    "FuchsianSystem",
    "LocalModel",
    "LogConnection",
    "GaugeSeries",
    "flatness_check",
    "residue",
    "exact_residue",
    "fuchsian_form",
    "sphere_form",
    "line_quotient",
    "pullback_power",
    "poincare_normalize",
    "poincare_defect",
]


def _read_only(values):
    """A complex ndarray of ``values`` that cannot be written: a cached view is shared."""
    import numpy as np

    out = np.array(values, dtype=complex)
    out.setflags(write=False)
    return out


class _Residues:
    """What the two residue models share: ``residues`` hold ``GaussianRational``s, and
    ``residue_arrays`` are their complex values, built on first use."""

    def _read_residues(self, m, residues) -> bool:
        """Store the rank m and the residues as nested tuples of ``GaussianRational``s, each
        checked m x m, and return whether every entry was exact; an entry is any scalar
        ``ratfunc.to_scalar`` reads (a ``GaussianRational``, a sympy number or a number of
        the ``numbers`` ABCs), and a matrix any sequence of rows, an ndarray among them."""
        read = [[[to_scalar(e) for e in row] for row in A] for A in residues]
        for A in read:
            if len(A) != m or any(len(row) != m for row in A):
                raise ValueError(f"residues must be {m}x{m}")
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "residues", tuple(tuple(tuple(v for v, _ in row) for row in A)
                                                   for A in read))
        return all(e for A in read for row in A for _, e in row)

    @property
    def k(self) -> int:
        return len(self.residues)

    @cached_property
    def residue_arrays(self):
        """The residues as a read-only complex (k, m, m) ndarray."""
        return _read_only([[[to_complex(e) for e in row] for row in A]
                           for A in self.residues]).reshape(self.k, self.m, self.m)

    def residue_array(self, i: int):
        return self.residue_arrays[i]

    @cached_property
    def residue_eigenbasis(self):
        """(V, V^-1, the rows d_i, cond(V)) when every residue is V diag(d_i) V^-1 up
        to rounding (``algebra.eigenbasis_up_to_rounding``), so that the residues
        commute and prod_i (x - p_i)^{A_i} (prod_i x_i^{A_i} for a local model) is a
        fundamental solution; else None."""
        from .algebra import eigenbasis_up_to_rounding

        return eigenbasis_up_to_rounding(self.residue_arrays)

    def loop_matrix(self, windings):
        """V diag(exp(2 pi i sum_i w_i d_i)) V^-1 in ``residue_eigenbasis``, which must
        exist: the matrix of a loop with winding number w_i about branch i, since
        continuing the fundamental solution around it multiplies it by exactly that
        (Deligne, Equations differentielles a points singuliers reguliers, LNM 163)."""
        import numpy as np

        from .algebra import TWO_PI

        V, Vinv, d, _ = self.residue_eigenbasis
        return (V * np.exp(1j * (TWO_PI * (np.asarray(windings, dtype=float) @ d)))) @ Vinv


def _pole_sums(m, gens, lines, residues):
    """The m x m matrix of entries sum_k A_k[i][j] / l_k, built reduced with no gcd.

    ``lines`` are monic, of degree one in ``gens`` and with pairwise distinct
    zeros.  Over the support S of an entry (the k with A_k[i][j] != 0), its
    den is prod_S l_k and its num sum_S A_k[i][j] prod_{S - k} l_l, which
    vanishes at no zero of den.  The products are formed once per support.
    """
    one = from_terms({(0,) * len(gens): ONE}, gens)
    products = {}  # support -> (den, the cofactor of each of its lines)

    def entry(i, j):
        support = tuple(k for k, A in enumerate(residues) if A[i][j])
        if not support:
            return RationalFunction.zero(gens)
        if support not in products:
            factors = [lines[k] for k in support]
            products[support] = (reduce(mul, factors), [
                reduce(mul, factors[:s] + factors[s + 1:], one) for s in range(len(factors))])
        den, cofactors = products[support]
        num = reduce(add, (c.mul_ground(residues[k][i][j]) for k, c in zip(support, cofactors)))
        return RationalFunction(num, den, _normalized=True)

    return tuple(tuple(entry(i, j) for j in range(m)) for i in range(m))


@dataclass(frozen=True)
class FuchsianSystem(_Residues):
    """Global rank-m system on the sphere: omega = sum_i A_i dx/(x - p_i).

    ``poles`` hold ``GaussianRational``s too, and ``pole_array`` their complex values.
    The residue at infinity is implied, never stored: ``infinity_residue`` is the
    exact -sum A_i.
    """

    m: int
    poles: tuple
    residues: tuple
    exact: bool = field(default=True)

    def __init__(self, m, poles, residues, exact=True):
        if len(poles) != len(residues):
            raise ValueError("one residue matrix per pole required")
        read = [to_scalar(p) for p in poles]
        object.__setattr__(self, "poles", tuple(p for p, _ in read))
        pts = []
        for i, p in enumerate(self.poles):
            # the pointers name fields of the ``fuchsian`` JSON document
            try:
                a = complex(p)
            except OverflowError as exc:
                raise SchemaViolation(f"/poles/{i}",
                                      "expected a number within float range") from exc
            if any(abs(a - b) <= 1e-9 for b in pts):
                raise SchemaViolation(
                    f"/poles/{i}", "poles must be pairwise distinct (separation > 1e-9)"
                )
            pts.append(a)
        exact = self._read_residues(m, residues) and bool(exact)
        object.__setattr__(self, "exact", exact and all(e for _, e in read))

    @cached_property
    def pole_array(self):
        """The poles as a read-only complex ndarray."""
        return _read_only([to_complex(p) for p in self.poles])

    @cached_property
    def infinity_residue(self) -> tuple:
        """The residue at infinity, -sum A_i, summed exactly: rows of ``GaussianRational``s."""
        return tuple(tuple(-sum((A[i][j] for A in self.residues), ZERO) for j in range(self.m))
                     for i in range(self.m))

    def to_log_connection(self) -> "LogConnection":
        """The embedding: entry (i, j) is sum_k A_k[i][j] / (x - p_k), summed over
        the poles where A_k[i][j] != 0.  Built with no gcd (``_pole_sums``): the
        poles are distinct, so at each such p_k the numerator is
        A_k[i][j] prod_{l != k} (p_k - p_l) != 0 and the fraction is reduced."""
        cached = getattr(self, "_log_connection", None)
        if cached is not None:
            return cached
        lines = [branch_line(("x",), 0, p) for p in self.poles]
        comp = _pole_sums(self.m, ("x",), lines, self.residues)
        divisor = tuple((0, p) for p in self.poles)
        conn = LogConnection(self.m, ("x",), divisor, (comp,), exact=self.exact)
        object.__setattr__(self, "_log_connection", conn)
        return conn


@dataclass(frozen=True)
class LocalModel(_Residues):
    """Local model D_A: omega = sum_i A_i dx_i / x_i on a polydisk chart.

    Flatness is exactly pairwise commutation of the residues; the model does
    not enforce it at construction so that the flatness check stays meaningful
    on negative examples.
    """

    m: int
    n: int
    residues: tuple
    exact: bool = field(default=True)

    def __init__(self, m, residues, n=None, exact=True):
        residues = tuple(residues)
        k = len(residues)
        if n is None:
            n = k
        if k > n:
            raise ValueError("need at least as many chart variables as divisor branches")
        object.__setattr__(self, "exact", self._read_residues(m, residues) and bool(exact))
        object.__setattr__(self, "n", int(n))

    def to_log_connection(self) -> "LogConnection":
        """The embedding: component j is A_j / x_j for a branch j, else zero.  Built
        with no gcd (``_pole_sums`` with one line): each a / x_j with a != 0 is
        reduced with a monic denominator, and each zero entry is
        ``RationalFunction.zero``."""
        gens = tuple(f"x{j}" for j in range(1, self.n + 1))
        comps = tuple(_pole_sums(self.m, gens, [branch_line(gens, j, ZERO)],
                                 self.residues[j:j + 1])
                      for j in range(self.n))
        divisor = tuple((j, ZERO) for j in range(self.k))
        return LogConnection(self.m, gens, divisor, comps, exact=self.exact)


class LogConnection:
    """omega = sum_j Omega_j dx_j with first-order poles along coordinate branches.

    ``divisor`` is a tuple of (variable index, ``GaussianRational``) pairs, each standing
    for the branch x_var = value.  ``components`` holds the n matrices Omega_j as
    nested tuples of :class:`RationalFunction`.
    """

    def __init__(self, m, gens, divisor, components, exact=True):
        self.m = int(m)
        self.gens = tuple(map(str, gens))
        self.n = len(self.gens)
        read = [(int(v), to_scalar(c)) for v, c in divisor]
        self.divisor = tuple((v, c) for v, (c, _) in read)
        self.components = tuple(
            tuple(tuple(row) for row in comp) for comp in components
        )
        self.exact = bool(exact) and all(e for _, (_, e) in read)
        self._callables = {}  # var -> numeric evaluator of Omega_var
        if len(self.components) != self.n:
            raise ValueError("one matrix component per chart variable required")

    def entry(self, var: int, i: int, j: int) -> RationalFunction:
        return self.components[var][i][j]

    def component_callable(self, var: int):
        """Numeric evaluator x -> Omega_var(x) (ndarray), built once per variable; for
        coordinates of shape S, the values have shape S + (m, m)."""
        if var not in self._callables:
            entries = [self.entry(var, i, j) for i, j in product(range(self.m), repeat=2)]
            values = evaluator([f.num for f in entries] + [f.den for f in entries])
            k, shape = len(entries), (self.m, self.m)
            def omega(*xs):
                v = values(*xs)  # the numerators, then the denominators
                return (v[..., :k] / v[..., k:]).reshape(v.shape[:-1] + shape)
            self._callables[var] = omega
        return self._callables[var]

    def equals(self, other: "LogConnection", tol: float = 1e-12) -> bool:
        """Entrywise equality: structural when both are exact, whose normalized form is
        canonical, else each difference within ``tol``."""
        if self.m != other.m or self.n != other.n:
            return False
        exact = self.exact and other.exact
        return all(f == g if exact else (f - g).is_zero_within(tol)
                   for A, B in zip(self.components, other.components)
                   for row_a, row_b in zip(A, B) for f, g in zip(row_a, row_b))

    def to_log_connection(self) -> "LogConnection":
        return self


@dataclass(frozen=True)
class GaugeSeries:
    """Truncated gauge power series G(x) = I + G_1 x + ... + G_N x^N."""

    coefficients: tuple
    order: int

    def __init__(self, coefficients):
        import numpy as np

        coeffs = tuple(np.asarray(G, dtype=complex) for G in coefficients)
        m = coeffs[0].shape[0]
        if np.linalg.norm(coeffs[0] - np.eye(m)) > 1e-12:
            raise ValueError("gauge series must start at the identity")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "order", len(coeffs) - 1)


def flatness_check(C, tol: float = 1e-12) -> bool:
    """Symbolic integrability test: the 2-form d(omega) - omega ^ omega vanishes."""
    conn = C.to_log_connection()
    if conn.n == 1:
        return True
    m = conn.m
    for a in range(conn.n):
        for b in range(a + 1, conn.n):
            Oa, Ob = conn.components[a], conn.components[b]
            for i in range(m):
                for j in range(m):
                    # coefficient of dx_a ^ dx_b in d(omega) - omega ^ omega
                    term = Ob[i][j].diff(conn.gens[a]) - Oa[i][j].diff(conn.gens[b])
                    for l in range(m):
                        term = term - (Oa[i][l] * Ob[l][j] - Ob[i][l] * Oa[l][j])
                    if not (term.is_zero if conn.exact else term.is_zero_within(tol)):
                        return False
    return True


def line_quotient(poly, line, exact: bool, tol: float = 1e-10):
    """poly / line when the degree-one ``line`` x_var - c divides ``poly``, else None.

    For inexact data the remainder, poly at x_var = c, need only vanish within
    ``tol`` relative to the largest coefficient of ``poly``, so a float branch
    value still meets the exact pole it rounds.
    """
    q, r = poly.div(line)
    if r.is_zero or not exact and (max(map(abs, complex_terms(r).values()))
                                   <= tol * max(map(abs, complex_terms(poly).values()))):
        return q
    return None


def exact_residue(C, branch, tol: float = 1e-10) -> tuple:
    """Residue matrix along a divisor branch, as rows of ``GaussianRational``s;
    ``branch='inf'`` for the point at infinity of a system on the sphere
    (``sphere_form``), else ``UnsupportedBranch``.

    Along x_var = c, an entry num/den has residue num/q restricted to the branch when
    den = (x_var - c) q, else 0 (Deligne 1970).  Each restriction is the remainder of
    the division by the line, so it is exact, and the residue must be constant on the
    branch: exactly for exact data, within ``tol`` for inexact data, else
    ``NonConstantResidue``.
    """
    if branch == "inf":
        if (F := sphere_form(C)) is None:
            raise UnsupportedBranch("infinity is a branch of a system on the sphere in "
                                    "Fuchsian form only")
        return F.infinity_residue
    if isinstance(C, _Residues):
        return C.residues[branch]
    conn = C.to_log_connection()
    var, value = conn.divisor[branch]
    line = branch_line(conn.gens, var, value)

    def entry(f):
        q = line_quotient(f.den, line, conn.exact, tol)
        if q is None:
            return ZERO
        return _constant_quotient(f.num.div(line)[1], q.div(line)[1], conn.exact, tol)

    return tuple(tuple(entry(conn.entry(var, i, j)) for j in range(conn.m))
                 for i in range(conn.m))


def _constant_quotient(num, den, exact: bool, tol: float):
    """num/den as a ``GaussianRational`` when it is constant, else ``NonConstantResidue``.

    Both are scaled so that den's coefficient of largest magnitude, at monomial e,
    is 1; the constant is then r = num_e, and num - r den must vanish: exactly for
    exact data, else each coefficient within tol * max(1, |r|).
    """
    if den.is_zero:
        raise NonConstantResidue("residue has a pole along the whole branch")
    e = max(den.rep, key=lambda e: den.rep[e][0] ** 2 + den.rep[e][1] ** 2)
    inv = ONE / den.to_dict()[e]
    num, den = num.mul_ground(inv), den.mul_ground(inv)
    r = num.to_dict().get(e, ZERO)
    rest = num - den.mul_ground(r)
    if rest.is_zero or not exact and (max(map(abs, complex_terms(rest).values()))
                                      <= tol * max(1.0, abs(complex(r)))):
        return r
    raise NonConstantResidue("residue varies along the branch beyond tolerance")


def fuchsian_form(C):
    """The ``FuchsianSystem`` that ``C`` is, or None, read once per object: a one-branch
    local model has the pole 0, and a one-variable ``LogConnection`` the system of its
    branch values and ``exact_residue``s if that system's embedding ``equals`` it."""
    if isinstance(C, FuchsianSystem):
        return C
    if "_fuchsian_form" not in vars(C):  # cached like ``cached_property``, None included
        form = None
        if isinstance(C, LocalModel) and C.k == 1:
            form = FuchsianSystem(C.m, [0], C.residues, exact=C.exact)
        elif isinstance(C, LogConnection) and C.n == 1:
            try:
                F = FuchsianSystem(C.m, [c for _, c in C.divisor], [
                    exact_residue(C, i) for i in range(len(C.divisor))], exact=C.exact)
                form = F if F.to_log_connection().equals(C) else None
            except (NonConstantResidue, SchemaViolation):
                pass
        vars(C)["_fuchsian_form"] = form
    return vars(C)["_fuchsian_form"]


def sphere_form(C):
    """``fuchsian_form(C)`` of a system on the sphere, whose point at infinity carries
    the residue -sum A_i; None for a local model, whose polydisk has no infinity, and
    for a system with no Fuchsian form."""
    return None if isinstance(C, LocalModel) else fuchsian_form(C)


def residue(C, branch, tol: float = 1e-10):
    """``exact_residue`` as a read-only complex ndarray, each entry correctly rounded."""
    return _read_only([[to_complex(e) for e in row] for row in exact_residue(C, branch, tol)])


def pullback_power(C, var: int, nu: int):
    """Pull back along x_var -> x_var**nu (the nu-fold covering substitution).

    Every branch in x_var, read from the divisor of ``C.to_log_connection()``, must be
    x_var = 0; its residue multiplies by nu, and all other branches are untouched.
    ``var`` must index a chart variable (a Fuchsian system has one).  A Fuchsian system
    or a local model comes back as one with that residue scaled (a local model has no
    term in a chart variable without a branch); any other system as its substituted
    ``LogConnection``.
    """
    if nu < 1 or int(nu) != nu:
        raise ValueError("nu must be a positive integer")
    conn = C.to_log_connection()
    if not 0 <= var < conn.n:
        raise ValueError(f"var must index a chart variable, 0 <= var < {conn.n}")
    at = [i for i, (v, _) in enumerate(conn.divisor) if v == var]
    if any(conn.divisor[i][1] for i in at):
        raise UnsupportedBranch(
            "pullback branch must be of the form x_var = 0 (translate first)")
    if isinstance(C, _Residues):
        return replace(C, residues=[[[nu * e for e in row] for row in A] if i in at else A
                                    for i, A in enumerate(C.residues)])
    if nu == 1:
        return conn
    x = conn.gens[var]
    power = tuple(nu - 1 if v == var else 0 for v in range(conn.n))
    chain = from_terms({power: gaussian(int(nu))}, conn.gens)  # d(x^nu)/dx
    comps = []
    for j in range(conn.n):
        rows = []
        for i in range(conn.m):
            row = []
            for l in range(conn.m):
                f = conn.entry(j, i, l).subst_power(x, nu)
                if j == var:
                    f = RationalFunction(f.num * chain, f.den)
                row.append(f)
            rows.append(tuple(row))
        comps.append(tuple(rows))
    return LogConnection(conn.m, conn.gens, conn.divisor, tuple(comps), exact=conn.exact)


def _series_parts(conn: LogConnection):
    """A and the stacked (D, m, m) coefficients tau_0, tau_1, ... of a one-variable
    system A dx/x + tau(x) dx.

    Entries are reduced with a monic denominator, so the form holds iff every
    denominator is 1 or x; the coefficients are then read off the numerators.
    """
    import numpy as np

    if conn.n != 1 or len(conn.divisor) != 1 or conn.divisor[0][1]:
        raise ValueError("normalization needs a one-variable system with single branch x = 0")
    m = conn.m
    laurent = {}  # (k, i, j) -> coefficient of x^(k - 1) in entry (i, j)
    for i, j in product(range(m), repeat=2):
        f = conn.entry(0, i, j)
        if not f.den.is_monomial or f.den.degree() > 1:
            raise ValueError(
                "connection is not of the form A dx/x + tau(x) dx with polynomial tau"
            )
        for (e,), c in complex_terms(f.num).items():
            laurent[e + 1 - f.den.degree(), i, j] = c
    L = np.zeros((max([1, *(k for k, _, _ in laurent)]) + 1, m, m), dtype=complex)
    for index, c in laurent.items():
        L[index] = c
    return L[0], L[1:]


def poincare_normalize(C, order: int = 10, tol: float = 1e-8) -> GaugeSeries:
    """Gauge series trivializing the holomorphic part of a one-variable system.

    For omega = A dx/x + tau(x) dx with nonresonant A, solves the Sylvester
    recursion A G_k - G_k (A + k I) = -[x^{k-1}](tau(x) G(x)) for k = 1..order,
    so that the gauge transform of the connection is A dx/x + O(x^order).  The
    spectrum of A and the Kronecker operator are formed once
    (``algebra.shifted_sylvester_solver``), and each order's right-hand side is
    one contraction of the stacked tau_d with G_{k-1}, ..., G_0.
    """
    import numpy as np

    from . import algebra

    if order < 0:
        raise ValueError("order must be >= 0")
    A, taus = _series_parts(C.to_log_connection())
    if not algebra.nonresonant(A):
        raise ResonantResidue(
            "residue has an eigenvalue pair differing by a positive integer"
        )
    m = A.shape[0]
    solve = algebra.shifted_sylvester_solver(A)
    G = np.zeros((order + 1, m, m), dtype=complex)
    G[0] = np.eye(m)
    for k in range(1, order + 1):
        d = min(len(taus), k)  # [x^{k-1}](tau G) = sum_{j<d} tau_j G_{k-1-j}
        rhs = np.einsum("jab,jbc->ac", taus[:d], G[k - 1::-1][:d])
        try:  # the order-k test scales by spec(A) + k: it may refuse what nonresonant passed
            G[k] = solve(k, -rhs)
        except ResonantSpectrum as exc:
            raise ResonantResidue(f"order {k}: residue has an eigenvalue pair differing "
                                  f"by {k} within tolerance") from exc
    gauge = GaugeSeries(G)
    defect = _defect(A, taus, G)
    if defect > tol:
        raise ToleranceNotMet(f"normalization defect {defect:.3e} above {tol:.1e}")
    return gauge


def poincare_defect(C, gauge: GaugeSeries) -> float:
    """Max norm of the series coefficients x^0..x^{N-1} of G^{-1}(omega G - dG) - A dx/x.

    Zero (to rounding) certifies the gauge reduces the system to its local
    model through the truncation order.
    """
    import numpy as np

    return _defect(*_series_parts(C.to_log_connection()), np.array(gauge.coefficients))


def _defect(A, taus, G) -> float:
    """``poincare_defect`` of the stacked gauge coefficients G_0..G_N, by recursion
    over orders: every array holds at most N + 1 coefficients, so memory is O(N m^2)."""
    import numpy as np

    N = len(G) - 1
    # [x^k](tau G) for k = 0..N-1, one shifted product per coefficient of tau
    tau_G = np.zeros_like(G[1:])
    for d, tau in enumerate(taus[:N]):
        tau_G[d:] += tau @ G[:N - d]
    # Laurent coefficients of P = (A/x + tau) G - G', shifted by one: P[0] = A G_0 and
    # P[k + 1] = (A - (k + 1)) G_{k+1} + [x^k](tau G), for k = 0..N-1, which is all
    # that W~ = G^{-1} P needs through x^{N-1}
    k = np.arange(1, N + 1)[:, None, None]
    P = np.concatenate([A @ G[:1], A @ G[1:] - k * G[1:] + tau_G])
    # W~ from G W~ = P, one order at a time: G_0 W_n = P_n - sum_{j=1..n} G_j W_(n-j),
    # the sum one product of [G_1 ... G_n] with W_(n-1), ..., W_0 stacked, which the
    # reversed stack R (W_n at R[N - n]) holds contiguously
    m = A.shape[0]
    rows = G[1:].transpose(1, 0, 2).reshape(m, N * m)
    R = np.empty_like(P)
    G0inv = np.linalg.inv(G[0])
    for n in range(N + 1):
        R[N - n] = G0inv @ (P[n] - rows[:, :n * m] @ R[N - n + 1:].reshape(n * m, m))
    # its x^{-1} coefficient must be A, x^0..x^{N-1} must vanish
    W = R[::-1]
    W[0] -= A
    return float(np.max(np.linalg.norm(W, axis=(1, 2))))

"""Dense complex linear algebra kernels.

Thin, contract-enforcing wrappers over LAPACK via numpy: a spectrum-guarded
Sylvester solver (general, and shifted for a recursion over orders k), the two
spectral predicates (nonresonance, eigenvalue separation), a commutation test,
the common eigenbasis of a commuting family and projective classes of matrices.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    NonDiagonalizableFamily,
    ResonantSpectrum,
    SingularMatrix,
)

__all__ = [
    "as_matrix",
    "sylvester_solve",
    "shifted_sylvester_solver",
    "nonresonant",
    "property_Pm",
    "commuting",
    "simultaneous_eigenbasis",
    "eigenbasis_up_to_rounding",
    "ProjectiveClass",
    "proj_equal",
]

TWO_PI = 2.0 * np.pi


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def _invertible_det(A, message: str):
    """det A, or ``SingularMatrix(message)`` when |det A| < (1e-10 max |A_ij|)^m: the
    test is scale-invariant, since det is homogeneous of degree m."""
    det = np.linalg.det(A)
    scale = np.max(np.abs(A))
    if scale == 0.0 or abs(det) < (1e-10 * scale) ** A.shape[0]:
        raise SingularMatrix(message)
    return det


_DISJOINT_TOL = 1e-9  # relative separation of two spectra for a Sylvester solve


def _require_disjoint(ea, eb, tol: float) -> None:
    """Raise ``ResonantSpectrum`` unless the spectra ea and eb (lists of complex numbers)
    are disjoint within tol, relative to the largest eigenvalue magnitude (at least 1).
    Plain Python: for the few eigenvalues of a small matrix, numpy's per-call cost would
    dominate."""
    scale = max(1.0, *map(abs, ea), *map(abs, eb))
    if not min(abs(a - b) for a in ea for b in eb) > tol * scale:
        raise ResonantSpectrum("spec(A) and spec(B) intersect within tolerance")


def _sylvester_operator(A, B) -> np.ndarray:
    """The matrix of X -> A X - X B on column-major vec X, I (x) A - B^T (x) I: its
    entry ((j, a), (l, b)) is [j = l] A_ab - B_lj [a = b], built by broadcasting (a
    quarter of the time of two ``np.kron`` calls at m = 3)."""
    m = A.shape[0]
    eye = np.eye(m)
    K = eye[:, None, :, None] * A[None, :, None, :] - B.T[:, None, :, None] * eye[None, :, None, :]
    return K.reshape(m * m, m * m)


def _vec_solve(K, C) -> np.ndarray:
    """X with K vec X = vec C, vec column-major."""
    return np.linalg.solve(K, C.ravel(order="F")).reshape(C.shape, order="F")


def sylvester_solve(A, B, C, tol: float = _DISJOINT_TOL) -> np.ndarray:
    """Solve A X - X B = C; requires spec(A) and spec(B) disjoint within tol.

    Solved in Kronecker form, (I (x) A - B^T (x) I) vec X = vec C with column-major
    vec, by one dense solve of size m^2: O(m^6) work, which is small for the ranks
    this package meets (m <= 4 in its corpus and benchmark).
    """
    A = as_matrix(A)
    B = as_matrix(B)
    C = np.asarray(C, dtype=complex)
    if A.shape[0] != B.shape[0]:
        raise DimensionMismatch("Sylvester operands must have equal size")
    if C.shape != A.shape:
        raise DimensionMismatch("right-hand side shape mismatch")
    _require_disjoint(np.linalg.eigvals(A).tolist(), np.linalg.eigvals(B).tolist(), tol)
    return _vec_solve(_sylvester_operator(A, B), C)


def shifted_sylvester_solver(A):
    """(k, C) -> X with A X - X (A + k I) = C: ``sylvester_solve`` for the Poincare
    recursion, which solves one such equation per order k.

    spec(A) and the operator K_0 of X -> A X - X A are computed once, since
    spec(A + k I) = spec(A) + k and the operator at order k is K_0 - k I.  Each
    call checks the disjointness ``sylvester_solve`` checks at its default
    tol, with the same ``ResonantSpectrum`` when it fails.
    """
    A = as_matrix(A)
    spec = np.linalg.eigvals(A).tolist()
    K0 = _sylvester_operator(A, A)
    eye = np.eye(K0.shape[0])

    def solve(k, C):
        _require_disjoint(spec, [e + k for e in spec], _DISJOINT_TOL)
        return _vec_solve(K0 - k * eye, np.asarray(C, dtype=complex))
    return solve


def nonresonant(A, tol: float = 1e-9) -> bool:
    """True iff no eigenvalue difference lies within tol of a positive integer.

    The positive integer nearest to a difference d is max(1, round(Re d)), so
    one comparison per ordered pair decides.
    """
    eig = np.linalg.eigvals(as_matrix(A))
    scale = max(np.max(np.abs(eig)), 1.0)
    d = (eig[:, None] - eig[None, :])[~np.eye(len(eig), dtype=bool)]
    k = np.maximum(1.0, np.round(d.real))
    return not np.any(np.abs(d - k) < tol * scale)


def property_Pm(M, m: int | None = None, tol: float = 1e-9) -> bool:
    """Eigenvalue separation predicate on PGL classes.

    True iff for any pair of eigenvalues of a (hence any) lift,
    lambda_1^m = lambda_2^m implies lambda_1 = lambda_2.
    """
    A = as_matrix(M)
    if m is None:
        m = A.shape[0]
    _invertible_det(A, "predicate defined on invertible classes only")
    eig = np.linalg.eigvals(A)
    for i in range(len(eig)):
        for j in range(i + 1, len(eig)):
            s = max(abs(eig[i]), abs(eig[j]))
            powers_equal = abs(eig[i] ** m - eig[j] ** m) < tol * s ** m
            values_equal = abs(eig[i] - eig[j]) < tol * s
            if powers_equal and not values_equal:
                return False
    return True


def commuting(family, tol: float = 1e-10) -> bool:
    """True iff every pair in the family commutes to relative tolerance."""
    mats = [as_matrix(M) for M in family]
    if len({M.shape for M in mats}) > 1:
        raise DimensionMismatch("family members have different dimensions")
    for i, Mi in enumerate(mats):
        for Mj in mats[i + 1:]:
            bound = tol * max(np.linalg.norm(Mi), 1e-300) * max(np.linalg.norm(Mj), 1e-300)
            if np.linalg.norm(Mi @ Mj - Mj @ Mi) > bound:
                return False
    return True


ATTEMPTS = 8  # combinations tried for a common eigenbasis
# the pairs (frac(n g), frac(n s)), n = 1, 2, ..., with these g and s are equidistributed
# in the unit square (Weyl: 1, g and s are independent over the rationals), so the
# coefficients they give serve as generic ones, and no two of them are equal
_GOLDEN, _SILVER = (5.0 ** 0.5 - 1.0) / 2.0, 2.0 ** 0.5 - 1.0


def _combination(attempt: int, k: int) -> np.ndarray:
    """The k coefficients of combination ``attempt`` of a family of k matrices,
    exp(2 pi i frac(n g)) (1 + frac(n s)) for n = attempt k + j + 1, j < k."""
    n = attempt * k + np.arange(1, k + 1)
    return np.exp(1j * TWO_PI * (n * _GOLDEN % 1.0)) * (1.0 + n * _SILVER % 1.0)


def simultaneous_eigenbasis(mats, bound, max_cond: float, first=None):
    """Common eigenvector basis V of a commuting diagonalizable family, with V^-1 and
    the diagonal of V^-1 M V for each M, as rows.

    The candidates are ``first``, when given (an eigenbasis the family is known to have
    been built in), then the eigenbases of ``ATTEMPTS`` fixed generic combinations of
    the family (Bunse-Gerstner, Byers and Mehrmann, SIAM J. Matrix Anal. Appl. 14,
    1993): the same V for the same family on every call.  V is the first accepted:
    cond(V) <= ``max_cond`` and every V^-1 M V off its diagonal by at most
    bound(cond(V)) max(||M||_F, 1) in Frobenius norm.  When none is,
    ``NonDiagonalizableFamily``.
    """
    mats = np.asarray(mats, dtype=complex)
    combined = (np.linalg.eig(np.tensordot(_combination(a, len(mats)), mats, 1))[1]
                for a in range(ATTEMPTS))
    for V in chain([] if first is None else [first], combined):
        kappa = np.linalg.cond(V)
        if not kappa <= max_cond:
            continue
        Vinv = np.linalg.inv(V)
        D = Vinv @ mats @ V
        diagonals = np.diagonal(D, axis1=1, axis2=2)
        off = np.linalg.norm(D - diagonals[:, :, None] * np.eye(len(V)), axis=(1, 2))
        if np.all(off <= bound(kappa) * np.maximum(np.linalg.norm(mats, axis=(1, 2)), 1.0)):
            return V, Vinv, diagonals
    raise NonDiagonalizableFamily(
        "commuting matrices are not simultaneously diagonalizable within tolerance"
    )


# the largest cond(V) of an eigenbasis V that a search accepts: a common eigenbasis of
# lifts, or of residues up to rounding
BASIS_COND = 1e8
# the largest cond(V) of an eigenbasis V that transport's closed forms compute with:
# rounding in V, V^-1 and the products with them costs about cond(V) ulps
EIGENBASIS_COND = 1e4
UNIT_ROUNDOFF = 2.0 ** -53
# V^-1 A V of a residue A diagonal in the exact basis V is off its diagonal by rounding
# alone.  To first order, the rounded entries of A move it by u cond(V) ||A||, and each
# of the four rounded steps after them (the backward-stable eigenvectors, the LU
# inverse and the two products) by at most m u cond(V) ||A||: (4m + 1) u cond(V) ||A||
# in 2-norm, 17 of it at the ranks m <= 4 this package meets, and at most sqrt(m) <= 2
# times that, 34, in Frobenius norm.  A combination whose eigenvalue gap is
# narrower than the family's spreads the eigenvector error further, which the factor
# to the next power of two absorbs.  Measured on the 1920 realized systems of
# ``monodromy_lift`` seeds 0-39 (perfbench): the lifts' eigenbasis, which each tries
# first and accepts, spends a median 0.84 of these ulps and at most 3.8; searched with
# no basis given, the first accepted combination a median 2.1 and at most 54.
ROUNDING_ULPS = 64


def eigenbasis_up_to_rounding(mats, first=None):
    """(V, V^-1, the diagonals d_i of V^-1 M_i V as rows, cond(V)) when the family is
    diagonal in one eigenbasis V up to rounding, ``ROUNDING_ULPS`` cond(V) u, with
    cond(V) <= ``BASIS_COND``; None when it is not.  ``first`` is tried first, as in
    ``simultaneous_eigenbasis``."""
    try:
        V, Vinv, diagonals = simultaneous_eigenbasis(
            mats, lambda kappa: ROUNDING_ULPS * kappa * UNIT_ROUNDOFF, BASIS_COND, first)
    except NonDiagonalizableFamily:
        return None
    return V, Vinv, diagonals, np.linalg.cond(V)


class ProjectiveClass:
    """A GL matrix modulo nonzero scalars, with a canonical representative.

    The canonical form has determinant 1 and the first nonzero entry in
    row-major order has argument in [0, 2*pi/m); this fixes the m-th root of
    unity ambiguity deterministically.
    """

    def __init__(self, rep):
        A = as_matrix(rep)
        m = A.shape[0]
        det = _invertible_det(A, "projective classes need invertible representatives")
        self.rep = A
        self.m = m
        M1 = A * det ** (-1.0 / m)
        flat = M1.ravel()
        lead = flat[np.argmax(np.abs(flat) > 1e-12 * np.max(np.abs(flat)))]
        theta = np.angle(lead) % TWO_PI
        sector = TWO_PI / m
        k = int(theta // sector) % m
        self.canonical = M1 * np.exp(-1j * sector * k)

    def power(self, nu: int) -> "ProjectiveClass":
        return ProjectiveClass(np.linalg.matrix_power(self.canonical, nu))

    def __repr__(self):
        return f"ProjectiveClass({np.array2string(self.canonical, precision=4)})"


def proj_equal(a, b, tol: float = 1e-9) -> bool:
    """Scalar-equivalence of representatives via the least-squares scalar."""
    A = a.rep if isinstance(a, ProjectiveClass) else as_matrix(a)
    B = b.rep if isinstance(b, ProjectiveClass) else as_matrix(b)
    if A.shape != B.shape:
        raise DimensionMismatch("projective classes of different rank")
    lam = np.vdot(B, A) / np.vdot(B, B)
    return np.linalg.norm(A - lam * B) < tol * max(np.linalg.norm(A), 1e-300)

"""Lifting pipeline for projective tuples and presentations.

Commuting PGL tuples are lifted to SL with their commutator obstruction
scalars (roots of unity); local models realizing them are built from
branch-normalized logarithms; the lifting exponent is the lcm of the orders
of finite-order eigenvalue ratios, and raising generators to that power
kills the obstruction.  The realizations check themselves in closed form:
their residues commute, so the loop around a branch has monodromy
exp(2 pi i A_j), and nothing here transports.  Only the two realizations
build systems, so only they import ``connections``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from . import algebra
from .algebra import TWO_PI, ProjectiveClass, proj_equal, property_Pm
from .errors import (
    DimensionMismatch,
    NonAbelianUnsupported,
    NonDiagonalizableFamily,
    NotProjectivelyCommuting,
    OrderOverflow,
)

__all__ = [
    "ProjectivePresentation",
    "LiftReport",
    "lift_commuting",
    "local_realize",
    "lifting_exponent",
    "verify_lift_after_power",
    "realize_fuchsian",
]


@dataclass(frozen=True)
class LiftReport:
    """SL lifts of a tuple/presentation with per-relation obstruction scalars."""

    lifts: tuple
    obstruction_scalars: tuple
    success: bool


class ProjectivePresentation:
    """Named PGL generators with optional relation words (and optional poles).

    Relation words are lists of tokens ``"g"`` or ``"g^-1"``; every word must
    evaluate to the identity class, which is validated at construction.
    """

    def __init__(self, m, generators, relations=(), poles=None, tol: float = 1e-9):
        self.m = int(m)
        self.names = tuple(generators.keys())
        self.generators = {
            name: g if isinstance(g, ProjectiveClass) else ProjectiveClass(g)
            for name, g in generators.items()
        }
        for name, g in self.generators.items():
            if g.m != self.m:
                raise DimensionMismatch(f"generator {name} has wrong rank")
        self.relations = tuple(tuple(word) for word in relations)
        self.poles = tuple(poles) if poles is not None else None
        for word in self.relations:
            val = self._evaluate_word(word, {n: g.canonical for n, g in self.generators.items()})
            if not proj_equal(val, np.eye(self.m), tol):
                raise ValueError(f"relation {word} does not hold projectively")

    def _evaluate_word(self, word, table):
        out = np.eye(self.m, dtype=complex)
        for token in word:
            if token.endswith("^-1"):
                M = np.linalg.inv(table[token[:-3]])
            else:
                M = table[token]
            out = out @ M
        return out

    def generator_list(self):
        return [self.generators[n] for n in self.names]

    def powered(self, nu: int) -> "ProjectivePresentation":
        """The presentation with every generator raised to its nu-th power, nu >= 1."""
        if nu < 1:
            raise ValueError("nu must be >= 1")
        if nu == 1:
            return self
        gens = {n: g.power(nu) for n, g in self.generators.items()}
        return ProjectivePresentation(self.m, gens, self.relations, poles=self.poles)


def _scalar_of(K, tol: float):
    """lambda with K = lambda I within tol (relative to |K|); None if K is not scalar."""
    m = K.shape[0]
    lam = np.trace(K) / m
    if np.linalg.norm(K - lam * np.eye(m)) > tol * max(np.linalg.norm(K), 1.0):
        return None
    return lam


def _commutator_scalar(N1, N2, tol: float = 1e-8):
    """Scalar lambda with N1 N2 N1^{-1} = lambda N2; None if not scalar."""
    return _scalar_of(N1 @ N2 @ np.linalg.inv(N1) @ np.linalg.inv(N2), tol)


def lift_commuting(tuple_of_classes, tol: float = 1e-8) -> LiftReport:
    """Lift a projectively-commuting tuple to SL and collect commutator scalars.

    Each scalar satisfies lambda^m = 1; success means every scalar is 1.  When
    every element satisfies the eigenvalue-separation predicate, success is
    guaranteed.
    """
    classes = [
        g if isinstance(g, ProjectiveClass) else ProjectiveClass(g)
        for g in tuple_of_classes
    ]
    if not classes:
        return LiftReport(lifts=(), obstruction_scalars=(), success=True)
    m = classes[0].m
    lifts = [g.canonical for g in classes]
    scalars = []
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            lam = _commutator_scalar(lifts[i], lifts[j], tol)
            if lam is None:
                raise NotProjectivelyCommuting(
                    f"generators {i} and {j} have a nontrivial projective commutator"
                )
            if abs(lam ** m - 1.0) > tol:
                raise NotProjectivelyCommuting(
                    f"commutator scalar of pair ({i},{j}) is not an m-th root of unity"
                )
            scalars.append(lam)
    success = all(abs(lam - 1.0) < tol for lam in scalars)
    if not success and all(property_Pm(g.canonical, m) for g in classes):
        raise AssertionError(
            "eigenvalue-separation predicate holds but a commutator scalar is "
            "nontrivial; numerical inconsistency"
        )
    return LiftReport(lifts=tuple(lifts), obstruction_scalars=tuple(scalars),
                      success=success)


def _simultaneous_eigenbasis(mats, tol: float = 1e-8, attempts: int = 8):
    """Common eigenvector basis of a commuting diagonalizable family."""
    m = mats[0].shape[0]
    rng = np.random.default_rng(7)
    for _ in range(attempts):
        coeffs = rng.normal(size=len(mats)) + 1j * rng.normal(size=len(mats))
        combo = sum(c * M for c, M in zip(coeffs, mats))
        w, V = np.linalg.eig(combo)
        if np.linalg.cond(V) > 1e8:
            continue
        Vinv = np.linalg.inv(V)
        ok = True
        for M in mats:
            D = Vinv @ M @ V
            off = D - np.diag(np.diag(D))
            if np.linalg.norm(off) > tol * max(np.linalg.norm(D), 1.0):
                ok = False
                break
        if ok:
            return V
    raise NonDiagonalizableFamily(
        "commuting lifts are not simultaneously diagonalizable within tolerance"
    )


def _log_in_basis(N, V, Vinv):
    """Branch-normalized log computed eigenvalue-wise in the common basis.

    N must be diagonal in V, so a non-diagonalizable class has no logarithm
    here; that would need the general one, through the Jordan structure."""
    D = np.diag(Vinv @ N @ V)
    mus = np.log(np.abs(D)) / (2j * np.pi) + (np.mod(np.angle(D), TWO_PI)) / TWO_PI
    return V @ np.diag(mus) @ Vinv


def _realizing_residues(classes, error):
    """Residues whose exponentials are commuting SL lifts of the classes, with the
    common eigenbasis V and its inverse.

    Lifts the classes, then takes branch-normalized logs in V.  A nontrivial
    obstruction scalar, or a pair of classes that does not commute projectively,
    raises ``error``.
    """
    try:
        report = lift_commuting(classes)
    except NotProjectivelyCommuting as exc:
        raise error(str(exc)) from exc
    if not report.success:
        raise error("linear lifts do not commute (nontrivial obstruction scalar)")
    lifts = [np.asarray(M) for M in report.lifts]
    V = _simultaneous_eigenbasis(lifts)
    Vinv = np.linalg.inv(V)
    return [_log_in_basis(N, V, Vinv) for N in lifts], V, Vinv


def _closed_form_monodromy(system, V, Vinv, classes, tol: float, error):
    """The loop matrices exp(2 pi i A_j) of the residues A_j read back from ``system``,
    each checked against class j of ``classes``.

    Every V^-1 A_j V must be diagonal within ``tol`` relative to its norm, so the A_j
    commute.  Then Y(x) = prod_i (x - p_i)^{A_i} (prod_i x_i^{A_i} for a local model) is
    a fundamental solution, and the loop once around the j-th branch multiplies it by
    exp(2 pi i A_j) = V diag(exp(2 pi i d_j)) V^-1, exactly (Deligne, Equations
    differentielles a points singuliers reguliers, LNM 163).  A residue off the common
    basis, or an exponential off its class within ``tol``, raises ``error``.
    """
    mats = []
    for j, g in enumerate(classes):
        D = Vinv @ system.residue_array(j) @ V
        d = np.diag(D)
        if np.linalg.norm(D - np.diag(d)) > tol * max(np.linalg.norm(D), 1.0):
            raise error(f"residue {j} is not diagonal in the common eigenbasis")
        M = V @ np.diag(np.exp(TWO_PI * 1j * d)) @ Vinv
        target = g if isinstance(g, ProjectiveClass) else ProjectiveClass(g)
        if not proj_equal(M, target.canonical, tol):
            raise error(f"monodromy {j} of the realization does not reproduce its class")
        mats.append(M)
    return mats


def local_realize(tuple_of_classes, tol: float = 1e-7) -> LocalModel:
    """Local model whose coordinate-circle monodromies are the given classes.

    Its residues commute, so circle j has monodromy exp(2 pi i A_j), which is
    compared with class j in closed form (``_closed_form_monodromy``); a mismatch
    raises ``NonDiagonalizableFamily``.
    """
    from .connections import LocalModel

    if len(tuple_of_classes) == 0:
        raise ValueError("a local model needs at least one generator")
    residues, V, Vinv = _realizing_residues(tuple_of_classes, NotProjectivelyCommuting)
    model = LocalModel(residues[0].shape[0], residues)
    _closed_form_monodromy(model, V, Vinv, tuple_of_classes, tol, NonDiagonalizableFamily)
    return model


def lifting_exponent(lifts, k_max: int = 360, tol: float = 1e-9) -> int:
    """lcm of the orders of finite-order eigenvalue ratios across the lifts."""
    orders = set()
    for M in lifts:
        A = algebra.as_matrix(M)
        eig = np.linalg.eigvals(A)
        for i in range(len(eig)):
            for j in range(len(eig)):
                if i == j:
                    continue
                r = eig[i] / eig[j]
                if abs(abs(r) - 1.0) > tol:
                    continue  # off the unit circle: infinite order, not collected
                theta = np.angle(r) / TWO_PI
                for k in range(1, k_max + 1):
                    if abs(k * theta - round(k * theta)) < tol * max(1, k):
                        orders.add(k)
                        break
                else:
                    raise OrderOverflow(
                        f"eigenvalue ratio looks like a root of unity of order > {k_max}"
                    )
    return lcm(*orders) if orders else 1


def verify_lift_after_power(P: ProjectivePresentation, nu: int,
                            tol: float = 1e-8) -> LiftReport:
    """Replace generators by their nu-th powers, re-lift, re-evaluate relations.

    Models the ramified-cover pullback group-theoretically: simple loops of the
    cover map to nu-th powers of the original simple loops.
    """
    powered = P.powered(nu)
    lifts = {name: g.canonical for name, g in powered.generators.items()}
    scalars = []
    for word in powered.relations:
        lam = _scalar_of(powered._evaluate_word(word, lifts), tol)
        if lam is None:
            raise NotProjectivelyCommuting(
                "relation word does not evaluate to a scalar matrix in the lifts"
            )
        scalars.append(lam)
    success = all(abs(lam - 1.0) < tol for lam in scalars)
    return LiftReport(
        lifts=tuple(lifts[name] for name in powered.names),
        obstruction_scalars=tuple(scalars),
        success=success,
    )


def realize_fuchsian(P: ProjectivePresentation, poles=None,
                     tol: float = 1e-7) -> FuchsianSystem:
    """Abelian desk-scale Riemann-Hilbert: commuting diagonalizable generators
    become residues (branch-normalized logs in a common basis) at the given poles.

    The residues commute, so the standard loop around pole j has monodromy
    exp(2 pi i A_j), which is compared with generator j in closed form
    (``_closed_form_monodromy``); a mismatch raises ``NonAbelianUnsupported``.
    """
    from .connections import FuchsianSystem

    if not P.names:
        raise ValueError("a Fuchsian realization needs at least one generator")
    if poles is None:
        poles = P.poles
    if poles is None or len(poles) != len(P.names):
        raise ValueError("one pole per generator required")
    classes = P.generator_list()
    residues, V, Vinv = _realizing_residues(classes, NonAbelianUnsupported)
    system = FuchsianSystem(P.m, poles, residues)
    _closed_form_monodromy(system, V, Vinv, classes, tol, NonAbelianUnsupported)
    return system

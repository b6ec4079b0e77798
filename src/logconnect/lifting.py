"""Lifting pipeline for projective tuples and presentations.

A representation lifts to SL when each obstruction scalar is 1: the lambda with
K = lambda I for the value K of a relation word in the canonical SL lifts, an
m-th root of unity.  ``_lift`` alone evaluates words and reads their scalars: a
presentation's relation words, or the commutator words of its generators when it
has none.  The simple loops of a degree-nu pull-back map to nu-th powers, so
``verify_lift_after_power`` lifts the nu-th powers of the generators, and the
lifting exponent is the least nu in 1..m whose lifts make every word scalar 1;
for commutators nu = m always does, since lambda^m = 1 and the powers' scalar is
lambda^(nu^2).  Local models realizing commuting classes are built from
branch-normalized logarithms.  The realizations check
themselves in closed form: their residues commute, so the loop around a branch
has monodromy exp(2 pi i A_j), and nothing here transports.  Only the two
realizations build systems, so only they import ``connections``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import (
    TWO_PI,
    ProjectiveClass,
    proj_equal,
    property_Pm,
    simultaneous_eigenbasis,
)
from .errors import (
    DimensionMismatch,
    NonAbelianUnsupported,
    NonDiagonalizableFamily,
    NotProjectivelyCommuting,
    ToleranceNotMet,
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

TOL = 1e-8  # relative: a word is scalar, its lambda^m = 1 and lambda = 1; the common eigenbasis
RELATION_TOL = 1e-9  # relative: a presentation's relation words hold projectively
REALIZE_TOL = 1e-7  # relative: a realization's exp(2 pi i A_j) reproduces class j
BASIS_COND = 1e8  # the largest cond(V) accepted for the lifts' common eigenbasis


@dataclass(frozen=True)
class LiftReport:
    """SL lifts of a tuple/presentation with per-relation obstruction scalars."""

    lifts: tuple
    obstruction_scalars: tuple
    success: bool


def _classes(named):
    """name -> ProjectiveClass of a dict of classes or GL representatives."""
    return {n: g if isinstance(g, ProjectiveClass) else ProjectiveClass(g)
            for n, g in named.items()}


def _evaluate(word, table, m):
    """The product of the word's tokens, ``"g"`` or ``"g^-1"``, read from ``table``."""
    out = np.eye(m, dtype=complex)
    for token in word:
        out = out @ (np.linalg.inv(table[token[:-3]]) if token.endswith("^-1")
                     else table[token])
    return out


class ProjectivePresentation:
    """Named PGL generators with optional relation words (and optional poles).

    Relation words are lists of tokens ``"g"`` or ``"g^-1"``; every word must
    evaluate to the identity class, which is validated at construction.
    """

    def __init__(self, m, generators, relations=(), poles=None):
        self.m = int(m)
        self.names = tuple(generators.keys())
        self.generators = _classes(generators)
        for name, g in self.generators.items():
            if g.m != self.m:
                raise DimensionMismatch(f"generator {name} has wrong rank")
        self.relations = tuple(tuple(word) for word in relations)
        self.poles = tuple(poles) if poles is not None else None
        table = {n: g.canonical for n, g in self.generators.items()}
        for word in self.relations:
            if not proj_equal(_evaluate(word, table, self.m), np.eye(self.m), RELATION_TOL):
                raise ValueError(f"relation {word} does not hold projectively")

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


def _lift(classes, words) -> LiftReport:
    """The canonical SL lifts of ``classes`` (name -> ProjectiveClass), with the scalar
    lambda = tr K / m of each word's value K in them.

    K must be lambda I and lambda an m-th root of unity within ``TOL``, else
    ``NotProjectivelyCommuting``; success means every lambda is 1 within ``TOL``.
    """
    table = {n: g.canonical for n, g in classes.items()}
    m = next(iter(classes.values())).m if classes else 1  # no generators: empty words
    scalars = []
    for word in words:
        K = _evaluate(word, table, m)
        if not proj_equal(K, np.eye(m), TOL):
            raise NotProjectivelyCommuting(
                f"word {' '.join(word)} does not evaluate to a scalar matrix in the lifts")
        lam = np.trace(K) / m
        if abs(lam ** m - 1.0) > TOL:
            raise NotProjectivelyCommuting(
                f"scalar of word {' '.join(word)} is not an m-th root of unity")
        scalars.append(lam)
    return LiftReport(lifts=tuple(table.values()), obstruction_scalars=tuple(scalars),
                      success=all(abs(lam - 1.0) < TOL for lam in scalars))


def lift_commuting(tuple_of_classes) -> LiftReport:
    """Lift a projectively-commuting tuple to SL with the scalars of the words
    g_i g_j g_i^-1 g_j^-1, i < j, each generator named by its index.

    When every element satisfies the eigenvalue-separation predicate, success is
    guaranteed; a nontrivial scalar then means that the predicate's tolerance and
    ``TOL`` disagree, which raises ``ToleranceNotMet``.
    """
    classes = _classes({str(i): g for i, g in enumerate(tuple_of_classes)})
    report = _lift(classes, [(str(i), str(j), f"{i}^-1", f"{j}^-1")
                             for i, j in combinations(range(len(classes)), 2)])
    if not report.success and all(property_Pm(N) for N in report.lifts):
        raise ToleranceNotMet(
            "eigenvalue-separation predicate holds but a commutator scalar is "
            f"nontrivial within {TOL:.0e}; the two tolerances disagree"
        )
    return report


def _diagonal(D, tol: float):
    """diag(D) if D is diagonal within tol relative to |D| (at least 1), else None."""
    d = np.diag(D)
    off = np.linalg.norm(D - np.diag(d))
    return d if off <= tol * max(np.linalg.norm(D), 1.0) else None


def _log_in_basis(d, V, Vinv):
    """Branch-normalized log of V diag(d) V^-1, computed eigenvalue-wise.

    Only a class diagonal in V has a logarithm here; a non-diagonalizable one
    would need the general one, through the Jordan structure."""
    mus = np.log(np.abs(d)) / (2j * np.pi) + (np.mod(np.angle(d), TWO_PI)) / TWO_PI
    return V @ np.diag(mus) @ Vinv


def _realizing_residues(classes, error):
    """Branch-normalized logs of the commuting SL lifts of the classes in their common
    eigenbasis V, with V, V^-1 and the lifts.  A nontrivial obstruction scalar, or a
    pair of classes that does not commute projectively, raises ``error``."""
    try:
        report = lift_commuting(classes)
    except NotProjectivelyCommuting as exc:
        raise error(str(exc)) from exc
    if not report.success:
        raise error("linear lifts do not commute (nontrivial obstruction scalar)")
    V, Vinv, diagonals = simultaneous_eigenbasis(report.lifts, lambda kappa: TOL,
                                                 BASIS_COND)
    return [_log_in_basis(d, V, Vinv) for d in diagonals], V, Vinv, report.lifts


def _closed_form_monodromy(system, V, Vinv, lifts, tol: float, error):
    """The loop matrices exp(2 pi i A_j) of the residues A_j read back from ``system``,
    each checked against lift j of ``lifts``.

    Every V^-1 A_j V must be diagonal within ``tol`` relative to its norm, so the A_j
    commute.  Then Y(x) = prod_i (x - p_i)^{A_i} (prod_i x_i^{A_i} for a local model) is
    a fundamental solution, and the loop once around the j-th branch multiplies it by
    exp(2 pi i A_j) = V diag(exp(2 pi i d_j)) V^-1, exactly (Deligne, Equations
    differentielles a points singuliers reguliers, LNM 163).  A residue off the common
    basis, or an exponential off its class within ``tol``, raises ``error``.
    """
    mats = []
    for j, N in enumerate(lifts):
        d = _diagonal(Vinv @ system.residue_array(j) @ V, tol)
        if d is None:
            raise error(f"residue {j} is not diagonal in the common eigenbasis")
        M = V @ np.diag(np.exp(TWO_PI * 1j * d)) @ Vinv
        if not proj_equal(M, N, tol):
            raise error(f"monodromy {j} of the realization does not reproduce its class")
        mats.append(M)
    return mats


def local_realize(tuple_of_classes) -> LocalModel:
    """Local model whose coordinate-circle monodromies are the given classes.

    Its residues commute, so circle j has monodromy exp(2 pi i A_j), which is
    compared with class j in closed form (``_closed_form_monodromy``) within
    ``REALIZE_TOL``; a mismatch raises ``NonDiagonalizableFamily``.
    """
    from .connections import LocalModel

    if len(tuple_of_classes) == 0:
        raise ValueError("a local model needs at least one generator")
    residues, V, Vinv, lifts = _realizing_residues(tuple_of_classes,
                                                   NotProjectivelyCommuting)
    model = LocalModel(residues[0].shape[0], residues)
    _closed_form_monodromy(model, V, Vinv, lifts, REALIZE_TOL, NonDiagonalizableFamily)
    return model


def verify_lift_after_power(P: ProjectivePresentation, nu: int) -> LiftReport:
    """Replace generators by their nu-th powers, re-lift, re-evaluate the relation
    words, or lift the powers with ``lift_commuting`` when ``P`` has no relations.

    Models the ramified-cover pullback group-theoretically: simple loops of the
    cover map to nu-th powers of the original simple loops.  A powered relation
    that does not hold projectively raises ``ValueError``.
    """
    powered = P.powered(nu)
    if not powered.relations:
        return lift_commuting(powered.generator_list())
    return _lift(powered.generators, powered.relations)


def lifting_exponent(P: ProjectivePresentation) -> int | None:
    """The least nu in 1..m for which ``verify_lift_after_power(P, nu)`` succeeds, or
    None when none does (only possible with relations).

    A nu whose powered relations do not hold projectively raises a ``ValueError``
    that names it.
    """
    for nu in range(1, P.m + 1):
        try:
            report = verify_lift_after_power(P, nu)
        except ValueError as exc:
            raise ValueError(f"at nu = {nu}: {exc}") from None
        if report.success:
            return nu
    return None


def realize_fuchsian(P: ProjectivePresentation, poles=None,
                     tol: float = REALIZE_TOL) -> FuchsianSystem:
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
    residues, V, Vinv, lifts = _realizing_residues(P.generator_list(), NonAbelianUnsupported)
    system = FuchsianSystem(P.m, poles, residues)
    _closed_form_monodromy(system, V, Vinv, lifts, tol, NonAbelianUnsupported)
    return system

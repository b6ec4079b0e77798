"""Lifting pipeline for projective tuples and presentations.

A representation lifts to SL when each obstruction scalar is 1: the lambda with
K = lambda I for the value K of a relation word in the canonical SL lifts, an
m-th root of unity.  A ``ProjectivePresentation`` owns its words, its relations and
the commutators of its generators, each named by its letters and evaluated once, and
every lifting verb reads their scalars through ``_lift``.  The simple loops of a
degree-nu pull-back map to nu-th powers, so ``verify_lift_after_power`` lifts the
nu-th powers of the generators, and the lifting exponent is the least nu in 1..m
whose lifts make every word scalar 1; for commutators nu = m always does, since
lambda^m = 1 and the powers' scalar is lambda^(nu^2).  Local models realizing
commuting classes are built from branch-normalized logarithms.  The realizations
check themselves in closed form, in the realized system's own residue eigenbasis:
their residues commute, so the loop around a branch has monodromy exp(2 pi i A_j),
the system's ``loop_matrix``, and nothing here transports.  Only the two
realizations build systems, so only they import ``connections``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import (
    BASIS_COND,
    TWO_PI,
    ProjectiveClass,
    proj_equal,
    property_Pm,
    simultaneous_eigenbasis,
)
from .errors import (
    DimensionMismatch,
    IndexedValueError,
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


@dataclass(frozen=True)
class LiftReport:
    """SL lifts of a tuple/presentation with the obstruction scalar of each word."""

    lifts: tuple
    obstruction_scalars: tuple
    success: bool


def _classes(named):
    """name -> ProjectiveClass of a dict of classes or GL representatives."""
    return {n: g if isinstance(g, ProjectiveClass) else ProjectiveClass(g)
            for n, g in named.items()}


def _spelled(word):
    """A word's tokens, space-separated: ``g`` for the letter (g, 1), ``g^-1`` for (g, -1)."""
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in word)


def _evaluate(word, table, m):
    """The product of the word's letters (g, +-1), each read from ``table`` or inverted."""
    out = np.eye(m, dtype=complex)
    for name, sign in word:
        out = out @ (table[name] if sign == 1 else np.linalg.inv(table[name]))
    return out


class ProjectivePresentation:
    """Named PGL generators with optional relation words (and optional poles).

    A relation word, tokens ``"g"`` or ``"g^-1"`` or letters (g, +-1), is read once into
    letters, and each word's value in the canonical lifts is evaluated once (``value``).
    A token naming no generator, or a relation that does not hold projectively, is an
    ``IndexedValueError`` whose second argument is the word's index.
    """

    def __init__(self, m, generators, relations=(), poles=None):
        self.m = int(m)
        self.names = tuple(generators.keys())
        self.generators = _classes(generators)
        for name, g in self.generators.items():
            if g.m != self.m:
                raise DimensionMismatch(f"generator {name} has wrong rank")
        self.lifts = tuple(g.canonical for g in self.generators.values())
        self.poles = tuple(poles) if poles is not None else None
        self._values = {}  # word -> its value in the lifts
        # token or letter -> letter; the token of an inverse wins over a generator's name
        letters = {key: (n, s) for s in (1, -1) for n in self.names
                   for key in ((n, s), _spelled([(n, s)]))}
        for i, word in enumerate(relations):
            if unknown := [t for t in word if t not in letters]:
                raise IndexedValueError(f"unknown generator token {unknown[0]!r}", i, "relation")
        self.relations = tuple(tuple(letters[t] for t in word) for word in relations)
        # a b a^-1 b^-1 for each pair of generators, a named before b
        self.commutators = tuple(((a, 1), (b, 1), (a, -1), (b, -1))
                                 for a, b in combinations(self.names, 2))
        self.words = self.relations or self.commutators  # the words that decide a lift
        for i, word in enumerate(self.relations):
            if not proj_equal(self.value(word), np.eye(self.m), RELATION_TOL):
                raise IndexedValueError(
                    f"relation {_spelled(word)} does not hold projectively", i, "relation")

    def value(self, word):
        """The word's value in the canonical lifts, evaluated on first use."""
        if word not in self._values:
            self._values[word] = _evaluate(word, dict(zip(self.names, self.lifts)), self.m)
        return self._values[word]

    def powered(self, nu: int) -> "ProjectivePresentation":
        """The presentation with every generator raised to its nu-th power, nu >= 1; a
        relation that no longer holds projectively is a ``ValueError`` naming nu."""
        if nu < 1:
            raise ValueError("nu must be >= 1")
        if nu == 1:
            return self
        gens = {n: g.power(nu) for n, g in self.generators.items()}
        try:
            return ProjectivePresentation(self.m, gens, self.relations, poles=self.poles)
        except ValueError as exc:
            raise ValueError(f"at nu = {nu}: {exc.args[0]}") from None


def _indexed(tuple_of_classes) -> ProjectivePresentation:
    """The presentation of a tuple of classes (or GL representatives), generator i named
    ``i``, with no relations."""
    classes = _classes({str(i): g for i, g in enumerate(tuple_of_classes)})
    return ProjectivePresentation(next(iter(classes.values())).m if classes else 1, classes)


def _lift(P: ProjectivePresentation, words) -> LiftReport:
    """The canonical SL lifts of ``P``'s generators, with the scalar lambda = tr K / m of
    the value K of each of ``words`` in them.

    K must be lambda I and lambda an m-th root of unity within ``TOL``, else
    ``NotProjectivelyCommuting``; success means every lambda is 1 within ``TOL``.  When
    the words are the commutators and every lift has eigenvalue separation, success is
    guaranteed; a nontrivial scalar then means that the predicate's tolerance and
    ``TOL`` disagree, which raises ``ToleranceNotMet``.
    """
    scalars = []
    for word in words:
        K = P.value(word)
        if not proj_equal(K, np.eye(P.m), TOL):
            raise NotProjectivelyCommuting(
                f"word {_spelled(word)} does not evaluate to a scalar matrix in the lifts")
        lam = np.trace(K) / P.m
        if abs(lam ** P.m - 1.0) > TOL:
            raise NotProjectivelyCommuting(
                f"scalar of word {_spelled(word)} is not an m-th root of unity")
        scalars.append(lam)
    success = all(abs(lam - 1.0) < TOL for lam in scalars)
    if not success and words == P.commutators and all(property_Pm(N) for N in P.lifts):
        raise ToleranceNotMet(
            "eigenvalue-separation predicate holds but a commutator scalar is "
            f"nontrivial within {TOL:.0e}; the two tolerances disagree"
        )
    return LiftReport(lifts=P.lifts, obstruction_scalars=tuple(scalars), success=success)


def lift_commuting(tuple_of_classes) -> LiftReport:
    """``_lift`` of a projectively-commuting tuple with the commutator words
    g_i g_j g_i^-1 g_j^-1, i < j, each generator named by its index."""
    P = _indexed(tuple_of_classes)
    return _lift(P, P.commutators)


def _log_in_basis(d, V, Vinv):
    """Branch-normalized log of V diag(d) V^-1, computed eigenvalue-wise.

    Only a class diagonal in V has a logarithm here; a non-diagonalizable one
    would need the general one, through the Jordan structure."""
    mus = np.log(np.abs(d)) / (2j * np.pi) + (np.mod(np.angle(d), TWO_PI)) / TWO_PI
    return V @ np.diag(mus) @ Vinv


def _realizing_residues(P: ProjectivePresentation, error):
    """Branch-normalized logs of the commuting SL lifts of ``P``'s generators in their
    common eigenbasis V, and V.  A nontrivial commutator scalar, or a pair of
    generators that does not commute projectively, raises ``error``."""
    try:
        report = _lift(P, P.commutators)
    except NotProjectivelyCommuting as exc:
        raise error(str(exc)) from exc
    if not report.success:
        raise error("linear lifts do not commute (nontrivial obstruction scalar)")
    V, Vinv, diagonals = simultaneous_eigenbasis(P.lifts, lambda kappa: TOL, BASIS_COND)
    return [_log_in_basis(d, V, Vinv) for d in diagonals], V


def _closed_form_monodromy(system, V, lifts, tol: float, error):
    """Check each loop matrix exp(2 pi i A_j) of the residues A_j read back from
    ``system`` against lift j of ``lifts``.

    The residues must share the eigenbasis ``system.residue_eigenbasis``, so they
    commute and the loop once around the j-th branch has the matrix
    ``system.loop_matrix`` of winding number 1 about branch j alone, exp(2 pi i A_j).
    Its search tries V, the lifts' eigenbasis that the residues were built in, first,
    so a realization that rounding leaves diagonal in V searches once.  Residues with no
    common eigenbasis, or an exponential off its class within ``tol``, raise ``error``.
    """
    object.__setattr__(system, "_built_in_basis", V)
    if system.residue_eigenbasis is None:
        raise error("the residues are not diagonal in one eigenbasis")
    for j, (windings, N) in enumerate(zip(np.eye(len(lifts)), lifts)):
        if not proj_equal(system.loop_matrix(windings), N, tol):
            raise error(f"monodromy {j} of the realization does not reproduce its class")


def local_realize(P) -> LocalModel:
    """Local model whose coordinate-circle monodromies are the generators of the
    presentation ``P``, or the classes of a tuple (``lift_commuting``'s naming).

    Its residues commute, so circle j has monodromy exp(2 pi i A_j), which is
    compared with generator j in closed form (``_closed_form_monodromy``) within
    ``REALIZE_TOL``; a mismatch raises ``NonDiagonalizableFamily``.
    """
    from .connections import LocalModel

    if not isinstance(P, ProjectivePresentation):
        P = _indexed(P)
    if not P.names:
        raise ValueError("a local model needs at least one generator")
    residues, V = _realizing_residues(P, NotProjectivelyCommuting)
    model = LocalModel(P.m, residues)
    _closed_form_monodromy(model, V, P.lifts, REALIZE_TOL, NonDiagonalizableFamily)
    return model


def verify_lift_after_power(P: ProjectivePresentation, nu: int) -> LiftReport:
    """``_lift`` of the generators' nu-th powers with the words of ``P.powered(nu)``.

    Models the ramified-cover pullback group-theoretically: simple loops of the
    cover map to nu-th powers of the original simple loops.  A powered relation
    that does not hold projectively raises ``ValueError``.
    """
    powered = P.powered(nu)
    return _lift(powered, powered.words)


def lifting_exponent(P: ProjectivePresentation) -> int | None:
    """The least nu in 1..m for which ``verify_lift_after_power(P, nu)`` succeeds, or
    None when none does (only possible with relations).

    A nu whose powered relations do not hold projectively raises a ``ValueError``
    that names it.
    """
    for nu in range(1, P.m + 1):
        if verify_lift_after_power(P, nu).success:
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
    residues, V = _realizing_residues(P, NonAbelianUnsupported)
    system = FuchsianSystem(P.m, poles, residues)
    _closed_form_monodromy(system, V, P.lifts, tol, NonAbelianUnsupported)
    return system

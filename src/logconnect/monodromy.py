"""Numerical parallel transport and monodromy of linear and projective systems.

Paths are piecewise lines and circular arcs in one chart variable; transport
solves dY = Omega(x) dx Y segment by segment with an adaptive embedded
Runge-Kutta pair (DOP853) and multiplies the segment matrices in path order.
A segment that the path later retraces (a lasso's outgoing spoke) is
integrated once from the identity, and within that transport call the
retrace (the return spoke) solves with its matrix S when S is well
conditioned.  Every other segment is integrated from the product so far, so
its error stays relative to the solution it carries.
Under path concatenation the loop -> matrix map is an antirepresentation:
T(alpha then beta) = T(beta) @ T(alpha).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .algebra import TWO_PI, ProjectiveClass, proj_equal
from .connections import FuchsianSystem, LocalModel, _as_connection
from .errors import (
    DegenerateConfiguration,
    PoleProximity,
    ToleranceNotMet,
)
from .projective import reconstruct, RiccatiSystem
from .ratfunc import RationalFunction, to_complex

__all__ = [
    "LineSegment",
    "ArcSegment",
    "LoopPath",
    "MonodromyRep",
    "standard_loops",
    "transport",
    "monodromy_rep",
    "projective_monodromy",
    "relation_check",
]


@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def point(self, t):
        return self.start + t * (self.end - self.start)

    def point_and_velocity(self, t):
        return self.point(t), self.end - self.start

    def reversed(self) -> "LineSegment":
        return LineSegment(self.end, self.start)


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    from_angle: float
    to_angle: float

    def point(self, t):
        return self.point_and_velocity(t)[0]

    def point_and_velocity(self, t):
        sweep = self.to_angle - self.from_angle
        z = self.radius * cmath.exp(1j * (self.from_angle + t * sweep))
        return self.center + z, 1j * sweep * z

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self.to_angle, self.from_angle)


class LoopPath:
    """Closed piecewise path in one chart variable, avoiding the polar divisor."""

    def __init__(self, segments, basepoint=None):
        self.segments = tuple(segments)
        if not self.segments:
            raise ValueError("a loop needs at least one segment")
        start = self.segments[0].point(0.0)
        end = self.segments[-1].point(1.0)
        if abs(start - end) > 1e-12:
            raise ValueError("path is not closed")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > 1e-12:
                raise ValueError("consecutive segments do not join")
        self.basepoint = complex(basepoint) if basepoint is not None else complex(start)

    def samples(self, per_segment: int = 64):
        ts = np.linspace(0.0, 1.0, per_segment)
        return np.concatenate([[s.point(t) for t in ts] for s in self.segments])

    def clearance(self, poles) -> float:
        pts = self.samples()
        return min(
            float(np.min(np.abs(pts - to_complex(p)))) for p in poles
        ) if len(list(poles)) else np.inf

    def reversed(self) -> "LoopPath":
        return LoopPath([s.reversed() for s in self.segments[::-1]], basepoint=self.basepoint)

    def refined(self, parts: int = 2) -> "LoopPath":
        """Split every segment into ``parts`` pieces (same trace, new discretization)."""
        out = []
        for s in self.segments:
            cuts = np.linspace(0.0, 1.0, parts + 1)
            for a, b in zip(cuts, cuts[1:]):
                if isinstance(s, LineSegment):
                    out.append(LineSegment(s.point(a), s.point(b)))
                else:
                    a0 = s.from_angle + a * (s.to_angle - s.from_angle)
                    a1 = s.from_angle + b * (s.to_angle - s.from_angle)
                    out.append(ArcSegment(s.center, s.radius, a0, a1))
        return LoopPath(out, basepoint=self.basepoint)


@dataclass(frozen=True)
class MonodromyRep:
    """Loop-indexed transport matrices (or projective classes).

    ``composition_convention`` records that concatenation alpha then beta
    maps to M(beta) @ M(alpha).
    """

    basepoint: complex
    loops: tuple
    names: tuple
    matrices: tuple
    composition_convention: str = "antirepresentation"
    infinity: object = None


def circle_loop(center, radius, basepoint=None) -> LoopPath:
    """Counterclockwise circle; starts at center + radius."""
    return LoopPath([ArcSegment(complex(center), float(radius), 0.0, TWO_PI)],
                    basepoint=basepoint)


def standard_loops(F: FuchsianSystem, basepoint=None, clearance=None):
    """One lasso per pole: spoke toward the pole, ccw circle, spoke back.

    Corridors are straight; a (near-)collinear pole/basepoint configuration is
    rejected rather than silently producing crossing corridors.
    """
    poles = [to_complex(p) for p in F.poles]
    defaulted = basepoint is None
    if defaulted:
        basepoint = 1.0 + max(abs(p) for p in poles)
    basepoint = complex(basepoint)
    if any(abs(basepoint - p) < 1e-9 for p in poles):
        raise ValueError("basepoint must be distinct from all poles")

    def corridor_degenerate(bp):
        for i, p in enumerate(poles):
            for j, q in enumerate(poles):
                if i == j:
                    continue
                d = p - bp
                t = np.real(np.conj(d) * (q - bp)) / abs(d) ** 2
                if 0.0 < t < 1.0 and abs((q - bp) - t * d) < 1e-12:
                    return True
        return False

    if corridor_degenerate(basepoint):
        if not defaulted:
            raise DegenerateConfiguration(
                "pole lies on another corridor; move the basepoint"
            )
        # deterministic perturbation of the default basepoint off the axis
        for k in range(1, 32):
            cand = basepoint * np.exp(0.07j * k)
            if not corridor_degenerate(cand) and all(
                abs(cand - p) > 1e-9 for p in poles
            ):
                basepoint = cand
                break
        else:  # pragma: no cover - 31 rotations always suffice for finitely many poles
            raise DegenerateConfiguration("could not find a non-degenerate basepoint")
    loops = []
    for i, p in enumerate(poles):
        nearest = min(
            [abs(p - q) for j, q in enumerate(poles) if j != i]
            + [abs(p - basepoint)]
        )
        r = nearest / 3.0
        if clearance is not None:
            r = min(r, clearance)
        direction = (p - basepoint) / abs(p - basepoint)
        entry = p - r * direction
        ang = float(np.angle(entry - p))
        loops.append(
            LoopPath(
                [
                    LineSegment(basepoint, entry),
                    ArcSegment(p, r, ang, ang + TWO_PI),
                    LineSegment(entry, basepoint),
                ],
                basepoint=basepoint,
            )
        )
    return loops


def _poles_of(C):
    if isinstance(C, FuchsianSystem):
        return [to_complex(p) for p in C.poles]
    if isinstance(C, LocalModel):
        return [0.0]
    conn = _as_connection(C)
    if conn.n != 1:
        return []
    return [to_complex(c) for _, c in conn.divisor]


def _omega_callable(C):
    """(x, dx) -> Omega(x) dx for a one-variable system (fast path for Fuchsian data)."""
    if isinstance(C, FuchsianSystem):
        m = C.m
        # the k residues stacked as rows, so sum_i A_i dx / (x - p_i) is one product
        stacked = np.array([C.residue_array(i) for i in range(C.k)]).reshape(C.k, m * m)
        poles = np.array(_poles_of(C), dtype=complex)
        return lambda x, dx: ((dx / (x - poles)) @ stacked).reshape(m, m)
    if isinstance(C, LocalModel):
        if C.k != 1:
            raise ValueError(
                "transport of a local model needs a one-dimensional slice; "
                "use a single-branch slice"
            )
        A = C.residue_array(0)
        return lambda x, dx: A * (dx / x)
    conn = _as_connection(C)
    if conn.n != 1:
        raise ValueError("transport is defined for one-variable charts")
    omega = conn.component_callable(0)
    return lambda x, dx: omega(x) * dx


# the largest cond(S) at which a retraced segment is solved with S, not integrated:
# the inverse carries S's relative error times cond(S), so this costs at most
# about two digits of the tolerance
WELL_CONDITIONED = 1e2


def _flow(omega, seg, Y0: np.ndarray, tol: float) -> np.ndarray:
    """Y(1) for dY = Omega(x) dx Y along one segment, from Y(0) = Y0."""
    m = Y0.shape[0]

    def rhs(t, y):
        return (omega(*seg.point_and_velocity(t)) @ y.reshape(m, m)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), Y0.ravel(), method="DOP853", rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise ToleranceNotMet(f"integrator failed on a segment: {sol.message}")
    return sol.y[:, -1].reshape(m, m)


def transport(C, path: LoopPath, tol: float = 1e-10) -> np.ndarray:
    """Fundamental-solution transport matrix along a path: Y(end) = T Y(start).

    Segments are integrated in path order, each from the product so far, except
    one that the path retraces later: its matrix S is integrated from the
    identity and multiplies the product (T = S @ T), and the retrace solves with
    S when cond(S) <= ``WELL_CONDITIONED`` and is integrated otherwise.  A
    solved retrace carries S's error times cond(S), so a path with one can miss
    ``tol`` by up to a factor ``WELL_CONDITIONED`` in relative error.  Nothing
    outlives the call.
    """
    conn_poles = _poles_of(C)
    if conn_poles:
        clr = path.clearance(conn_poles)
        if clr < 1e-12:
            raise PoleProximity("path passes within 1e-12 of the polar divisor")
    omega = _omega_callable(C)
    last = {seg: i for i, seg in enumerate(path.segments)}  # segment -> its last index
    identity = np.eye(C.m, dtype=complex)
    T, kept = identity, {}  # kept: segment -> S, for the segments the path retraces
    for i, seg in enumerate(path.segments):
        rev = seg.reversed()
        S = kept.pop(rev, None)
        if S is not None and np.linalg.cond(S) <= WELL_CONDITIONED:
            T = np.linalg.solve(S, T)
        elif S is None and last.get(rev, -1) > i:
            kept[seg] = _flow(omega, seg, identity, tol)
            T = kept[seg] @ T
        else:
            T = _flow(omega, seg, T, tol)
    return T


def _ordered_product(mats, m: int) -> np.ndarray:
    """M_k ... M_1 for mats = [M_1, ..., M_k]: the loop product in path order."""
    prod = np.eye(m, dtype=complex)
    for M in mats:
        prod = M @ prod
    return prod


def monodromy_rep(C, loops, tol: float = 1e-10) -> MonodromyRep:
    """Transport each loop; for Fuchsian systems also report the implied
    infinity matrix (inverse of the ordered product in the concatenation
    convention)."""
    loops = list(loops)
    mats = [transport(C, lp, tol) for lp in loops]
    infinity = None
    if isinstance(C, FuchsianSystem):
        infinity = np.linalg.inv(_ordered_product(mats, C.m))
    bp = loops[0].basepoint if loops else 0.0
    names = tuple(f"p{i}" for i in range(len(loops)))
    return MonodromyRep(basepoint=bp, loops=tuple(loops), names=names,
                        matrices=tuple(mats), infinity=infinity)


def projective_monodromy(C, loops, tol: float = 1e-10) -> MonodromyRep:
    """Projective classes of the linear transport; trace-choice independence is
    asserted when the input is a Riccati system."""
    loops = list(loops)
    riccati = isinstance(C, RiccatiSystem)
    rep = monodromy_rep(reconstruct(C, None) if riccati else C, loops, tol)
    if riccati:
        # a second, distinct trace: m * dx in the first chart variable
        other = tuple(
            RationalFunction.constant(C.m if v == 0 else 0, C.gens)
            for v in range(C.n)
        )
        lifted1 = reconstruct(C, other)
        for M0, lp in zip(rep.matrices, loops):
            if not proj_equal(M0, transport(lifted1, lp, tol), 1e-7):
                raise ToleranceNotMet(
                    "projective transport depends on the chosen trace beyond tolerance"
                )
    infinity = None if rep.infinity is None else ProjectiveClass(rep.infinity)
    return replace(rep, matrices=tuple(ProjectiveClass(M) for M in rep.matrices),
                   infinity=infinity)


def relation_check(rep: MonodromyRep, tol: float = 1e-7) -> bool:
    """Sphere relation: ordered loop product times the infinity matrix is trivial."""
    mats = list(rep.matrices)
    if not mats:
        return True
    if rep.infinity is not None:
        mats.append(rep.infinity)
    projective = isinstance(mats[0], ProjectiveClass)
    if projective:
        mats = [M.canonical for M in mats]
    m = mats[0].shape[0]
    total = _ordered_product(mats, m)
    if projective:
        return proj_equal(total, np.eye(m), tol)
    return bool(np.linalg.norm(total - np.eye(m)) < tol * max(np.linalg.norm(total), 1.0))

"""Numerical parallel transport and monodromy of linear and projective systems.

Paths are piecewise lines and circular arcs in one chart variable; transport
solves dY = Omega(x) dx Y segment by segment and multiplies the segment
matrices in path order.  A segment is cut into panels, each solved by
Gauss-Legendre collocation: Omega is known in closed form, so one vectorized
call gives Omega dx at every node of a panel, and the linear system makes the
panel one small linear solve (Hairer, Norsett and Wanner, Solving ODEs I,
II.7).  A segment that the path later retraces (a lasso's outgoing spoke) is
integrated once from the identity, and within that transport call the
retrace (the return spoke) solves with its matrix S when S is well
conditioned.  Every other segment is integrated from the product so far, so
its error stays relative to the solution it carries.
Under path concatenation the loop -> matrix map is an antirepresentation:
T(alpha then beta) = T(beta) @ T(alpha).  For a Fuchsian system the loop at
infinity is transported too, so the sphere relation compares two measured
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
        return self.point(t), np.full(np.shape(t), self.end - self.start)

    def distance(self, p) -> float:
        """The distance from p to the segment: to the projection of p, clamped to it."""
        d = self.end - self.start
        t = ((p - self.start) * d.conjugate()).real / abs(d) ** 2 if d else 0.0
        return abs(p - self.point(min(max(t, 0.0), 1.0)))

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
        z = self.radius * np.exp(1j * (self.from_angle + t * sweep))
        return self.center + z, 1j * sweep * z

    def distance(self, p) -> float:
        """The distance from p to the arc: to the circle when the direction of p from
        the center lies in the swept angles, else to the nearer endpoint."""
        lo, hi = sorted((self.from_angle, self.to_angle))
        v = p - self.center
        if lo + (np.angle(v) - lo) % TWO_PI <= hi:
            return abs(abs(v) - self.radius)
        return min(abs(p - self.point(0.0)), abs(p - self.point(1.0)))

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
        return np.concatenate([s.point(ts) for s in self.segments])

    def clearance(self, poles) -> float:
        """The least distance from the path to any of the complex ``poles`` (inf for none)."""
        return min((s.distance(p) for s in self.segments for p in poles), default=np.inf)

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
    maps to M(beta) @ M(alpha).  ``infinity`` is the transport of the loop once
    around infinity, and ``order`` lists the loops in the order whose product
    it inverts.
    """

    basepoint: complex
    loops: tuple
    names: tuple
    matrices: tuple
    composition_convention: str = "antirepresentation"
    infinity: object = None
    order: tuple | None = None


def circle_loop(center, radius, basepoint=None) -> LoopPath:
    """Counterclockwise circle; starts at center + radius."""
    return LoopPath([ArcSegment(complex(center), float(radius), 0.0, TWO_PI)],
                    basepoint=basepoint)


def standard_loops(F: FuchsianSystem, basepoint=None):
    """One lasso per pole: spoke toward the pole, ccw circle, spoke back.

    Corridors are straight; a (near-)collinear pole/basepoint configuration is
    rejected rather than silently producing crossing corridors.
    """
    poles = F.pole_array.tolist()
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
        return C.pole_array.tolist()
    if isinstance(C, LocalModel):
        return [0.0]
    conn = _as_connection(C)
    if conn.n != 1:
        return []
    return [to_complex(c) for _, c in conn.divisor]


def _omega_callable(C):
    """(x, dx) -> Omega(x) dx for a one-variable system: for arrays x and dx of one
    shape S, an array of shape S + (m, m) (fast path for Fuchsian data)."""
    if isinstance(C, FuchsianSystem):
        m = C.m
        # the k residues stacked as rows, so sum_i A_i dx / (x - p_i) is one product
        stacked, poles = C.residue_arrays.reshape(C.k, m * m), C.pole_array
        return lambda x, dx: ((dx[..., None] / (x[..., None] - poles)) @ stacked).reshape(
            x.shape + (m, m))
    if isinstance(C, LocalModel):
        if C.k != 1:
            raise ValueError(
                "transport of a local model needs a one-dimensional slice; "
                "use a single-branch slice"
            )
        A = C.residue_array(0)
        return lambda x, dx: A * (dx / x)[..., None, None]
    conn = _as_connection(C)
    if conn.n != 1:
        raise ValueError("transport is defined for one-variable charts")
    omega = conn.component_callable(0)
    return lambda x, dx: omega(x) * dx[..., None, None]


# the largest cond(S) at which a retraced segment is solved with S, not integrated:
# the inverse carries S's relative error times cond(S), so this costs at most
# about two digits of the tolerance
WELL_CONDITIONED = 1e2


def _gauss_collocation(s: int):
    """Nodes c, weights b and integration matrix A[i, j] = int_0^{c_i} l_j of s-point
    Gauss-Legendre collocation on [0, 1], with l_j the Lagrange basis on the nodes."""
    x, w = np.polynomial.legendre.leggauss(s)
    P = np.polynomial.legendre.legvander(x, s)  # P[i, n] = P_n(x_i)
    # l_j = sum_n (n + 1/2) w_j P_n(x_j) P_n, exactly, by Gauss quadrature
    coefficients = (np.arange(s) + 0.5)[:, None] * (w[:, None] * P[:, :s]).T
    # int_{-1}^{x} P_0 = x + 1 and int_{-1}^{x} P_n = (P_{n+1} - P_{n-1}) / (2n + 1)
    integrals = np.column_stack([x + 1, (P[:, 2:] - P[:, :s - 1]) / (2 * np.arange(1, s) + 1)])
    return (x + 1) / 2, w / 2, integrals @ coefficients / 2


# a panel is solved with 16 nodes (order 32) and checked against 11 (order 22); the
# node counts differ in parity because s-node collocation sends a component with
# h|B| -> infinity to (-1)^s times its start, so two even rules agree there
# (16 and 12 nodes to 2e-10 at h B = -1e12) on a panel that resolves nothing
_HIGH, _LOW = _gauss_collocation(16), _gauss_collocation(11)
_NODES = np.concatenate([_HIGH[0], _LOW[0]])
# a panel narrower than 2**-MAX_DEPTH of its segment is a tolerance failure
MAX_DEPTH = 40


def _collocate(B, h, Y0, rule):
    """Y(h) of dY = B(t) Y dt from Y(0) = Y0, by collocation at the nodes of ``rule``,
    where B holds the s values B(h c_i): one linear solve of size s*m for the stage
    derivatives W_i = B_i (Y0 + h sum_j A_ij W_j), with the columns of Y0 carried."""
    _, b, A = rule
    s, m, _ = B.shape
    K = (A[:, None, :, None] * B[:, :, None, :]).reshape(s * m, s * m) * -h
    K.flat[::s * m + 1] += 1.0
    W = np.linalg.solve(K, (B @ Y0).reshape(s * m, -1)).reshape(s, m, -1)
    return Y0 + h * (b @ W.reshape(s, -1)).reshape(Y0.shape)


def _flow(omega, seg, Y0: np.ndarray, tol: float) -> np.ndarray:
    """Y(1) for dY = Omega(x) dx Y along one segment, from Y(0) = Y0.

    Panels run from t = 0 to 1, the first one the whole segment.  On each, Omega dx
    comes from one call at all the nodes, and the 16-node solution is accepted when
    the 11-node one agrees with it within ``tol`` times max(1, its largest entry);
    then the next panel is twice as wide, and otherwise this one is bisected.
    """
    t, h, Y = 0.0, 1.0, Y0
    s = len(_HIGH[0])
    while t < 1.0:
        end = min(t + h, 1.0)
        h = end - t
        B = omega(*seg.point_and_velocity(t + h * _NODES))
        high = _collocate(B[:s], h, Y, _HIGH)
        err = np.max(np.abs(high - _collocate(B[s:], h, Y, _LOW)))
        bound = tol * max(1.0, np.max(np.abs(high)))
        if err <= bound:
            t, Y, h = end, high, 2 * h
        else:
            h /= 2
            if h < 2.0 ** -MAX_DEPTH:
                raise ToleranceNotMet(
                    f"a segment panel narrower than 2**-{MAX_DEPTH} still misses tol={tol:g}")
    return Y


def transport(C, path: LoopPath, tol: float = 1e-10) -> np.ndarray:
    """Fundamental-solution transport matrix along a path: Y(end) = T Y(start).

    Segments are integrated in path order by Gauss-Legendre panel collocation
    (``_flow``), each from the product so far, except one that the path retraces
    later: its matrix S is integrated from the identity and multiplies the
    product (T = S @ T), and the retrace solves with S when cond(S) <=
    ``WELL_CONDITIONED`` and is integrated otherwise.  A solved retrace carries
    S's error times cond(S), so a path with one can miss ``tol`` by up to a factor
    ``WELL_CONDITIONED`` in relative error.  Nothing outlives the call.
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


def __getattr__(name):
    # scipy's solve_ivp, kept only for the benchmark's tracer, which wraps this name
    # (perfbench/tracing.py); the library never calls it, and scipy is imported only
    # when something looks the name up here
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _ordered_product(mats, m: int) -> np.ndarray:
    """M_k ... M_1 for mats = [M_1, ..., M_k]: the loop product in path order."""
    prod = np.eye(m, dtype=complex)
    for M in mats:
        prod = M @ prod
    return prod


def _infinity_loop(poles, basepoint):
    """The loop from ``basepoint`` once clockwise around every pole, that is once
    counterclockwise around infinity, and the direction in which it leaves the
    basepoint toward infinity.

    It is the circle about 0 through the basepoint when that circle keeps 1 clear of
    every pole (so always for the default basepoint of ``standard_loops``); otherwise a
    spoke out to the circle of radius 1 + max|p|, around it and back, with the spoke in
    the middle of the widest angle between the directions to the poles.
    """
    b = complex(basepoint)
    R = 1.0 + max(abs(p) for p in poles)
    if abs(b) >= R:
        a = float(np.angle(b))
        return LoopPath([ArcSegment(0j, abs(b), a, a - TWO_PI)], basepoint=b), b / abs(b)
    angles = np.sort([np.angle(p - b) for p in poles])
    gaps = np.diff(np.append(angles, angles[0] + TWO_PI))
    i = int(np.argmax(gaps))
    out = np.exp(1j * (angles[i] + gaps[i] / 2))
    # b + r out meets |x| = R at r = -Re(conj(out) b) + sqrt(Re(conj(out) b)^2 + R^2 - |b|^2)
    along = float(np.real(np.conj(out) * b))
    a = float(np.angle(b + (np.sqrt(along ** 2 + R ** 2 - abs(b) ** 2) - along) * out))
    q = complex(R * np.exp(1j * a))
    return LoopPath([LineSegment(b, q), ArcSegment(0j, R, a, a - TWO_PI), LineSegment(q, b)],
                    basepoint=b), complex(out)


def _spoke_order(loops, outward) -> tuple:
    """Indices of ``loops`` by the angle at which each leaves the basepoint, measured
    counterclockwise from ``outward``: for lassos with straight corridors, the order in
    which they compose to the loop once counterclockwise around every pole."""
    def angle(lp):
        return float(np.angle(lp.segments[0].point_and_velocity(0.0)[1] / outward)) % TWO_PI
    return tuple(sorted(range(len(loops)), key=lambda i: angle(loops[i])))


def monodromy_rep(C, loops, tol: float = 1e-10) -> MonodromyRep:
    """Transport each loop; for Fuchsian systems also transport ``_infinity_loop`` from
    the loops' basepoint, and record the order of the loops by spoke angle, in which
    their product times the infinity matrix is the identity."""
    loops = list(loops)
    mats = [transport(C, lp, tol) for lp in loops]
    bp = loops[0].basepoint if loops else 0.0
    infinity = order = None
    if isinstance(C, FuchsianSystem) and loops:
        around, outward = _infinity_loop(_poles_of(C), bp)
        infinity = transport(C, around, tol)
        order = _spoke_order(loops, outward)
    names = tuple(f"p{i}" for i in range(len(loops)))
    return MonodromyRep(basepoint=bp, loops=tuple(loops), names=names,
                        matrices=tuple(mats), infinity=infinity, order=order)


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
    """Sphere relation: the loop product in ``rep.order`` (index order when None) times
    the infinity matrix is trivial, relative to the product of the factors' norms (what
    a relative error in each factor can move the product by)."""
    order = rep.order if rep.order is not None else range(len(rep.matrices))
    mats = [rep.matrices[i] for i in order]
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
    scale = np.prod([np.linalg.norm(M) for M in mats])
    return bool(np.linalg.norm(total - np.eye(m)) < tol * max(scale, 1.0))

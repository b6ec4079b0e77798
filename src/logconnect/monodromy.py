"""Numerical parallel transport and monodromy of linear and projective systems.

Paths are piecewise lines and circular arcs in one chart variable.  A one-branch
local model A dx/x is transported as the Fuchsian system with the one pole 0, so
every later step sees Fuchsian data in one form.  A Fuchsian system whose residues
are all diagonal in one eigenbasis V up to rounding (``residue_eigenbasis``: each
V^-1 A_i V off its diagonal by at most 64 cond(V) u max(||A_i||_F, 1)), with
cond(V) <= 1e4, has the fundamental solution prod_i (x - p_i)^{A_i}, so any closed
loop has the matrix V diag(exp(2 pi i sum_i w_i d_i)) V^-1 (``loop_matrix``), with
w_i its winding number about p_i, summed exactly segment by segment
(``_winding_numbers``); no panel or series is needed.  Every other system is
transported by solving dY = Omega(x) dx Y segment by segment and multiplying the
segment matrices in path order.  An arc of a Fuchsian system about a pole with no
other pole near it, or about infinity, is taken in closed form from the Frobenius gauge
G = I + sum_k G_k z^k that turns the system into A dz/z there: its matrix is
G(end) exp(i sweep A) G(start)^-1, with the series summed in A's eigenbasis to
an order that a majorant certifies a priori (van der Hoeven, Fast evaluation of
holonomic functions, TCS 1999; Mezzarobba and Salvy, Effective bounds for
P-recursive sequences, JSC 2010).
An arc the rule refuses (an ill-conditioned or defective eigenbasis, a
near-resonance, another pole too near, or no certified order by the cap) and
every line is cut into panels, each solved by Gauss-Legendre collocation: Omega
is known in closed form, so one vectorized call gives Omega dx at every node of
a panel, and the linear system makes the panel one small linear solve (Hairer,
Norsett and Wanner, Solving ODEs I, II.7).  A segment that the path later
retraces (a lasso's outgoing spoke) is integrated once from the identity, and
within that transport call the retrace (the return spoke) solves with its
matrix S when S is well conditioned.  Every other segment is integrated from
the product so far, so its error stays relative to the solution it carries.
Under path concatenation the loop -> matrix map is an antirepresentation:
T(alpha then beta) = T(beta) @ T(alpha).  For a Fuchsian system the matrix of
the loop at infinity is computed on its own (its circle in closed form from
the residue at infinity), not as the inverse of the loops' product, so the
sphere relation compares two computed numbers.  A Riccati system is transported
once per loop, as its trace-free lift.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .algebra import EIGENBASIS_COND, TWO_PI, ProjectiveClass, proj_equal
from .connections import FuchsianSystem, LocalModel
from .errors import (
    DegenerateConfiguration,
    PoleProximity,
    ToleranceNotMet,
)
from .projective import reconstruct, RiccatiSystem
from .ratfunc import to_complex

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
        """(1 - t) start + t end, so that t = 0 and t = 1 give the endpoints exactly."""
        return (1 - t) * self.start + t * self.end

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
    """Closed piecewise path in one chart variable, avoiding the polar divisor.

    Closure and joins are checked to 1e-12 relative to the path's scale, the largest
    |x| at a segment's end (at least 1): an arc's end is computed through its angle,
    so it lands within rounding of |x|, not of 0.  A failed join raises a ValueError
    whose second argument is the index of the segment that does not join."""

    def __init__(self, segments, basepoint=None):
        self.segments = tuple(segments)
        if not self.segments:
            raise ValueError("a loop needs at least one segment")
        ends = [(s.point(0.0), s.point(1.0)) for s in self.segments]
        self._gap = 1e-12 * max(1.0, max(abs(x) for pair in ends for x in pair))
        start, end = ends[0][0], ends[-1][1]
        if abs(start - end) > self._gap:
            raise ValueError("path is not closed")
        for j, ((_, a), (b, _)) in enumerate(zip(ends, ends[1:]), start=1):
            if abs(a - b) > self._gap:
                raise ValueError("consecutive segments do not join", j)
        self.basepoint = complex(basepoint) if basepoint is not None else complex(start)

    def starts_at(self, x) -> bool:
        """Whether the path starts at x, to the tolerance of its joins."""
        return abs(self.segments[0].point(0.0) - x) <= self._gap

    def clearance(self, poles) -> float:
        """The least distance from the path to any of the complex ``poles`` (inf for none)."""
        return min((s.distance(p) for s in self.segments for p in poles), default=np.inf)

    def reversed(self) -> "LoopPath":
        return LoopPath([s.reversed() for s in self.segments[::-1]], basepoint=self.basepoint)


@dataclass(frozen=True)
class MonodromyRep:
    """Loop-indexed transport matrices (or projective classes).

    ``composition_convention`` records that concatenation alpha then beta
    maps to M(beta) @ M(alpha).  ``infinity`` is the transport of the loop once
    around infinity, and ``order`` lists the loops in the order whose product
    it inverts.
    """

    basepoint: complex
    matrices: tuple
    composition_convention: str = "antirepresentation"
    infinity: object = None
    order: tuple | None = None


def circle_loop(center, radius, basepoint=None) -> LoopPath:
    """Counterclockwise circle; starts at center + radius."""
    return LoopPath([ArcSegment(complex(center), float(radius), 0.0, TWO_PI)],
                    basepoint=basepoint)


def _corridor_gaps(basepoints, poles) -> np.ndarray:
    """gaps[c, i, j]: the distance from pole j to the corridor from ``basepoints[c]`` to
    pole i, relative to the corridor's length, where j projects strictly inside the
    corridor; inf where it does not, and for j = i."""
    b = np.asarray(basepoints, dtype=complex)[:, None, None]
    poles = np.asarray(poles, dtype=complex)
    d, q = poles[:, None] - b, poles - b  # corridor c -> i, and c -> j
    t = np.real(np.conj(d) * q) / np.abs(d) ** 2
    inside = (0.0 < t) & (t < 1.0) & ~np.eye(len(poles), dtype=bool)
    return np.where(inside, np.abs(q - t * d) / np.abs(d), np.inf)


def standard_loops(F: FuchsianSystem, basepoint=None):
    """One lasso per pole: spoke toward the pole, ccw circle, spoke back.

    Corridors are straight; a pole within ``CORRIDOR_CLEARANCE`` times a corridor's
    length of it (collinear poles among them) is rejected rather than silently
    producing crossing corridors or a spoke that no panel can resolve.  The default
    basepoint is, of the 8 points R exp(i k pi/4) with R = 1 + max|p|, the one whose
    least relative corridor gap (``_corridor_gaps``) is largest, the first on a tie:
    collocation on a panel converges at a rate set by the nearest pole, so a corridor
    that grazes a pole needs narrow panels there.  When all 8 are crowded, the same
    choice is made among the 8 turned by pi/8 before the default is refused.  Every
    candidate lies on the circle |x| = R, so the loop at infinity is that circle; one
    pole keeps R itself.
    """
    poles = F.pole_array.tolist()
    defaulted = basepoint is None
    if defaulted:
        R = 1.0 + max(abs(p) for p in poles)
        for offset in (0.0, 0.5):  # the second ring only when the first is all crowded
            # rounded, so that the four on the axes are exact
            turns = np.exp(0.25j * np.pi * (np.arange(8) + offset)).round(15)
            gaps = _corridor_gaps(R * turns, poles)
            # rounded, so that mirror-image candidates tie and the first of them is kept
            best = int(np.argmax(gaps.min(axis=(1, 2)).round(12)))
            basepoint, gaps = complex(R * turns[best]), gaps[best]
            if gaps.min() >= CORRIDOR_CLEARANCE:
                break
    else:
        basepoint = complex(basepoint)
        if any(abs(basepoint - p) < 1e-9 for p in poles):
            raise ValueError("basepoint must be distinct from all poles")
        gaps = _corridor_gaps([basepoint], poles)[0]
    crowded = np.argwhere(gaps < CORRIDOR_CLEARANCE)
    if len(crowded):
        i, j = crowded[0]
        advice = "pass a basepoint" if defaulted else "move the basepoint"
        raise DegenerateConfiguration(
            f"pole {j} at {poles[j]} lies within {gaps[i, j] * abs(poles[i] - basepoint):.3g} "
            f"of the corridor from the basepoint to pole {i} at {poles[i]}; {advice}")
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
    conn = C.to_log_connection()
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
    conn = C.to_log_connection()
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
# a segment is a tolerance failure past MAX_PANELS panel attempts (MAX_DEPTH bounds
# how narrow a panel gets, not how many a segment takes): about 20 times the most
# that any segment of the test suite takes (201), and at 50 us an attempt, 0.2 s
MAX_PANELS = 4096
# standard_loops keeps every other pole this far from a corridor, relative to its
# length: 16 of the narrowest panels.  A spoke that passes closer than about 3e-12 of
# its length from a pole misses tol=1e-10 at any length (seen from 1e2 to 1e8).
CORRIDOR_CLEARANCE = 2.0 ** (4 - MAX_DEPTH)


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
    then the next panel is twice as wide, and otherwise this one is bisected.  A
    segment still short of t = 1 after ``MAX_PANELS`` attempts misses ``tol``.
    """
    t, h, Y = 0.0, 1.0, Y0
    s = len(_HIGH[0])
    for _ in range(MAX_PANELS):
        end = min(t + h, 1.0)
        h = end - t
        B = omega(*seg.point_and_velocity(t + h * _NODES))
        high = _collocate(B[:s], h, Y, _HIGH)
        err = np.max(np.abs(high - _collocate(B[s:], h, Y, _LOW)))
        bound = tol * max(1.0, np.max(np.abs(high)))
        if err <= bound:
            t, Y, h = end, high, 2 * h
            if t == 1.0:
                return Y
        else:
            h /= 2
            if h < 2.0 ** -MAX_DEPTH:
                raise ToleranceNotMet(
                    f"a segment panel narrower than 2**-{MAX_DEPTH} still misses tol={tol:g}")
    raise ToleranceNotMet(
        f"a segment took {MAX_PANELS} panel attempts and still misses tol={tol:g}")


# an arc is taken in closed form only when the gauge series falls at least like
# MAX_RATIO**k (every other pole at least radius / MAX_RATIO from the centre, or,
# about infinity, every pole within MAX_RATIO * radius of it), its order is certified
# by MAX_ORDER, the residue's eigenbasis has cond(V) <= EIGENBASIS_COND (so rounding
# in V costs about that many ulps) and no lambda_a - lambda_b - k with k <= the order
# is smaller than RESONANCE_GAP (so no coefficient is amplified past 1 / RESONANCE_GAP);
# past MAX_RATIO the order nears MAX_ORDER and the closed form costs what panels do
MAX_RATIO = 0.75
MAX_ORDER = 160
RESONANCE_GAP = 1e-2
# the series is summed until its certified tail times cond(V) is tol / INVERSE_ALLOWANCE,
# so the arc is accepted when its ||G(theta_0)^-1|| is at most this
INVERSE_ALLOWANCE = 16.0


def _certified_order(g, c, gaps, top, m, need):
    """The least order N, and the bound on the series' tail there, at which the gauge
    series' coefficients K_k are certified to sum to at most ``need`` in Frobenius
    norm beyond N; None when none up to ``MAX_ORDER`` is, below a gap under
    ``RESONANCE_GAP``.

    ``g`` is max |gamma_i| and ``c`` is sum_i |gamma_i| ||A~_i||_F over the other poles,
    ``gaps[k - 1]`` is delta_k = min |lambda_a - lambda_b - k| and ``top`` is
    max Re(lambda_a - lambda_b).  By induction ||K_k|| <= mu_k and ||U_i|| <= nu_k for
    the majorant mu_k = c nu_(k-1) / delta_k, nu_k = mu_k + g nu_(k-1), nu_0 = ||I||_F,
    so nu_N = ||I||_F prod_(k <= N) (g + c / delta_k).  With r = (1 + g) / 2 the
    induction goes on to mu_k <= M r^k for M = nu_N (1 - g/r) / r^N at every k > N
    with delta_k >= c / (r - g), so at all k > N once N + 1 >= top + 2c / (1 - g),
    and the tail is then at most M r^(N+1) / (1 - r) = nu_N.
    """
    if not c:
        return 0, 0.0
    allowed = np.logical_and.accumulate(gaps >= RESONANCE_GAP)
    nu = np.sqrt(m) * np.cumprod(np.append(1.0, g + c / np.maximum(gaps, RESONANCE_GAP)))
    orders = np.arange(MAX_ORDER + 1)
    ok = (orders + 1 >= top + 2 * c / (1 - g)) & (nu <= need) & np.append(True, allowed)
    if not ok.any():
        return None
    N = int(np.argmax(ok))
    return N, float(nu[N])


def _closed_form_arc(C, arc, tol: float):
    """The transport matrix of ``arc`` for a Fuchsian system from its Frobenius gauge,
    or None where the rule refuses it (and for any other system).

    Inside a disk about the centre c that holds no pole but c, the system is
    A/z + tau(z) in z = x - c, with A the residue at c (0 at a regular point) and
    tau_d = -sum_i A_i c_i^(d+1), c_i = 1/(p_i - c) over the other poles.  About
    infinity, w = 1/(x - c) gives the same form with A = -sum_i A_i, c_i = p_i - c
    and the angles negated.  In A's eigenbasis V, with z scaled by the radius rho
    (gamma_i = rho c_i), the gauge G = I + sum_k K_k e^(ik theta) that turns the
    system into A/z has K_k = (sum_i gamma_i A~_i U_i) / (Delta - k) elementwise,
    U_i <- K_(k-1) + gamma_i U_i and Delta_ab = lambda_a - lambda_b, and the arc's
    matrix is V G(theta_1) diag(e^(i(theta_1 - theta_0) lambda)) G(theta_0)^-1 V^-1.
    It is accepted when the certified tail times cond(V) ||G(theta_0)^-1|| is
    within ``tol``, and so is cond(V) times the rounding of the phases.
    """
    if not isinstance(C, FuchsianSystem):
        return None
    poles, residues = C.pole_array, C.residue_arrays
    d = poles - arc.center
    at = d == 0
    angles = np.array([arc.from_angle, arc.to_angle])
    if np.all(MAX_RATIO * np.abs(d[~at]) >= arc.radius):
        A, gamma, others = residues[at].sum(axis=0), arc.radius / d[~at], residues[~at]
    elif np.all(np.abs(d) <= MAX_RATIO * arc.radius):
        A, gamma, others, angles = -residues.sum(axis=0), d / arc.radius, residues, -angles
    else:
        return None
    lam, V = np.linalg.eig(A)
    kappa = np.linalg.cond(V)
    # the phases (theta_1 - theta_0) lambda are rounded by about eps |(theta_1 - theta_0) lambda|
    rounding = np.finfo(float).eps * abs(angles[1] - angles[0]) * np.abs(lam).max()
    if not (kappa <= EIGENBASIS_COND and kappa * rounding <= tol):
        return None
    Vinv = np.linalg.inv(V)
    At = Vinv @ others @ V
    m, p = len(lam), len(gamma)
    diff = lam[:, None] - lam
    shifted = diff - np.arange(1, MAX_ORDER + 1)[:, None, None]  # Delta - k
    g = np.abs(gamma)
    certified = _certified_order(np.max(g, initial=0.0), g @ np.linalg.norm(At, axis=(1, 2)),
                                 np.abs(shifted).min(axis=(1, 2)), diff.real.max(), m,
                                 tol / (kappa * INVERSE_ALLOWANCE))
    if certified is None:
        return None
    N, tail = certified
    K = np.zeros((N + 1, m, m), dtype=complex)
    K[0] = np.eye(m)
    weighted = (gamma[:, None, None] * At).transpose(1, 0, 2).reshape(m, p * m)
    U, scale, inverse = np.zeros((p, m, m), dtype=complex), gamma[:, None, None], 1 / shifted[:N]
    for k in range(N):
        U *= scale
        U += K[k]
        np.matmul(weighted, U.reshape(p * m, m), out=K[k + 1])
        K[k + 1] *= inverse[k]
    G0, G1 = (np.exp(1j * np.outer(angles, np.arange(N + 1)))
              @ K.reshape(N + 1, m * m)).reshape(2, m, m)
    G0inv = np.linalg.inv(G0)
    if tail * kappa * np.linalg.norm(G0inv) > tol:
        return None
    return V @ (G1 * np.exp(1j * (angles[1] - angles[0]) * lam)) @ G0inv @ Vinv


def _winding_numbers(path: LoopPath, poles) -> list:
    """The winding number of the closed ``path`` about each pole, summed exactly segment
    by segment.  A line adds Arg((end - p) / (start - p)).  An arc about c of radius r
    adds, for |p - c| < r, its sweep plus the change of Arg(1 - (p - c) / (x - c)) and
    otherwise the change of Arg(1 - (x - c) / (p - c)): x - p is (x - c) or (c - p)
    times that factor, whose second term has modulus below 1 (at most 1 on the circle,
    where only x = p would reach 0), so it stays in the right half-plane and its
    principal Arg never wraps."""
    total = [0.0] * len(poles)
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            for i, p in enumerate(poles):
                total[i] += cmath.phase((seg.end - p) / (seg.start - p))
            continue
        sweep = seg.to_angle - seg.from_angle
        ends = [cmath.rect(seg.radius, a) for a in (seg.from_angle, seg.to_angle)]
        for i, p in enumerate(poles):
            d = p - seg.center
            if abs(d) < seg.radius:
                total[i] += sweep + cmath.phase(1 - d / ends[1]) - cmath.phase(1 - d / ends[0])
            else:
                total[i] += cmath.phase(1 - ends[1] / d) - cmath.phase(1 - ends[0] / d)
    return [round(t / TWO_PI) for t in total]


def _closed_form_loop(F: FuchsianSystem, path: LoopPath, tol: float):
    """The transport matrix of the closed ``path`` for a Fuchsian system whose residues
    are diagonal in one eigenbasis V up to rounding (``residue_eigenbasis``) with
    cond(V) <= ``EIGENBASIS_COND``: ``loop_matrix`` of the path's winding numbers,
    V diag(exp(2 pi i sum_i w_i d_i)) V^-1.  None for any other system, or when the
    phases lose ``tol`` to rounding: they are rounded by about eps |2 pi sum_i w_i d_i|,
    so the loop is accepted when cond(V) times that is within ``tol``, as an arc is by
    ``_closed_form_arc``.
    """
    basis = F.residue_eigenbasis
    if basis is None or not basis[3] <= EIGENBASIS_COND:
        return None
    _, _, d, kappa = basis
    windings = _winding_numbers(path, F.pole_array.tolist())
    phases = TWO_PI * (np.array(windings, dtype=float) @ d)
    if kappa * np.finfo(float).eps * np.abs(phases).max(initial=0.0) > tol:
        return None
    return F.loop_matrix(windings)


def transport(C, path: LoopPath, tol: float = 1e-10) -> np.ndarray:
    """Fundamental-solution transport matrix along a path: Y(end) = T Y(start).

    A one-branch local model A dx/x is read as the Fuchsian system with the one pole
    0 and residue A; a local model with any other number of branches is refused.
    A Fuchsian system whose residues are diagonal in one eigenbasis up to rounding
    takes the whole closed path in closed form from its winding numbers
    (``_closed_form_loop``), after the pole-proximity check.  Otherwise an arc of a
    Fuchsian system about a pole (or a regular point) with no other pole near it, or
    about infinity, is taken in closed form from the Frobenius gauge
    (``_closed_form_arc``) when its truncation is certified.  Other segments are
    integrated in path order by Gauss-Legendre panel collocation (``_flow``), each
    from the product so far, except one that the path retraces later: its matrix S
    is integrated from the identity and multiplies the product (T = S @ T), and the
    retrace solves with S when cond(S) <= ``WELL_CONDITIONED`` and is integrated
    otherwise.  A solved retrace carries S's error times cond(S), so a path with one
    can miss ``tol`` by up to a factor ``WELL_CONDITIONED`` in relative error.
    Nothing outlives the call.
    """
    if isinstance(C, LocalModel):
        if C.k != 1:
            raise ValueError(
                "transport of a local model needs a one-dimensional slice; "
                "use a single-branch slice"
            )
        C = FuchsianSystem(C.m, [0], C.residues, exact=C.exact)
    conn_poles = _poles_of(C)
    if conn_poles and path.clearance(conn_poles) < 1e-12:
        raise PoleProximity("path passes within 1e-12 of the polar divisor")
    if isinstance(C, FuchsianSystem) and (T := _closed_form_loop(C, path, tol)) is not None:
        return T
    omega = _omega_callable(C)
    last = {seg: i for i, seg in enumerate(path.segments)}  # segment -> its last index
    identity = np.eye(C.m, dtype=complex)
    T, kept = identity, {}  # kept: segment -> S, for the segments the path retraces
    for i, seg in enumerate(path.segments):
        rev = seg.reversed()
        S = kept.pop(rev, None)
        if S is not None and np.linalg.cond(S) <= WELL_CONDITIONED:
            T = np.linalg.solve(S, T)
        elif isinstance(seg, ArcSegment) and (A := _closed_form_arc(C, seg, tol)) is not None:
            T = A @ T
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
    every pole, to rounding (so always for the default basepoints of ``standard_loops``,
    which lie on |x| = 1 + max|p|); otherwise a spoke out to the circle of radius
    1 + max|p|, around it and back, with the spoke in the middle of the widest angle
    between the directions to the poles.
    """
    b = complex(basepoint)
    R = 1.0 + max(abs(p) for p in poles)
    if abs(b) >= R * (1 - 1e-15):
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
    return MonodromyRep(basepoint=bp, matrices=tuple(mats), infinity=infinity, order=order)


def projective_monodromy(C, loops, tol: float = 1e-10) -> MonodromyRep:
    """Projective classes of the linear transport; a Riccati system is transported once
    per loop, as its trace-free lift ``reconstruct(C, None)``.  Any other trace gives the
    same classes: the lifts differ by a scalar 1-form s I, which commutes with omega, so
    each loop's matrix changes by the scalar exp(the integral of s around it)."""
    if isinstance(C, RiccatiSystem):
        C = reconstruct(C, None)
    rep = monodromy_rep(C, loops, tol)
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

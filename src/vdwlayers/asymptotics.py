"""Asymptotic power-law coefficients, attraction/repulsion borders, wall estimates.

Long-distance potentials behave as C4/z^4 (thick plate) and D5/z^5 (thin
plate); short-distance ones as -C3/z^3 + C1/z and -D4/z^4 + D2/z^2.  C4 and
D5 depend only on the static response, so the attraction/repulsion border in
the (eps0, mu0) plane is material-dispersion-free; the short-distance
coefficients are full imaginary-frequency integrals.  When magnetic repulsion
wins at long range while electric attraction wins at short range, the
potential forms a wall whose position and height follow from the coefficient
ratios, with closed forms available for a lossless two-level atom and a
single-resonance medium with weak electric response.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .materials import (AtomModel, MaterialModel, Medium, PerfectMirror, _require_dispersive,
                        static_summary)
# integrate_finite is unused here but stays importable: perfbench's
# quadrature.oned probe wraps asymptotics.integrate_finite.
from .quadrature import (_EPS, IntegralBatch, QuadratureSpec, _require,  # noqa: F401
                         _require_finite, _require_integer, _require_positive, integrate_finite,
                         integrate_semi_infinite)

__all__ = [
    "NoWallError",
    "ThickCoeffs",
    "ThinCoeffs",
    "C4Limits",
    "BorderPoint",
    "WallEstimate",
    "thick_coefficients",
    "plate_coefficients",
    "thick_c4_limits",
    "strong_limit_impedance_root",
    "thin_coefficients",
    "thin_border_mu",
    "border_curve",
    "wall_estimate",
    "thin_wall_height_bound",
    "locate_wall",
]

_PI2 = math.pi**2


class NoWallError(RuntimeError):
    """Raised when wall formulas are requested for a monotone (wall-free) potential."""


@dataclass(frozen=True)
class ThickCoeffs:
    """Half-space power-law coefficients: U -> c4/z^4 (far), -c3/z^3 + c1/z (near)."""

    c4: float
    c3: float
    c1: float
    method: str = "integral"


@dataclass(frozen=True)
class ThinCoeffs:
    """Thin-plate coefficients: U -> d5/z^5 (far), -d4/z^4 + d2/z^2 (near); all linear in d."""

    d5: float
    d4: float
    d2: float
    thickness: float
    method: str = "integral"


@dataclass(frozen=True)
class C4Limits:
    """Analytic C4 in the weak (chi << 1) and strong (eps, mu >> 1) response limits."""

    weak: float
    strong: float


@dataclass(frozen=True)
class BorderPoint:
    """One point of the attraction/repulsion border: the static mu0 at a static eps0."""

    eps0: float
    mu0: float
    method: str


@dataclass(frozen=True)
class WallEstimate:
    """Location and height of the repulsive potential wall.

    ``consistency`` is z_max times the highest matter resonance frequency;
    the short-distance estimates assume it is << 1.  A numeric wall
    (``locate_wall``) also carries its position error ``z_err`` and the
    certified force F = -dU/dz at ``z_max``; the estimates carry neither.
    """

    z_max: float
    u_max: float
    method: str
    consistency: float | None = None
    z_err: float | None = None
    force: float | None = None


# The static bracket B(eps0, mu0) = int_0^1 [(2 - t^2)(eps0 - h)/(eps0 + h)
#                                            - t^2 (mu0 - h)/(mu0 + h)] dt,
# h = sqrt(1 + a t^2), a = eps0 mu0 - 1, gives C4 = -3 alpha(0) B / (64 pi^2).
# Its closed form is exact to 3.1e-14 absolute (against 30-digit mpmath on 180
# of 810 random and grid points) where 0.05 <= a <= 1e8 and the larger of eps0,
# mu0 is at most 8 times the smaller.  Below that a its terms cancel as a^-1.5;
# past that ratio the terms of the larger response cancel as a power of the
# ratio (1.5e-13 at ratio 16), and above that a slowly with a (7.7e-14 at 1e14).
# The fixed rule is exact to 3.8e-15 at every point of the same scan.
_CLOSED_A = (0.05, 1e8)
_CLOSED_RATIO = 8.0
_RULE_PANEL_WIDTH = 2.0  # in phi; the integrand's poles lie pi off the real axis


def _c4_bracket(eps0, mu0) -> np.ndarray:
    """The static bracket B whose sign decides attraction vs repulsion at long range.

    One value per entry of the equal-length 1-D arrays ``eps0`` and ``mu0``
    (each >= 1): the closed form ``_c4_bracket_closed`` where it is exact to
    3.1e-14, the fixed rule ``_c4_bracket_rule`` elsewhere, and exactly 0
    at eps0 = mu0 = 1.  Each entry depends on its own ``eps0`` and ``mu0``
    only, never on the rest of the batch.
    """
    eps0 = np.asarray(eps0, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    chi_e, chi_m = eps0 - 1.0, mu0 - 1.0
    with np.errstate(over="ignore"):  # raised as ValueError below
        a = chi_e + chi_m + chi_e * chi_m  # eps0 mu0 - 1 without cancellation near 1
    if not np.isfinite(a).all():
        i = int(np.flatnonzero(~np.isfinite(a))[0])
        raise ValueError(f"static bracket: eps0 * mu0 overflows at eps0={float(eps0[i])!r}, "
                         f"mu0={float(mu0[i])!r}")
    closed = ((a >= _CLOSED_A[0]) & (a <= _CLOSED_A[1])
              & (np.maximum(eps0, mu0) <= _CLOSED_RATIO * np.minimum(eps0, mu0)))
    rule = ~closed & (a > 0.0)
    out = np.zeros(eps0.shape)
    for form, rows in ((_c4_bracket_closed, closed), (_c4_bracket_rule, rule)):
        if rows.any():
            out[rows] = form(eps0[rows], mu0[rows], a[rows])
    return out


def _c4_bracket_closed(eps0, mu0, a):
    """The static bracket in closed form, for a = eps0 mu0 - 1 > 0.

    With t = sinh(phi)/sqrt(a), so that h = cosh(phi), and w = e^phi, the
    integrand is rational in w and its denominators w^2 + 2 x w + 1
    (x = eps0, mu0) have negative roots only, so

        B = -4/3 + 4 eps0 (2 I0(eps0) - I1(eps0)) - 4 mu0 I1(mu0),
        I0 = J0 / (2 sqrt(a)),  I1 = J1 / (8 a^1.5),  W = sqrt(a) + sqrt(eps0 mu0),
        J0(x) = ln W - 2 x P(x),
        J1(x) = 2 sqrt(a (1 + a)) - 4 x sqrt(a) + 2 (2 x^2 - 1) ln W - 8 x (x^2 - 1) P(x),
        P(x) = [acosh(x)/2 - atanh(s/(W + x))] / s,  s = sqrt(x^2 - 1).

    J1's terms in W alone are written through W - 1/W = 2 sqrt(a) and
    W + 1/W = 2 sqrt(1 + a), and acosh(x)/2 stands for the equal
    atanh(s/(1 + x)), which loses digits as x grows.  s is formed as
    sqrt((x - 1)(x + 1)) and acosh(x) as asinh(s), both exact near x = 1;
    at s = 0, P is its limit (W - 1)/(2 (W + 1)).
    """
    root_a = np.sqrt(a)
    ln_w = np.arcsinh(root_a)  # ln W
    w = root_a + np.sqrt(1.0 + a)

    def i0_i1(x):  # I0(x) and I1(x)
        s = np.sqrt((x - 1.0) * (x + 1.0))
        s1 = np.where(s > 0.0, s, 1.0)
        p = np.where(s > 0.0, (0.5 * np.arcsinh(s1) - np.arctanh(s1 / (w + x))) / s1,
                     (w - 1.0) / (2.0 * (w + 1.0)))
        j1 = (2.0 * np.sqrt(a * (1.0 + a)) - 4.0 * x * root_a
              + 2.0 * (2.0 * x * x - 1.0) * ln_w - 8.0 * x * (x * x - 1.0) * p)
        return (ln_w - 2.0 * x * p) / (2.0 * root_a), j1 / (8.0 * a * root_a)

    (i0_e, i1_e), (_, i1_m) = i0_i1(eps0), i0_i1(mu0)
    return -4.0 / 3.0 + 4.0 * eps0 * (2.0 * i0_e - i1_e) - 4.0 * mu0 * i1_m


def _c4_bracket_rule(eps0, mu0, a):
    """The static bracket by a fixed Gauss-Legendre rule in phi, for a > 0.

    With t = sinh(phi)/sqrt(a) the integrand runs over phi in [0, asinh
    sqrt(a)], where it is bounded and its poles lie pi off the real axis.
    The rule has 15 nodes on each of ceil(asinh(sqrt(a)) / 2) equal panels
    (at least one): no panel is wider than 2, so the poles lie at least pi
    half-widths off each panel.  It is exact to 3.8e-15 absolute on the scan
    above, as 16 panels are, with a quarter of their nodes or fewer wherever
    eps0 mu0 < 1e13.  Each difference x - h is formed as
    (x - 1) - 2 sinh^2(phi/2), so nothing cancels as a -> 0 or as either
    response grows.
    """
    top = np.arcsinh(np.sqrt(a))
    panels = np.maximum(1, np.ceil(top / _RULE_PANEL_WIDTH)).astype(int)
    out = np.empty(a.shape)
    for n in np.unique(panels).tolist():
        rows = np.flatnonzero(panels == n)
        nodes, weights = _rule_nodes(n)
        phi = top[rows, None] * nodes
        cosh, t2 = np.cosh(phi), np.sinh(phi) ** 2 / a[rows, None]
        h_m1 = 2.0 * np.sinh(0.5 * phi) ** 2  # cosh(phi) - 1
        e, m = eps0[rows, None], mu0[rows, None]
        g = ((2.0 - t2) * ((e - 1.0) - h_m1) / (e + cosh)
             - t2 * ((m - 1.0) - h_m1) / (m + cosh))
        out[rows] = (g * cosh * weights).sum(axis=1) * top[rows] / np.sqrt(a[rows])
    return out


@functools.cache
def _rule_nodes(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and weights of 15-point Gauss-Legendre on ``panels`` equal panels."""
    from numpy.polynomial.legendre import leggauss  # deferred: only the rule needs it
    x, w = leggauss(15)
    nodes = ((np.arange(panels)[:, None] + 0.5 * (1.0 + x)) / panels).ravel()
    weights = np.tile(w, panels) / (2.0 * panels)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def _char_scale(atom: AtomModel, *materials: MaterialModel) -> float:
    """Map scale for the coefficient u-integrals of ``materials``.

    The integrands knee once at the lowest transition/resonance frequency and
    once where each susceptibility falls to order one, i.e. at
    sqrt(transverse^2 + plasma^2); the geometric mean places quadrature nodes
    across the whole span even for plasma >> transverse media.  Several
    materials share the span of the union of their resonances.
    """
    lows = [t.frequency for t in atom.transitions]
    highs = list(lows)
    for material in materials:
        for r in material.electric + material.magnetic:
            if r.plasma > 0:
                lows.append(r.transverse)
                highs.append(math.hypot(r.transverse, r.plasma))
    return math.sqrt(min(lows) * max(highs))


def thick_coefficients(atom: AtomModel, material: Medium,
                       spec: QuadratureSpec | None = None) -> ThickCoeffs:
    """C4, C3, C1 of a semi-infinite plate; C4 from the static bracket, C3 and C1 integrals.

    C3 and C1 are the two channels of one 1-D integral (see
    ``plate_coefficients``).  For a perfect mirror C4 and C3 take their
    closed limits while C1 diverges (no magnetic cutoff) and is reported as
    inf.
    """
    return plate_coefficients(atom, material, None, spec)[0]


# The short-distance integrands of C3, C1, D4 and D2 (in that channel order)
# from u, alpha(u), eps(u) and mu(u), and what a non-converged channel is called
_SHORT_DISTANCE = (
    (lambda u, a, e, m: a * (e - 1.0) / (e + 1.0), "short-distance 1/z^3 coefficient"),
    (lambda u, a, e, m: u * u * a * ((e - 1.0) / (e + 1.0) + (m - 1.0) / (m + 1.0)
                                     + 2.0 * e * (e * m - 1.0) / (e + 1.0) ** 2),
     "short-distance 1/z coefficient"),
    (lambda u, a, e, m: a * (e * e - 1.0) / e, "thin 1/z^4 coefficient"),
    (lambda u, a, e, m: u * u * a * ((e * e - 1.0) / e + (m * m - 1.0) / m
                                     + 2.0 * (e * m - 1.0) / e),
     "thin 1/z^2 coefficient"),
)


def _one(outcomes: list):
    """The one outcome of a one-material call: raised if it is an exception."""
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def plate_coefficients(atom: AtomModel, material: Medium | Sequence[Medium],
                       thickness: float | None = None, spec: QuadratureSpec | None = None, *,
                       thick: bool = True):
    """(ThickCoeffs, ThinCoeffs) of a material from one multi-channel 1-D integral.

    The thick coefficients come unless ``thick`` is False, the thin ones
    (of a plate ``thickness`` thick) when ``thickness`` is given; a part not
    asked for is None.  Their short-distance integrals (C3 and C1, D4 and
    D2) are the channels of one ``integrate_semi_infinite`` call on the
    ``_char_scale`` map, which evaluates alpha(u), eps(u) and mu(u) once per
    node, so each channel meets its own tolerance on the shared nodes.  A
    channel that does not converge raises the RuntimeError naming its
    coefficient, the first in the order C3, C1, D4, D2.  C4 and D5 are
    closed forms in the statics.  A perfect mirror has the thick limits of
    ``thick_coefficients`` and no thin part.

    A sequence of media gives a list, one outcome per medium: its pair, or
    the RuntimeError that its channels would raise, returned rather than
    raised, so one medium's failure leaves the others' coefficients.  The
    channels of every dispersive medium are one ``integrate_semi_infinite``
    call, on the map of the union of their resonances; a perfect mirror
    keeps its closed limits outside the call.  One medium alone is the
    one-material call.
    """
    several = not isinstance(material, (MaterialModel, PerfectMirror))
    media = list(material) if several else [material]
    if not thick and any(isinstance(m, PerfectMirror) for m in media):
        raise TypeError("thin-plate coefficients are undefined for a perfect mirror")
    dispersive = [m for m in media if not isinstance(m, PerfectMirror)]
    if dispersive and thickness is not None:
        _require_positive("thickness", thickness)
    elif dispersive and not thick:
        raise ValueError("thin-plate coefficients need a thickness")
    channels = ((_SHORT_DISTANCE[:2] if thick else ())
                + (_SHORT_DISTANCE[2:] if thickness is not None else ()))

    def integrand(u):
        a = atom.alpha(u)
        return np.stack([f(u, a, e, mu) for e, mu in ((m.eps(u), m.mu(u)) for m in dispersive)
                         for f, _ in channels])

    if dispersive:
        batch = integrate_semi_infinite(integrand, 0.0, spec=spec,
                                        scale=_char_scale(atom, *dispersive))
        results = iter(batch)
    outcomes = []
    for m in media:
        if isinstance(m, PerfectMirror):
            outcomes.append((_mirror_coefficients(atom, m), None))
            continue
        own = [next(results) for _ in channels]
        try:
            integrals = [_require(res, what) for res, (_, what) in zip(own, channels)]
        except RuntimeError as exc:
            outcomes.append(exc)
        else:
            outcomes.append(_coefficients(atom, m, thickness, thick, integrals))
    return outcomes if several else _one(outcomes)


def _mirror_coefficients(atom: AtomModel, mirror: PerfectMirror) -> ThickCoeffs:
    """The closed thick limits of a perfect mirror; C1 diverges and is inf."""
    alpha0 = atom.alpha0
    if mirror.kind == "conducting":
        c4 = -3.0 * alpha0 / (32.0 * _PI2)
        c3 = atom.dipole_sq_total / (48.0 * math.pi)
    else:
        c4 = 3.0 * alpha0 / (32.0 * _PI2)
        c3 = 0.0
    return ThickCoeffs(c4=c4, c3=c3, c1=math.inf, method="mirror-limit")


def _coefficients(atom: AtomModel, material: MaterialModel, thickness: float | None,
                  thick: bool, integrals: list) -> tuple[ThickCoeffs | None, ThinCoeffs | None]:
    """``plate_coefficients``' pair of a dispersive material from its short-distance
    integrals, in the order C3, C1 (when ``thick``), D4, D2 (when a thickness is given)."""
    s = static_summary(material)
    out_thick = out_thin = None
    if thick:
        c4 = -(3.0 * atom.alpha0 / (64.0 * _PI2)) * float(_c4_bracket([s.eps0], [s.mu0])[0])
        out_thick = ThickCoeffs(c4=c4, c3=integrals[0] / (16.0 * _PI2),
                                c1=integrals[1] / (16.0 * _PI2))
    if thickness is not None:
        d = thickness
        d5 = -(atom.alpha0 * d / (160.0 * _PI2)) * (
            (14.0 * s.eps0**2 - 9.0) / s.eps0 - (6.0 * s.mu0**2 - 1.0) / s.mu0
        )
        out_thin = ThinCoeffs(d5=d5, d4=3.0 * d * integrals[-2] / (64.0 * _PI2),
                              d2=d * integrals[-1] / (64.0 * _PI2), thickness=d)
    return out_thick, out_thin


def _require_static(name: str, value: float) -> None:
    """A static eps0 or mu0 must be finite and >= 1, or ValueError names it."""
    if not (math.isfinite(value) and value >= 1.0):
        raise ValueError(f"{name} must be finite and >= 1, got {value}")


def _require_plate_kind(plate_kind: str) -> None:
    if plate_kind not in ("thick", "thin"):
        raise ValueError(f"plate_kind must be 'thick' or 'thin', got {plate_kind!r}")


def thick_c4_limits(eps0: float, mu0: float, alpha0: float) -> C4Limits:
    """Closed-form C4 in the weak- and strong-response limits.

    The weak form is proportional to -[23 chi_e(0) - 7 chi_m(0)]; the strong
    form is a polynomial-and-log function of the static impedance alone.
    ``eps0`` and ``mu0`` must be finite and >= 1, as ``border_curve``
    requires of eps0, and ``alpha0`` finite, or ValueError names the one
    that is not.
    """
    _require_static("eps0", eps0)
    _require_static("mu0", mu0)
    _require_finite("alpha0", alpha0)
    chi_e = eps0 - 1.0
    chi_m = mu0 - 1.0
    weak = -(alpha0 / (640.0 * _PI2)) * (23.0 * chi_e - 7.0 * chi_m)
    strong = -(3.0 * alpha0 / (64.0 * _PI2)) * float(_strong_bracket(math.sqrt(mu0 / eps0)))
    return C4Limits(weak=weak, strong=strong)


def _strong_bracket(z):
    l1 = np.log1p(z)
    l2 = np.log1p(1.0 / z)
    return (
        -2.0 / z**3 * l1 + 2.0 / z**2 + 4.0 / z * l1
        - 1.0 / z - 4.0 / 3.0 - z + 2.0 * z**2 - 2.0 * z**3 * l2
    )


def strong_limit_impedance_root() -> float:
    """Static impedance sqrt(mu0/eps0) at which the strong-limit C4 changes sign."""
    lo, hi = np.array([1.0]), np.array([10.0])
    z, converged = _bracketed_root(lambda rows, x: _strong_bracket(x), lo, hi,
                                   _strong_bracket(lo), _strong_bracket(hi), 1e-13)
    if not converged[0]:
        raise RuntimeError("strong-limit impedance root search did not converge")
    return float(z[0])


_ROOT_MAX_STEPS = 100  # bisection alone narrows [0, log of the largest double] below 1e-13 in 53


def _bracketed_root(f, x1, x2, f1, f2, xatol: float):
    """Roots of f on the brackets [x1, x2] by Chandrupatla's method, all rows in lockstep.

    ``f(rows, x)`` evaluates the functions of the row indices ``rows`` at
    the 1-D array ``x``; ``f1`` and ``f2`` are their values at the bracket
    ends, of opposite sign (or zero).  Each step evaluates every open row
    once.  The first step is a secant step, kept in the middle 80 % of the
    bracket; each later one is at an inverse quadratic interpolation point
    when the last three points pass Chandrupatla's test and at the bracket
    midpoint otherwise, never closer than half the tolerance to a bracket
    end.  A row closes when the bracket end with the smaller |f| has f = 0
    or the bracket is narrower than ``xatol`` + 4 eps |x|.  Returns (x, converged):
    x is that bracket end, and ``converged`` is False for rows still open
    after ``_ROOT_MAX_STEPS`` steps.  A row's steps depend on its own
    function only, never on the other rows.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (x1, x2, f1, f2))
    x3, f3 = x2, f2
    root = np.empty(x1.shape)
    converged = np.zeros(x1.shape, dtype=bool)
    rows = np.arange(x1.size)  # the open rows; every array below holds only these
    for step in range(_ROOT_MAX_STEPS + 1):
        near = np.abs(f1) < np.abs(f2)
        x = np.where(near, x1, x2)
        tol = xatol + 4.0 * _EPS * np.abs(x)
        width = np.abs(x2 - x1)
        done = (np.where(near, f1, f2) == 0.0) | (width < tol)
        root[rows], converged[rows] = x, done
        if done.all() or step == _ROOT_MAX_STEPS:
            break
        keep = ~done
        rows, x1, x2, x3, f1, f2, f3, tol, width = (
            v[keep] for v in (rows, x1, x2, x3, f1, f2, f3, tol, width))
        if step == 0:  # a secant step, kept off the bracket ends
            t = np.clip(f1 / (f1 - f2), 0.1, 0.9)
        else:  # Chandrupatla's test: inverse quadratic interpolation is safe
            t = np.full(rows.size, 0.5)
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            q = np.flatnonzero((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)))
            g1, g2, g3 = f1[q], f2[q], f3[q]
            t[q] = (g1 / (g1 - g2) * g3 / (g3 - g2)
                    - (x3[q] - x1[q]) / (x2[q] - x1[q]) * g1 / (g3 - g1) * g2 / (g2 - g3))
            edge = 0.5 * tol / width
            t = np.clip(t, edge, 1.0 - edge)
        xt = x1 + t * (x2 - x1)
        ft = f(rows, xt)
        # the new point replaces the bracket end of its sign; the third point
        # is the end it replaced (same sign) or the old opposite end
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
    return root, converged


def thin_coefficients(atom: AtomModel, material: MaterialModel, thickness: float,
                      spec: QuadratureSpec | None = None) -> ThinCoeffs:
    """D5, D4, D2 of an asymptotically thin plate; D5 is closed-form in the statics.

    D4 and D2 are the two channels of one 1-D integral (see
    ``plate_coefficients``).
    """
    return plate_coefficients(atom, material, thickness, spec, thick=False)[1]


def thin_border_mu(eps0: float) -> float:
    """Static permeability on the thin-plate attraction/repulsion border, closed form in
    r = eps0^-2, so no power of eps0 overflows: mu0 ~ 7/3 eps0 is finite to eps0 ~ 7.7e307.
    ``eps0`` must be finite and >= 1, or ValueError is raised."""
    _require_static("eps0", eps0)
    r = 1.0 / (eps0 * eps0)
    return eps0 / 12.0 * (14.0 - 9.0 * r + math.sqrt(196.0 - 228.0 * r + 81.0 * r * r))


# The thick border lies in eps0 <= mu0 <= 5.11 eps0, between its weak-response
# slope 23/7 and its strong-response impedance root z0^2 =
# strong_limit_impedance_root()**2 = 5.105: B(eps0, eps0) >= 0 > B(eps0, 6 eps0)
# on 20 003 log points of eps0 in [1, 1e150].  6 is above z0^2 and at most
# _CLOSED_RATIO, so both ends of the bracket lie in the closed form's domain
# wherever 0.05 <= eps0 mu0 - 1 <= 1e8.
_BORDER_RATIO = 6.0


def border_curve(plate_kind: str, eps0_values: Sequence[float],
                 spec: QuadratureSpec | None = None) -> list[BorderPoint]:
    """Attraction/repulsion border mu0(eps0) for thick or thin plates.

    The thick border is the unique root in mu0 of the static bracket
    ``_c4_bracket`` (uniqueness from its monotonicity in both arguments):
    its closed form where that is exact to 3.1e-14, its fixed
    Gauss-Legendre rule elsewhere, so no quadrature runs and ``spec`` is
    not used (it stays for the signature).  Every root lies on the fixed
    bracket mu0 in [eps0, 6 eps0] (``_BORDER_RATIO``), refined in x = log
    mu0 by ``_bracketed_root`` to 1e-13 in x; at eps0 = 1 the bracket is 0
    at mu0 = 1, which closes the search there on its first step.  Each
    bracket end and each root step evaluates the bracket of every point
    still open as one batch, and a point's result does not depend on the
    other points.  The thin border is closed-form.  A point whose bracket
    ends do not change sign, or whose root search does not converge,
    raises RuntimeError naming its eps0; a point past the float range (a
    thick eps0 mu0 or a thin mu0 that overflows) raises ValueError naming it.
    """
    _require_plate_kind(plate_kind)
    eps = np.array([float(e) for e in eps0_values], dtype=float)
    bad = ~(np.isfinite(eps) & (eps >= 1.0))
    if bad.any():
        raise ValueError(f"eps0 must be finite and >= 1, got {eps[bad][0]}")
    if plate_kind == "thin":
        points = [BorderPoint(e, thin_border_mu(e), "closed-form") for e in eps.tolist()]
        for p in points:
            if not math.isfinite(p.mu0):
                raise ValueError(f"thin border: mu0 overflows at eps0={p.eps0!r}")
        return points

    hi = _BORDER_RATIO * eps
    f_lo, f_hi = _c4_bracket(eps, eps), _c4_bracket(eps, hi)
    same_sign = np.flatnonzero(~((f_lo >= 0.0) & (f_hi <= 0.0)))
    if same_sign.size:
        i = int(same_sign[0])
        raise RuntimeError(f"border root search at eps0={float(eps[i])!r} failed: "
                           f"no sign change on mu0 in [{float(eps[i])!r}, {float(hi[i])!r}]")
    x, converged = _bracketed_root(lambda rows, x: _c4_bracket(eps[rows], np.exp(x)),
                                   np.log(eps), np.log(hi), f_lo, f_hi, 1e-13)
    if not converged.all():
        i = int(np.flatnonzero(~converged)[0])
        raise RuntimeError(f"border root search at eps0={float(eps[i])!r} did not "
                           f"converge in {_ROOT_MAX_STEPS} steps")
    return [BorderPoint(e, m, "root-find") for e, m in zip(eps.tolist(), np.exp(x).tolist())]


def _single_resonance(resonances) -> "tuple[float, float] | None":
    active = [r for r in resonances if r.plasma > 0.0]
    if len(active) != 1:
        return None
    return active[0].plasma, active[0].transverse


def _closed_form_inputs(atom: AtomModel, material: MaterialModel):
    """(w10, d2, wpe, wte, wpm, wtm) when the lossless two-level closed forms apply."""
    if len(atom.transitions) != 1:
        return None
    el = _single_resonance(material.electric)
    ma = _single_resonance(material.magnetic)
    if el is None or ma is None:
        return None
    t = atom.transitions[0]
    return t.frequency, t.dipole_sq, el[0], el[1], ma[0], ma[1]


def wall_estimate(plate_kind: str, atom: AtomModel,
                  material: MaterialModel | Sequence[MaterialModel],
                  thickness: float | None = None,
                  spec: QuadratureSpec | None = None) -> list[WallEstimate]:
    """Analytic wall position and height estimates from the short-distance coefficients.

    Returns the generic coefficient-ratio estimate and, when the model is a
    two-level atom with one electric and one magnetic resonance, the lossless
    closed form alongside.  Raises :class:`NoWallError` when the electric
    response vanishes (the repulsive potential is then monotone).

    A sequence of materials gives a list, one outcome per material: its
    estimates, or its NoWallError or coefficient RuntimeError, returned
    rather than raised.  Their coefficient integrals are one
    ``plate_coefficients`` call, so one 1-D integral serves them all.
    """
    _require_plate_kind(plate_kind)
    several = not isinstance(material, (MaterialModel, PerfectMirror))
    media = list(material) if several else [material]
    if any(isinstance(m, PerfectMirror) for m in media):
        raise TypeError("wall estimates need a dispersive material")
    if plate_kind == "thin" and thickness is None:
        raise ValueError("thin wall estimate needs a thickness")
    thick = plate_kind == "thick"
    outcomes = []
    for m, coeffs in zip(media, plate_coefficients(atom, media, None if thick else thickness,
                                                   spec, thick=thick)):
        if isinstance(coeffs, RuntimeError):
            outcomes.append(coeffs)
            continue
        try:
            outcomes.append(_wall_estimates(plate_kind, atom, m, thickness,
                                            coeffs[0] if thick else coeffs[1]))
        except NoWallError as exc:
            outcomes.append(exc)
    return outcomes if several else _one(outcomes)


def _wall_estimates(plate_kind: str, atom: AtomModel, material: MaterialModel,
                    thickness: float | None, c) -> list[WallEstimate]:
    """``wall_estimate``'s estimates of one material from its coefficients ``c``."""
    res_freqs = material.resonance_frequencies()
    omega_top = max(res_freqs) if res_freqs else math.inf
    if plate_kind == "thick":
        if not c.c3 > 0.0:
            raise NoWallError("no electric response: 1/z^3 coefficient vanishes")
        if not c.c4 > 0.0:
            raise NoWallError("attractive long range: no repulsive wall forms")
        z_max = math.sqrt(3.0 * c.c3 / c.c1)
        u_max = (2.0 / 3.0) * math.sqrt(c.c1**3 / (3.0 * c.c3))
    else:
        if not c.d4 > 0.0:
            raise NoWallError("no electric response: 1/z^4 coefficient vanishes")
        if not c.d5 > 0.0:
            raise NoWallError("attractive long range: no repulsive wall forms")
        z_max = math.sqrt(2.0 * c.d4 / c.d2)
        u_max = c.d2**2 / (4.0 * c.d4)

    out = [WallEstimate(z_max, u_max, "coefficient-ratio", consistency=z_max * omega_top)]
    closed = _closed_form_wall(plate_kind, atom, material, thickness)
    if closed is not None:
        out.append(closed)
    return out


def _closed_form_wall(plate_kind: str, atom: AtomModel, material: MaterialModel,
                      thickness: float | None) -> WallEstimate | None:
    inputs = _closed_form_inputs(atom, material)
    if inputs is None:
        return None
    w10, dsq, wpe, wte, wpm, wtm = inputs
    omega_top = max(wte, wtm)
    common = (wpe / (wpm * wte)) * math.sqrt(wte * (w10 + wtm) / (w10 * (w10 + wte)))
    if plate_kind == "thick":
        wsm = math.sqrt(wtm**2 + 0.5 * wpm**2)
        z_max = common * math.sqrt(3.0 * (w10 + wsm) / (2.0 * w10 + wsm + wtm))
        u_max = (
            (dsq * wpm**3 / (48.0 * math.pi))
            * (wte / wpe) * math.sqrt((w10 + wte) / wte)
            * (w10 * (2.0 * w10 + wsm + wtm) / (3.0 * (w10 + wsm) * (w10 + wtm))) ** 1.5
        )
    else:
        wlm = math.sqrt(wtm**2 + wpm**2)
        z_max = common * math.sqrt(12.0 * (w10 + wlm) / (4.0 * w10 + 3.0 * wlm + wtm))
        u_max = (
            (thickness * dsq * wpm**4 / (1152.0 * math.pi))
            * (wte**2 / wpe**2) * ((w10 + wte) / wte)
            * (w10 * (4.0 * w10 + 3.0 * wlm + wtm)
               / (2.0 * (w10 + wlm) * (w10 + wtm))) ** 2
        )
    return WallEstimate(z_max, u_max, "two-level-closed-form",
                        consistency=z_max * omega_top)


def thin_wall_height_bound(atom: AtomModel, material: MaterialModel) -> float:
    """Thickness-independent upper scale for the thin-plate wall height.

    The thin wall height, being linear in d, must fall far below this bound
    whenever n(0) d / z_max << 1.
    """
    _require_dispersive("thin_wall_height_bound", material)
    inputs = _closed_form_inputs(atom, material)
    if inputs is None:
        raise ValueError("bound needs a two-level atom and single-resonance material")
    w10, dsq, wpe, wte, wpm, wtm = inputs
    wlm = math.sqrt(wtm**2 + wpm**2)
    return (
        (3.0 * dsq * wpm**3 / (768.0 * math.pi))
        * (wte / wpe) * math.sqrt((w10 + wte) / wte)
        * (w10 * (4.0 * w10 + 3.0 * wlm + wtm)
           / (3.0 * (w10 + wlm) * (w10 + wtm))) ** 1.5
    )


# The default scan grid of locate_wall, which the config's wall section takes too
_WALL_Z_LO = 1e-3
_WALL_Z_HI = 1e2
_WALL_SAMPLES = 60
# Root tolerance in log z of the table's force: far below the position error
# err(F) / |F'| that the certifying call reports at the default tolerances
_WALL_ROOT_TOL = 1e-12
# Log-spaced z at which one force call samples the bracket around the scan's
# maximum; a narrow first bracket saves root steps, each a force call too
_WALL_ROOT_GRID = 33
# The rows of the certifying call, by power: U, F = -dU/dz and F' = d^2U/dz^2
_WALL_ROWS = ("U", "F", "F'")


def locate_wall(potential: Callable, z_lo: float = _WALL_Z_LO, z_hi: float = _WALL_Z_HI,
                samples: int = _WALL_SAMPLES, *, force: Callable):
    """Find the positive maximum of a potential as a zero of its force, or None.

    ``potential(z, power=0)`` maps a 1-D array of z to a ``PotentialBatch``
    of (-d/dz)^p U for integers ``power`` p (one, or one per z), as the
    potentials of :mod:`vdwlayers.potential` do;
    ``force(z)`` maps a 1-D array of z to the force F = -dU/dz, without an
    error, as ``NodeTable.sums(z, power=1)`` does on the table that
    ``potential`` keeps.  The scan is one array call.  A maximum at the
    first or last converged sample is an edge of the grid, not a wall, and
    gives None.  Otherwise the wall is the root of F between the maximum's
    two neighbours: one ``force`` call on ``_WALL_ROOT_GRID`` log-spaced z
    there brackets it where F first turns from - to +, and
    ``_bracketed_root`` finds it in log z on ``force`` alone, so a
    potential that keeps its table computes no kernel point there.  One
    certifying call at the root then computes the rows U, F and F' =
    d^2U/dz^2 (powers 0, 1, 2), each to its own tolerance (see
    ``integrate_nested``).  The wall's height is that U, its ``force`` that
    F, and its ``z_err`` (err(F) + |F|) / |F'|, the distance to the true
    root to first order.  A wall is declared only when its height exceeds
    ten times its quadrature error estimate, so quadrature noise is never
    reported as a wall.  Scan points that do not converge are skipped with
    a warning; a certifying row that does not converge, a force without
    that sign change and a root search that does not converge raise
    RuntimeError naming z.  ``z_lo`` and ``z_hi`` must be finite and > 0,
    and ``samples`` an integer >= 4, or ValueError is raised before any
    potential is computed.

    A ``potential`` may also compute several channels on one table, as the
    ``wall`` command's does with the one wall of each of its series: it
    then returns a list of one ``PotentialBatch`` per channel, and takes z
    as a 1-D array (every channel at it) or as a (channels, n) array, with
    ``power`` of that shape; ``force`` maps a (channels, m) array to F of
    that shape, as ``NodeTable.sums`` does on a table of that many
    channels.  The channels share every step: one scan call, one ``force``
    grid over every bracket, one ``_bracketed_root`` over them all, and one
    certifying call for every channel with a root, in which a channel
    without one has three p = 0 rows at its largest converged scan sample,
    which the scan's nodes already serve, so they add no kernel point.  The
    result is then a list of one outcome per channel: a wall, None, or the
    RuntimeError that the channel alone would raise, returned rather than
    raised.  With more than one channel, a skipped scan point's warning
    names its channel.  One potential runs as the one-channel case, wrapped
    right after the scan, and its one outcome is returned or raised.
    """
    _require_positive("z_lo", z_lo)
    _require_positive("z_hi", z_hi)
    _require_integer("samples", samples, 4)
    if not z_hi > z_lo:
        raise ValueError(f"z_hi must exceed z_lo, got z_lo={z_lo}, z_hi={z_hi}")
    zs = np.geomspace(z_lo, z_hi, samples)
    scans = potential(zs)
    several = not isinstance(scans, IntegralBatch)
    if not several:  # one potential: the channel search on one channel
        scans, one, one_force = [scans], potential, force
        potential = lambda z, power: [one(z[0], power=power[0])]  # noqa: E731
        force = lambda z: np.asarray(one_force(z[0]), dtype=float)[None]  # noqa: E731
    k = len(scans)
    outcomes = [None] * k
    rest = np.full(k, zs[0])  # per channel: the z of its certifying rows if it has no root
    brackets = {}  # per channel with a maximum inside the grid: its neighbours' z
    for c, scan in enumerate(scans):
        where = f" of channel {c}" if k > 1 else ""
        for z in zs[~scan.row_converged].tolist():
            warnings.warn(f"skipping z = {z:.4g}{where}: quadrature did not converge",
                          stacklevel=2)
        kept = np.flatnonzero(scan.row_converged)
        if not kept.size:
            outcomes[c] = RuntimeError("no scan point converged")
            continue
        idx = int(np.argmax(scan.values[kept]))
        rest[c] = zs[kept[idx]]
        if scan.values[kept[idx]] > 0.0 and idx not in (0, kept.size - 1):
            brackets[c] = zs[kept[[idx - 1, idx + 1]]].tolist()

    def forces(chans, z):
        """F of the channels ``chans`` at z, one row of z per channel (the rest at z_lo)."""
        full = np.full((k, z.shape[1]), z_lo)
        full[chans] = z
        return np.asarray(force(full), dtype=float)[chans]

    roots = {}  # per channel with a converged root of its force: that root
    if brackets:
        chans = np.array(list(brackets))
        grid = np.array([np.linspace(math.log(lo), math.log(hi), _WALL_ROOT_GRID)
                         for lo, hi in brackets.values()])
        f = forces(chans, np.exp(grid))
        turns = (f[:, :-1] < 0.0) & (f[:, 1:] >= 0.0)
        for c in chans[~turns.any(axis=1)].tolist():
            lo, hi = brackets[c]
            outcomes[c] = RuntimeError(f"wall search: the force does not turn from - to + on "
                                       f"z = {lo:.6g} .. {hi:.6g}")
        r = np.flatnonzero(turns.any(axis=1))  # the brackets with a turn
        i = np.argmax(turns[r], axis=1)  # each one's first turn
        x, converged = _bracketed_root(
            lambda rows, x: forces(chans[r[rows]], np.exp(x)[:, None])[:, 0],
            grid[r, i], grid[r, i + 1], f[r, i], f[r, i + 1], _WALL_ROOT_TOL)
        for j, c in enumerate(chans[r].tolist()):
            root = float(np.exp(x[j]))
            if converged[j]:
                roots[c] = root
            else:
                outcomes[c] = RuntimeError(f"wall search: the root of the force near z = "
                                           f"{root:.6g} did not converge in {_ROOT_MAX_STEPS} "
                                           f"steps")

    if roots:
        z = np.repeat(rest[:, None], len(_WALL_ROWS), axis=1)
        power = np.zeros(z.shape, dtype=int)
        for c, root in roots.items():
            z[c], power[c] = root, np.arange(len(_WALL_ROWS))
        certified = potential(z, power=power)
        for c, root in roots.items():
            rows = certified[c]
            if not rows.converged:
                outcomes[c] = RuntimeError(
                    f"wall refinement: quadrature did not converge at z = {root:.6g} in the "
                    f"{_WALL_ROWS[np.argmin(rows.row_converged)]} row")
                continue
            (height, f_root, curvature), errors = rows.values.tolist(), rows.errors.tolist()
            if height > 10.0 * abs(errors[0]):
                outcomes[c] = WallEstimate(root, height, "numeric-scan",
                                           z_err=(errors[1] + abs(f_root)) / abs(curvature),
                                           force=f_root)
    return outcomes if several else _one(outcomes)

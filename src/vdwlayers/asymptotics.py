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
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .materials import AtomModel, MaterialModel, Medium, PerfectMirror, static_summary
from .potential import PotentialResult
# integrate_finite is unused here but stays importable: perfbench's
# quadrature.oned probe wraps asymptotics.integrate_finite.
from .quadrature import (_EPS, QuadratureSpec, _require, _require_positive,  # noqa: F401
                         integrate_finite, integrate_semi_infinite)

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
    """One point of the attraction/repulsion border; mu0 is None when no root exists below the ceiling."""

    eps0: float
    mu0: float | None
    method: str


@dataclass(frozen=True)
class WallEstimate:
    """Location and height of the repulsive potential wall.

    ``consistency`` is z_max times the highest matter resonance frequency;
    the short-distance estimates assume it is << 1.
    """

    z_max: float
    u_max: float
    method: str
    consistency: float | None = None


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
    at s = 0, P is its limit (W - 1)/(2 (W + 1)).  P and J1 of both
    responses are one array of 2n entries, eps0 first.
    """
    n = a.size
    root_a = np.sqrt(a)
    ln_w = np.arcsinh(root_a)  # ln W
    x = np.concatenate([eps0, mu0])
    w, ln_w2, root_a2 = (np.tile(v, 2) for v in (root_a + np.sqrt(1.0 + a), ln_w, root_a))
    s = np.sqrt((x - 1.0) * (x + 1.0))
    s1 = np.where(s > 0.0, s, 1.0)
    p = np.where(s > 0.0, (0.5 * np.arcsinh(s1) - np.arctanh(s1 / (w + x))) / s1,
                 (w - 1.0) / (2.0 * (w + 1.0)))
    j1 = (np.tile(2.0 * np.sqrt(a * (1.0 + a)), 2) - 4.0 * x * root_a2
          + 2.0 * (2.0 * x * x - 1.0) * ln_w2 - 8.0 * x * (x * x - 1.0) * p)
    i1 = j1 / np.tile(8.0 * a * root_a, 2)
    i0_e = (ln_w - 2.0 * eps0 * p[:n]) / (2.0 * root_a)
    return -4.0 / 3.0 + 4.0 * eps0 * (2.0 * i0_e - i1[:n]) - 4.0 * mu0 * i1[n:]


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


def _char_scale(atom: AtomModel, material: MaterialModel) -> float:
    """Map scale for the coefficient u-integrals.

    The integrands knee once at the lowest transition/resonance frequency and
    once where each susceptibility falls to order one, i.e. at
    sqrt(transverse^2 + plasma^2); the geometric mean places quadrature nodes
    across the whole span even for plasma >> transverse media.
    """
    lows = [t.frequency for t in atom.transitions]
    highs = list(lows)
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


def plate_coefficients(atom: AtomModel, material: Medium, thickness: float | None = None,
                       spec: QuadratureSpec | None = None, *,
                       thick: bool = True) -> tuple[ThickCoeffs | None, ThinCoeffs | None]:
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
    """
    if isinstance(material, PerfectMirror):
        if not thick:
            raise TypeError("thin-plate coefficients are undefined for a perfect mirror")
        alpha0 = atom.alpha0
        if material.kind == "conducting":
            c4 = -3.0 * alpha0 / (32.0 * _PI2)
            c3 = atom.dipole_sq_total / (48.0 * math.pi)
        else:
            c4 = 3.0 * alpha0 / (32.0 * _PI2)
            c3 = 0.0
        return ThickCoeffs(c4=c4, c3=c3, c1=math.inf, method="mirror-limit"), None
    if thickness is not None:
        _require_positive("thickness", thickness)
    elif not thick:
        raise ValueError("thin-plate coefficients need a thickness")
    channels = ((_SHORT_DISTANCE[:2] if thick else ())
                + (_SHORT_DISTANCE[2:] if thickness is not None else ()))

    def integrand(u):
        a, e, m = atom.alpha(u), material.eps(u), material.mu(u)
        return np.stack([f(u, a, e, m) for f, _ in channels])

    batch = integrate_semi_infinite(integrand, 0.0, spec=spec,
                                    scale=_char_scale(atom, material))
    integrals = [_require(res, what) for res, (_, what) in zip(batch, channels)]
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


def thick_c4_limits(eps0: float, mu0: float, alpha0: float) -> C4Limits:
    """Closed-form C4 in the weak- and strong-response limits.

    The weak form is proportional to -[23 chi_e(0) - 7 chi_m(0)]; the strong
    form is a polynomial-and-log function of the static impedance alone.
    """
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
    """Static permeability on the thin-plate attraction/repulsion border, closed form."""
    e2 = eps0 * eps0
    return (14.0 * e2 - 9.0 + math.sqrt(196.0 * e2 * e2 - 228.0 * e2 + 81.0)) / (12.0 * eps0)


def border_curve(plate_kind: str, eps0_values: Sequence[float],
                 spec: QuadratureSpec | None = None,
                 mu_ceiling: float = 1e6) -> list[BorderPoint]:
    """Attraction/repulsion border mu0(eps0) for thick or thin plates.

    The thick border is the unique root in mu0 of the static bracket
    ``_c4_bracket`` (uniqueness from its monotonicity in both arguments):
    its closed form where that is exact to 3.1e-14, its fixed
    Gauss-Legendre rule elsewhere, so no quadrature runs and ``spec`` is
    not used (it stays for the signature).  A point with |bracket| < 1e-13
    at mu0 = 1 has mu0 = 1.  Otherwise the root is bracketed geometrically,
    one decade per round from 10 max(eps0, 10) up to ``mu_ceiling``; points
    with no root below the ceiling are marked with ``mu0=None``.  The root
    is then refined in x = log mu0 by ``_bracketed_root`` to 1e-13 in x.
    Every round and every root step evaluates the bracket of each point
    still in play as one batch, and a point's result does not depend on
    the other points.  The thin border is closed-form.  A root search that
    does not converge raises RuntimeError naming its eps0.
    """
    if plate_kind not in ("thick", "thin"):
        raise ValueError(f"plate_kind must be 'thick' or 'thin', got {plate_kind!r}")
    if not (math.isfinite(mu_ceiling) and mu_ceiling >= 1.0):
        raise ValueError(f"mu_ceiling must be finite and >= 1, got {mu_ceiling}")
    eps = np.array([float(e) for e in eps0_values], dtype=float)
    bad = ~(np.isfinite(eps) & (eps >= 1.0))
    if bad.any():
        raise ValueError(f"eps0 must be finite and >= 1, got {eps[bad][0]}")
    if plate_kind == "thin":
        return [BorderPoint(e, thin_border_mu(e), "closed-form") for e in eps.tolist()]

    f_one = _c4_bracket(eps, np.ones_like(eps))
    at_one = np.abs(f_one) < 1e-13
    hi = 10.0 * np.maximum(eps, 10.0)
    f_hi = np.zeros_like(eps)
    todo = ~at_one
    while todo.any():  # one round per decade of bracket growth
        f_hi[todo] = _c4_bracket(eps[todo], hi[todo])
        todo &= (f_hi > 0.0) & (hi < mu_ceiling)
        hi[todo] *= 10.0
    solve = ~at_one & ~(f_hi > 0.0)
    mu = np.ones_like(eps)
    if solve.any():
        eps_s = eps[solve]
        same_sign = np.flatnonzero(~(f_one[solve] >= 0.0))  # f_hi <= 0 already
        if same_sign.size:
            i = int(same_sign[0])
            raise RuntimeError(f"border root search at eps0={float(eps_s[i])!r} failed: "
                               f"no sign change on mu0 in [1, {float(hi[solve][i])!r}]")
        x, converged = _bracketed_root(lambda rows, x: _c4_bracket(eps_s[rows], np.exp(x)),
                                       np.zeros_like(eps_s), np.log(hi[solve]),
                                       f_one[solve], f_hi[solve], 1e-13)
        if not converged.all():
            i = int(np.flatnonzero(~converged)[0])
            raise RuntimeError(f"border root search at eps0={float(eps_s[i])!r} did not "
                               f"converge in {_ROOT_MAX_STEPS} steps")
        mu[solve] = np.exp(x)
    return [BorderPoint(e, m if ok else None, "root-find")
            for e, m, ok in zip(eps.tolist(), mu.tolist(), (at_one | solve).tolist())]


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


def wall_estimate(plate_kind: str, atom: AtomModel, material: MaterialModel,
                  thickness: float | None = None,
                  spec: QuadratureSpec | None = None) -> list[WallEstimate]:
    """Analytic wall position and height estimates from the short-distance coefficients.

    Returns the generic coefficient-ratio estimate and, when the model is a
    two-level atom with one electric and one magnetic resonance, the lossless
    closed form alongside.  Raises :class:`NoWallError` when the electric
    response vanishes (the repulsive potential is then monotone).
    """
    if plate_kind not in ("thick", "thin"):
        raise ValueError(f"plate_kind must be 'thick' or 'thin', got {plate_kind!r}")
    if isinstance(material, PerfectMirror):
        raise TypeError("wall estimates need a dispersive material")
    res_freqs = material.resonance_frequencies()
    omega_top = max(res_freqs) if res_freqs else math.inf

    if plate_kind == "thick":
        c = thick_coefficients(atom, material, spec)
        if not c.c3 > 0.0:
            raise NoWallError("no electric response: 1/z^3 coefficient vanishes")
        if not c.c4 > 0.0:
            raise NoWallError("attractive long range: no repulsive wall forms")
        z_max = math.sqrt(3.0 * c.c3 / c.c1)
        u_max = (2.0 / 3.0) * math.sqrt(c.c1**3 / (3.0 * c.c3))
    else:
        if thickness is None:
            raise ValueError("thin wall estimate needs a thickness")
        c = thin_coefficients(atom, material, thickness, spec)
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
        if thickness is None:
            return None
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


_WALL_POSITION_REL_TOL = 1e-4  # final wall bracket width relative to its midpoint
_WALL_ROUND_POINTS = 65  # z per refinement round: 63 interior points and both bracket ends


def locate_wall(potential: Callable, z_lo: float = 1e-3, z_hi: float = 1e2,
                samples: int = 60) -> WallEstimate | None:
    """Find the positive maximum of a potential on a log-spaced scan, or None.

    ``potential`` maps a float z to a ``PotentialResult`` and a 1-D array of
    z to a list of them, as the potentials of :mod:`vdwlayers.potential` do.
    The scan is one array call.  A maximum at the first or last converged
    sample is an edge of the grid, not a wall, and gives None.  Otherwise the
    bracket between the maximum's two neighbours is refined in rounds: each
    round is one array call on a fixed number of log-spaced z across the
    bracket, ends included, so one node table serves them all; the next
    bracket is the neighbours of that round's largest value.  A potential
    that keeps one ``NodeTable`` across its calls makes the rounds almost
    free: G(b) does not depend on z, so the scan's nodes serve every round,
    which computes only the panels its rows still need (and a node again
    where the scan's rows set its inner accuracy too loose).  Rounds stop
    once the bracket is at most 1e-4 times its midpoint.  The wall is the
    best point of the last round, with the height that round computed.  A
    wall is declared only when its height exceeds ten times its quadrature
    error estimate, so quadrature noise is never reported as a wall.  Scan
    points that do not converge are skipped with a warning; a round point
    that does not converge raises RuntimeError naming its z.  ``z_lo`` and
    ``z_hi`` must be finite and > 0, and ``samples`` an integer >= 4, or
    ValueError is raised before any potential is computed.
    """
    _require_positive("z_lo", z_lo)
    _require_positive("z_hi", z_hi)
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 4:
        raise ValueError(f"samples must be an integer >= 4, got {samples!r}")
    if not z_hi > z_lo:
        raise ValueError(f"z_hi must exceed z_lo, got z_lo={z_lo}, z_hi={z_hi}")
    zs = np.geomspace(z_lo, z_hi, samples)
    values: list[tuple[float, PotentialResult]] = []
    for z, res in zip(zs.tolist(), potential(zs)):
        if not res.converged:
            warnings.warn(f"skipping z = {z:.4g}: quadrature did not converge", stacklevel=2)
            continue
        values.append((z, res))
    if not values:
        raise RuntimeError("no scan point converged")

    idx = max(range(len(values)), key=lambda i: values[i][1].value)
    best_z, best = values[idx]
    if best.value <= 0.0 or idx in (0, len(values) - 1):
        return None

    lo, hi = values[idx - 1][0], values[idx + 1][0]
    while hi - lo > _WALL_POSITION_REL_TOL * 0.5 * (lo + hi):
        zs = np.geomspace(lo, hi, _WALL_ROUND_POINTS)
        results = potential(zs)
        for z, res in zip(zs.tolist(), results):
            if not res.converged:
                raise RuntimeError(f"wall refinement: quadrature did not converge at z = {z:.6g}")
        k = max(range(zs.size), key=lambda i: results[i].value)
        best_z, best = float(zs[k]), results[k]
        lo, hi = float(zs[max(k - 1, 0)]), float(zs[min(k + 1, zs.size - 1)])

    if best.value <= 10.0 * abs(best.error):
        return None
    return WallEstimate(best_z, best.value, "numeric-scan")

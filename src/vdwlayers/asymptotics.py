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

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from .materials import AtomModel, MaterialModel, Medium, PerfectMirror, static_summary
from .potential import PotentialResult
# integrate_finite is unused here but stays importable: perfbench's
# quadrature.oned probe wraps asymptotics.integrate_finite.
from .quadrature import (DEFAULT_SPEC, QuadratureSpec, _lockstep, _require,  # noqa: F401
                         integrate_finite, integrate_semi_infinite)

__all__ = [
    "NoWallError",
    "ThickCoeffs",
    "ThinCoeffs",
    "C4Limits",
    "BorderPoint",
    "WallEstimate",
    "thick_coefficients",
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


def _c4_bracket_integral(eps0, mu0, spec: QuadratureSpec | None = None) -> np.ndarray:
    """The static v-integrals whose sign decides attraction vs repulsion at long range.

    One integral per entry of the equal-length 1-D arrays ``eps0`` and
    ``mu0``, all refined together as one lockstep batch.  Each is mapped by
    v = 1/t onto (0, 1], where its integrand is bounded and smooth.
    """
    eps0 = np.asarray(eps0, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    em = eps0 * mu0 - 1.0

    def g(rows, t):
        e, m = eps0[rows, None], mu0[rows, None]
        h = np.sqrt(1.0 + em[rows, None] * t * t)
        return (2.0 - t * t) * (e - h) / (e + h) - t * t * (m - h) / (m + h)

    # the integrand is O(1)-bounded, so an absolute floor is meaningful here;
    # near the attraction/repulsion border the integral itself crosses zero
    base = spec or DEFAULT_SPEC
    value, error, _, _, converged = _lockstep(g, eps0.size, 1e-10, max(base.abs_tol, 1e-14),
                                              base.max_subdivisions)
    if not converged.all():
        i = int(np.flatnonzero(~converged)[0])
        raise RuntimeError(f"quadrature for the long-distance coefficient at "
                           f"eps0={float(eps0[i])!r}, mu0={float(mu0[i])!r} did not converge "
                           f"(error estimate {error[i]:.3e})")
    return value


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
    """C4, C3, C1 of a semi-infinite plate from their 1-D integrals.

    For a perfect mirror C4 and C3 take their closed limits while C1 diverges
    (no magnetic cutoff) and is reported as inf.
    """
    alpha0 = atom.alpha0
    if isinstance(material, PerfectMirror):
        if material.kind == "conducting":
            c4 = -3.0 * alpha0 / (32.0 * _PI2)
            c3 = atom.dipole_sq_total / (48.0 * math.pi)
        else:
            c4 = 3.0 * alpha0 / (32.0 * _PI2)
            c3 = 0.0
        return ThickCoeffs(c4=c4, c3=c3, c1=math.inf, method="mirror-limit")

    s = static_summary(material)
    c4 = -(3.0 * alpha0 / (64.0 * _PI2)) * float(
        _c4_bracket_integral([s.eps0], [s.mu0], spec)[0])

    scale = _char_scale(atom, material)

    def f3(u):
        e = material.eps(u)
        return atom.alpha(u) * (e - 1.0) / (e + 1.0)

    def f1(u):
        e = material.eps(u)
        m = material.mu(u)
        return (
            u * u * atom.alpha(u)
            * ((e - 1.0) / (e + 1.0) + (m - 1.0) / (m + 1.0)
               + 2.0 * e * (e * m - 1.0) / (e + 1.0) ** 2)
        )

    c3 = _require(integrate_semi_infinite(f3, 0.0, spec=spec, scale=scale),
                  "short-distance 1/z^3 coefficient") / (16.0 * _PI2)
    c1 = _require(integrate_semi_infinite(f1, 0.0, spec=spec, scale=scale),
                  "short-distance 1/z coefficient") / (16.0 * _PI2)
    return ThickCoeffs(c4=c4, c3=c3, c1=c1)


def thick_c4_limits(eps0: float, mu0: float, alpha0: float) -> C4Limits:
    """Closed-form C4 in the weak- and strong-response limits.

    The weak form is proportional to -[23 chi_e(0) - 7 chi_m(0)]; the strong
    form is a polynomial-and-log function of the static impedance alone.
    """
    chi_e = eps0 - 1.0
    chi_m = mu0 - 1.0
    weak = -(alpha0 / (640.0 * _PI2)) * (23.0 * chi_e - 7.0 * chi_m)
    strong = -(3.0 * alpha0 / (64.0 * _PI2)) * _strong_bracket(math.sqrt(mu0 / eps0))
    return C4Limits(weak=weak, strong=strong)


def _strong_bracket(z: float) -> float:
    l1 = math.log1p(z)
    l2 = math.log1p(1.0 / z)
    return (
        -2.0 / z**3 * l1 + 2.0 / z**2 + 4.0 / z * l1
        - 1.0 / z - 4.0 / 3.0 - z + 2.0 * z**2 - 2.0 * z**3 * l2
    )


def strong_limit_impedance_root() -> float:
    """Static impedance sqrt(mu0/eps0) at which the strong-limit C4 changes sign."""
    return float(brentq(_strong_bracket, 1.0, 10.0, xtol=1e-12, rtol=8.9e-16))


def thin_coefficients(atom: AtomModel, material: MaterialModel, thickness: float,
                      spec: QuadratureSpec | None = None) -> ThinCoeffs:
    """D5, D4, D2 of an asymptotically thin plate; D5 is closed-form in the statics."""
    if isinstance(material, PerfectMirror):
        raise TypeError("thin-plate coefficients are undefined for a perfect mirror")
    if not thickness > 0.0:
        raise ValueError(f"thickness must be > 0, got {thickness}")
    d = thickness
    alpha0 = atom.alpha0
    s = static_summary(material)
    d5 = -(alpha0 * d / (160.0 * _PI2)) * (
        (14.0 * s.eps0**2 - 9.0) / s.eps0 - (6.0 * s.mu0**2 - 1.0) / s.mu0
    )

    scale = _char_scale(atom, material)

    def f4(u):
        e = material.eps(u)
        return atom.alpha(u) * (e * e - 1.0) / e

    def f2(u):
        e = material.eps(u)
        m = material.mu(u)
        return (
            u * u * atom.alpha(u)
            * ((e * e - 1.0) / e + (m * m - 1.0) / m + 2.0 * (e * m - 1.0) / e)
        )

    d4 = 3.0 * d * _require(integrate_semi_infinite(f4, 0.0, spec=spec, scale=scale),
                            "thin 1/z^4 coefficient") / (64.0 * _PI2)
    d2 = d * _require(integrate_semi_infinite(f2, 0.0, spec=spec, scale=scale),
                      "thin 1/z^2 coefficient") / (64.0 * _PI2)
    return ThinCoeffs(d5=d5, d4=d4, d2=d2, thickness=d)


def thin_border_mu(eps0: float) -> float:
    """Static permeability on the thin-plate attraction/repulsion border, closed form."""
    e2 = eps0 * eps0
    return (14.0 * e2 - 9.0 + math.sqrt(196.0 * e2 * e2 - 228.0 * e2 + 81.0)) / (12.0 * eps0)


def border_curve(plate_kind: str, eps0_values: Sequence[float],
                 spec: QuadratureSpec | None = None,
                 mu_ceiling: float = 1e6) -> list[BorderPoint]:
    """Attraction/repulsion border mu0(eps0) for thick or thin plates.

    The thick border is the unique root of the static C4 integral in mu0
    (uniqueness from its monotonicity in both arguments), bracketed
    geometrically up to ``mu_ceiling``; points with no root below the ceiling
    are marked with ``mu0=None``.  All points are solved together: each
    bracketing round and each root-finding iteration evaluates the integrals
    of every point still in play as one batch.  A point's result does not
    depend on the other points.  The thin border is closed-form.
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

    def f(e, mu):
        return _c4_bracket_integral(e, mu, spec)

    at_one = np.abs(f(eps, np.ones_like(eps))) < 1e-13
    hi = 10.0 * np.maximum(eps, 10.0)
    f_hi = np.zeros_like(eps)
    todo = ~at_one
    while todo.any():  # one round per decade of bracket growth
        f_hi[todo] = f(eps[todo], hi[todo])
        todo &= (f_hi > 0.0) & (hi < mu_ceiling)
        hi[todo] *= 10.0
    solve = ~at_one & ~(f_hi > 0.0)
    mu = np.ones_like(eps)
    if solve.any():
        # in x = log mu0, on [0, log hi]
        eps_s = eps[solve]
        res = find_root(lambda x, e: f(e, np.exp(x)), (np.zeros_like(eps_s), np.log(hi[solve])),
                        args=(eps_s,),
                        tolerances=dict(xatol=1e-13, xrtol=0.0, fatol=0.0, frtol=0.0))
        failed = np.flatnonzero(res.status != 0)
        if failed.size:
            i = failed[0]
            raise RuntimeError(f"border root search at eps0={float(eps_s[i])!r} failed "
                               f"(status {int(res.status[i])})")
        mu[solve] = np.exp(res.x)
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def locate_wall(potential: Callable[[float], PotentialResult],
                z_lo: float = 1e-3, z_hi: float = 1e2, samples: int = 60,
                position_rel_tol: float = 1e-4) -> WallEstimate | None:
    """Find the positive maximum of a potential on a log-spaced scan, or None.

    The scan maximum is refined by golden-section search; a wall is declared
    only when the refined maximum exceeds ten times its quadrature error
    estimate, so quadrature noise is never reported as a wall.  Scan points
    that do not converge are skipped with a warning; a refinement potential
    that does not converge raises RuntimeError naming its z.
    """
    zs = np.geomspace(z_lo, z_hi, samples)
    values: list[tuple[float, PotentialResult]] = []
    for z in zs:
        res = potential(float(z))
        if not res.converged:
            warnings.warn(f"skipping z = {z:.4g}: quadrature did not converge", stacklevel=2)
            continue
        values.append((float(z), res))
    if not values:
        raise RuntimeError("no scan point converged")

    idx = max(range(len(values)), key=lambda i: values[i][1].value)
    best_z, best = values[idx]
    if best.value <= 0.0:
        return None

    def refined(z: float) -> PotentialResult:
        res = potential(z)
        if not res.converged:
            raise RuntimeError(f"wall refinement: quadrature did not converge at z = {z:.6g}")
        return res

    lo = values[idx - 1][0] if idx > 0 else best_z
    hi = values[idx + 1][0] if idx + 1 < len(values) else best_z
    if lo < hi:
        a, b = lo, hi
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc = refined(c).value
        fd = refined(d).value
        while (b - a) > position_rel_tol * 0.5 * (a + b):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = refined(c).value
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = refined(d).value
        best_z = 0.5 * (a + b)
        best = refined(best_z)

    if best.value <= 10.0 * abs(best.error):
        return None
    return WallEstimate(best_z, best.value, "numeric-scan")

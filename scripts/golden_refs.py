#!/usr/bin/env python3
"""High-precision reference values for the potentials, written to tests/golden.json.

Every potential is computed with mpmath in the swapped integration order

    U(z) = int_0^inf db e^{-2 b z} G(b),   G(b) = int_0^b du K(u, b),

K being the wall integrand (1 / 8 pi^2) alpha(iu) [u^2 r_s - (2 b^2 - u^2) r_p]
with the closed-form reflection coefficients of each geometry.  Each value
is computed twice, at 30 and at 36 working digits with tanh-sinh
quadrature split at the resonances and at the decay lengths; the digits on
which the two runs agree are recorded with it, and the script fails if
fewer than 20 agree.  The mirror points are the conducting and the
permeable perfect mirror.  The file also holds the short-distance
coefficient integrals C3 and C1 (thick) and D4 and D2 (thin) of the plate,
each a 1-D integral in u taken the same way, and single-interface
reflection coefficients at u << b, where the double-precision Fresnel
numerator cancels.

It also holds the static long-distance bracket

    B(eps0, mu0) = int_0^1 [(2 - t^2)(eps0 - h)/(eps0 + h) - t^2 (mu0 - h)/(mu0 + h)] dt,

h = sqrt(1 + a t^2), a = eps0 mu0 - 1 (C4 = -3 alpha(0) B / (64 pi^2)), at
points on both sides of the library's closed-form/fixed-rule switch, and
the thick attraction/repulsion border mu0(eps0), the root of B in mu0.
These are computed at 40 and at 46 working digits (tanh-sinh in
t = sinh(phi)/sqrt(a), split every quarter unit of phi; the root by
mpmath's findroot) and recorded to 40 digits.

Usage: python scripts/golden_refs.py [out.json]   (about twenty minutes on one core)
"""

import json
import sys
from pathlib import Path

import mpmath as mp

MIN_DIGITS = 20
ATOM = {"frequency": 1.0, "dipole_sq": 1.0}
# the fig2 plate: eps(0) = 1.53, mu(0) = 5; (plasma, transverse, damping)
PLATE = {"electric": [[0.75, 1.03, 0.001]], "magnetic": [[2.0, 1.0, 0.001]]}
ELECTRIC = {"electric": [[0.75, 1.03, 0.001]], "magnetic": []}
MAGNETIC = {"electric": [], "magnetic": [[2.0, 1.0, 0.001]]}

POINTS = [
    {"geometry": "halfspace", "z": 0.01},
    {"geometry": "halfspace", "z": 1.0},
    {"geometry": "halfspace", "z": 100.0},
    {"geometry": "two-plates", "separation": 5.0, "z": 1.5},
    {"geometry": "thin-plate", "thickness": 0.001, "z": 0.5},
    {"geometry": "conducting-mirror", "z": 1.0},
    {"geometry": "permeable-mirror", "z": 1.0},
]
# the short-distance coefficient integrals of the fig2 plate; the thin ones are
# linear in the thickness and recorded at thickness 1
COEFFICIENTS = ("c3", "c1", "d4", "d2")
FRESNEL = [
    {"material": name, "u": 0.5, "b": 0.5 * ratio}
    for name in ("electric", "magnetic") for ratio in (100.0, 1000.0)
]
# (eps0, mu0): the fig2 plate, the a -> 0 edges, the closed form's bounds
# (a = 0.05, eps0 mu0 = 2e7 at ratio 5) and far past them (eps0 mu0 = 3e8)
STATIC_BRACKETS = [
    (1.53, 5.0), (2.0, 3.0), (1.001, 1.001), (1.000001, 1.0), (1.0, 1.05), (1.05, 1.0),
    (100.0, 1e4), (1e3, 3e5), (1.0, 1e6), (1e3, 1e6), (2e3, 1e4), (1e4, 3e4),
]
BORDER_EPS = [1.0124, 10.0, 100.0, 1000.0]


def _response(resonances, u):
    return 1 + sum(mp.mpf(wp) ** 2 / (mp.mpf(wt) ** 2 + u * u + mp.mpf(g) * u)
                   for wp, wt, g in resonances)


def _alpha(u):
    w, d2 = mp.mpf(ATOM["frequency"]), mp.mpf(ATOM["dipole_sq"])
    return mp.mpf(2) / 3 * w * d2 / (w * w + u * u)


def _halfspace_r(material, u, b):
    """(r_s, r_p) of a half-space seen from vacuum."""
    e, m = _response(material["electric"], u), _response(material["magnetic"], u)
    bm = mp.sqrt(u * u * (e * m - 1) + b * b)
    return (m * b - bm) / (m * b + bm), (e * b - bm) / (e * b + bm)


def _thin_r(material, d, u, b):
    """(r_s, r_p) of a layer of thickness d, to first order in d."""
    e, m = _response(material["electric"], u), _response(material["magnetic"], u)
    bm2 = u * u * (e * m - 1) + b * b
    d = mp.mpf(d)
    return d * (m * m * b * b - bm2) / (2 * m * b), d * (e * e * b * b - bm2) / (2 * e * b)


def _kernel(point):
    """K(u, b) of one wall at z = 0, and the e^{-2 b z} factors of the point's walls."""
    kind = point["geometry"]
    pref = 1 / (8 * mp.pi ** 2)
    z = mp.mpf(point["z"])

    def bracket(r_s, r_p, u, b):
        return pref * _alpha(u) * (u * u * r_s - (2 * b * b - u * u) * r_p)

    if kind == "halfspace":
        return (lambda u, b: bracket(*_halfspace_r(PLATE, u, b), u, b)), [z]
    if kind == "thin-plate":
        d = point["thickness"]
        return (lambda u, b: bracket(*_thin_r(PLATE, d, u, b), u, b)), [z]
    if kind == "two-plates":
        s = mp.mpf(point["separation"])

        def cavity(u, b):
            r_s, r_p = _halfspace_r(PLATE, u, b)
            back = mp.exp(-2 * b * s)
            return bracket(r_s / (1 - r_s * r_s * back), r_p / (1 - r_p * r_p * back), u, b)

        return cavity, [z, s - z]
    if kind == "conducting-mirror":
        return (lambda u, b: bracket(-1, 1, u, b)), [z]
    if kind == "permeable-mirror":
        return (lambda u, b: bracket(1, -1, u, b)), [z]
    raise ValueError(kind)


def potential(point) -> mp.mpf:
    kernel, walls = _kernel(point)
    knees = [mp.mpf(x) for x in (0.25, 1, 4)]  # around the atom and plate resonances

    def g(b):
        cuts = [mp.mpf(0)] + [k for k in knees if k < b] + [b]
        return mp.quad(lambda u: kernel(u, b), cuts)

    def f(b):
        # beyond 2 b z = 250 a node weighs below e^{-240} of the peak: zero at any
        # working precision used here (and G is not computed at absurd b)
        if 2 * b * min(walls) > 250:
            return mp.mpf(0)
        return sum(mp.exp(-2 * b * w) for w in walls) * g(b)

    scales = sorted({x / w for w in walls for x in (mp.mpf("0.1"), 1, 10)} | set(knees))
    return mp.quad(f, [mp.mpf(0)] + scales + [mp.inf])


def _chi(resonances, u):
    """The susceptibility response - 1, formed without cancellation at large u."""
    return sum(mp.mpf(wp) ** 2 / (mp.mpf(wt) ** 2 + u * u + mp.mpf(g) * u)
               for wp, wt, g in resonances)


def coefficient(name) -> mp.mpf:
    """C3, C1 (thick) or D4, D2 (thin, thickness 1) of the plate: one u-integral each.

    The integrands are written in the susceptibilities, whose tails decay as
    1/u^2; beyond u = 4 they are integrated in s = 1/u.
    """
    def f(u):
        ce, cm = _chi(PLATE["electric"], u), _chi(PLATE["magnetic"], u)
        e, m = 1 + ce, 1 + cm
        cem = ce + cm + ce * cm  # e m - 1
        a = _alpha(u)
        if name == "c3":
            return a * ce / (2 + ce) / (16 * mp.pi ** 2)
        if name == "c1":
            return u * u * a * (ce / (2 + ce) + cm / (2 + cm)
                                + 2 * e * cem / (e + 1) ** 2) / (16 * mp.pi ** 2)
        if name == "d4":
            return 3 * a * ce * (2 + ce) / e / (64 * mp.pi ** 2)
        return u * u * a * (ce * (2 + ce) / e + cm * (2 + cm) / m
                            + 2 * cem / e) / (64 * mp.pi ** 2)

    head = mp.quad(f, [mp.mpf(0), mp.mpf("0.25"), mp.mpf(1), mp.mpf(4)])
    return head + mp.quad(lambda s: f(1 / s) / (s * s), [mp.mpf(0), mp.mpf("0.25")])


def static_bracket(eps0, mu0) -> mp.mpf:
    """B(eps0, mu0) in t = sinh(phi)/sqrt(a), where h = cosh(phi)."""
    e, m = mp.mpf(eps0), mp.mpf(mu0)
    a = e * m - 1
    if a == 0:
        return mp.mpf(0)
    root_a = mp.sqrt(a)

    def f(phi):
        t2, h = mp.sinh(phi) ** 2 / a, mp.cosh(phi)
        return ((2 - t2) * (e - h) / (e + h) - t2 * (m - h) / (m + h)) * h / root_a

    top = mp.asinh(root_a)
    cuts = [mp.mpf(k) / 4 for k in range(int(4 * top) + 1)]
    return mp.quad(f, cuts + [top] if cuts[-1] < top else cuts)


def border_mu(eps0, start) -> mp.mpf:
    """The thick border mu0(eps0), from a double-precision estimate."""
    return mp.findroot(lambda mu: static_bracket(eps0, mu), mp.mpf(start))


def fresnel(entry):
    material = {"electric": ELECTRIC, "magnetic": MAGNETIC}[entry["material"]]
    return _halfspace_r(material, mp.mpf(entry["u"]), mp.mpf(entry["b"]))


def _agreeing_digits(a, b) -> int:
    if a == b:
        return mp.mp.dps
    return int(mp.floor(-mp.log10(abs(a - b) / abs(b))))


def _twice(compute, dps=(30, 36)):
    """(value, agreeing digits) from runs at two working precisions."""
    runs = []
    for d in dps:
        with mp.workdps(d):
            runs.append(compute())
    with mp.workdps(dps[1]):
        if isinstance(runs[0], tuple):
            digits = min(_agreeing_digits(a, b) for a, b in zip(*runs))
        else:
            digits = _agreeing_digits(*runs)
    if digits < MIN_DIGITS:
        raise SystemExit(f"only {digits} digits agree: {runs}")
    return runs[1], digits


def main(out: Path) -> None:
    doc = {
        "generator": f"scripts/golden_refs.py, mpmath {mp.__version__}",
        "atom": ATOM,
        "plate": PLATE,
        "materials": {"electric": ELECTRIC, "magnetic": MAGNETIC},
        "potentials": [],
        "coefficients": [],
        "fresnel": [],
        "static_brackets": [],
        "borders": [],
    }
    for point in POINTS:
        value, digits = _twice(lambda: potential(point))
        doc["potentials"].append({**point, "value": mp.nstr(value, 25), "digits": digits})
        print(point, doc["potentials"][-1]["value"], digits, flush=True)
    for name in COEFFICIENTS:
        value, digits = _twice(lambda: coefficient(name))
        doc["coefficients"].append({"name": name, "value": mp.nstr(value, 25),
                                    "digits": digits})
    for entry in FRESNEL:
        (r_s, r_p), digits = _twice(lambda: fresnel(entry))
        doc["fresnel"].append({**entry, "r_s": mp.nstr(r_s, 25), "r_p": mp.nstr(r_p, 25),
                               "digits": digits})
    for eps0, mu0 in STATIC_BRACKETS:
        value, digits = _twice(lambda: static_bracket(eps0, mu0), (40, 46))
        doc["static_brackets"].append({"eps0": eps0, "mu0": mu0, "value": mp.nstr(value, 40),
                                       "digits": digits})
    for eps0 in BORDER_EPS:
        # the weak-limit slope below eps0 = 2, the strong-limit ratio above
        start = 1 + 23 / 7 * (eps0 - 1) if eps0 < 2 else 5.11 * eps0
        mu0, digits = _twice(lambda: border_mu(eps0, start), (40, 46))
        doc["borders"].append({"eps0": eps0, "mu0": mp.nstr(mu0, 40), "digits": digits})
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else
         Path(__file__).resolve().parent.parent / "tests" / "golden.json")

"""Independent reference for the half-space potential, built on scipy's QUADPACK.

It shares no code with vdwlayers: the atom and material come straight from
the config document, and the two integrals run through ``scipy.integrate.quad``
instead of the package's own Gauss-Kronrod engine.  The library's
tight-tolerance recomputation catches tolerance defects; this one also
catches a defect that the library's default and tight paths share.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

REL_TOL = 1e-10


def _lorentz(resonances: list, u: float) -> float:
    return 1.0 + sum(r["plasma"] ** 2 / (r["transverse"] ** 2 + u * u + r.get("damping", 0.0) * u)
                     for r in resonances)


def _alpha(atom: dict, u: float) -> float:
    return sum(2.0 * t["frequency"] * t["dipole_sq"] / (3.0 * (t["frequency"] ** 2 + u * u))
               for t in atom["transitions"])


def _split_quad(f, a: float, knee: float, rel: float) -> float:
    # QUADPACK on [a, knee] and [knee, inf): the knee keeps the infinite-range
    # map from squeezing the integrand's decay scale into a few nodes
    return (quad(f, a, knee, epsrel=rel, epsabs=0.0, limit=500)[0]
            + quad(f, knee, np.inf, epsrel=rel, epsabs=0.0, limit=500)[0])


def halfspace_potential(atom: dict, material: dict, z: float) -> float:
    """(1/8 pi^2) int du alpha int_u^inf db e^{-2bz} [u^2 r_s - (2b^2 - u^2) r_p]."""

    def inner(u: float) -> float:
        e = _lorentz(material.get("electric", []), u)
        m = _lorentz(material.get("magnetic", []), u)

        def f(b: float) -> float:
            b_m = math.sqrt(u * u * (e * m - 1.0) + b * b)
            r_s = (m * b - b_m) / (m * b + b_m)
            r_p = (e * b - b_m) / (e * b + b_m)
            return math.exp(-2.0 * b * z) * (u * u * r_s - (2.0 * b * b - u * u) * r_p)

        return _alpha(atom, u) * _split_quad(f, u, u + 1.0 / z, REL_TOL)

    with warnings.catch_warnings():
        # QUADPACK flags round-off once it reaches machine precision
        warnings.simplefilter("ignore", IntegrationWarning)
        total = _split_quad(inner, 0.0, min(1.0, 1.0 / z), 10.0 * REL_TOL)
    return total / (8.0 * math.pi ** 2)

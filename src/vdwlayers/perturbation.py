"""Susceptibility expansions of the potentials and the additivity diagnostics.

The single-plate potentials expand in powers of the electric and magnetic
susceptibilities chi_e(iu), chi_m(iu) with channel weights that are fixed
polynomials in t^2 = (u/b)^2 (plus one t^{-2} term).  To first order the
thick-plate potential is the integral of thin-plate potentials over depth
(additivity); at second order a two-plate medium-correlation term appears and
additivity fails.  The weights are kept as explicit coefficient tables, not
re-derived at runtime; tests assert their structural properties directly.

Weight tables map a channel name to ``{k: coeff}`` meaning
``coeff * (u/b)^(2k)`` as written inside the braces of the corresponding
expansion; the overall minus sign in front of each integral is applied by the
evaluator.

The expansion terms take ``z`` as a float (one ``ExpansionTerm``) or a 1-D
array (one ``TermBatch``, arrays with one entry per z), each term one
``integrate_nested`` call over the whole array.  A channel is the z-free integrand
b^p alpha w chi of (u, b), and a term's kernel returns all its channels from
one evaluation of alpha, eps and mu, so one b-node table serves every
channel and every entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import AtomModel, MaterialModel
from .potential import _u_scale
from .quadrature import (IntegralBatch, QuadratureSpec, _as_rows, _require, _require_positive,
                         integrate_nested, integrate_semi_infinite)
from .stack import thin_layer_reflection

__all__ = [
    "ExpansionTerm",
    "TermBatch",
    "AdditivityReport",
    "PairReflection",
    "FIRST_ORDER_WEIGHTS",
    "SECOND_ORDER_THICK_WEIGHTS",
    "SECOND_ORDER_THIN_WEIGHTS",
    "SECOND_ORDER_PAIR_WEIGHTS",
    "expansion_order1",
    "expansion_order2",
    "additivity_check",
    "thin_pair_reflection",
]

# Channel weights as written inside the braces of the expansions.
FIRST_ORDER_WEIGHTS = {
    "chi_e": {-1: 1.0, 0: -1.0, 1: 0.5},
    "chi_m": {0: -1.0, 1: 0.5},
}
SECOND_ORDER_THICK_WEIGHTS = {
    "chi_e2": {-1: -0.5, 0: 0.25, 1: 0.25, 2: -0.25},
    "chi_m2": {0: 0.25, 1: 0.25, 2: -0.25},
    "chi_em": {0: -0.5, 1: 1.0, 2: -0.5},
}
SECOND_ORDER_THIN_WEIGHTS = {
    "chi_e2": {-1: -0.5, 0: 0.75, 1: -0.25},
    "chi_m2": {0: 0.25, 1: -0.25},
    "chi_em": {},
}
SECOND_ORDER_PAIR_WEIGHTS = {
    "chi_e2": {0: -0.5, 1: 0.5, 2: -0.25},
    "chi_m2": {1: 0.5, 2: -0.25},
    "chi_em": {0: -0.5, 1: 1.0, 2: -0.5},
}

_GEOMETRIES1 = ("thick", "thin")
_GEOMETRIES2 = ("thick", "thin", "two-thin-plates")


@dataclass(frozen=True)
class ExpansionTerm:
    """One perturbative contribution with its per-channel decomposition."""

    order: int
    geometry: str
    value: float
    channels: dict[str, float]
    error: float
    converged: bool
    evaluations: int


@dataclass(frozen=True, eq=False)
class TermBatch(IntegralBatch):
    """``ExpansionTerm``'s fields, those that vary with z as arrays, one entry per z."""

    order: int
    geometry: str
    channels: dict[str, np.ndarray]
    _row = ExpansionTerm


@dataclass(frozen=True)
class AdditivityReport:
    """Both sides of the first- and second-order additivity identities."""

    z: float
    first_order_thick: float
    first_order_stacked: float
    first_order_residual: float
    second_order_thick: float
    second_order_single_term: float
    second_order_correlation_term: float
    second_order_stacked: float
    second_order_residual: float


def _weight_times_u2(weight: dict[int, float], u, b):
    """u^2 * sum_k c_k (u/b)^(2k), evaluated without forming u/b (regular at u = 0).

    The weight tables use k = -1..2; u^(2 + 2k) and b^(-2k) are products of
    u^2 and b^-2 built once per call.
    """
    u2, b2 = u * u, b * b
    ib2 = 1.0 / b2
    u_pow = (1.0, u2, u2 * u2, u2 * u2 * u2)  # u^(2 + 2k), k = -1..2
    b_pow = (b2, 1.0, ib2, ib2 * ib2)  # b^(-2k)
    out = 0.0
    for k, c in weight.items():
        out = out + c * u_pow[k + 1] * b_pow[k + 1]
    return out


# (power of chi_e, power of chi_m) in each channel's susceptibility product
_CHI_POWERS = {"chi_e": (1, 0), "chi_m": (0, 1), "chi_e2": (2, 0), "chi_m2": (0, 2),
               "chi_em": (1, 1)}


def _term_kernel(atom, material, weights, pref, b_power):
    """The channels b^p alpha w chi of (u, b) in the order of ``weights``, on a leading axis."""
    powers = [_CHI_POWERS[name] for name in weights]

    def kernel(u, b):
        chi_e = material.eps(u) - 1.0
        chi_m = material.mu(u) - 1.0
        e_pow, m_pow = (1.0, chi_e, chi_e * chi_e), (1.0, chi_m, chi_m * chi_m)
        common = pref * atom.alpha(u) * b**b_power
        return np.stack([common * _weight_times_u2(w, u, b) * e_pow[pe] * m_pow[pm]
                         for w, (pe, pm) in zip(weights.values(), powers)])

    return kernel


def _evaluate_term(order, geometry, atom, material, weights, pref, b_power, z, spec,
                   shift=0.0):
    """The term at z (decay length z + shift): its channels as one ``integrate_nested`` call."""
    zdecay = _as_rows("z", z) + shift
    active = {name: w for name, w in weights.items() if w}
    batch = integrate_nested(_term_kernel(atom, material, active, pref, b_power),
                             z=np.broadcast_to(zdecay, (len(active), zdecay.size)), spec=spec,
                             u_scale=_u_scale(atom, material))
    # the empty channels are exact zeros; a term's value is the exactly rounded channel sum
    channels = {name: np.zeros(zdecay.size) for name in weights} | dict(zip(active, batch.values))
    values = np.fromiter(map(math.fsum, zip(*(c.tolist() for c in channels.values()))),
                         float, zdecay.size)
    terms = TermBatch(values, batch.errors.sum(axis=0), batch.row_evaluations.sum(axis=0),
                      batch.row_converged.all(axis=0), order, geometry, channels)
    return terms if np.ndim(z) else terms[0]


def expansion_order1(geometry: str, atom: AtomModel, material: MaterialModel, z,
                     d: float | None = None, spec: QuadratureSpec | None = None):
    """First-order (in chi) potential contribution for a thick or thin plate.

    The term is defined for any susceptibility size; smallness only governs
    how well it approximates the exact potential.  ``z`` is a float or a 1-D
    array (see the module docstring).
    """
    if geometry not in _GEOMETRIES1:
        raise ValueError(f"geometry must be one of {_GEOMETRIES1}, got {geometry!r}")
    if geometry == "thick":
        pref, b_power = -1.0 / (8.0 * math.pi**2), 0
    else:
        if d is None or not (d > 0.0 and math.isfinite(d)):
            raise ValueError(f"thin geometry needs a finite thickness d > 0, got {d}")
        pref, b_power = -d / (4.0 * math.pi**2), 1
    return _evaluate_term(1, geometry, atom, material, FIRST_ORDER_WEIGHTS,
                          pref, b_power, z, spec)


def expansion_order2(geometry: str, atom: AtomModel, material: MaterialModel, z,
                     d: float | None = None, s: float | None = None,
                     spec: QuadratureSpec | None = None):
    """Second-order potential contribution; the pair geometry carries the correlation term.

    The thin single-plate term has no chi_e*chi_m channel; the two-thin-plate
    correlation term (front plate at z, back plate at z + s) does.  ``z`` is a
    float or a 1-D array (see the module docstring).
    """
    if geometry not in _GEOMETRIES2:
        raise ValueError(f"geometry must be one of {_GEOMETRIES2}, got {geometry!r}")
    if geometry == "thick":
        return _evaluate_term(2, geometry, atom, material, SECOND_ORDER_THICK_WEIGHTS,
                              -1.0 / (8.0 * math.pi**2), 0, z, spec)
    if d is None or not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"{geometry} geometry needs a finite thickness d > 0, got {d}")
    if geometry == "thin":
        return _evaluate_term(2, geometry, atom, material, SECOND_ORDER_THIN_WEIGHTS,
                              -d / (4.0 * math.pi**2), 1, z, spec)
    if s is None or not (s >= 0.0 and math.isfinite(s)):
        raise ValueError(f"two-thin-plates geometry needs a finite separation s >= 0, got {s}")
    return _evaluate_term(2, geometry, atom, material, SECOND_ORDER_PAIR_WEIGHTS,
                          -d * d / (2.0 * math.pi**2), 2, z, spec, shift=s)


def additivity_check(atom: AtomModel, material: MaterialModel, z: float,
                     spec: QuadratureSpec | None = None) -> AdditivityReport:
    """Numerically verify the first- and second-order additivity identities.

    The stacked sides integrate unit-thickness thin-plate terms over the depth
    w >= z with the same semi-infinite engine, so the two sides of each
    identity follow genuinely independent quadrature paths.  The correlation
    term is a double integral over the front plate's depth z' and the pair
    separation s, but the pair term P depends on them only through
    w = z' + s; Cauchy's formula for repeated integration folds it into
    int_z^inf (w - z) P(w) dw.  Every depth integral runs at
    ``spec.rel_tol_outer``, and each call of a depth integrand evaluates its
    nodes as one array.  Residuals are relative to the thick-plate terms
    and are independent of the nominal unit thickness.

    Raises ``RuntimeError`` naming the term and z when a term or a depth
    integral does not converge.
    """
    _require_positive("z", z)

    def values(terms, what, zs):  # a term that did not converge raises, named by its z
        if not terms.converged:
            i = int(np.argmin(terms.row_converged))
            _require(terms[i], f"the {what} at z={zs.tolist()[i]}")
        return terms.values

    def stacked(what, term, weighted=False):
        def f(ws):
            vals = values(term(ws), what, ws)
            return vals * (ws - z) if weighted else vals

        return _require(integrate_semi_infinite(f, z, spec=spec, scale=z),
                        f"the depth integral of the {what} from z={z}")

    at_z = np.array([z], dtype=float)  # the thick terms as arrays: no per-term object
    first_thick = values(expansion_order1("thick", atom, material, at_z, spec=spec),
                         "first-order thick term", at_z).item()
    first_stacked = stacked("first-order thin term", lambda w: expansion_order1(
        "thin", atom, material, w, d=1.0, spec=spec))
    second_thick = values(expansion_order2("thick", atom, material, at_z, spec=spec),
                          "second-order thick term", at_z).item()
    single_term = stacked("second-order thin term", lambda w: expansion_order2(
        "thin", atom, material, w, d=1.0, spec=spec))
    correlation_term = stacked("pair correlation term", lambda w: expansion_order2(
        "two-thin-plates", atom, material, w, d=1.0, s=0.0, spec=spec), weighted=True)

    tiny = 1e-300
    second_stacked = single_term + correlation_term
    return AdditivityReport(
        z=z,
        first_order_thick=first_thick,
        first_order_stacked=first_stacked,
        first_order_residual=abs(first_thick - first_stacked) / max(abs(first_thick), tiny),
        second_order_thick=second_thick,
        second_order_single_term=single_term,
        second_order_correlation_term=correlation_term,
        second_order_stacked=second_stacked,
        second_order_residual=abs(second_thick - second_stacked) / max(abs(second_thick), tiny),
    )


@dataclass(frozen=True)
class PairReflection:
    """Expanded reflection coefficients of two identical asymptotically thin plates.

    ``r_s``/``r_p`` are the correlation pieces (bilinear in thickness and in
    the susceptibilities, with the e^{-2 b s} back-plate factor); the
    ``*_linear`` fields keep the intermediate thin-plate forms and
    ``phase_s``/``phase_p`` the transmission brackets that approximate
    e^{-2 b_M d} to second order in the thickness.
    """

    r_s: float
    r_p: float
    r_s_linear: float
    r_p_linear: float
    phase_s: float
    phase_p: float


def thin_pair_reflection(material: MaterialModel, d: float, s: float,
                         u: float, q: float) -> PairReflection:
    """Expanded two-thin-plate reflection coefficients at one (u, q) point.

    Pure formula evaluation (no quadrature); accurate for b_M d << 1 and
    weak susceptibilities.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"need a finite thickness d > 0, got {d}")
    if not (s >= 0.0 and math.isfinite(s)):
        raise ValueError(f"need a finite separation s >= 0, got {s}")
    b = math.hypot(u, q)
    if b == 0.0:
        raise ValueError("(u, q) = (0, 0) is a degenerate point")
    e = material.eps(u)
    m = material.mu(u)
    bm2 = u * u * (e * m - 1.0) + b * b
    back = math.exp(-2.0 * b * s)

    phase_s = 1.0 - (m * m * b * b + bm2) * d / (m * b)
    phase_p = 1.0 - (e * e * b * b + bm2) * d / (e * b)
    lin_s, lin_p = thin_layer_reflection(material, d, u, b)
    r_s_linear = lin_s + lin_s * back * phase_s
    r_p_linear = lin_p + lin_p * back * phase_p

    chi_e = e - 1.0
    chi_m = m - 1.0
    t2 = (u / b) ** 2
    t4 = t2 * t2
    common = b * b * d * d * back
    r_s = common * (
        0.5 * t4 * chi_e**2 - (t2 - 0.5 * t4) * chi_m**2 - (t2 - t4) * chi_e * chi_m
    )
    r_p = common * (
        -(t2 - 0.5 * t4) * chi_e**2 + 0.5 * t4 * chi_m**2 - (t2 - t4) * chi_e * chi_m
    )
    return PairReflection(r_s=r_s, r_p=r_p, r_s_linear=r_s_linear, r_p_linear=r_p_linear,
                          phase_s=phase_s, phase_p=phase_p)

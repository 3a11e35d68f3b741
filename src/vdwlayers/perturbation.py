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
channel and every entry.  Several terms share a table the same way: each
step of the additivity check's three depth integrals is one call whose
kernel returns the channels of every term whose integral is still open.
Each term is named by its arguments (order, geometry, d, s, z), and a
public term is the one-term case of that call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import AtomModel, MaterialModel, _require_dispersive
from .potential import _u_scale
# integrate_semi_infinite is unused here but stays importable: perfbench's
# quadrature.oned probe wraps perturbation.integrate_semi_infinite.
from .quadrature import (IntegralBatch, QuadratureSpec, _as_rows, _mapped, _oned,  # noqa: F401
                         _require, _require_positive, integrate_nested, integrate_semi_infinite)
from .stack import _require_point, _require_thickness, thin_layer_reflection

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
    """Both sides of the first- and second-order additivity identities, and the kernel
    points of each side's tables."""

    z: float
    first_order_thick: float
    first_order_stacked: float
    first_order_residual: float
    second_order_thick: float
    second_order_single_term: float
    second_order_correlation_term: float
    second_order_stacked: float
    second_order_residual: float
    thick_kernel_points: int = 0
    stacked_kernel_points: int = 0


# (power of chi_e, power of chi_m) in each channel's susceptibility product
_CHI_POWERS = {"chi_e": (1, 0), "chi_m": (0, 1), "chi_e2": (2, 0), "chi_m2": (0, 2),
               "chi_em": (1, 1)}


def _terms_kernel(atom, material, terms):
    """The channels b^p alpha w chi of (u, b) of every (weights, pref, b power) term, in
    order, on one leading axis: one evaluation of alpha, eps and mu serves them all."""
    powers = [[_CHI_POWERS[name] for name in weights] for weights, _, _ in terms]

    def kernel(u, b):
        chi_e = material.eps(u) - 1.0
        chi_m = material.mu(u) - 1.0
        e_pow, m_pow = (1.0, chi_e, chi_e * chi_e), (1.0, chi_m, chi_m * chi_m)
        alpha = atom.alpha(u)
        # a weight w = {k: c_k}, k = -1..2, enters as u^2 sum_k c_k (u/b)^(2k), formed
        # as c_k u^(2 + 2k) b^(-2k) without u/b, so it is regular at u = 0
        u2, b2 = u * u, b * b
        ib2 = 1.0 / b2
        u_pow = (1.0, u2, u2 * u2, u2 * u2 * u2)  # u^(2 + 2k)
        b_pow = (b2, 1.0, ib2, ib2 * ib2)  # b^(-2k)
        return np.stack([common * sum(c * u_pow[k + 1] * b_pow[k + 1] for k, c in w.items())
                         * e_pow[pe] * m_pow[pm]
                         for (weights, pref, b_power), channel_powers in zip(terms, powers)
                         for common in (pref * alpha * b**b_power,)
                         for w, (pe, pm) in zip(weights.values(), channel_powers)])

    return kernel


def _evaluate_terms(atom, material, terms, spec):
    """Several terms as one ``integrate_nested`` call: one ``TermBatch`` per term.

    Each term is (order, geometry, d, s, z), from which ``_term`` gives its
    weights, prefactor, power of b and decay shift; its z is a 1-D array of
    the same size for every term, its decay lengths z + shift.  Its channels
    are rows of the call at its own decay lengths, so one b-node table serves
    every channel of every term.
    """
    _require_dispersive(f"expansion_order{terms[0][0]}", material)
    orders, geometries, ds, ss, zs = zip(*terms)
    weights, prefs, b_powers, shifts = zip(*map(_term, orders, geometries, ds, ss))
    actives = [{name: w for name, w in ws.items() if w} for ws in weights]
    kernel = _terms_kernel(atom, material, list(zip(actives, prefs, b_powers)))
    zdecay = np.concatenate([np.broadcast_to(z + shift, (len(active), z.size))
                             for active, shift, z in zip(actives, shifts, zs)])
    batch = integrate_nested(kernel, z=zdecay, spec=spec, u_scale=_u_scale(atom, material))
    out, start = [], 0
    for order, geometry, ws, active, z in zip(orders, geometries, weights, actives, zs):
        rows = batch[start:start + len(active)]
        start += len(active)
        # the empty channels are exact zeros; a term's value is the exactly rounded channel sum
        channels = {name: np.zeros(z.size) for name in ws} | dict(zip(active, rows.values))
        values = np.fromiter(map(math.fsum, zip(*(c.tolist() for c in channels.values()))),
                             float, z.size)
        out.append(TermBatch(values, rows.errors.sum(axis=0), rows.row_evaluations.sum(axis=0),
                             rows.row_converged.all(axis=0), order, geometry, channels))
    return out


def _term(order, geometry, d, s):
    """(weights, pref, power of b, decay shift) of the expansion term, its arguments checked."""
    geometries = _GEOMETRIES1 if order == 1 else _GEOMETRIES2
    if geometry not in geometries:
        raise ValueError(f"geometry must be one of {geometries}, got {geometry!r}")
    if geometry == "thick":
        weights = FIRST_ORDER_WEIGHTS if order == 1 else SECOND_ORDER_THICK_WEIGHTS
        return weights, -1.0 / (8.0 * math.pi**2), 0, 0.0
    if d is None or not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"{geometry} geometry needs a finite thickness d > 0, got {d}")
    if geometry == "thin":
        weights = FIRST_ORDER_WEIGHTS if order == 1 else SECOND_ORDER_THIN_WEIGHTS
        return weights, -d / (4.0 * math.pi**2), 1, 0.0
    if s is None or not (s >= 0.0 and math.isfinite(s)):
        raise ValueError(f"two-thin-plates geometry needs a finite separation s >= 0, got {s}")
    return SECOND_ORDER_PAIR_WEIGHTS, -d * d / (2.0 * math.pi**2), 2, s


def expansion_order1(geometry: str, atom: AtomModel, material: MaterialModel, z,
                     d: float | None = None, spec: QuadratureSpec | None = None):
    """First-order (in chi) potential contribution for a thick or thin plate.

    The term is defined for any susceptibility size; smallness only governs
    how well it approximates the exact potential.  ``z`` is a float or a 1-D
    array (see the module docstring).
    """
    [term] = _evaluate_terms(atom, material, [(1, geometry, d, None, _as_rows("z", z))], spec)
    return term if np.ndim(z) else term[0]


def expansion_order2(geometry: str, atom: AtomModel, material: MaterialModel, z,
                     d: float | None = None, s: float | None = None,
                     spec: QuadratureSpec | None = None):
    """Second-order potential contribution; the pair geometry carries the correlation term.

    The thin single-plate term has no chi_e*chi_m channel; the two-thin-plate
    correlation term (front plate at z, back plate at z + s) does.  ``z`` is a
    float or a 1-D array (see the module docstring).
    """
    [term] = _evaluate_terms(atom, material, [(2, geometry, d, s, _as_rows("z", z))], spec)
    return term if np.ndim(z) else term[0]


# The stacked side's depth integrands: (name, order, geometry, weighted by w - z)
_STACKED = (("first-order thin term", 1, "thin", False),
            ("second-order thin term", 2, "thin", False),
            ("pair correlation term", 2, "two-thin-plates", True))


def additivity_check(atom: AtomModel, material: MaterialModel, z: float,
                     spec: QuadratureSpec | None = None) -> AdditivityReport:
    """Numerically verify the first- and second-order additivity identities.

    The thick side is the two terms ``expansion_order1`` and
    ``expansion_order2`` at z, one table each.  The stacked side integrates
    unit-thickness thin-plate terms over the depth w >= z with the
    semi-infinite map of scale z, so the two sides of each identity follow
    genuinely independent quadrature paths.  The correlation term is
    a double integral over the front plate's depth z' and the pair
    separation s, but the pair term P depends on them only through
    w = z' + s; Cauchy's formula for repeated integration folds it into
    int_z^inf (w - z) P(w) dw.  The three depth integrals (first-order thin,
    second-order thin, pair) are three rows of one lockstep driver, each on
    its own panels at ``spec.rel_tol_outer``: each step makes one
    ``integrate_nested`` call whose channels are those of the rows still
    open, each at its own row's depth nodes, so a row that has converged
    adds no channel.  Residuals are relative to the thick-plate terms and
    are independent of the nominal unit thickness.  The report's
    ``thick_kernel_points`` and ``stacked_kernel_points`` are the kernel
    points of each side.

    Raises ``RuntimeError`` naming the term and z when a term or a depth
    integral does not converge.
    """
    _require_dispersive("additivity_check", material)
    _require_positive("z", z)

    def values(terms, what, zs):  # a term that did not converge raises, named by its z
        if not terms.converged:
            i = int(np.argmin(terms.row_converged))
            _require(terms[i], f"the {what} at z={zs.tolist()[i]}")
        return terms.values

    at_z = np.array([z], dtype=float)  # the thick terms as arrays: no per-term object
    thick = [expansion_order1("thick", atom, material, at_z, spec=spec),
             expansion_order2("thick", atom, material, at_z, spec=spec)]
    first_thick, second_thick = (values(terms, f"{what} thick term", at_z).item() for terms, what
                                 in zip(thick, ("first-order", "second-order")))

    stacked = [(order, geometry, 1.0, 0.0) for _, order, geometry, _ in _STACKED]  # d=1, s=0
    stacked_points = 0

    def depth(rows, w):  # w[i] holds a panel's nodes of the depth integral rows[i]
        nonlocal stacked_points
        live = [(r, (rows == r).nonzero()) for r in np.unique(rows).tolist()]
        batches = _evaluate_terms(atom, material, [(*stacked[r], w[pick].ravel())
                                                   for r, pick in live], spec)
        stacked_points += sum(terms.evaluations for terms in batches)
        out = np.empty(w.shape)
        for (r, pick), terms in zip(live, batches):
            what, _, _, weighted = _STACKED[r]
            ws = w[pick]
            vals = values(terms, what, ws.ravel()).reshape(ws.shape)
            out[pick] = vals * (ws - z) if weighted else vals
        return out

    integrals = _oned(lambda rows, t: _mapped(lambda w: depth(rows, w), z, z)(t), spec,
                      n=len(_STACKED))
    first_stacked, single_term, correlation_term = (
        _require(res, f"the depth integral of the {what} from z={z}")
        for res, (what, *_) in zip(integrals, _STACKED))

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
        thick_kernel_points=sum(terms.evaluations for terms in thick),
        stacked_kernel_points=stacked_points,
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
    weak susceptibilities.  d must be finite and > 0, s finite and >= 0, and
    (u, b = hypot(u, q)) pass ``reflection_coefficients``' point rule.
    """
    _require_thickness(d)
    if not (s >= 0.0 and math.isfinite(s)):
        raise ValueError(f"need a finite separation s >= 0, got {s}")
    b = math.hypot(u, q)
    _require_point(u, b)
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

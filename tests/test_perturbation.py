import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import vdwlayers as v
import vdwlayers.perturbation as perturbation
from vdwlayers.perturbation import (
    FIRST_ORDER_WEIGHTS,
    SECOND_ORDER_PAIR_WEIGHTS,
    SECOND_ORDER_THICK_WEIGHTS,
    SECOND_ORDER_THIN_WEIGHTS,
)

from conftest import (assert_rows_within_errors_of_the_oracle, brute_force_2d, material,
                      recorded_nested, same_batch, tight_nested)


def weak_material(chi_e=1e-3, chi_m=1e-3):
    return v.MaterialModel(
        electric=[v.Resonance(math.sqrt(chi_e) * 1.03, 1.03)] if chi_e else [],
        magnetic=[v.Resonance(math.sqrt(chi_m), 1.0)] if chi_m else [],
    )


# ---------------------------------------------------------------- weights

def test_first_order_has_no_cross_channel():
    assert set(FIRST_ORDER_WEIGHTS) == {"chi_e", "chi_m"}


def test_thin_second_order_has_no_cross_channel():
    assert SECOND_ORDER_THIN_WEIGHTS["chi_em"] == {}


def test_thick_second_order_channel_symmetry():
    # the electric and magnetic squared channels differ by exactly the
    # single -(1/2)(b/u)^2 term
    e = SECOND_ORDER_THICK_WEIGHTS["chi_e2"]
    m = SECOND_ORDER_THICK_WEIGHTS["chi_m2"]
    diff = {k: e.get(k, 0.0) - m.get(k, 0.0) for k in set(e) | set(m)}
    diff = {k: c for k, c in diff.items() if c != 0.0}
    assert diff == {-1: -0.5}


def _kernel_prefactors(monkeypatch, atom):
    """{(order, geometry): (prefactor, power of b, weights)} each expansion term hands its kernels.

    Thin plates have d = 1, the pair s = 0; nothing is integrated.
    """
    seen = {}

    def spy(order, geometry, atom, material, weights, pref, b_power, *args, **kwargs):
        seen[order, geometry] = (Fraction(pref), b_power, weights)

    monkeypatch.setattr(perturbation, "_evaluate_term", spy)
    m = weak_material()
    for geometry in ("thick", "thin"):
        v.expansion_order1(geometry, atom, m, 1.0, d=1.0)
    for geometry in ("thick", "thin", "two-thin-plates"):
        v.expansion_order2(geometry, atom, m, 1.0, d=1.0, s=0.0)
    return seen


# first order of the half-space wall bracket u^2 r_s - (2 b^2 - u^2) r_p, over b^2, in
# T = (u/b)^2: r_p = chi_e/2 - T (chi_e + chi_m)/4 and r_s = chi_m/2 - T (chi_e + chi_m)/4,
# so the bracket is -chi_e (1 - T + T^2/2) + chi_m (T - T^2/2); {power of T: coefficient}
FRESNEL_FIRST_ORDER = {"chi_e": {0: Fraction(-1), 1: Fraction(1), 2: Fraction(-1, 2)},
                       "chi_m": {1: Fraction(1), 2: Fraction(-1, 2)}}


def _weight_identity_failures(tables, prefs):
    """Each exact identity the weight tables break, as (identity, channel, k); [] if none.

    A weight c_k multiplies u^2 (u/b)^(2k) = b^2 T^(k + 1).  Integrating a
    thin kernel over depth multiplies it by 1/(2b), a pair kernel over both
    depths by 1/(4 b^2); each must then give the thick kernel.
    """
    first, thick2, thin2, pair2 = ({ch: {k: Fraction(c) for k, c in w.items()}
                                    for ch, w in t.items()} for t in tables)
    (p1, n1, _), (q1, m1, _) = prefs[1, "thick"], prefs[1, "thin"]
    (p2, n2, _), (q2, m2, _), (r2, l2, _) = (prefs[2, "thick"], prefs[2, "thin"],
                                             prefs[2, "two-thin-plates"])
    failures = []
    if not (p1 == -1.0 / (8.0 * math.pi**2) and q1 / 2 == p1 and m1 - 1 == n1):
        failures.append(("first-order prefactors", None, None))
    if not (q2 / 2 == p2 and r2 / 4 == p2 and m2 - 1 == n2 and l2 - 2 == n2):
        failures.append(("second-order prefactors", None, None))
    for ch, fresnel in FRESNEL_FIRST_ORDER.items():  # thick pref -1/(8 pi^2) flips the sign
        for k in set(first[ch]) | {j - 1 for j in fresnel}:
            if first[ch].get(k, 0) != -fresnel.get(k + 1, 0):
                failures.append(("first order = Fresnel expansion", ch, k))
    for ch in thick2.keys() | thin2.keys() | pair2.keys():
        thick, thin, pair = thick2.get(ch, {}), thin2.get(ch, {}), pair2.get(ch, {})
        for k in set(thick) | set(thin) | set(pair):
            if thin.get(k, 0) + pair.get(k, 0) != thick.get(k, 0):
                failures.append(("thin + pair = thick", ch, k))
    return failures


WEIGHT_TABLES = (FIRST_ORDER_WEIGHTS, SECOND_ORDER_THICK_WEIGHTS, SECOND_ORDER_THIN_WEIGHTS,
                 SECOND_ORDER_PAIR_WEIGHTS)


def test_pair_and_thin_weights_reassemble_thick(atom, monkeypatch):
    # the additivity identities at the weight level, exactly: the thin first-order
    # kernel over depth is the thick one, and thin + pair == thick per channel
    prefs = _kernel_prefactors(monkeypatch, atom)
    used = [prefs[key][2] for key in ((1, "thick"), (1, "thin"), (2, "thick"), (2, "thin"),
                                      (2, "two-thin-plates"))]
    assert all(u is t for u, t in zip(used, (FIRST_ORDER_WEIGHTS, *WEIGHT_TABLES)))
    assert _weight_identity_failures(WEIGHT_TABLES, prefs) == []


def test_changing_any_single_weight_breaks_an_identity(atom, monkeypatch):
    prefs = _kernel_prefactors(monkeypatch, atom)
    changed = 0
    for i, table in enumerate(WEIGHT_TABLES):
        for ch, weight in table.items():
            for k in weight:
                tables = list(WEIGHT_TABLES)
                tables[i] = {**table, ch: {**weight, k: weight[k] + 0.25}}
                assert _weight_identity_failures(tables, prefs), (i, ch, k)
                changed += 1
    assert changed == 28  # every weight of the four tables


# ---------------------------------------------------------------- values

def test_vacuum_expansions_vanish(atom):
    for geometry in ("thick", "thin"):
        t1 = v.expansion_order1(geometry, atom, v.VACUUM, 1.0, d=1.0)
        assert t1.value == 0.0
        t2 = v.expansion_order2(geometry, atom, v.VACUUM, 1.0, d=1.0)
        assert t2.value == 0.0
    t2 = v.expansion_order2("two-thin-plates", atom, v.VACUUM, 1.0, d=1.0, s=0.5)
    assert t2.value == 0.0


def test_first_order_thick_against_brute_force(atom):
    m = weak_material(chi_e=0.3, chi_m=0.3)
    z = 1.0

    def kernel(u, b):
        chi_e = m.eps(u) - 1.0
        chi_m = m.mu(u) - 1.0
        we = b * b - u * u + u**4 / (2.0 * b * b)
        wm = u * u - u**4 / (2.0 * b * b)
        return -1.0 / (8.0 * math.pi**2) * atom.alpha(u) * (we * chi_e - wm * chi_m)

    oracle = brute_force_2d(kernel, z)
    term = v.expansion_order1("thick", atom, m, z)
    assert term.converged
    assert term.value == pytest.approx(oracle, rel=1e-4)
    assert term.value == pytest.approx(sum(term.channels.values()), rel=1e-12)


def test_first_order_approaches_exact_linearly(atom):
    z = 1.0
    ratios = []
    for chi in (1e-3, 1e-4):
        m = weak_material(chi_e=chi, chi_m=chi)
        exact = v.potential_halfspace(atom, m, z).value
        first = v.expansion_order1("thick", atom, m, z).value
        ratios.append(abs(exact - first) / abs(first))
    assert ratios[0] < 2e-3
    assert ratios[0] / ratios[1] == pytest.approx(10.0, rel=0.3)  # O(chi) error


def test_second_order_residual_scales_cubically(atom):
    z = 1.0
    residuals = []
    for chi in (2e-2, 1e-2):
        m = weak_material(chi_e=chi, chi_m=chi)
        exact = v.potential_halfspace(atom, m, z).value
        first = v.expansion_order1("thick", atom, m, z).value
        second = v.expansion_order2("thick", atom, m, z).value
        residuals.append(abs(exact - first - second))
    assert residuals[0] / residuals[1] == pytest.approx(8.0, rel=0.2)


def test_pair_correlation_nonzero_for_pure_electric(atom):
    # additivity genuinely fails at second order even with no magnetic response
    m = weak_material(chi_e=1e-3, chi_m=0.0)
    term = v.expansion_order2("two-thin-plates", atom, m, 1.0, d=1.0, s=0.5)
    assert term.converged
    assert abs(term.value) > 10.0 * term.error
    assert term.channels["chi_m2"] == 0.0
    assert term.channels["chi_em"] == 0.0


def test_additivity_identities(atom):
    m = weak_material()
    report = v.additivity_check(atom, m, 1.0)
    assert report.first_order_residual < 0.01
    assert report.second_order_residual < 0.02
    # both identities are exact at the integrand level, so the numerical
    # residuals sit at quadrature precision
    assert report.first_order_residual < 1e-4
    assert report.second_order_residual < 1e-3
    assert report.second_order_correlation_term != 0.0
    # the identity genuinely needs the correlation term: dropping it leaves a
    # residual equal to that term
    gap = report.second_order_thick - report.second_order_single_term
    assert report.second_order_correlation_term == pytest.approx(gap, rel=1e-4)
    assert abs(gap) > 0.01 * abs(report.second_order_thick)


def test_pair_term_depends_on_depth_plus_separation(atom):
    # the premise of folding the correlation term's double integral into one
    m = weak_material()
    split = v.expansion_order2("two-thin-plates", atom, m, 0.75, d=1.0, s=0.5)
    joined = v.expansion_order2("two-thin-plates", atom, m, 1.25, d=1.0, s=0.0)
    assert split == joined


def test_additivity_check_cost_flat_in_z(atom, monkeypatch):
    # with the depth integrals at the spec's outer tolerance, their refinement
    # no longer chases inner-quadrature noise, so the work does not jump with z;
    # each depth integrand call evaluates all its nodes and channels in one call
    m = weak_material()
    spec = v.QuadratureSpec(rel_tol_outer=1e-3, rel_tol_inner=1e-4)
    calls = []
    nested = perturbation.integrate_nested

    def counted(*args, **kwargs):
        calls.append(1)
        return nested(*args, **kwargs)

    monkeypatch.setattr(perturbation, "integrate_nested", counted)
    counts = []
    for z in (0.5, 0.9, 1.0, 1.1, 2.0):
        calls.clear()
        v.additivity_check(atom, m, z, spec)
        counts.append(len(calls))
    assert len(set(counts)) == 1, counts
    assert counts[2] == 5, counts  # z = 1: the five terms, each with all its channels, once


def _check_records(atom):
    """The recorded ``integrate_nested`` calls of the benchmark's check: weak plate, z = 1."""
    spec = v.QuadratureSpec(rel_tol_outer=1e-3, rel_tol_inner=1e-4)
    with recorded_nested(perturbation) as records:
        v.additivity_check(atom, weak_material(), 1.0, spec)
    return records, spec


def test_additivity_check_kernel_counts_pinned(atom):
    # kernel calls and points do not depend on the machine: ceilings on the
    # check guard the cost of its five tables
    records, _ = _check_records(atom)
    calls = sum(r["calls"] for r in records)
    points = sum(r["points"] for r in records)
    assert points == sum(r["batch"].evaluations for r in records)
    assert (calls, points) <= (9, 15930), (calls, points)


def test_additivity_check_terms_within_their_errors_of_the_oracle(atom):
    # the thick terms at z = 1 and the thin and pair terms at the depth nodes
    # of the first depth step: each row, whose table floored the inner
    # integrals of the nodes it barely weighs, lies within its and the
    # oracle's errors of the oracle run on it alone
    records, spec = _check_records(atom)
    assert [np.shape(r["kwargs"]["z"])[1] for r in records] == [1, 15, 1, 15, 15]
    for record in records:
        assert_rows_within_errors_of_the_oracle(record, spec)


@pytest.mark.parametrize("order, geometry, kw", [
    (1, "thick", {}),
    (1, "thin", {"d": 0.5}),
    (2, "thick", {}),
    (2, "thin", {"d": 0.5}),
    (2, "two-thin-plates", {"d": 0.5, "s": 0.25}),
])
def test_expansion_terms_of_an_array_equal_float_calls(atom, order, geometry, kw):
    # each channel's rows share one b-node table, so an entry of the batch is not
    # the float call bit for bit: both lie within their reported errors of the
    # nested engine at 100x tighter tolerance, and a repeat gives the same bytes
    m = weak_material()
    spec = v.QuadratureSpec(rel_tol_outer=1e-4, rel_tol_inner=1e-5)
    term = v.expansion_order1 if order == 1 else v.expansion_order2
    zs = np.array([0.4, 0.95, 1.0, 2.5])
    terms = term(geometry, atom, m, zs, spec=spec, **kw)
    assert isinstance(terms, v.TermBatch) and len(terms) == zs.size
    assert same_batch(term(geometry, atom, m, zs, spec=spec, **kw), terms)
    assert terms.evaluations > 0 and type(terms[0].evaluations) is int
    for z, t in zip(zs.tolist(), terms):
        point = term(geometry, atom, m, z, spec=spec, **kw)
        with tight_nested(z, spec) as tight:
            ref = term(geometry, atom, m, z, spec=tight, **kw)
        for res in (t, point):
            assert res.converged, z
            assert abs(res.value - ref.value) <= res.error, z
            assert res.value == math.fsum(res.channels.values()), z  # exactly rounded


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -0.25])
@pytest.mark.parametrize("call", [
    lambda atom, m, z: v.expansion_order1("thick", atom, m, z),
    lambda atom, m, z: v.expansion_order2("two-thin-plates", atom, m, z, d=1.0, s=0.5),
], ids=["order1-thick", "order2-pair"])
def test_expansion_terms_name_a_bad_z_entry(atom, call, bad):
    # the pair term checks z itself, not its decay length z + s
    with pytest.raises(ValueError, match=rf"z must be finite and > 0, got z\[1\] = {bad}$"):
        call(atom, weak_material(), np.array([1.0, bad, 2.0]))


def test_additivity_check_rejects_nonconverged_terms(atom, monkeypatch):
    m = weak_material()
    starved = v.QuadratureSpec(rel_tol_outer=1e-14, rel_tol_inner=1e-15, max_subdivisions=1)
    assert not v.expansion_order1("thick", atom, m, 1.0, spec=starved).converged
    assert not v.expansion_order1("thin", atom, m, 1.0, d=1.0, spec=starved).converged
    with pytest.raises(RuntimeError, match=r"first-order thick term at z=1\.0"):
        v.additivity_check(atom, m, 1.0, starved)

    # a node term inside a depth integral is checked as well
    order2 = perturbation.expansion_order2

    def pair_unconverged(geometry, *args, **kwargs):
        terms = order2(geometry, *args, **kwargs)  # the depth integrand passes an array
        if geometry == "two-thin-plates":
            terms = dataclasses.replace(terms, row_converged=np.zeros_like(terms.row_converged))
        return terms

    monkeypatch.setattr(perturbation, "expansion_order2", pair_unconverged)
    loose = v.QuadratureSpec(rel_tol_outer=1e-3, rel_tol_inner=1e-4)
    with pytest.raises(RuntimeError, match=r"pair correlation term at z="):
        v.additivity_check(atom, m, 1.0, loose)


@pytest.mark.parametrize("name, call", [
    ("d", lambda atom, m: v.expansion_order1("thin", atom, m, 1.0, d=math.inf)),
    ("d", lambda atom, m: v.expansion_order2("thin", atom, m, 1.0, d=math.inf)),
    ("s", lambda atom, m: v.expansion_order2("two-thin-plates", atom, m, 1.0, d=1.0,
                                             s=math.inf)),
    ("s", lambda atom, m: v.expansion_order2("two-thin-plates", atom, m, 1.0, d=1.0,
                                             s=math.nan)),
    ("d", lambda atom, m: v.thin_pair_reflection(m, math.inf, 1.0, 0.5, 0.7)),
    ("s", lambda atom, m: v.thin_pair_reflection(m, 1e-3, math.nan, 0.5, 0.7)),
], ids=["order1-thin-d-inf", "order2-thin-d-inf", "pair-s-inf", "pair-s-nan",
        "reflection-d-inf", "reflection-s-nan"])
def test_nonfinite_thickness_and_separation_rejected(atom, name, call):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(atom, weak_material())


def test_additivity_vacuum(atom):
    report = v.additivity_check(atom, v.VACUUM, 1.0)
    assert report.first_order_thick == 0.0
    assert report.first_order_stacked == 0.0
    assert report.second_order_stacked == 0.0


# ---------------------------------------------------------------- pair reflection

def test_pair_reflection_vanishes_for_vacuum():
    pair = v.thin_pair_reflection(v.VACUUM, 1e-3, 1.0, 0.5, 0.7)
    assert pair.r_s == 0.0 and pair.r_p == 0.0
    assert pair.r_s_linear == 0.0 and pair.r_p_linear == 0.0


def test_pair_reflection_degenerate_point():
    with pytest.raises(ValueError):
        v.thin_pair_reflection(v.VACUUM, 1e-3, 1.0, 0.0, 0.0)


def test_phase_bracket_matches_exponential():
    # the transmission bracket agrees with e^{-2 b_M d} to second order in d
    m = weak_material(chi_e=1e-2, chi_m=1e-2)
    u, q = 0.5, 0.7
    b = math.hypot(u, q)
    e_, m_ = m.eps(u), m.mu(u)
    b_m = math.sqrt(u * u * (e_ * m_ - 1.0) + b * b)
    gaps = []
    for d in (1e-3, 5e-4):
        pair = v.thin_pair_reflection(m, d, 1.0, u, q)
        gaps.append(abs(pair.phase_s - math.exp(-2.0 * b_m * d)))
    # second-order agreement: halving d shrinks the gap ~4x
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.25)
    assert gaps[0] < 5e-5


def test_pair_reflection_tracks_exact_recursion(atom):
    # correlation part of the exact recursion vs the expanded coefficients
    u, q = 0.5, 0.7
    chi, d, s = 1e-2, 1e-3, 1.0
    m = v.MaterialModel(
        electric=[v.Resonance(math.sqrt(chi), 1.0)],
        magnetic=[v.Resonance(math.sqrt(chi), 1.0)],
    )
    pair = v.thin_pair_reflection(m, d, s, u, q)
    full = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(m, d), v.Layer(v.VACUUM, s),
         v.Layer(m, d), v.Layer(v.VACUUM, math.inf)),
        4, 1.0,
    )
    front = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(m, d), v.Layer(v.VACUUM, math.inf)),
        2, 1.0,
    )
    back = v.LayerStack(
        (v.Layer(v.VACUUM, math.inf), v.Layer(m, d), v.Layer(v.VACUUM, s + d),
         v.Layer(v.VACUUM, math.inf)),
        3, 1.0,
    )
    rf = v.reflection_coefficients(full, u, np.hypot(u, q))
    r1 = v.reflection_coefficients(front, u, np.hypot(u, q))
    r2 = v.reflection_coefficients(back, u, np.hypot(u, q))
    assert rf.r_s_minus - r1.r_s_minus - r2.r_s_minus == pytest.approx(pair.r_s, rel=5e-3)
    assert rf.r_p_minus - r1.r_p_minus - r2.r_p_minus == pytest.approx(pair.r_p, rel=5e-3)
